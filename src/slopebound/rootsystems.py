"""Positive-root heights of the split simple types A-G.

Only the multiset of positive-root heights is used, and the exponents
m_1..m_n of the type determine it: exactly k_h = #{i : m_i >= h} positive
roots have height h, the partition dual to the exponents (Kostant 1959;
Humphreys, "Reflection Groups and Coxeter Groups", 1990, section 3.20). So
the number s of positive roots is the sum of the exponents. For the classical
series both come in closed form from their exponents (1, 2, ..., n for A_n,
1, 3, ..., 2n-1 for B_n and C_n, 1, 3, ..., 2n-3 and n-1 for D_n), so neither
a root nor a rank-sized tuple is ever built.
"""

from __future__ import annotations

from itertools import chain, count, repeat
from operator import index

from ._value import Value

__all__ = ["InvalidType", "RootSystem", "build_root_system", "parse_label"]

VALID_LETTERS = "ABCDEFG"

# least rank of each classical series; the exceptional types are listed in full
_LEAST_RANK = {"A": 1, "B": 2, "C": 2, "D": 4}
_EXCEPTIONAL_EXPONENTS = {
    ("E", 6): (1, 4, 5, 7, 8, 11),
    ("E", 7): (1, 5, 7, 9, 11, 13, 17),
    ("E", 8): (1, 7, 11, 13, 17, 19, 23, 29),
    ("F", 4): (1, 5, 7, 11),
    ("G", 2): (1, 5),
}


class InvalidType(ValueError):
    """Raised for (letter, rank) pairs that do not name a simple root system."""


class RootSystem(Value):
    """A simple type, by its letter and rank; its heights come from its exponents."""

    _fields = ("letter", "rank")

    def __init__(self, letter: str, rank: int) -> None:
        try:
            rank = index(rank)
        except TypeError:
            raise InvalidType(f"no simple root system of type {letter}{rank!r}") from None
        if letter in _LEAST_RANK:
            ok = rank >= _LEAST_RANK[letter]
        else:
            ok = (letter, rank) in _EXCEPTIONAL_EXPONENTS
        if not ok:
            raise InvalidType(f"no simple root system of type {letter}{rank}")
        super().__init__(letter, rank)

    @property
    def label(self) -> str:
        return f"{self.letter}{self.rank}"

    @property
    def s(self) -> int:
        """Number of positive roots: the sum of the exponents."""
        n = self.rank
        if self.letter == "A":
            return n * (n + 1) // 2
        if self.letter in ("B", "C"):
            return n * n
        if self.letter == "D":
            return n * (n - 1)
        return sum(_EXCEPTIONAL_EXPONENTS[self.letter, n])

    def height_counts(self, H: int) -> tuple[int, ...]:
        """(k_1, ..., k_min(H, M)), M the largest exponent: k_h = #{i : m_i >= h} positive roots have
        height h."""
        n = self.rank
        if self.letter == "A":  # n - h + 1 of 1, ..., n
            top, k = n, lambda h: n - h + 1
        elif self.letter in ("B", "C"):  # n - floor(h/2) of 1, 3, ..., 2n - 1
            top, k = 2 * n - 1, lambda h: n - h // 2
        elif self.letter == "D":  # n - 1 - floor(h/2) of 1, 3, ..., 2n - 3, and n - 1 itself
            top, k = 2 * n - 3, lambda h: n - 1 - h // 2 + (h <= n - 1)
        else:
            exponents = _EXCEPTIONAL_EXPONENTS[self.letter, n]
            top, k = max(exponents), lambda h: sum(m >= h for m in exponents)
        return tuple(map(k, range(1, min(H, top) + 1)))

    @property
    def heights(self) -> tuple[int, ...]:
        """Height of each positive root, non-decreasing: h appears k_h times."""
        # no exponent exceeds s, their sum
        return tuple(chain.from_iterable(map(repeat, count(1), self.height_counts(self.s))))


def build_root_system(letter: str, rank: int) -> RootSystem:
    """The root system of a valid Dynkin type; raises InvalidType for unsupported pairs."""
    return RootSystem(letter.upper(), rank)


def parse_label(label: str) -> tuple[str, int]:
    """Split a combined label like 'A3' or 'g2' into (letter, rank)."""
    text = label.strip().upper()
    if len(text) < 2 or text[0] not in VALID_LETTERS or not text[1:].isdigit():
        raise InvalidType(f"cannot parse root-system label {label!r}")
    return text[0], int(text[1:])
