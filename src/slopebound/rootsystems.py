"""Positive-root data for the split simple types A-G.

Roots are enumerated from the Cartan matrix by closing the set of simple
roots under addition of simple roots, using the root-string criterion.
Only the combinatorial shadow is kept: coefficient vectors over the simple
roots, from which the heights (coefficient sums) are derived.
"""

from __future__ import annotations

from ._value import Value

__all__ = ["InvalidType", "RootSystem", "build_root_system", "cartan_matrix", "parse_label"]

VALID_LETTERS = "ABCDEFG"


class InvalidType(ValueError):
    """Raised for (letter, rank) pairs that do not name a simple root system."""


def _validate(letter: str, rank: int) -> None:
    ok = {
        "A": rank >= 1,
        "B": rank >= 2,
        "C": rank >= 2,
        "D": rank >= 4,
        "E": rank in (6, 7, 8),
        "F": rank == 4,
        "G": rank == 2,
    }.get(letter, False)
    if not ok:
        raise InvalidType(f"no simple root system of type {letter}{rank}")


def cartan_matrix(letter: str, rank: int) -> list[list[int]]:
    """Cartan matrix with C[i][j] = 2(a_i, a_j)/(a_j, a_j), Bourbaki numbering.

    For a k-fold bond the entry is -k on the (long row, short column) side
    and -1 on the transposed one.
    """
    _validate(letter, rank)
    n = rank
    C = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def bond(i: int, j: int, cij: int = -1, cji: int = -1) -> None:
        C[i][j] = cij
        C[j][i] = cji

    if letter in "ABC":
        for i in range(n - 1):
            bond(i, i + 1)
        if letter == "B":  # a_n short
            bond(n - 2, n - 1, -2, -1)
        elif letter == "C":  # a_n long
            bond(n - 2, n - 1, -1, -2)
    elif letter == "D":
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 3, n - 1)
    elif letter == "E":
        for i, j in ((0, 2), (2, 3), (3, 4), (1, 3)):
            bond(i, j)
        for i in range(4, n - 1):
            bond(i, i + 1)
    elif letter == "F":
        bond(0, 1)
        bond(1, 2, -2, -1)  # a_1, a_2 long; a_3, a_4 short
        bond(2, 3)
    elif letter == "G":
        bond(0, 1, -1, -3)  # a_1 short, a_2 long
    return C


class RootSystem(Value):
    """Positive roots of a simple type, as coefficient vectors over simple roots."""

    _fields = ("letter", "rank", "positive_roots")

    @property
    def label(self) -> str:
        return f"{self.letter}{self.rank}"

    @property
    def s(self) -> int:
        """Number of positive roots."""
        return len(self.positive_roots)

    @property
    def heights(self) -> tuple[int, ...]:
        """Height (coefficient sum) of each positive root, in root order."""
        return tuple(map(sum, self.positive_roots))


def _close_under_addition(cartan: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    """All positive roots, via the root-string criterion.

    beta + a_i is a root iff q >= 1 where q = r - <beta, a_i^v>, and r is the
    number of steps beta - k*a_i stays a root.
    """
    n = len(cartan)
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    roots: set[tuple[int, ...]] = set(simple)
    frontier = list(simple)
    while frontier:
        nxt: list[tuple[int, ...]] = []
        for beta in frontier:
            for i in range(n):
                back = 0
                probe = list(beta)
                while True:
                    probe[i] -= 1
                    if probe[i] < 0 or tuple(probe) not in roots:
                        break
                    back += 1
                pairing = sum(beta[j] * cartan[j][i] for j in range(n))
                if back - pairing >= 1:
                    up = list(beta)
                    up[i] += 1
                    cand = tuple(up)
                    if cand not in roots:
                        roots.add(cand)
                        nxt.append(cand)
        frontier = nxt
    return tuple(sorted(roots, key=lambda v: (sum(v), v)))


def build_root_system(letter: str, rank: int) -> RootSystem:
    """Build the positive-root system of a valid Dynkin type.

    Roots are ordered by (height, lexicographic coefficient vector), so the
    result is deterministic. Raises InvalidType for unsupported pairs.
    """
    letter = letter.upper()
    return RootSystem(letter, rank, _close_under_addition(cartan_matrix(letter, rank)))


def parse_label(label: str) -> tuple[str, int]:
    """Split a combined label like 'A3' or 'g2' into (letter, rank)."""
    text = label.strip().upper()
    if len(text) < 2 or text[0] not in VALID_LETTERS or not text[1:].isdigit():
        raise InvalidType(f"cannot parse root-system label {label!r}")
    return text[0], int(text[1:])
