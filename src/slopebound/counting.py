"""Counting height-weighted tuples and the divisor multiset they induce.

N_h counts tuples n in N_0^s with sum n_i * ht_i = h over the height
multiset of a root system. The truncation divisor sequence lists the
prime-power exponents (r - h), each repeated g * N_h times for h < r: one
lazy run-length expansion of N_0..N_{r-1}, so its first t entries cost O(t).
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import accumulate, chain, product, repeat
from operator import index, mul

from ._value import Value
from .rootsystems import RootSystem

__all__ = ["TooLarge", "ElemDivSeq", "count_nh", "count_nh_bruteforce", "truncation_divisors"]

BRUTEFORCE_GUARD = 10**8


class TooLarge(ValueError):
    """Raised when a brute-force enumeration would exceed the guard."""


class ElemDivSeq(Value):
    """Non-increasing sequence of positive prime-power exponents.

    The empty sequence is the trivial group. The exponent multiset is
    meaningful independently of which prime it refers to.
    """

    _fields = ("exponents",)

    def __init__(self, exponents: tuple[int, ...]) -> None:
        try:
            exponents = tuple(map(index, exponents))
        except TypeError:
            raise ValueError("exponents must be integers") from None
        if any(e <= 0 for e in exponents):
            raise ValueError("exponents must be strictly positive")
        if any(a < b for a, b in zip(exponents, exponents[1:])):
            raise ValueError("exponents must be non-increasing")
        super().__init__(exponents)

    def __len__(self) -> int:
        return len(self.exponents)

    def padded(self, t: int) -> tuple[int, ...]:
        """The exponents extended by zeros up to length t (t >= len)."""
        if t < len(self.exponents):
            raise ValueError(f"cannot pad length {len(self.exponents)} down to {t}")
        return self.exponents + (0,) * (t - len(self.exponents))


def count_nh(system: RootSystem, H: int) -> tuple[int, ...]:
    """Exact counts (N_0, ..., N_H): the series prod_h (1 - x^h)^(-k_h) up to x^H, k_h the number
    of positive roots of height h, so only h <= H takes part.

    Along each residue class mod h, multiplying by (1 - x^h)^(-k) is a k-fold prefix sum, and
    also the convolution with the binomial series sum_j C(k+j-1, j) x^(hj); a class has
    L + 1 <= H // h + 1 terms, so the k prefix sums cost k (L + 1) and the convolution about
    (L + 1)^2 / 2, and the cheaper one is taken.
    """
    if H < 0:
        raise ValueError("H must be non-negative")
    values = [0] * (H + 1)
    values[0] = 1
    for h, k in enumerate(system.height_counts(H), 1):
        if k <= H // h:
            for _ in range(k):
                for c in range(h):
                    values[c::h] = accumulate(values[c::h])
        else:
            series = list(accumulate(range(1, H // h + 1), lambda b, j: b * (k + j - 1) // j, initial=1))
            for c in range(h):
                terms = values[c::h]
                values[c::h] = [sum(map(mul, series, terms[m::-1])) for m in range(len(terms))]
    return tuple(values)


def count_nh_bruteforce(system: RootSystem, H: int) -> tuple[int, ...]:
    """Independent oracle for count_nh by direct tuple enumeration.

    Enumerates every tuple with n_i <= H // ht_i (a coordinate beyond that
    bound cannot occur in a solution with sum <= H) and tallies exact sums.
    """
    if H < 0:
        raise ValueError("H must be non-negative")
    if (H + 1) ** system.s > BRUTEFORCE_GUARD:
        raise TooLarge(f"(H+1)^s = {(H + 1) ** system.s} exceeds {BRUTEFORCE_GUARD}")
    heights = system.heights
    values = [0] * (H + 1)
    for tup in product(*(range(H // ht + 1) for ht in heights)):
        total = sum(n * ht for n, ht in zip(tup, heights))
        if total <= H:
            values[total] += 1
    return tuple(values)


def _divisor_exponents(system: RootSystem, g: int, r: int) -> Iterator[int]:
    """The exponents r - h, each repeated g*N_h times for h = 0..r-1, lazily in that order."""
    if g < 1 or r < 1:
        raise ValueError("g and r must be positive")
    return chain.from_iterable(repeat(r - h, g * n) for h, n in enumerate(count_nh(system, r - 1)))


def truncation_divisors(system: RootSystem, g: int, r: int) -> ElemDivSeq:
    """Exponent sequence (r repeated g*N_0 times, r-1 repeated g*N_1 times, ..., 1 repeated g*N_{r-1} times)."""
    return ElemDivSeq(exponents=tuple(_divisor_exponents(system, g, r)))
