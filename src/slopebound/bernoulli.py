"""Exact Bernoulli polynomials and power sums.

Bernoulli numbers from tangent numbers (Brent-Harvey), polynomials by
binomial expansion: B_s(x) = sum_i comb(s, i) * B_{s-i} * x^i.

Convention: B_0 = 1, B_n'(x) = n*B_{n-1}(x), and the integral of B_n over
[0, 1] vanishes for n >= 1. This gives B_1(0) = -1/2.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import zip_longest

from ._value import Value

__all__ = ["RationalPolynomial", "bernoulli_poly", "faulhaber_sum", "power_sum"]


class RationalPolynomial(Value):
    """Polynomial with exact rational coefficients, constant term first.

    Normalized so the leading coefficient is non-zero; the zero polynomial
    has an empty coefficient tuple.
    """

    _fields = ("coefficients",)

    def __init__(self, coefficients: tuple[Fraction, ...]) -> None:
        coeffs = tuple(Fraction(c) for c in coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        super().__init__(coeffs)

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coefficients) - 1

    @cached_property
    def _integer_form(self) -> tuple[int, tuple[int, ...]]:
        """D, the least common denominator of the coefficients, and the coefficients of D * self."""
        den = math.lcm(*(c.denominator for c in self.coefficients))
        return den, tuple(c.numerator * (den // c.denominator) for c in self.coefficients)

    def evaluate(self, x: Fraction | int) -> Fraction:
        """The exact value at x, with one reduction instead of one per coefficient.

        D * self, with D the least common denominator of the coefficients (both
        computed once per polynomial), is evaluated in integers at x = u/v,
        homogenised: neighbouring terms combine pairwise, lo * v^w + hi * u^w,
        with w = 1, 2, 4, ... (Estrin's scheme), so the value is the last term
        over D * v^(w - 1).
        """
        x = Fraction(x)
        u, v = x.numerator, x.denominator
        den, terms = self._integer_form
        if not terms:
            return Fraction(0)
        width = 1
        while len(terms) > 1:
            if width > 1:
                u *= u
                v *= v
            pairs = zip_longest(terms[::2], terms[1::2], fillvalue=0)
            terms = [lo + hi * u for lo, hi in pairs] if v == 1 else [lo * v + hi * u for lo, hi in pairs]
            width *= 2
        return Fraction(terms[0], den * x.denominator ** (width - 1))

    def __call__(self, x: Fraction | int) -> Fraction:
        return self.evaluate(x)


# B_0, B_1, ... as far as any call has needed them. The tangent recurrence
# has no incremental form, so a longer request rebuilds the table.
_numbers: list[Fraction] = [Fraction(1), Fraction(-1, 2)]


def _bernoulli_numbers(n: int) -> list[Fraction]:
    """B_0..B_n (B_1 = -1/2, odd B_k = 0 for k >= 3), from the shared table.

    Brent-Harvey: the tangent numbers T_1..T_K come from an O(K^2) recurrence
    in Python ints, and B_2k = (-1)^(k-1) * 2k * T_k / (4^k * (4^k - 1)). A
    rebuild reaches B_{n+1}, so the envelope pair's B_{s+1} after B_s is
    served from the same table.
    """
    if n >= len(_numbers):
        K = (n + 1) // 2  # B_2K is the last non-zero number up to B_{n+1}
        T = [0, 1] + [0] * (K - 1)
        for k in range(2, K + 1):
            T[k] = (k - 1) * T[k - 1]
        for k in range(2, K + 1):
            for j in range(k, K + 1):
                T[j] = (j - k) * T[j - 1] + (j - k + 2) * T[j]
        table = [Fraction(1), Fraction(-1, 2)]
        for k in range(1, K + 1):
            four_k = 4**k
            b = Fraction(2 * k * T[k], four_k * (four_k - 1))
            table += [b if k % 2 else -b, Fraction(0)]
        _numbers[:] = table
    return _numbers[: n + 1]


@lru_cache(maxsize=None)
def bernoulli_poly(s: int) -> RationalPolynomial:
    """The Bernoulli polynomial B_s, monic of degree s: coefficient of x^i is comb(s, i) * B_{s-i}."""
    if s < 0:
        raise ValueError("s must be non-negative")
    numbers = _bernoulli_numbers(s)
    return RationalPolynomial(tuple(math.comb(s, i) * numbers[s - i] for i in range(s + 1)))


def _sum_from_bernoulli(k: int, j: int) -> Fraction:
    """(B_k(j+1) - B_k(0))/k: the sum of h^(k-1) over h = 0..j, counting 0^0 as 1.

    B_k(0) is B_k's constant coefficient, read rather than evaluated.
    """
    if j < 0:
        raise ValueError("j must be non-negative")
    poly = bernoulli_poly(k)
    return (poly(j + 1) - poly.coefficients[0]) / k


def faulhaber_sum(s: int, j: int) -> Fraction:
    """Sum of (h+1)^(s-1) over h = 0..j-1, exactly (0 for j = 0).

    Computed from B_s; the closed form (B_s(j+1) - B_s(0))/s counts the
    extra k = 0 term when s = 1 (0^0 = 1), which is subtracted here so the
    value always equals the plain sum.
    """
    if s < 1:
        raise ValueError("s must be positive")
    total = _sum_from_bernoulli(s, j)
    return total - 1 if s == 1 else total


def power_sum(s: int, j: int) -> Fraction:
    """Sum of h^s over h = 0..j, exactly, via (B_{s+1}(j+1) - B_{s+1}(0))/(s+1)."""
    if s < 1:
        raise ValueError("s must be positive")
    return _sum_from_bernoulli(s + 1, j)
