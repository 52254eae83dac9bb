"""Exact Bernoulli polynomials and power sums.

Convention: B_0 = 1, B_n'(x) = n*B_{n-1}(x), and the integral of B_n over
[0, 1] vanishes for n >= 1. This gives B_1(0) = -1/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

__all__ = ["RationalPolynomial", "bernoulli_poly", "faulhaber_sum", "power_sum"]


@dataclass(frozen=True)
class RationalPolynomial:
    """Polynomial with exact rational coefficients, constant term first.

    Normalized so the leading coefficient is non-zero; the zero polynomial
    has an empty coefficient tuple.
    """

    coefficients: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(Fraction(c) for c in self.coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coefficients) - 1

    def evaluate(self, x: Fraction | int) -> Fraction:
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def __call__(self, x: Fraction | int) -> Fraction:
        return self.evaluate(x)

    def __add__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        summed = list(a)
        for i, c in enumerate(b):
            summed[i] += c
        return RationalPolynomial(tuple(summed))

    def __sub__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        return self + RationalPolynomial(tuple(-c for c in other.coefficients))

    def shift(self, a: Fraction | int) -> "RationalPolynomial":
        """The composed polynomial x -> self(x + a), exactly."""
        a = Fraction(a)
        acc: list[Fraction] = []
        for c in reversed(self.coefficients):
            # acc <- acc * (x + a) + c
            nxt = [Fraction(0)] * (len(acc) + 1)
            for i, t in enumerate(acc):
                nxt[i + 1] += t
                nxt[i] += t * a
            nxt[0] += c
            acc = nxt
        return RationalPolynomial(tuple(acc))


@lru_cache(maxsize=None)
def bernoulli_poly(s: int) -> RationalPolynomial:
    """The Bernoulli polynomial B_s, monic of degree s, exact coefficients."""
    if s < 0:
        raise ValueError("s must be non-negative")
    if s == 0:
        return RationalPolynomial((Fraction(1),))
    # Each degree is built from the one below it, so the cache always holds
    # exactly the degrees 0..currsize-1. Filling the gap bottom-up keeps the
    # call depth at two, however large s is.
    for k in range(_bernoulli_memo.cache_info().currsize, s):
        _bernoulli_memo(k)
    prev = _bernoulli_memo(s - 1).coefficients
    # integrate s * B_{s-1}; the constant makes the [0, 1] integral vanish
    body = [Fraction(0)] + [Fraction(s) * c / (k + 1) for k, c in enumerate(prev)]
    c0 = -sum(c / (k + 1) for k, c in enumerate(body))
    return RationalPolynomial(tuple([body[0] + c0] + body[1:]))


# The cache object itself, kept apart from the public name, which a profiler
# may rebind to a wrapper that lacks cache_info.
_bernoulli_memo = bernoulli_poly


def faulhaber_sum(s: int, j: int) -> Fraction:
    """Sum of (h+1)^(s-1) over h = 0..j-1, exactly (0 for j = 0).

    Computed from B_s; the closed form (B_s(j+1) - B_s(0))/s counts the
    extra k = 0 term when s = 1 (0^0 = 1), which is subtracted here so the
    value always equals the plain sum.
    """
    if s < 1:
        raise ValueError("s must be positive")
    if j < 0:
        raise ValueError("j must be non-negative")
    poly = bernoulli_poly(s)
    total = (poly(j + 1) - poly(0)) / s
    if s == 1:
        total -= 1
    return total


def power_sum(s: int, j: int) -> Fraction:
    """Sum of h^s over h = 0..j, exactly, via (B_{s+1}(j+1) - B_{s+1}(0))/(s+1)."""
    if s < 1:
        raise ValueError("s must be positive")
    if j < 0:
        raise ValueError("j must be non-negative")
    poly = bernoulli_poly(s + 1)
    return (poly(j + 1) - poly(0)) / (s + 1)
