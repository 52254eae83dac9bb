"""Explicit constants for slope-dimension bounds.

From (s, g) this derives a threshold M past which polynomial envelopes pin
the limit profile between x^s-type bounds, the comparison curve
h(x) = c * x^((s+1)/s) with c^s = s / (g * 2^(3s+1)), and the closed-form
dimension bound m * alpha^s + n with m = 1/c^s. Every comparison against
h is performed on s-th powers, so no irrational number is ever evaluated.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from ._value import Value
from .bernoulli import RationalPolynomial, _sum_from_bernoulli, bernoulli_poly
from .plf import OutOfDomain

__all__ = [
    "BoundParams",
    "build_params",
    "compare_h",
    "compute_M",
    "dimension_bound",
    "envelope_polynomials",
    "infimum_dimension_bound",
    "sharp_dimension_bound",
]


class BoundParams(Value):
    """Derived constants for one (s, g) pair; m * c_pow_s = 1 exactly."""

    _fields = ("s", "g", "M", "c_pow_s", "m", "n")

    def __init__(self, s: int, g: int, M: int, c_pow_s: Fraction, m: Fraction, n: Fraction) -> None:
        if m * c_pow_s != 1:
            raise ValueError("m must equal 1/c^s exactly")
        if n < 0 or M < 1:
            raise ValueError("n must be non-negative and M >= 1")
        super().__init__(s, g, M, c_pow_s, m, n)

    @property
    def x_M(self) -> Fraction:
        """Left end of the domain where the comparison curve applies; equals n."""
        return self.n


def envelope_polynomials(s: int) -> tuple[RationalPolynomial, RationalPolynomial]:
    """The monic envelope pair: B_s(x+2) - B_s(0) (degree s) and B_{s+1}(x+1) - B_{s+1}(0) (degree s+1).

    Both come from the translation identity B_k(x+1) = B_k(x) + k*x^(k-1),
    with no Taylor shift:
    upper = B_s(x) - B_s(0) + s*x^(s-1) + s*(x+1)^(s-1),
    lower = B_{s+1}(x) - B_{s+1}(0) + (s+1)*x^s.
    """
    upper = [0, *bernoulli_poly(s).coefficients[1:]]
    upper[s - 1] += s
    for i in range(s):
        upper[i] += s * math.comb(s - 1, i)
    lower = [0, *bernoulli_poly(s + 1).coefficients[1:]]
    lower[s] += s + 1
    return RationalPolynomial(tuple(upper)), RationalPolynomial(tuple(lower))


def compute_M(s: int) -> int:
    """Smallest canonical integer threshold past which both envelope inequalities hold.

    For a monic degree-d polynomial with non-leading coefficients a_i,
    P(x) <= 2x^d holds for x >= max{1, d|a_i|} and P(x) >= x^d/2 for
    x >= max{1, 2d|a_i|}; M is the ceiling of the larger threshold of the
    two envelope polynomials.
    """
    if s < 1:
        raise ValueError("s must be positive")
    upper, lower = envelope_polynomials(s)
    th_upper = max([Fraction(1)] + [s * abs(c) for c in upper.coefficients[:-1]])
    th_lower = max([Fraction(1)] + [2 * (s + 1) * abs(c) for c in lower.coefficients[:-1]])
    return math.ceil(max(th_upper, th_lower))


@lru_cache(maxsize=16)
def build_params(s: int, g: int) -> BoundParams:
    """All derived constants for (s, g); memoized, as BoundParams is immutable."""
    if s < 1 or g < 1:
        raise ValueError("s and g must be positive")
    M = compute_M(s)
    c_pow_s = Fraction(s, g * 2 ** (3 * s + 1))
    m = 1 / c_pow_s
    n = g * _sum_from_bernoulli(s, M + 1)  # g*(B_s(M+2) - B_s(0))/s, uncorrected at s = 1
    return BoundParams(s=s, g=g, M=M, c_pow_s=c_pow_s, m=m, n=n)


def compare_h(params: BoundParams, x: Fraction | int, y: Fraction | int) -> int:
    """Exact ordering of h(x) = c * x^((s+1)/s) against y: -1, 0, or +1.

    Decided via c^s * x^(s+1) versus y^s, valid because both sides are
    non-negative and u -> u^s is monotone. x must be at least x_M.
    """
    x, y = Fraction(x), Fraction(y)
    if x < params.x_M:
        raise OutOfDomain(f"x = {x} below x_M = {params.x_M}")
    if y < 0:
        raise ValueError("y must be non-negative")
    lhs = params.c_pow_s * x ** (params.s + 1)
    rhs = y**params.s
    return (lhs > rhs) - (lhs < rhs)


def dimension_bound(params: BoundParams, alpha: Fraction | int) -> Fraction:
    """The closed-form bound m * alpha^s + n."""
    alpha = Fraction(alpha)
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    return params.m * alpha**params.s + params.n


def sharp_dimension_bound(params: BoundParams, alpha: Fraction | int) -> Fraction:
    """The sharper bound m * alpha^s, valid once alpha >= M."""
    alpha = Fraction(alpha)
    if alpha < params.M:
        raise ValueError(f"sharp bound requires alpha >= M = {params.M}")
    return params.m * alpha**params.s


def infimum_dimension_bound(params: BoundParams, alpha: Fraction | int) -> Fraction:
    """Case-split value of the intersection argument: m * alpha^s when that is >= x_M, else n."""
    alpha = Fraction(alpha)
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    candidate = params.m * alpha**params.s
    return candidate if candidate >= params.x_M else params.n
