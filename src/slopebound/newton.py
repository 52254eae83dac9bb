"""Exact Newton polygons of integer matrices at a prime p.

The polygon is the lower convex hull of (i, v_p(c_i)) over the non-zero
characteristic-polynomial coefficients; its slopes with multiplicity are the
p-adic valuations of the eigenvalues. Vanishing coefficients contribute no
hull point and are reported separately as infinite slopes.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import index, mul

from ._value import Value
from .plf import DomainTooShort, PiecewiseLinear

__all__ = [
    "IntegerMatrix",
    "NewtonPolygon",
    "NotMonic",
    "NotPrime",
    "char_poly",
    "check_lower_bound",
    "newton_polygon",
    "slope_le_dimension",
]


class NotMonic(ValueError):
    """Coefficient list does not start with 1."""


class NotPrime(ValueError):
    """The given modulus is not a prime number."""


class IntegerMatrix(Value):
    """Square matrix of arbitrary-precision integers."""

    _fields = ("entries",)

    def __init__(self, entries: tuple[tuple[int, ...], ...]) -> None:
        try:
            rows = tuple(tuple(map(index, row)) for row in entries)
        except TypeError:
            raise ValueError("entries must be integers") from None
        if not rows or any(len(row) != len(rows) for row in rows):
            raise ValueError("matrix must be square and non-empty")
        super().__init__(rows)

    @property
    def t(self) -> int:
        return len(self.entries)

    @classmethod
    def diagonal(cls, values: list[int] | tuple[int, ...]) -> "IntegerMatrix":
        n = len(values)
        return cls(tuple(tuple(values[i] if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def identity(cls, n: int) -> "IntegerMatrix":
        return cls.diagonal([1] * n)


class NewtonPolygon(Value):
    """Finite part of a Newton polygon plus the count of infinite slopes."""

    _fields = ("polygon", "finite_length", "infinite_slopes")

    def slopes(self) -> tuple[tuple[Fraction, int], ...]:
        """Finite (slope, horizontal length) pairs, slopes non-decreasing."""
        pts = self.polygon.breakpoints
        return tuple(
            ((y1 - y0) / (x1 - x0), int(x1 - x0)) for (x0, y0), (x1, y1) in zip(pts, pts[1:])
        )

    def dominates(self, bound: PiecewiseLinear) -> bool:
        """Whether the polygon lies on or above `bound`.

        The bound must be defined on [0, t]; dominance is decided on the finite
        part [0, finite_length], the infinite-slope columns dominating trivially.
        """
        t = self.finite_length + self.infinite_slopes
        if not bound.defined_on(t):
            raise DomainTooShort(f"bound only defined up to {bound.domain_end}, need {t}")
        return self.polygon.dominates(bound, self.finite_length)


def char_poly(matrix: IntegerMatrix) -> list[int]:
    """Coefficients [1, c_1, ..., c_t] of det(X*I - M) = sum c_i X^(t-i).

    Division-free Berkowitz over the integers. Results are memoized on the
    (immutable) matrix for the few most recent matrices.
    """
    return list(_char_poly_cached(matrix))


# Callers reuse a polynomial only right after computing it (once per alpha
# in verify_corollary), so a small memo suffices; a large one keeps big
# matrices and their coefficients alive for nothing.
@lru_cache(maxsize=8)
def _char_poly_cached(matrix: IntegerMatrix) -> tuple[int, ...]:
    a = matrix.entries
    coeffs = [1]
    for k in range(len(a)):
        # Leading (k+1)-block = [[A, col], [row, d]]: its polynomial is the
        # Toeplitz product of q = (1, -d, -row.col, -row.A.col, ...,
        # -row.A^(k-1).col) with the polynomial of A.
        block = [r[:k] for r in a[:k]]
        row = a[k][:k]
        vec = [r[k] for r in a[:k]]
        q = [1, -a[k][k]]
        for j in range(k):
            if j:
                vec = [sum(map(mul, r, vec)) for r in block]
            q.append(-sum(map(mul, row, vec)))
        coeffs = [
            sum(q[i - j] * coeffs[j] for j in range(min(i, k) + 1)) for i in range(k + 2)
        ]
    return tuple(coeffs)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    if n % 3 == 0:
        return n == 3
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


def _valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _lower_hull(points: list[tuple[int, int]]) -> list[tuple[int, int]]:
    hull: list[tuple[int, int]] = []
    for pt in points:
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            if (x1 - x0) * (pt[1] - y0) - (y1 - y0) * (pt[0] - x0) <= 0:
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


def newton_polygon(coeffs: list[int], p: int) -> NewtonPolygon:
    """Newton polygon of a monic integer polynomial given as [1, c_1, ..., c_t]."""
    if not coeffs or coeffs[0] != 1:
        raise NotMonic(f"leading coefficient must be 1, got {coeffs[:1]}")
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    t = len(coeffs) - 1
    points = [(i, _valuation(c, p)) for i, c in enumerate(coeffs) if c != 0]
    finite_length = points[-1][0]
    return NewtonPolygon(PiecewiseLinear(_lower_hull(points)), finite_length, t - finite_length)


def slope_le_dimension(np_: NewtonPolygon, alpha: Fraction | int) -> int:
    """Total horizontal length of finite-slope segments with slope <= alpha."""
    alpha = Fraction(alpha)
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    total = 0
    for slope, length in np_.slopes():
        if slope > alpha:
            break
        total += length
    return total


def check_lower_bound(matrix: IntegerMatrix, p: int, bound: PiecewiseLinear) -> bool:
    """Whether the Newton polygon of the matrix at p dominates `bound` on [0, t]."""
    return newton_polygon(char_poly(matrix), p).dominates(bound)
