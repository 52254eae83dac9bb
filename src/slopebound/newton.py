"""Exact Newton polygons of integer matrices at a prime p.

The polygon is the lower convex hull of (i, v_p(c_i)) over the non-zero
characteristic-polynomial coefficients; its slopes with multiplicity are the
p-adic valuations of the eigenvalues. Vanishing coefficients contribute no
hull point and are reported separately as infinite slopes.

The coefficients come from one O(t^3) kernel over Z/p^P that loses no
precision (Caruso-Roe-Vaccon, "Tracking p-adic precision", 2014).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, log, prod
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
    "matrix_newton_polygon",
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


def _char_poly_mod(entries: tuple[tuple[int, ...], ...], p: int, P: int) -> list[int]:
    """Residues in [0, p^P) of [1, c_1, ..., c_t], det(X*I - M) = sum c_i X^(t-i)."""
    q = p**P
    h = [list(row) for row in entries]
    n = len(h)
    # Hessenberg reduction: column k pivots on an entry of least valuation (its content's),
    # so each step is a similarity by an integer matrix with an integer inverse. A row is
    # reduced mod q only when it becomes the pivot row: a row operation adds products of two
    # reduced factors, and the column operation products of a reduced f_i with such sums, so
    # nothing compounds from step to step.
    for k in range(n - 2):
        if not (content := gcd(*[row[k] % q for row in h[k + 1:]])):
            continue
        unit = p ** _valuation(content, p)
        if h[k + 1][k] % (unit * p) == 0:  # conjugate by a transposition first
            piv = next(i for i in range(k + 2, n) if h[i][k] % (unit * p))
            h[k + 1], h[piv] = h[piv], h[k + 1]
            for row in h:
                row[k + 1], row[piv] = row[piv], row[k + 1]
        h[k + 1][k:] = pivot = [x % q for x in h[k + 1][k:]]
        inverse = pow(pivot[0] // unit, -1, q)
        # conjugate by I - sum f_i E_(i,k+1): rows i > k+1 lose f_i * row k+1, then column k+1
        # gains sum f_i * column i
        fs = [row[k] // unit * inverse % q for row in h[k + 2:]]
        for row, f in zip(h[k + 2:], fs):
            row[k:] = [a - f * b for a, b in zip(row[k:], pivot)]
        for row in h:
            row[k + 1] = sum(map(mul, fs, row[k + 2:]), row[k + 1])
    # p_(k+1) = (X - h_kk) p_k - sum_(i<k) h_ik h_(i+1,i) ... h_(k,k-1) p_i for the polynomial
    # p_i of the leading i-block, lowest power first; cols[m] holds the X^m coefficients of
    # p_m, p_(m+1), ..., so each coefficient of p_(k+1) is one dot product
    cols, poly = [[1]], [1]
    for k in range(n):
        cs, product = [0] * k, 1
        for i in range(k - 1, -1, -1):
            product = product * h[i + 1][i] % q
            cs[i] = h[i][k] * product % q
        d = h[k][k] % q
        poly = [(low - d * c - sum(map(mul, cs[m:], col))) % q
                for m, (low, c, col) in enumerate(zip([0] + poly, poly, cols))] + [1]
        for col, c in zip(cols, poly):
            col.append(c)
        cols.append([1])
    return poly[::-1]


def _exact_precision(entries: tuple[tuple[int, ...], ...], p: int) -> int:
    """Least P with p^P > 2 * prod_l (2 + isqrt(|column l|^2)), twice a Hadamard bound on every |c_i|."""
    bound = 2 * prod(2 + isqrt(sum(x * x for x in column)) for column in zip(*entries))
    P = int(log(bound, p))  # the least P, or at most two below it
    while p**P <= bound:
        P += 1
    return P


def char_poly(matrix: IntegerMatrix) -> list[int]:
    """Coefficients [1, c_1, ..., c_t] of det(X*I - M) = sum c_i X^(t-i).

    The kernel's residues mod 2^P, for 2^P past twice the Hadamard bound, lifted symmetrically.
    """
    q = 2 ** (P := _exact_precision(matrix.entries, 2))
    return [c - q if 2 * c > q else c for c in _char_poly_mod(matrix.entries, 2, P)]


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


# Callers reuse a polygon only right after computing it (once per alpha in
# verify_corollary), so a small memo suffices; a large one keeps big matrices
# alive for nothing.
@lru_cache(maxsize=8)
def matrix_newton_polygon(matrix: IntegerMatrix, p: int) -> NewtonPolygon:
    """Newton polygon at p of the characteristic polynomial of `matrix`.

    det is multilinear in the columns, so v_p(det) is at least the valuation of
    the product of their contents; the kernel runs 8 digits above that. If c_t is
    not 0 mod p^P, v_p(c_t) < P, and each c_i that is 0 mod p^P has valuation at
    least P, so it lies above the chord from (0, 0) to (t, v_p(c_t)) and off the
    hull. Otherwise it runs once more, at the precision where the residues are
    the coefficients themselves, which also settles a singular matrix.
    """
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    entries = matrix.entries
    residues = _char_poly_mod(entries, p, 8 + _valuation(prod(filter(None, map(gcd, *entries))), p))
    if not residues[-1]:
        residues = _char_poly_mod(entries, p, _exact_precision(entries, p))
    return newton_polygon(residues, p)


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
    return matrix_newton_polygon(matrix, p).dominates(bound)
