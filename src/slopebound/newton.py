"""Exact Newton polygons of integer matrices at a prime p.

The polygon is the lower convex hull of (i, v_p(c_i)) over the non-zero
characteristic-polynomial coefficients; its slopes with multiplicity are the
p-adic valuations of the eigenvalues. Vanishing coefficients contribute no
hull point and are reported separately as infinite slopes.

The coefficients come from one O(t^3) kernel, a Hessenberg reduction followed
by the Hessenberg recurrence, that tracks p-adic precision column by column
(Caruso-Roe-Vaccon, "Tracking p-adic precision", 2014). It writes
M = A * diag(p^e), e_j the valuation of column j's content, and keeps A mod
p^s. A principal i-minor of M is p^(sum of its e_j) times the minor of A, so:
  - p^H(i) divides c_i, H(i) the sum of the i least e_j (Newton lies above
    Hodge; Mazur, "Frobenius and the Hodge filtration", 1972);
  - changing a column of A by a multiple of p^s moves c_i by a multiple of
    p^(H(i)+s), because det is multilinear in the columns.
Each step of the reduction is a similarity of M by an integer matrix with an
integer inverse, such a change of A, or a lowering of one e_j that leaves M as
it is. Lowering only decreases H, so the kernel knows c_i mod p^(H(i)+s) for
the final H.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import gcd, isqrt, prod
from operator import floordiv, index, mul

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


# digits kept above the Hodge bound: matrix_newton_polygon reads c_i mod p^(H(i) + _SLACK)
_SLACK = 8


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


class NewtonPolygon(Value):
    """Finite part of a Newton polygon plus the count of infinite slopes."""

    _fields = ("polygon", "infinite_slopes")

    @property
    def finite_length(self) -> int:
        """Where the finite part ends: the x of the hull's last vertex, the last non-zero coefficient."""
        return int(self.polygon.breakpoints[-1][0])

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
        finite_length = self.finite_length
        t = finite_length + self.infinite_slopes
        if not bound.defined_on(t):
            raise DomainTooShort(f"bound only defined up to {bound.domain_end}, need {t}")
        return self.polygon.dominates(bound, finite_length)


def _char_poly_mod(entries: tuple[tuple[int, ...], ...], p: int, s: int) -> tuple[list[int], list[int]]:
    """Residues [1, c_1 mod p^(H(1)+s), ..., c_t mod p^(H(t)+s)] of det(X*I - M) = sum c_i X^(t-i),
    and the Hodge bound [H(0), ..., H(t)], H(i) the sum of the i least column scales e_j."""
    q = p**s
    n = len(entries)
    # M = A * diag(p^e), e_j at first the valuation of column j's content (0 for a zero column).
    # Each step is a similarity of M by an integer matrix with an integer inverse, or changes a
    # column of A by a multiple of q; a row of A is reduced mod q when it becomes the pivot row.
    e = [_valuation(c, p) if c else 0 for c in map(gcd, *entries)]
    scales = [p**x for x in e]
    a = [list(map(floordiv, row, scales)) for row in entries]
    for k in range(n - 2):
        # column k pivots on an entry of least valuation
        if not (content := gcd(*[row[k] % q for row in a[k + 1:]])):
            continue
        unit = p ** _valuation(content, p)
        if a[k + 1][k] % (unit * p) == 0:  # conjugate by a transposition first
            piv = next(i for i in range(k + 2, n) if a[i][k] % (unit * p))
            a[k + 1], a[piv] = a[piv], a[k + 1]
            for row in a:
                row[k + 1], row[piv] = row[piv], row[k + 1]
            e[k + 1], e[piv] = e[piv], e[k + 1]
            scales[k + 1], scales[piv] = scales[piv], scales[k + 1]
        a[k + 1][k:] = pivot = [x % q for x in a[k + 1][k:]]
        inverse = pow(pivot[0] // unit, -1, q)
        # conjugate by I - sum f_i E_(i,k+1): rows i > k+1 lose f_i * row k+1, then column k+1
        # of M gains sum f_i * column i, so column k+1 of A gains f_i p^e_i / p^e_(k+1) times
        # column i of A. Where a quotient is fractional, e_(k+1) first drops to the least
        # v_p(f_i p^e_i), which multiplies column k+1 of A and leaves M as it is.
        fs = [row[k] // unit * inverse % q for row in a[k + 2:]]
        for row, f in zip(a[k + 2:], fs):
            row[k:] = [x - f * y for x, y in zip(row[k:], pivot)]
        terms = list(map(mul, fs, scales[k + 2:]))
        if (common := gcd(*terms)) % scales[k + 1]:
            e[k + 1] = _valuation(common, p)
            lift = scales[k + 1] // p ** e[k + 1] % q
            scales[k + 1] = p ** e[k + 1]
            for row in a:
                row[k + 1] *= lift
        scale = scales[k + 1]
        for row in a:
            row[k + 1] += sum(map(mul, terms, row[k + 2:])) // scale
    # p_(k+1) = (X - h_kk) p_k - sum_(i<k) h_ik h_(i+1,i) ... h_(k,k-1) p_i for the polynomial
    # p_i of the leading i-block of h = A * diag(p^e), lowest power first; cols[m] holds the X^m
    # coefficients of p_m, p_(m+1), ..., so each coefficient of p_(k+1) is one dot product
    hodge = list(accumulate(sorted(e), initial=0))
    Q = p ** (hodge[-1] + s)
    sub = [a[i + 1][i] * scales[i] % Q for i in range(n - 1)]
    cols, poly = [[1]], [1]
    for k in range(n):
        cs, product = [0] * k, scales[k]
        for i in range(k - 1, -1, -1):
            product = product * sub[i] % Q
            cs[i] = a[i][k] * product % Q
        d = a[k][k] * scales[k] % Q
        poly = [(low - d * c - sum(map(mul, cs[m:], col))) % Q
                for m, (low, c, col) in enumerate(zip([0] + poly, poly, cols))] + [1]
        for col, c in zip(cols, poly):
            col.append(c)
        cols.append([1])
    return [c % p ** (h + s) for c, h in zip(reversed(poly), hodge)], hodge


def _exact_precision(entries: tuple[tuple[int, ...], ...]) -> int:
    """Least P with 2^P > 2 * prod_l (2 + isqrt(|column l|^2)), twice a Hadamard bound on every |c_i|."""
    return (2 * prod(2 + isqrt(sum(x * x for x in column)) for column in zip(*entries))).bit_length()


def char_poly(matrix: IntegerMatrix) -> list[int]:
    """Coefficients [1, c_1, ..., c_t] of det(X*I - M) = sum c_i X^(t-i).

    The kernel's residues at p = 2 with 2^s past twice the Hadamard bound, so every modulus
    2^(H(i)+s) exceeds 2|c_i|, lifted symmetrically.
    """
    residues, hodge = _char_poly_mod(matrix.entries, 2, s := _exact_precision(matrix.entries))
    return [c - q if 2 * c > q else c for c, q in zip(residues, [2 ** (h + s) for h in hodge])]


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
    points = [(i, _valuation(c, p)) for i, c in enumerate(coeffs) if c != 0]
    # the coefficients after the last non-zero one are the infinite slopes
    return NewtonPolygon(PiecewiseLinear(_lower_hull(points)), len(coeffs) - 1 - points[-1][0])


# Callers reuse a polygon only right after computing it (once per alpha in
# verify_corollary), so a small memo suffices; a large one keeps big matrices
# alive for nothing.
@lru_cache(maxsize=8)
def matrix_newton_polygon(matrix: IntegerMatrix, p: int) -> NewtonPolygon:
    """Newton polygon at p of the characteristic polynomial of `matrix`.

    The kernel gives each c_i mod p^(H(i)+s), s = _SLACK. A non-zero residue fixes
    v_p(c_i), counted from H(i) on since p^H(i) divides c_i; a zero one only says
    v_p(c_i) >= H(i)+s. So the hull of the known
    points is the polygon when c_t's residue is non-zero and every point
    (i, H(i)+s) of a zero residue lies on or above it, i.e. is no vertex of the
    hull of all the points. Otherwise the polygon comes from the exact
    coefficients, through char_poly, which also settles a singular matrix.
    """
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    residues, hodge = _char_poly_mod(matrix.entries, p, _SLACK)
    if residues[-1]:
        hull = _lower_hull([(i, h + (_valuation(c // p**h, p) if c else _SLACK))
                            for i, (c, h) in enumerate(zip(residues, hodge))])
        if all(residues[i] for i, _ in hull):
            return NewtonPolygon(PiecewiseLinear(hull), 0)
    return newton_polygon(char_poly(matrix), p)


def slope_le_dimension(np_: NewtonPolygon, alpha: Fraction | int) -> int:
    """Total horizontal length of finite-slope segments with slope <= alpha."""
    alpha = Fraction(alpha)
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    # the slopes do not decrease, so the segments up to the first steeper one end at its start
    pts = np_.polygon.breakpoints
    end = 0
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        if y1 - y0 > alpha * (x1 - x0):
            break
        end = x1
    return int(end)


def check_lower_bound(matrix: IntegerMatrix, p: int, bound: PiecewiseLinear) -> bool:
    """Whether the Newton polygon of the matrix at p dominates `bound` on [0, t]."""
    return matrix_newton_polygon(matrix, p).dominates(bound)
