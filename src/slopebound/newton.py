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
the final H. Where the e_j are not non-decreasing, M is first conjugated by the
stable permutation that sorts them: chi is unchanged and the column contents are
only permuted, and with no later scale below an earlier one _pivot lowers
nothing until a transposition disorders them. A step writes only entries that
are read again: the pivot row keeps its entries, whose residues mod p^s drive
the step, and the column being cleared keeps its entries below the subdiagonal,
which nothing reads. So the entries that are read differ from a full
reduction's by multiples of p^s, and the stored A is upper Hessenberg only in
them. For t >= 8 and a modulus below 2^113 the reduction runs on one int per
column with fixed-width fields (Kronecker substitution; Harvey, "Faster polynomial
multiplication via multipoint Kronecker substitution", 2009), else on rows of
ints. The packed form packs M's columns and divides each packed column once,
exactly, since the scale divides every entry; its fields carry a bias that is a
multiple of p^s, so a field is congruent to its entry mod p^s and is read with
nothing subtracted. The rows form hands every step to _pivot, which decides it
from the residues mod p^s of the column below the diagonal. The packed form
reads that column's fields from the subdiagonal down, takes the first unit mod
p as the pivot, as _pivot would, and builds the multipliers from the fields;
only a column with no unit below the diagonal goes to _pivot. Both take a step's
scale rule from one routine, _lift, so the forms take the same steps and differ
only in how they store A. The rows form hands A to the recurrence by columns,
the packed form as its ints, whose Hessenberg fields the recurrence reads as
they are: the bias changes each column of A by multiples of p^s, which moves no
residue, so nothing is subtracted. The recurrence then runs at a balanced column
scale lam, near the mean of the e_j: it computes
g(Y) = det(Y diag(p^d+) - A diag(p^d-)) = p^(D+ - lam t) det(p^lam Y - M), with
d+_j = (lam - e_j)+, d-_j = (e_j - lam)+ and D+, E- their sums, so
c_i = p^(lam i - D+) g_(t-i). The residues c_i mod p^(H(i)+s) need g only mod
Q = p^(s + max(D+, E-)), where the plain recurrence (lam = 0) needs
p^(H(t)+s): about 2^20 against 2^120 at t = 40 and p = 2 when most e_j are
alike. For t >= 8 and Q below 2^256 the recurrence holds each polynomial as
one int with fixed-width fields and reduces every field at once (Barrett),
else lists of ints; both take each step's coefficients from one routine,
_steps. The exact coefficients, char_poly, are the symmetric lift of the
kernel's residues at p = 2 with 2^s past twice the Hadamard bound.

A matrix's polygon takes the kernel at s = 8, and again at s = 16 when 8 digits
cannot certify the hull; only a polygon neither run certifies (a singular or a
very deep matrix) takes the exact coefficients. Its points come from g in one
pass: c_i's point is v_p(g_(t-i)) + lam i - D+, known where that is below
H(i)+s, with no division by p^H(i).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import gcd, isqrt, prod
from operator import floordiv, gt, index, lshift, mul

from ._value import Value
from .plf import DomainTooShort, PiecewiseLinear, _check_anchored

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


# digits kept above the Hodge bound: matrix_newton_polygon reads c_i mod p^(H(i) + s) at
# s = _SLACK, and at s = 2 * _SLACK where that leaves the hull uncertified, before any exact run.
# On the verify_chain cells A2/B2, r = 3, p = 2, 3, t = 24, 32, 40 (432 polygons, Python 3.11.7)
# 10 needed the second run and none the exact one; the kernel took 1.03-1.15 times as long at
# s = 16 as at s = 8, the exact run at t = 40 about 8 times. A first rung at 4 or 6 left more
# polygons to the second run and saved no time.
_SLACK = 8
# _kernel reduces packed columns when t >= _PACK_FROM_T and p^s < _PACK_BELOW_Q. Per-call
# time (ms) of _char_poly_mod at s = 8, rows/packed reduction: gen_instance matrices, r = 3,
# b = (2, 1), entries up to 50, six per cell, each the least of 7 alternating runs (Python 3.11.7;
# the shared host's speed moved between rows, so compare within a row):
#    t  p = 2        p = 3        p = 5        p = 101      p = 65537
#    2  0.026/0.036  0.026/0.037  0.031/0.044  0.028/0.041  0.029/0.043
#    3  0.055/0.070  0.058/0.072  0.059/0.075  0.063/0.080  0.069/0.090
#    4  0.088/0.104  0.091/0.106  0.092/0.107  0.108/0.127  0.125/0.150
#    5  0.130/0.144  0.126/0.142  0.111/0.126  0.166/0.178  0.208/0.240
#    6  0.159/0.165  0.172/0.183  0.183/0.190  0.227/0.235  0.302/0.332
#    7  0.226/0.223  0.222/0.220  0.237/0.229  0.304/0.300  0.409/0.451
#    8  0.276/0.266  0.291/0.280  0.292/0.275  0.223/0.214  0.318/0.342
#    9  0.205/0.192  0.212/0.197  0.226/0.206  0.288/0.269  0.408/0.430
#   10  0.220/0.195  0.228/0.200  0.241/0.200  0.320/0.285  0.493/0.520
#   11  0.277/0.235  0.285/0.243  0.297/0.249  0.553/0.456  0.744/0.812
#   12  0.367/0.324  0.389/0.323  0.447/0.347  0.471/0.393  0.694/0.716
#   14  0.742/0.542  0.435/0.324  0.796/0.551  1.090/0.845  0.979/1.007
#   16  0.936/0.633  0.976/0.655  1.051/0.682  0.852/0.659  1.911/1.847
#   20  0.914/0.567  1.578/0.952  1.052/0.627  2.417/1.723  2.518/2.536
#   24  1.426/0.774  2.224/1.210  1.904/1.042  2.379/1.677  4.562/4.557
# While q = p^8 is at most 101^8 < 2^54, packing's fixed cost loses below t = 7, ties at t = 7
# and wins from t = 8 on. The fields are about three times as wide as q, so the gain shrinks as q
# grows. Per-call time (ms) of _char_poly_mod at s = 8 for q = p^8 above 2^64, rows/packed reduction
# (packed over rows): gen_instance matrices, r = 3, b = (2, 1), entries up to 50, six per cell,
# each the least of 15 alternating runs (Python 3.11.7; the two runs of the table were apart):
#    t  2^64.0 (p = 257)    2^80.1 (p = 1031)   2^96.0 (p = 4099)   2^112.0 (p = 16411)
#    8  0.215/0.196 (0.91)  0.227/0.213 (0.94)  0.255/0.253 (0.99)  0.389/0.367 (0.94)
#   12  0.489/0.409 (0.84)  0.517/0.453 (0.88)  0.561/0.525 (0.94)  0.587/0.581 (0.99)
#   16  0.856/0.673 (0.79)  0.981/0.836 (0.85)  1.063/0.956 (0.90)  1.073/1.011 (0.94)
#   24  2.155/1.445 (0.67)  2.278/1.722 (0.76)  2.907/2.483 (0.85)  2.967/2.806 (0.95)
#    t  2^116.0 (p = 23159) 2^120.0 (p = 32771) 2^128.0 (p = 65537)
#    8  0.267/0.277 (1.03)  0.280/0.297 (1.06)  0.294/0.312 (1.06)
#   12  0.605/0.587 (0.97)  0.627/0.618 (0.99)  0.657/0.671 (1.02)
#   16  1.083/1.032 (0.95)  1.081/1.030 (0.95)  1.169/1.165 (1.00)
#   24  4.127/3.989 (0.97)  2.916/2.720 (0.93)  3.138/3.125 (1.00)
# So packing wins at every t up to 16411^8 and loses at t = 8 from 23159^8 on, and the reduction
# packs below 2^113; char_poly, whose 2^s passes the Hadamard bound, keeps rows unless the entries
# are small. The constant _PACK_FROM_T also selects the packed recurrence (below): with both halves
# packed, the kernel on the matrices of the first table (p = 2, 3, 5, 101, least of 15) took 8%,
# 11% and 17% less time than on rows at t = 7, 8 and 9, and tied at t = 6.
_PACK_FROM_T = 8
_PACK_BELOW_Q = 2**113
# _recurrence packs the polynomials when t >= _PACK_FROM_T and Q < _PACK_RECURRENCE_BELOW_Q, Q the
# recurrence's modulus. Per-call time (ms) of the recurrence, rows/packed, after the reduction at
# s = 8, and the median size of Q = p^(H(t)+s): gen_instance matrices, r = 3, b = (3, 2, 1),
# entries up to 50, three per cell, each the least of 5 alternating runs (Python 3.11.7):
#    t  p = 2                 p = 3                 p = 5
#   10  2^33:  0.066/0.033    2^51:  0.073/0.037    2^75:  0.076/0.041
#   16  2^51:  0.188/0.080    2^80:  0.200/0.090    2^117: 0.217/0.119
#   24  2^75:  0.515/0.219    2^118: 0.783/0.408    2^172: 0.854/0.546
#   32  2^98:  1.050/0.480    2^156: 1.223/0.656    2^228: 1.441/1.052
#   40  2^121: 1.896/0.815    2^194: 2.313/1.392    2^284: 2.807/2.350
#   48  2^147: 3.043/1.500    2^230: 3.947/2.699    2^340: 5.295/4.911
#   64  2^191: 10.02/5.962    2^308: 14.96/12.62    2^451: 21.89/23.88
#   96  2^287: 32.10/22.68    2^460: 58.25/63.08    2^674: 90.94/128.7
# Packing wins by a quarter or more below 2^256. Its fields are about twice as wide as Q, so as Q
# grows the digit work takes over: the gain falls to 7% at 2^340, packing ties at about 2^390
# and loses from 2^410 on. The table was taken on the plain recurrence, Q = p^(H(t)+s); at the
# balanced scale verify's Q on these matrices is far smaller (about 2^23 at p = 3, t = 64 and
# 2^21 at p = 2, t = 128, r = 4), so verify packs from t = 8 on. The bound keeps a margin below
# the tie for the exact run's Q = 2^(s + max(D+, E-)), which keeps rows once twice the Hadamard
# bound passes 2^256 (2^375 for CLI newton on a t = 32 matrix with entries up to 1000).
_PACK_RECURRENCE_BELOW_Q = 2**256


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
    """Finite part of a Newton polygon, as its vertices, plus the count of infinite slopes."""

    _fields = ("vertices", "infinite_slopes")

    def __init__(self, vertices: Iterable[tuple[int, int]], infinite_slopes: int) -> None:
        # every hull of points (i, v_p(c_i)) has lattice-point vertices, kept as ints
        try:
            vertices = tuple((index(x), index(y)) for x, y in vertices)
        except TypeError:
            raise ValueError("Newton polygon vertices must be lattice points") from None
        _check_anchored(vertices)
        super().__init__(vertices, infinite_slopes)

    @classmethod
    def _of_hull(cls, vertices: tuple[tuple[int, int], ...], infinite_slopes: int) -> "NewtonPolygon":
        """The polygon with the given vertices, stored as given: the caller's vertices are a lower
        hull of int points that starts at (0, 0), increases strictly in x and has y >= 0."""
        polygon = object.__new__(cls)
        Value.__init__(polygon, vertices, infinite_slopes)
        return polygon

    @property
    def polygon(self) -> PiecewiseLinear:
        """The finite part as a profile through the vertices."""
        return PiecewiseLinear(self.vertices)

    @property
    def finite_length(self) -> int:
        """Where the finite part ends: the x of the hull's last vertex, the last non-zero coefficient."""
        return self.vertices[-1][0]

    def slopes(self) -> tuple[tuple[Fraction, int], ...]:
        """Finite (slope, horizontal length) pairs, slopes non-decreasing."""
        pts = self.vertices
        return tuple((Fraction(y1 - y0, x1 - x0), x1 - x0) for (x0, y0), (x1, y1) in zip(pts, pts[1:]))

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


def _kernel(entries: tuple[tuple[int, ...], ...], p: int, s: int) -> tuple[list[int], list[int], int, int]:
    """(g, hodge, lam, D+) for det(X*I - M) = sum c_i X^(t-i): g[i] = g_(t-i) mod Q, from which
    c_i = p^(lam i - D+) g_(t-i) is known mod p^(H(i)+s), and the Hodge bound [H(0), ..., H(t)],
    H(i) the sum of the i least column scales e_j.

    The recurrence runs at the balanced column scale lam of _balanced_scale. With
    d+_j = (lam - e_j)+ and d-_j = (e_j - lam)+, so that e_j = lam - d+_j + d-_j, and D+, E- their sums,
      chi_M(p^lam Y) = det(p^lam Y - A diag(p^e)) = p^(lam t - D+) g(Y),
      g(Y) = det(Y diag(p^d+) - A diag(p^d-)),
    so c_i = p^(lam i - D+) g_(t-i). Expanding g by principal minors,
      g_(t-i) = (-1)^i sum_(|J| = i) p^(d+(J^c) + d-(J)) minor_J(A),
    and d+(J^c) + d-(J) + lam i - D+ = sum_(j in J) e_j. So changing a column of A by a multiple of
    p^s moves c_i by a multiple of p^(H(i)+s), and c_i mod p^(H(i)+s) needs g_(t-i) mod
    p^(H(i) - lam i + D+ + s). H(i) - lam i is the prefix sum of the sorted e_j - lam, convex in i,
    so the exponent is greatest at i = 0 (D+) or i = t (E-), and the recurrence runs mod
    Q = p^(s + max(D+, E-)). lam = 0 is the plain recurrence mod p^(H(t)+s), and the residues are
    the same for every lam.
    """
    q = p**s
    # M = A * diag(p^e), e_j at first the valuation of column j's content (0 for a zero column);
    # the reduction brings A to upper Hessenberg form, lowering e_j where a column operation needs it
    e = [_valuation(c, p) if c else 0 for c in map(gcd, *entries)]
    if any(map(gt, e, e[1:])):  # conjugate M by the stable permutation that sorts e
        order = sorted(range(len(e)), key=e.__getitem__)
        entries = [[entries[i][j] for j in order] for i in order]
        e = [e[j] for j in order]
    scales = [p**x for x in e]
    reduction = _hessenberg_packed if len(entries) >= _PACK_FROM_T and q < _PACK_BELOW_Q else _hessenberg_rows
    columns = reduction(entries, e, scales, p, q)
    ordered = sorted(e)
    hodge = list(accumulate(ordered, initial=0))
    lam, D, E = _balanced_scale(ordered, hodge)
    g = _recurrence(columns, [p ** (lam - x) if x < lam else 1 for x in e],
                    [p ** (x - lam) if x > lam else 1 for x in e], p ** (s + max(D, E)))
    return g, hodge, lam, D


def _char_poly_mod(entries: tuple[tuple[int, ...], ...], p: int, s: int) -> tuple[list[int], list[int]]:
    """Residues [1, c_1 mod p^(H(1)+s), ..., c_t mod p^(H(t)+s)] of det(X*I - M) = sum c_i X^(t-i),
    and the Hodge bound [H(0), ..., H(t)], from _kernel.

    p^D+ divides p^(lam i) g_(t-i) (as d+(J) <= lam i) and Q, so the division of
    p^(lam i) (g_(t-i) mod Q) by p^D+ is exact.
    """
    g, hodge, lam, D = _kernel(entries, p, s)
    unit = p**D
    return [y * p ** (lam * i) // unit % p ** (h + s) for i, (y, h) in enumerate(zip(g, hodge))], hodge


def _balanced_scale(ordered: list[int], hodge: list[int]) -> tuple[int, int, int]:
    """(lam, D+, E-) for the integer lam that minimises max(D+, E-), D+ = sum_j (lam - e_j)+ and
    E- = sum_j (e_j - lam)+, from the sorted scales e and their prefix sums `hodge`.

    D+ - E- = t lam - sum e, so D+ <= E- exactly when lam is at most the mean of e. Below the mean
    the maximum is E-, which does not grow with lam, and above it D+, which does not fall, so the
    least is at the mean's floor or ceiling; both lie in [min e, max e].
    """
    t, total = len(ordered), hodge[-1]
    low = total // t
    j = bisect_right(ordered, low)  # the scales at most low
    above, below = total - hodge[j] - low * (t - j), (low + 1) * j - hodge[j]  # E-(low), D+(low + 1)
    if above <= below:
        k = bisect_left(ordered, low)  # the scales below low
        return low, low * k - hodge[k], above
    return low + 1, below, above - (t - j)


def _recurrence(columns: Sequence[Sequence[int]] | _Packed, weights: list[int], scales: list[int],
                Q: int) -> list[int]:
    """The coefficients of det(X*W - h) mod Q, in [0, Q), highest power first, for W = diag(weights)
    and the upper Hessenberg h = A * diag(scales), A given by its columns (see _steps)."""
    if len(scales) >= _PACK_FROM_T and Q < _PACK_RECURRENCE_BELOW_Q:
        return _recurrence_packed(columns, weights, scales, Q)[::-1]
    return _recurrence_rows(columns, weights, scales, Q)[::-1]


def _steps(columns: Sequence[Sequence[int]] | _Packed, scales: list[int],
           Q: int) -> Iterator[tuple[int, list[int]]]:
    """(d, cs) of each step k of the Hessenberg recurrence for h = A * diag(scales), all mod Q:
    d = h_kk and cs_i = h_ik h_(i+1,i) ... h_(k,k-1) for i < k.

    `columns` holds A by columns, as sequences or as the packed reduction's _Packed, whose fields
    are read as they are. Only the Hessenberg entries, rows 0..j+1 of column j, are read, so a
    sequence may stop after row j+1.
    """
    n = len(scales)
    if isinstance(columns, _Packed):
        cols, at, mask = columns
        sub = [(cols[i] >> at[i + 1] & mask) * scales[i] % Q for i in range(n - 1)]
        for k, (c, scale) in enumerate(zip(cols, scales)):
            cs, product = [0] * k, scale
            for i in range(k - 1, -1, -1):
                product = product * sub[i] % Q
                cs[i] = (c >> at[i] & mask) * product % Q
            yield (c >> at[k] & mask) * scale % Q, cs
        return
    sub = [columns[i][i + 1] * scales[i] % Q for i in range(n - 1)]
    for k, (column, scale) in enumerate(zip(columns, scales)):
        cs, product = [0] * k, scale
        for i in range(k - 1, -1, -1):
            product = product * sub[i] % Q
            cs[i] = column[i] * product % Q
        yield column[k] * scale % Q, cs


def _recurrence_rows(columns: Sequence[Sequence[int]] | _Packed, weights: list[int], scales: list[int],
                     Q: int) -> list[int]:
    """The coefficients of det(X*W - h) mod Q, lowest power first, W = diag(weights) and
    h = A * diag(scales) upper Hessenberg."""
    # p_(k+1) = (w_k X - d) p_k - sum_(i<k) cs_i p_i for the polynomial p_i of the leading i-block
    # of X*W - h, lowest power first; cols[m] holds the X^m coefficients of p_m, p_(m+1), ..., so
    # each coefficient of p_(k+1) is one dot product
    cols, poly = [[1]], [1]
    for weight, (d, cs) in zip(weights, _steps(columns, scales, Q)):
        poly = [(weight * low - d * c - sum(map(mul, cs[m:], col))) % Q
                for m, (low, c, col) in enumerate(zip([0] + poly, poly, cols))] + [weight * poly[-1] % Q]
        for col, c in zip(cols, poly):
            col.append(c)
        cols.append([poly[-1]])
    return poly


def _recurrence_packed(columns: Sequence[Sequence[int]] | _Packed, weights: list[int], scales: list[int],
                       Q: int) -> list[int]:
    """The coefficients of _recurrence_rows, from p_0, ..., p_t held as one int each.

    P_i = sum_m x_m 2^(w m) with every field x_m in [0, 2Q) and congruent to p_i's X^m coefficient
    mod Q. With cs_i and d in [0, Q), each field of S = sum_(i<k) cs_i P_i + d P_k is below
    beta = 2 t Q^2, a multiple of Q, and each field of w_k P_k 2^w below 2 Q W, W the largest
    weight. So T = w_k P_k 2^w + beta (in fields 0..k) - S has fields 0..k in (0, beta + 2 Q W)
    and field k+1 below 2 Q W, all below 2^w, and no borrow crosses a field. _reduce_fields
    brings T's fields back into [0, 2Q), which makes P_(k+1).
    """
    n = len(scales)
    beta = 2 * n * Q * Q
    w = (beta + 2 * Q * max(weights)).bit_length()
    mask = (1 << w) - 1
    even = mask * ((1 << 2 * w * (n // 2 + 1)) - 1) // ((1 << 2 * w) - 1)  # fields 0, 2, 4, ...
    r = (1 << w) // Q
    polys, betas = [1], 0
    for k, (weight, (d, cs)) in enumerate(zip(weights, _steps(columns, scales, Q))):
        betas += beta << w * k
        last = polys[k]
        polys.append(_reduce_fields((weight * last << w) + betas - d * last - sum(map(mul, cs, polys)),
                                    Q, r, w, even))
    return [(polys[n] >> x & mask) % Q for x in range(0, w * (n + 1), w)]


def _reduce_fields(x: int, q: int, r: int, w: int, even: int) -> int:
    """x with every w-bit field y replaced by y - q * floor(y r / 2^w), r = floor(2^w / q): the
    value is congruent to y mod q and lies in [0, 2q) (Barrett, 1986).

    `even` has every bit of fields 0, 2, 4, ... set. A product y r < 2^(2w) fills two fields, so
    the even and the odd fields are multiplied apart. For y = m q + (y mod q) the estimate is m or
    m - 1: y r / 2^w > y / q - y / 2^w > m - 1 as r > 2^w / q - 1 and y < 2^w, and y r / 2^w <= y / q.
    """
    quot = ((x & even) * r >> w & even) + (((x >> w & even) * r >> w & even) << w)
    return x - q * quot


def _pivot(column: list[int], k: int, e: list[int], scales: list[int], p: int,
           q: int) -> tuple[int, list[int], int, list[int]] | None:
    """Every decision of step k of the Hessenberg reduction, from column k's entries below the
    diagonal, column = [a_(k+1,k), ..., a_(t-1,k)], as residues mod q: the rows reduction hands
    them over at every step, the packed one where none is a unit mod p. None when they are all 0
    mod q, else (piv, fs, lift, multiples), with `e` and `scales` updated in place.

    Column k pivots on an entry of least valuation: where a_(k+1,k) is not one, M is first
    conjugated by the transposition of k+1 and piv, which swaps e and scales here. Row k+1 is
    taken mod q (a change of A by multiples of q, which the reductions use but do not store), and M
    is conjugated by I - sum f_i E_(i,k+1): rows i > k+1 lose f_i times the residues of row k+1,
    then column k+1 of M gains sum f_i times column i, so column k+1 of A gains
    f_i p^e_i / p^e_(k+1) times column i of A. Where a quotient is fractional, e_(k+1) first drops
    to the least v_p(f_i p^e_i), which multiplies column k+1 of A by lift and leaves M as it is;
    lift is 1 where e_(k+1) stays, as it does whenever no later scale is below p^e_(k+1). So after
    the row step column k+1 of A becomes lift times itself plus sum_i multiples_i times column k+2+i;
    _lift takes that rule for both reductions.
    """
    if (unit := gcd(q, *column)) == q:  # q = p^s, so unit = p^(least valuation of the entries mod q)
        return None
    piv = k + 1
    if column[0] % (unit * p) == 0:  # conjugate by a transposition first
        i = next(i for i, x in enumerate(column) if x % (unit * p))
        column[0], column[i] = column[i], column[0]
        piv += i
        e[k + 1], e[piv] = e[piv], e[k + 1]
        scales[k + 1], scales[piv] = scales[piv], scales[k + 1]
    inverse = pow(column[0] % q // unit, -1, q)
    fs = [x // unit * inverse % q for x in column[1:]]
    return piv, fs, *_lift(fs, k, e, scales, p, q)


def _lift(fs: list[int], k: int, e: list[int], scales: list[int], p: int, q: int) -> tuple[int, list[int]]:
    """(lift, multiples) of step k of the Hessenberg reduction, after its transposition, for the
    f_i of rows k+2, ...: column k+1 of A becomes lift times itself plus sum_i multiples_i times
    column k+2+i, lowering e_(k+1) and scales[k+1] in place where a quotient is fractional (see
    _pivot)."""
    # where no later scale is below scale = p^e_(k+1), every term f_i p^e_i is a multiple of it, so
    # nothing is lowered and the multiples are f_i p^(e_i - e_(k+1)): f_i where the scales are equal
    scale, later = scales[k + 1], scales[k + 2:]
    if later.count(scale) == len(later):
        return 1, fs
    if min(later) >= scale:
        return 1, [f * (x // scale) for f, x in zip(fs, later)]
    terms = list(map(mul, fs, later))
    lift = 1
    if (common := gcd(*terms)) % scale:
        e[k + 1] = _valuation(common, p)
        lift = scale // p ** e[k + 1] % q
        scales[k + 1] = p ** e[k + 1]
    # every term is a multiple of the scale, so the division is exact
    return lift, [x // scales[k + 1] for x in terms]


def _hessenberg_rows(m: Sequence[Sequence[int]], e: list[int], scales: list[int], p: int,
                     q: int) -> list[tuple[int, ...]]:
    """The columns of A, M = A * diag(scales) for the rows `m` of M, brought to upper Hessenberg
    form, lowering `e` and `scales` as needed.

    Each step is a similarity of M by an integer matrix with an integer inverse, or changes a
    column of A by a multiple of q; _pivot decides it from the residues mod q of column k below the
    diagonal. A step writes only entries that are read again: the pivot row k+1 keeps its entries
    and the row step takes their residues mod q, and the row step skips column k, whose entries
    below row k+1 nothing reads. So A ends upper Hessenberg only in the entries _steps reads, rows
    0..j+1 of column j, and those differ from a full reduction's by multiples of q.
    """
    a = [list(map(floordiv, row, scales)) for row in m]
    n = len(a)
    for k in range(n - 2):
        if not (step := _pivot([row[k] % q for row in a[k + 1:]], k, e, scales, p, q)):
            continue
        piv, fs, lift, multiples = step
        if piv > k + 1:
            a[k + 1], a[piv] = a[piv], a[k + 1]
            for row in a:
                row[k + 1], row[piv] = row[piv], row[k + 1]
        pivot = [x % q for x in a[k + 1][k + 1:]]
        for row, f in zip(a[k + 2:], fs):
            row[k + 1:] = [x - f * y for x, y in zip(row[k + 1:], pivot)]
        for row in a:
            row[k + 1] = row[k + 1] * lift + sum(map(mul, multiples, row[k + 2:]))
    return list(zip(*a))


def _field_width(m: Sequence[Sequence[int]], scales: list[int], q: int) -> tuple[int, int]:
    """(w, bias) of a packed field for the rows `m` of M and its column scales: every value v that
    _hessenberg_rows makes lies in (-V, V), so the field v + bias lies in (0, 2^w).

    The values stay below V = (a0 + p^E t q^2)(1 + t q) in absolute value, E the largest e_j,
    a0 = ceil(max |m_ij| / p^e) and e the least e_j, below which no step lowers an e_j:
      - A starts at a_ij = m_ij / p^e_j, so |a_ij| <= a0;
      - the row step at k subtracts f * r with f in [0, q) and r a residue mod q from the entries
        of columns k+1 on below row k+1, so at most t - 2 times from one entry, and column j only
        at k <= j - 1: before its column step column j holds a start value plus less than t q^2;
      - column j's step, at k = j - 1, multiplies it by lift <= p^(e_j - e') and adds at most
        t - 2 columns not yet stepped, column i times f_i p^(e_i - e') with f_i < q, e' >= e the
        new e_j. A start value m / p^e_j times lift, or m / p^e_i times p^(e_i - e'), is at most
        |m| / p^e' <= a0, and the rest of a value, below t q^2, becomes below p^E t q^2; so column
        j then holds values below (a0 + p^E t q^2)(1 + t q). After it no step changes column j,
        and row swaps only permute its entries.
    bias is the least multiple of q above V, so v + bias > 0 and is congruent to v mod q; w is the
    bit length of bias + V, so v + bias < bias + V < 2^w.
    """
    least = min(scales)
    a0 = (max(max(map(max, m)), -min(map(min, m))) + least - 1) // least
    t = len(m)
    bound = (a0 + max(scales) * t * q * q) * (1 + t * q)
    bias = (bound // q + 1) * q
    return (bias + bound).bit_length(), bias


class _Packed(tuple):
    """A as _hessenberg_packed leaves it, (cols, at, mask): the entry in row i of column j is the
    field cols[j] >> at[i] & mask, a_ij plus a multiple of q."""


def _hessenberg_packed(m: Sequence[Sequence[int]], e: list[int], scales: list[int], p: int,
                       q: int) -> _Packed:
    """The steps of _hessenberg_rows, on A held as one int per column, which the recurrence reads
    as it is.

    Column j is sum_i (a_ij + bias) 2^at[i], with w and bias from _field_width: the w-bit field at
    bit at[i] holds a_ij + bias and stays in (0, 2^w), so no carry crosses fields. M's column j is
    p^e_j times A's, and so is its packed form sum_i m_ij 2^at[i], so one exact division per column
    makes A's. bias is a multiple of q, so a field is congruent to a_ij mod q, and step k reads
    column k's fields from row k+1 down: where one is a unit mod p, the first is _pivot's pivot,
    and the f_i are the fields below it times its inverse mod q, with _lift's scale rule; else
    _pivot decides the step from the residues. A row step is one multiply-add on each column from
    k+1 on, and a row swap only swaps two offsets.
    """
    n = len(m)
    columns = list(zip(*m))
    w, bias = _field_width(m, scales, q)
    mask = (1 << w) - 1
    biases = bias * ((1 << w * n) - 1) // mask  # every field at bias: the column of zeros
    at = list(range(0, w * n, w))
    cols = [sum(map(lshift, column, at)) // scale + biases for column, scale in zip(columns, scales)]
    for k in range(n - 2):
        column = cols[k]
        for piv in range(k + 1, n):
            if (head := column >> at[piv] & mask) % p:
                e[k + 1], e[piv] = e[piv], e[k + 1]
                scales[k + 1], scales[piv] = scales[piv], scales[k + 1]
                at[k + 1], at[piv] = at[piv], at[k + 1]
                cols[k + 1], cols[piv] = cols[piv], cols[k + 1]
                inverse = pow(head, -1, q)
                fs = [(column >> x & mask) * inverse % q for x in at[k + 2:]]
                lift, multiples = _lift(fs, k, e, scales, p, q)
                break
        else:  # no unit below the diagonal
            if not (step := _pivot([(column >> x & mask) % q for x in at[k + 1:]], k, e, scales, p, q)):
                continue
            piv, fs, lift, multiples = step
            at[k + 1], at[piv] = at[piv], at[k + 1]
            cols[k + 1], cols[piv] = cols[piv], cols[k + 1]
        # rows i > k+1 lose f_i times the residues r = x mod q of row k+1: each column from k+1 on
        # loses r F, F = sum_i f_i 2^at[i], and its pivot field x and column k stay as they are
        shift = at[k + 1]
        F = sum(map(lshift, fs, at[k + 2:]))
        cols[k + 1:] = [c - (c >> shift & mask) % q * F for c in cols[k + 1:]]
        # the biases of the fields scale with the column, so lift - 1 + sum(multiples) of them go
        cols[k + 1] = (cols[k + 1] * lift + sum(map(mul, multiples, cols[k + 2:]))
                       - (lift - 1 + sum(multiples)) * biases)
    return _Packed((cols, at, mask))


def _exact_precision(entries: tuple[tuple[int, ...], ...]) -> int:
    """Least P with 2^P > 2 * prod_l (2 + isqrt(|column l|^2)), twice a Hadamard bound on every |c_i|."""
    return (2 * prod(2 + isqrt(sum(x * x for x in column)) for column in zip(*entries))).bit_length()


def char_poly(matrix: IntegerMatrix) -> list[int]:
    """Coefficients [1, c_1, ..., c_t] of det(X*I - M) = sum c_i X^(t-i).

    The symmetric lift of the kernel's residues c_i mod 2^(H(i)+s) at p = 2, with 2^s past twice
    the Hadamard bound: 2^(H(i)+s) >= 2^s > 2|c_i|, so the lift is c_i.
    """
    residues, hodge = _char_poly_mod(matrix.entries, 2, s := _exact_precision(matrix.entries))
    moduli = [2 ** (h + s) for h in hodge]
    return [c - m if 2 * c > m else c for c, m in zip(residues, moduli)]


# Miller-Rabin with these bases decides primality exactly below _PRIME_BOUND, the least
# composite that passes them all (Jiang-Deng 2014; Sorenson-Webster 2015)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PRIME_BOUND = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Whether n is prime, by Miller-Rabin with the twelve prime bases 2..37.

    Exact for n < _PRIME_BOUND (about 3.18e23); a larger n with no prime factor up to 37
    raises ValueError.
    """
    for q in _PRIME_BASES:
        if n % q == 0:
            return n == q
    if n < 2:
        return False
    if n >= _PRIME_BOUND:
        raise ValueError(f"cannot decide whether {n} is prime: only numbers below {_PRIME_BOUND} are decided")
    k = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^k with d odd
    d = (n - 1) >> k
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(k - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
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


def _coefficient_hull(coeffs: list[int], p: int) -> tuple[tuple[tuple[int, int], ...], int]:
    """(vertices, infinite_slopes) of the Newton polygon of [1, c_1, ..., c_t]: the lower hull of the
    points (i, v_p(c_i)) of the non-zero c_i, and the count of the coefficients after the last one."""
    points = [(i, _valuation(c, p)) for i, c in enumerate(coeffs) if c != 0]
    return tuple(_lower_hull(points)), len(coeffs) - 1 - points[-1][0]


def newton_polygon(coeffs: list[int], p: int) -> NewtonPolygon:
    """Newton polygon of a monic integer polynomial given as [1, c_1, ..., c_t]."""
    if not coeffs or coeffs[0] != 1:
        raise NotMonic(f"leading coefficient must be 1, got {coeffs[:1]}")
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    return NewtonPolygon(*_coefficient_hull(coeffs, p))


@lru_cache(maxsize=8)
def matrix_newton_polygon(matrix: IntegerMatrix, p: int) -> NewtonPolygon:
    """Newton polygon at p of the characteristic polynomial of `matrix`, one shared immutable value
    per (matrix, p) of the last 8. Callers reuse a polygon only right after computing it (once per
    alpha in verify_corollary), and a larger memo would keep big matrices alive for nothing.

    The kernel gives each c_i mod p^(H(i)+s). A non-zero residue fixes v_p(c_i),
    counted from H(i) on since p^H(i) divides c_i; a zero one only says
    v_p(c_i) >= H(i)+s. So the hull of the known points is the polygon when
    c_t's residue is non-zero and every point (i, H(i)+s) of a zero residue lies
    on or above it, i.e. is no vertex of the hull of all the points. The kernel
    runs at s = _SLACK and, if that does not certify the hull, at s = 2 * _SLACK;
    if neither does, the hull comes from the exact coefficients, through
    char_poly, which also settles a singular matrix.
    """
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    for s in (_SLACK, 2 * _SLACK):
        g, hodge, lam, D = _kernel(matrix.entries, p, s)
        # c_i = p^(lam i - D+) g_(t-i) is known mod p^(H(i)+s), and g_(t-i) mod Q as far as that
        # needs: below H(i)+s, v_p(c_i) is v_p(g_(t-i)) + lam i - D+; else c_i's point is unknown,
        # at H(i)+s or above, and is placed there
        tops = [h + s for h in hodge]
        points = [min(_valuation(y, p) + lam * i - D, top) if y else top
                  for i, (y, top) in enumerate(zip(g, tops))]
        if points[-1] < tops[-1]:
            hull = _lower_hull(list(enumerate(points)))
            if all(points[i] < tops[i] for i, _ in hull):
                return NewtonPolygon._of_hull(tuple(hull), 0)
    return NewtonPolygon._of_hull(*_coefficient_hull(char_poly(matrix), p))


def slope_le_dimension(np_: NewtonPolygon, alpha: Fraction | int) -> int:
    """Total horizontal length of finite-slope segments with slope <= alpha."""
    num, den = alpha.as_integer_ratio()
    if num < 0:
        raise ValueError("alpha must be non-negative")
    # the slopes do not decrease, so the edges up to the first steeper one end at its start; with
    # alpha = num/den an edge is steeper when dy den > num dx, decided in ints on the vertices
    x0 = y0 = 0
    for x, y in np_.vertices:
        if (y - y0) * den > num * (x - x0):
            break
        x0, y0 = x, y
    return x0


def check_lower_bound(matrix: IntegerMatrix, p: int, bound: PiecewiseLinear) -> bool:
    """Whether the Newton polygon of the matrix at p dominates `bound` on [0, t]."""
    return matrix_newton_polygon(matrix, p).dominates(bound)
