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
them. Each half of the kernel runs on packed ints, fixed-width fields in one int
(Kronecker substitution; Harvey, "Faster polynomial multiplication via
multipoint Kronecker substitution", 2009), where t >= 7 and those fields would
be narrower than that half's bound, 436 bits for the reduction and 512 for the
recurrence, else on rows of ints. The packed reduction holds one int per column,
in fields w bits wide and a whole number of bytes apart, at least 16 bits. It
packs each of M's columns with one struct call, every entry as a 16-bit value in
its field, reads the bytes as one int and corrects the signs of all fields at
once. w is taken with 2^15 in place of M's largest |m_ij|, so no pass reads M.
Only where an entry lies outside [-2^15, 2^15) does the call fail; then M's
largest |m_ij| is read, w taken again, and each column summed by shifts.
Each packed column is divided once, exactly, since the scale divides every
entry; its fields carry a bias that is a multiple of p^s, so a field is
congruent to its entry mod p^s and is read with nothing subtracted.
The rows form hands every step to _pivot, which decides it from the residues mod
p^s of the column below the diagonal. The packed form reads that column's fields
from the subdiagonal down, takes the first unit mod p as the pivot, as _pivot
would, and builds the multipliers from the fields; only a column with no unit
below the diagonal goes to _pivot. Both take a step's scale rule from one
routine, _lift, so the forms take the same steps and differ only in how they
store A. Both hand A to the recurrence in one shape, column j as its rows
0..j+1; the packed form reads those fields once, at its end, as they are: the
bias changes each column of A by multiples of p^s, which moves no residue, so
nothing is subtracted. The recurrence then runs at a balanced column
scale lam, near the mean of the e_j: it computes
g(Y) = det(Y diag(p^d+) - A diag(p^d-)) = p^(D+ - lam t) det(p^lam Y - M), with
d+_j = (lam - e_j)+, d-_j = (e_j - lam)+ and D+, E- their sums, so
c_i = p^(lam i - D+) g_(t-i). The residues c_i mod p^(H(i)+s) need g only mod
Q = p^(s + max(D+, E-)), where the plain recurrence (lam = 0) needs
p^(H(t)+s): about 2^20 against 2^120 at t = 40 and p = 2 when most e_j are
alike. The packed recurrence holds each polynomial as one int and reduces every
field at once (Barrett); both forms take each step's coefficients from _steps.
The exact coefficients, char_poly, are the symmetric lift of the kernel's
residues at p = 2 with 2^s past twice the Hadamard bound.

A matrix's polygon climbs one ladder of kernel runs at p itself, s = 8, 16, 32,
..., and stops at the first run that certifies the hull. The last rung is the
least s with p^s past twice the Hadamard bound, where every zero residue is a
zero coefficient, so it settles a singular or a very deep matrix. Each run's
points come from g in one pass: c_i's point is v_p(g_(t-i)) + lam i - D+, known
where that is below H(i)+s, with no division by p^H(i).
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from collections.abc import Callable, Iterable, Iterator, Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import gcd, inf, isqrt, prod
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


# digits kept above the Hodge bound at the ladder's first rung: matrix_newton_polygon reads
# c_i mod p^(H(i) + s) at s = _SLACK, 2 * _SLACK, 4 * _SLACK, ... until the hull is certified.
# On the verify_chain cells A2/B2, r = 3, p = 2, 3, t = 24, 32, 40 (432 polygons, Python 3.11.7)
# 10 needed the second rung and none a third; the kernel took 1.03-1.15 times as long at
# s = 16 as at s = 8, the exact run at t = 40 about 8 times. A first rung at 4 or 6 left more
# polygons to the second rung and saved no time.
_SLACK = 8
# where the rung at s = 2 * _SLACK leaves c_t's residue at 0, matrix_newton_polygon checks det M mod
# l, the first of these primes that is not p, by one _char_poly_mod(entries, l, 1). In ms (least of
# 7, Python 3.11.7), on a singular t = 48 matrix (entries up to 30, last row the sum of the others)
# and on a gen_instance matrix at t = 64, r = 32, b = (32, 16), p = 2, seed 0:
#   l = 251: 1.54 / 6.32     65521: 1.79 / 7.64     2^31 - 1: 7.16 / 12.4     2^61 - 1: 9.65 / 22.4
#   the rung at s = 16: p = 2 3.16 / 14.0, p = 3 2.31 / 8.72
# so the check costs less than one rung below 2^16, and more above, where the fields grow. 65521, the
# largest prime below 2^16, sends a non-singular M to the last rung with chance 1/65521.
_DET_PRIMES = (65521, 65519)
# _packed_field picks each half's form: packed ints where t >= _PACK_FROM_T and the fields that half
# would pack are narrower than its bound, w of _field_width below _REDUCTION_BELOW_BITS for the
# reduction and w of _recurrence_field below _RECURRENCE_BELOW_BITS for the recurrence, else rows.
# Per-call time (ms) of _char_poly_mod under the former gates (both halves packed from t = 8, the
# reduction below q = 2^113 and the recurrence below Q = 2^256) / under this rule, at q = p^s as
# headed: gen_instance matrices, b = (r - 1, r // 2), entries up to 50, six per cell (three from
# t = 48), each matrix's least of 15 alternating runs with the collector off, summed (Python 3.11.7;
# cells more than 4% apart were timed again at 21 runs, t = 64 at 2^120 twice); * marks a changed choice.
#  r  t     2^8         257^8        2^120       65537^8       2^208        2^240        3^161       65537^64
#  3  2 .0236/.0237  .0153/.0155  .0161/.0163  .0158/.0161  .0164/.0165  .0171/.0174   .017/.0172  .0212/.0213
#  3  3 .0302/.0308  .0341/.0348   .035/.0356  .0337/.0345  .0373/.0377  .0383/.0389  .0398/.0403  .0649/.0659
#  3  4  .0478/.049   .059/.0594  .0641/.0646  .0646/.0657  .0657/.0666  .0726/.0727  .0735/.0738    .183/.184
#  3  5 .0721/.0727  .0905/.0909    .107/.108    .114/.115     .12/.121    .125/.126    .126/.127    .383/.383
#  3  6  .093/.0939    .133/.134     .149/.15    .164/.165    .175/.177    .183/.185    .186/.187    .674/.686
#  3  7   .195/.158*   .286/.254*    .343/.33*    .23/.237*   .256/.266*   .436/.463*   .441/.465    1.05/1.07
#  3  8   .141/.143    .195/.203    .386/.377*   .447/.464    .499/.505    .557/.567    .614/.623    2.41/2.46
#  3 12   .303/.298    .595/.588       1/.915*   1.06/1.09    1.28/1.32    1.53/1.57    1.44/1.44    7.32/7.45
#  3 16   .316/.316    .677/.683     1.9/1.62*   1.19/1.23    1.48/1.48     1.78/1.8    1.98/2.04    11.6/11.6
#  3 24    .58/.582    1.54/1.53    4.82/3.68*   3.24/3.28    4.15/4.18    4.96/4.87    5.58/5.58    35.3/35.6
#  3 32   .973/.974    3.18/3.16    6.29/5.23*   6.88/6.78    8.48/8.62    10.8/10.7    11.7/11.9    79.8/79.2
#  3 48   2.24/2.25    8.79/8.91    18.9/14.6*   20.2/20.3    24.9/24.7        30/30      34.2/35      241/239
#  3 64   3.86/3.89      16.9/17    38.9/28.9*     40.4/41    51.6/51.8    69.3/68.4    75.3/75.8      523/521
# 16  2 .0153/.0154  .0164/.0165  .0166/.0167   .018/.0181  .0171/.0175  .0174/.0176  .0176/.0178  .0246/.0247
# 16  3 .0329/.0337  .0402/.0409  .0381/.0381  .0436/.0442  .0391/.0393  .0399/.0406  .0422/.0428  .0771/.0776
# 16  4 .0539/.0544   .069/.0702  .0675/.0682  .0812/.0817  .0735/.0745   .077/.0776  .0792/.0801    .226/.226
# 16  5 .0853/.0855    .116/.117    .114/.115    .139/.139    .128/.129    .132/.133     .14/.141    .562/.546
# 16  6   .105/.106    .165/.166    .161/.161    .207/.204    .184/.185    .201/.202    .217/.217    .956/.956
# 16  7   .159/.127*   .217/.221*   .227/.229*     .475/.5    .441/.474*   .481/.506*    .52/.538    2.14/2.11
# 16  8   .193/.198     .425/.42    .423/.421*   .636/.651    .586/.608      .61/.63    .649/.653     3.31/3.3
# 16 12   .357/.368    .903/.871    .813/.815*   1.34/1.33    1.42/1.47    1.38/1.42    1.04/1.06    6.03/6.02
# 16 16   .388/.392     1.1/1.11    1.88/1.72*   1.85/1.88    1.62/1.64    1.89/1.91     2.06/2.1    12.7/12.5
# 16 24   1.11/1.11     3.12/3.1     3.2/2.82*   5.23/5.26    4.58/4.62    5.33/5.37     5.8/5.84    39.6/39.6
# 16 32   1.26/1.26    6.11/6.16    6.39/5.33*   11.1/11.1    8.72/8.83      10.8/11    12.5/12.7    90.7/87.9
# 16 48   2.76/2.75    14.7/14.7    19.3/15.2*   25.8/25.8    20.8/21.4    28.1/28.4    32.1/31.9      241/242
# 16 64   4.99/4.93    28.5/28.8    40.4/31.3*   65.1/64.7    57.5/57.4    70.4/71.4    75.3/76.9      583/576
# Each half timed both ways on 126 cells (t = 7-48, r = 3 and 16, q = 2^64 to 2^240): the packed
# reduction wins below about 380 bits at t = 7, 430 at t = 8-12, 460 at t = 16-24 and 500 from t = 32;
# the packed recurrence below about 400 bits at t = 7, 460 at t = 8-12 and past 530 from t = 16. So
# one bound for both halves loses somewhere: at 436 the recurrence on rows costs up to 8% at Q near
# 2^240 from t = 16, at 512 the packed reduction up to 12% at t = 7-8. With these bounds only t = 7
# loses, where the recurrence packs from about 440 bits: 5-8% at 2^208 and 2^240 above. Below t = 7
# both halves packed win only at small q (16% at t = 6 and q = 2^8, nothing at t = 4) and lose 12-28%
# at 65537^8 (t = 4-6), so those sizes keep rows.
_PACK_FROM_T = 7
_REDUCTION_BELOW_BITS = 436
_RECURRENCE_BELOW_BITS = 512


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
    columns = _hessenberg(entries, e, scales, p, q)
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


def _recurrence(columns: Sequence[Sequence[int]], weights: list[int], scales: list[int], Q: int) -> list[int]:
    """The coefficients of det(X*W - h) mod Q, in [0, Q), highest power first, for W = diag(weights)
    and the upper Hessenberg h = A * diag(scales), A given by its columns (see _steps)."""
    n = len(scales)
    if field := _packed_field(n, _RECURRENCE_BELOW_BITS, _recurrence_field, n, weights, Q):
        return _recurrence_packed(columns, weights, scales, Q, *field)[::-1]
    return _recurrence_rows(columns, weights, scales, Q)[::-1]


def _packed_field(t: int, bound: int, field: Callable[..., tuple[int, int]],
                  *args: object) -> tuple[int, int] | None:
    """field(*args), the width and offset of the fields that a half of the kernel at size t would
    pack, where that half runs on packed ints: when t >= _PACK_FROM_T and the fields are narrower
    than `bound` bits. None where it runs on rows; below _PACK_FROM_T nothing is computed."""
    return packed if t >= _PACK_FROM_T and (packed := field(*args))[0] < bound else None


def _recurrence_field(t: int, weights: list[int], Q: int) -> tuple[int, int]:
    """(w, beta) of _recurrence_packed's fields: beta = 2 t Q^2 and w the bit length of
    beta + 2 Q W, W the largest weight."""
    return ((beta := 2 * t * Q * Q) + 2 * Q * max(weights)).bit_length(), beta


def _steps(columns: Sequence[Sequence[int]], scales: list[int], Q: int) -> Iterator[tuple[int, list[int]]]:
    """(d, cs) of each step k of the Hessenberg recurrence for h = A * diag(scales), all mod Q:
    d = h_kk and cs_i = h_ik h_(i+1,i) ... h_(k,k-1) for i < k.

    `columns` holds A by columns, as _hessenberg hands it over. Only the Hessenberg entries, rows
    0..j+1 of column j, are read, so a column may stop after row j+1.
    """
    sub = [columns[i][i + 1] * scales[i] % Q for i in range(len(scales) - 1)]
    for k, (column, scale) in enumerate(zip(columns, scales)):
        cs, product = [0] * k, scale
        for i in range(k - 1, -1, -1):
            product = product * sub[i] % Q
            cs[i] = column[i] * product % Q
        yield column[k] * scale % Q, cs


def _recurrence_rows(columns: Sequence[Sequence[int]], weights: list[int], scales: list[int],
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


def _recurrence_packed(columns: Sequence[Sequence[int]], weights: list[int], scales: list[int],
                       Q: int, w: int, beta: int) -> list[int]:
    """The coefficients of _recurrence_rows, from p_0, ..., p_t held as one int each, with w and beta
    from _recurrence_field.

    P_i = sum_m x_m 2^(w m) with every field x_m in [0, 2Q) and congruent to p_i's X^m coefficient
    mod Q. With cs_i and d in [0, Q), each field of S = sum_(i<k) cs_i P_i + d P_k is below
    beta = 2 t Q^2, a multiple of Q, and each field of w_k P_k 2^w below 2 Q W, W the largest
    weight. So T = w_k P_k 2^w + beta (in fields 0..k) - S has fields 0..k in (0, beta + 2 Q W)
    and field k+1 below 2 Q W, all below 2^w, and no borrow crosses a field. _reduce_fields
    brings T's fields back into [0, 2Q), which makes P_(k+1).
    """
    n = len(scales)
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


def _hessenberg(m: Sequence[Sequence[int]], e: list[int], scales: list[int], p: int, q: int) -> list[list[int]]:
    """The Hessenberg entries of A, M = A * diag(scales) for the rows `m` of M, brought to upper
    Hessenberg form, lowering `e` and `scales` as needed: column j as rows 0..j+1, each entry a_ij
    or a_ij plus a multiple of q. On M's columns packed by _packed_columns where they pack, else on
    its rows."""
    if packed := _packed_columns(m, scales, q):
        return _hessenberg_packed(*packed, e, scales, p, q)
    return _hessenberg_rows(m, e, scales, p, q)


def _hessenberg_rows(m: Sequence[Sequence[int]], e: list[int], scales: list[int], p: int,
                     q: int) -> list[list[int]]:
    """_hessenberg on the rows `m` of M.

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
    return [list(column[:j + 2]) for j, column in enumerate(zip(*a))]


def _field_width(top: int, scales: list[int], q: int) -> tuple[int, int]:
    """(w, bias) of a packed field for a matrix M whose entries lie in [-top, top], given its column
    scales: every value v that _hessenberg_rows makes lies in (-V, V), so the field v + bias lies in
    (0, 2^w).

    The values stay below V = (a0 + p^E t q^2)(1 + t q) in absolute value, E the largest e_j,
    a0 = ceil(top / p^e) and e the least e_j, below which no step lowers an e_j:
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
    Any top at least M's largest |m_ij| is valid, and a larger one only widens the field.
    _packed_columns first takes top = 2^15, which holds wherever every entry packs as a 16-bit
    value; where one does not, M's largest |m_ij| is at least 2^15, so the exact top it takes
    then gives a width no smaller.
    bias is the least multiple of q above V, so v + bias > 0 and is congruent to v mod q; w is the
    bit length of bias + V, so v + bias < bias + V < 2^w.
    """
    least = min(scales)
    a0 = (top + least - 1) // least
    t = len(scales)
    bound = (a0 + max(scales) * t * q * q) * (1 + t * q)
    bias = (bound // q + 1) * q
    return (bias + bound).bit_length(), bias


def _stride(w: int) -> int:
    """Bits from one packed field to the next for fields of width w: w rounded up to whole bytes,
    and at least the 16 bits of a struct "h" value."""
    return max(16, (w + 7) // 8 * 8)


@lru_cache(maxsize=64)
def _short_fields(t: int, stride: int) -> tuple[Callable[..., bytes], int]:
    """(pack, signs): pack(*column) writes t values of [-2^15, 2^15) as 16-bit two's complement,
    little-endian, the first in the lowest of t fields of `stride` bits and the rest of each field
    zero, and raises struct.error for a value outside that range; signs has bit 15 of every field
    set. Kept per size, so a kernel builds neither."""
    fields = struct.Struct("<" + ("h" + "x" * (stride // 8 - 2)) * t)
    return fields.pack, ((1 << stride * t) - 1) // ((1 << stride) - 1) << 15


def _packed_columns(m: Sequence[Sequence[int]], scales: list[int],
                    q: int) -> tuple[list[int], int, int] | None:
    """(sums, w, bias) for _hessenberg_packed, or None where the reduction runs on rows: column j of
    M as one int, sums[j] = sum_i m_ij 2^(stride i) with stride = _stride(w), and w and bias from
    _field_width.

    The width is taken first with top = 2^15, and each column is packed with one struct call, its
    entries as 16-bit two's complement, read as one unsigned int x. Field i of x holds m_ij mod 2^16,
    whose bit 15 is set exactly where m_ij < 0, so field i of x ^ signs holds m_ij + 2^15 and
    (x ^ signs) - signs is the signed sum. Where an entry lies outside [-2^15, 2^15), struct.error
    is raised: M's largest |m_ij| is then at least 2^15, its width no smaller than the first, and a
    first verdict of rows stands. Only then is that |m_ij| read, the width taken again and, where
    it still packs, each column summed by shifts.
    """
    t = len(m)
    if not (field := _packed_field(t, _REDUCTION_BELOW_BITS, _field_width, 1 << 15, scales, q)):
        return None
    pack, signs = _short_fields(t, _stride(field[0]))
    try:
        return [(int.from_bytes(pack(*column), "little") ^ signs) - signs for column in zip(*m)], *field
    except struct.error:
        top = max(max(map(max, m)), -min(map(min, m)))
    if not (field := _packed_field(t, _REDUCTION_BELOW_BITS, _field_width, top, scales, q)):
        return None
    stride = _stride(field[0])
    at = range(0, stride * t, stride)
    return [sum(map(lshift, column, at)) for column in zip(*m)], *field


def _hessenberg_packed(sums: list[int], w: int, bias: int, e: list[int], scales: list[int], p: int,
                       q: int) -> list[list[int]]:
    """The steps of _hessenberg_rows, on A held as one int per column, from M's columns packed by
    _packed_columns.

    Column j is sum_i (a_ij + bias) 2^at[i], with w and bias from _field_width and the fields
    _stride(w) bits apart: the field at bit at[i] holds a_ij + bias and stays in (0, 2^w), so no
    carry crosses fields. M's column j is p^e_j times A's, and so is its packed form sums[j], so
    one exact division per column makes A's. bias is a multiple of q, so a field is congruent to
    a_ij mod q, and step k reads column k's fields from row k+1 down: where one is a unit mod p,
    the first is _pivot's pivot, and the f_i are the fields below it times its inverse mod q, with
    _lift's scale rule; else _pivot decides the step from the residues. A row step is one
    multiply-add on each column from k+1 on, and a row swap only swaps two offsets. At the end A
    is handed over in the shape of _hessenberg_rows, the fields of rows 0..j+1 of each column j
    read as they are: a_ij + bias changes column j of A by a multiple of q, which moves no residue.
    """
    n = len(sums)
    stride = _stride(w)
    mask = (1 << stride) - 1
    biases = bias * ((1 << stride * n) - 1) // mask  # every field at bias: the column of zeros
    at = list(range(0, stride * n, stride))
    cols = [c // scale + biases for c, scale in zip(sums, scales)]
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
    return [[c >> x & mask for x in at[:j + 2]] for j, c in enumerate(cols)]


def _exact_precision(entries: tuple[tuple[int, ...], ...], p: int) -> int:
    """Least s with p^s > 2 * prod_l (2 + isqrt(|column l|^2)), twice a Hadamard bound on every |c_i|."""
    bound = 2 * prod(2 + isqrt(sum(x * x for x in column)) for column in zip(*entries))
    s = (bound.bit_length() - 1) // p.bit_length()  # p^s < 2^(s bitlen p) <= bound: s is too small
    power = p**s
    while power <= bound:
        power *= p
        s += 1
    return s


def char_poly(matrix: IntegerMatrix) -> list[int]:
    """Coefficients [1, c_1, ..., c_t] of det(X*I - M) = sum c_i X^(t-i).

    The symmetric lift of the kernel's residues c_i mod 2^(H(i)+s) at p = 2, with 2^s past twice
    the Hadamard bound: 2^(H(i)+s) >= 2^s > 2|c_i|, so the lift is c_i.
    """
    residues, hodge = _char_poly_mod(matrix.entries, 2, s := _exact_precision(matrix.entries, 2))
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


def _prime(p: int) -> int:
    """p as an int where it is a prime int; NotPrime for any other p, 3.0 and Fraction(3) included."""
    try:
        p = index(p)
    except TypeError:
        raise NotPrime(f"{p!r} is not an int") from None
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    return p


def newton_polygon(coeffs: list[int], p: int) -> NewtonPolygon:
    """Newton polygon of a monic integer polynomial given as [1, c_1, ..., c_t]: the lower hull of the
    points (i, v_p(c_i)) of the non-zero c_i, and an infinite slope for each coefficient after the
    last of them."""
    if not coeffs or coeffs[0] != 1:
        raise NotMonic(f"leading coefficient must be 1, got {coeffs[:1]}")
    p = _prime(p)
    points = [(i, _valuation(c, p)) for i, c in enumerate(coeffs) if c != 0]
    return NewtonPolygon(_lower_hull(points), len(coeffs) - 1 - points[-1][0])


@lru_cache(maxsize=8, typed=True)
def matrix_newton_polygon(matrix: IntegerMatrix, p: int) -> NewtonPolygon:
    """Newton polygon at p of the characteristic polynomial of `matrix`, one shared immutable value
    per (matrix, p) of the last 8. Callers reuse a polygon only right after computing it (once per
    alpha in verify_corollary), and a larger memo would keep big matrices alive for nothing.

    The kernel gives each c_i mod p^(H(i)+s). A non-zero residue fixes v_p(c_i),
    counted from H(i) on since p^H(i) divides c_i; a zero one only says
    v_p(c_i) >= H(i)+s. So the hull of the known points is the polygon when
    c_t's residue is non-zero and every point (i, H(i)+s) of a zero residue lies
    on or above it, i.e. is no vertex of the hull of all the points. The kernel
    runs at s = _SLACK, 2 * _SLACK, 4 * _SLACK, ... and stops at the first s that
    certifies the hull, or at s_max = _exact_precision(entries, p): there
    p^(H(i)+s) > 2|c_i|, so a zero residue is a zero c_i, and the polygon is the
    hull of the known points, with an infinite slope for each coefficient after the
    last of them. s_max is taken only once s = 2 * _SLACK leaves the hull
    uncertified. Where c_t's residue is still 0 there and det M is 0 mod a prime of
    _DET_PRIMES as well, M is most likely singular, which no rung below s_max
    certifies, and the next rung is s_max.
    """
    p = _prime(p)
    entries = matrix.entries
    s, exact = _SLACK, inf  # exact: s_max, once taken
    while True:
        g, hodge, lam, D = _kernel(entries, p, s)
        # c_i = p^(lam i - D+) g_(t-i) is known mod p^(H(i)+s), and g_(t-i) mod Q as far as that
        # needs: below H(i)+s, v_p(c_i) is v_p(g_(t-i)) + lam i - D+; else c_i's point is unknown,
        # at H(i)+s or above, and is placed there
        tops = [h + s for h in hodge]
        points = [min(_valuation(y, p) + lam * i - D, top) if y else top
                  for i, (y, top) in enumerate(zip(g, tops))]
        if points[-1] < tops[-1]:
            hull = _lower_hull(list(enumerate(points)))
            if all(points[i] < tops[i] for i, _ in hull):
                return NewtonPolygon._unchecked(tuple(hull), 0)
        if s == 2 * _SLACK:
            exact = _exact_precision(entries, p)
            ell = next(ell for ell in _DET_PRIMES if ell != p)
            if s < exact and points[-1] == tops[-1] and not _char_poly_mod(entries, ell, 1)[0][-1]:
                s = exact  # most likely singular, which no rung below s_max certifies
                continue
        if s >= exact:
            known = [(i, y) for i, (y, top) in enumerate(zip(points, tops)) if y < top]
            return NewtonPolygon._unchecked(tuple(_lower_hull(known)), len(points) - 1 - known[-1][0])
        s = min(2 * s, exact)


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
