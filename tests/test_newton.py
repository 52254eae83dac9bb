import random
import sys
from fractions import Fraction
from itertools import accumulate, permutations
from math import gcd, isqrt
from operator import mul
from unittest.mock import patch

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from slopebound import newton
from slopebound.counting import ElemDivSeq
from slopebound.harness import draw_b_seq, gen_instance
from slopebound.newton import (
    IntegerMatrix,
    NewtonPolygon,
    NotMonic,
    NotPrime,
    _balanced_scale,
    _char_poly_mod,
    _exact_precision,
    _field_width,
    _hessenberg_packed,
    _hessenberg_rows,
    _kernel,
    _lift,
    _packed_columns,
    _packed_field,
    _pivot,
    _recurrence,
    _recurrence_field,
    _recurrence_packed,
    _recurrence_rows,
    _reduce_fields,
    _steps,
    _stride,
    char_poly,
    check_lower_bound,
    matrix_newton_polygon,
    newton_polygon,
    slope_le_dimension,
)
from slopebound.plf import DomainTooShort, PiecewiseLinear, _check_anchored, from_divisor_sequence
from slopebound.rootsystems import build_root_system, parse_label

small_matrices = st.integers(min_value=2, max_value=5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


def identity(n):
    return IntegerMatrix.diagonal([1] * n)


def charpoly_by_eigen_expansion(diag):
    """Oracle for diagonal matrices: expand prod (X - d_i) term by term."""
    coeffs = [1]
    for d in diag:
        coeffs = [c for c in coeffs] + [0]
        for i in range(len(coeffs) - 1, 0, -1):
            coeffs[i] -= d * coeffs[i - 1]
    return coeffs


def charpoly_faddeev_leverrier(rows):
    """Reference: Faddeev-LeVerrier over the integers, every division checked exact."""
    n = len(rows)
    coeffs = [1]
    work = [list(row) for row in rows]
    for k in range(1, n + 1):
        c, rem = divmod(-sum(work[i][i] for i in range(n)), k)
        if rem:
            raise ArithmeticError(f"trace not divisible by {k} in Faddeev-LeVerrier")
        coeffs.append(c)
        if k < n:
            for i in range(n):
                work[i][i] += c
            columns = list(zip(*work))
            work = [[sum(map(mul, row, column)) for column in columns] for row in rows]
    return coeffs


def charpoly_berkowitz(rows):
    """Reference: division-free Berkowitz over the integers, O(t^4)."""
    coeffs = [1]
    for k in range(len(rows)):
        # Leading (k+1)-block = [[A, col], [row, d]]: its polynomial is the
        # Toeplitz product of q = (1, -d, -row.col, -row.A.col, ...,
        # -row.A^(k-1).col) with the polynomial of A.
        block = [r[:k] for r in rows[:k]]
        row = rows[k][:k]
        vec = [r[k] for r in rows[:k]]
        q = [1, -rows[k][k]]
        for j in range(k):
            if j:
                vec = [sum(map(mul, r, vec)) for r in block]
            q.append(-sum(map(mul, row, vec)))
        coeffs = [sum(q[i - j] * coeffs[j] for j in range(min(i, k) + 1)) for i in range(k + 2)]
    return coeffs


def charpoly_sympy(rows):
    return [int(c) for c in sympy.Matrix(rows).charpoly(sympy.Symbol("x")).all_coeffs()]


@st.composite
def shaped_matrices(draw, kind, p, max_t=10):
    """t x t integer matrices, t <= max_t, of the given kind; "scaled" and "deep" scale columns by
    powers of p, "deep" up to p^10; "spread" has t >= 10 and column contents p^0..p^2 and
    p^8..p^10, each at least once, on both sides of the balanced scale unless the reduction lowers them."""
    t = draw(st.integers(min_value=10 if kind == "spread" else 1, max_value=max_t))
    rows = draw(st.lists(
        st.lists(st.integers(min_value=-30, max_value=30), min_size=t, max_size=t),
        min_size=t, max_size=t,
    ))
    if kind == "zero":
        rows = [[0] * t for _ in range(t)]
    elif kind == "singular":  # last row is the sum of the others
        rows[-1] = [sum(col) for col in zip(*rows[:-1])] if t > 1 else [0]
    elif kind == "nilpotent":  # strictly upper triangular
        rows = [[e if j > i else 0 for j, e in enumerate(row)] for i, row in enumerate(rows)]
    elif kind in ("scaled", "deep"):  # column l times p^k_l, as gen_instance scales them
        top = 4 if kind == "scaled" else 10
        ks = draw(st.lists(st.integers(min_value=0, max_value=top), min_size=t, max_size=t))
        rows = [[e * p ** k for e, k in zip(row, ks)] for row in rows]
    elif kind == "spread":  # entries prime to p, so column l's content is p^k_l
        ks = draw(st.lists(st.sampled_from([0, 1, 2, 8, 9, 10]), min_size=t - 2, max_size=t - 2))
        ks = draw(st.permutations(ks + [draw(st.integers(0, 2)), draw(st.integers(8, 10))]))
        rows = [[(e if e % p else e + 1) * p ** k for e, k in zip(row, ks)] for row in rows]
    return rows


class TestCharPolyOracles:
    @pytest.mark.parametrize("kind", ["random", "zero", "singular", "nilpotent", "scaled"])
    @given(data=st.data(), p=st.sampled_from([2, 3, 5]))
    @settings(max_examples=40, deadline=None)
    def test_matches_faddeev_leverrier_and_sympy(self, kind, data, p):
        rows = data.draw(shaped_matrices(kind, p))
        coeffs = char_poly(IntegerMatrix(tuple(tuple(r) for r in rows)))
        assert coeffs == charpoly_faddeev_leverrier(rows)
        assert coeffs == charpoly_sympy(rows)
        assert coeffs == charpoly_berkowitz(rows)
        if kind in ("zero", "nilpotent"):
            assert coeffs == [1] + [0] * len(rows)
        elif kind == "singular":
            assert coeffs[-1] == 0

    def test_generated_instance_at_t24(self):
        inst = gen_instance(5, p=2, t=24, r=3, b_seq=ElemDivSeq((3, 2, 1)), entry_bound=50)
        assert char_poly(inst.matrix) == charpoly_faddeev_leverrier(inst.matrix.entries)

    def test_generated_instance_at_t40_against_berkowitz(self):
        inst = gen_instance(9, p=3, t=40, r=3, b_seq=ElemDivSeq((3, 3, 2, 1)), entry_bound=50)
        assert char_poly(inst.matrix) == charpoly_berkowitz(inst.matrix.entries)


KINDS = ["random", "zero", "singular", "nilpotent", "scaled"]
SLACK = newton._SLACK


class TestKernel:
    """_char_poly_mod loses no precision, and matrix_newton_polygon leaves each exit exact."""

    @pytest.mark.parametrize("kind", KINDS)
    @given(data=st.data(), p=st.sampled_from([2, 3, 5, 7]))
    @settings(max_examples=30, deadline=None)
    def test_residues_at_every_precision(self, kind, data, p):
        rows = data.draw(shaped_matrices(kind, p))
        exact = charpoly_faddeev_leverrier(rows)
        entries = tuple(map(tuple, rows))
        for s in range(1, 13):
            residues, hodge = _char_poly_mod(entries, p, s)
            assert residues == [c % p ** (h + s) for c, h in zip(exact, hodge)]

    @pytest.mark.parametrize("kind", KINDS)
    @given(data=st.data(), p=st.sampled_from([2, 3, 5, 7]), s=st.integers(min_value=1, max_value=12))
    @settings(max_examples=30, deadline=None)
    def test_hodge_bound_divides_every_coefficient(self, kind, data, p, s):
        rows = data.draw(shaped_matrices(kind, p))
        exact = charpoly_faddeev_leverrier(rows)
        _, hodge = _char_poly_mod(tuple(map(tuple, rows)), p, s)
        assert all(c % p**h == 0 for c, h in zip(exact, hodge))
        # the sums of the i least of t scales, which start at the column contents and only drop
        steps = [y - x for x, y in zip(hodge, hodge[1:])]
        assert hodge[0] == 0 and 0 <= steps[0] and steps == sorted(steps)
        assert hodge[-1] <= sum(newton._valuation(c, p) for c in map(gcd, *rows) if c)

    @pytest.mark.parametrize("kind", KINDS)
    @given(data=st.data(), p=st.sampled_from([2, 3, 5, 7]))
    @settings(max_examples=30, deadline=None)
    def test_polygon_equals_polygon_of_exact_coefficients(self, kind, data, p):
        rows = data.draw(shaped_matrices(kind, p))
        matrix = IntegerMatrix(tuple(map(tuple, rows)))
        assert matrix_newton_polygon(matrix, p) == newton_polygon(charpoly_faddeev_leverrier(rows), p)

    @pytest.mark.parametrize("kind", KINDS)
    @given(data=st.data(), p=st.sampled_from([2, 3, 5]))
    @settings(max_examples=30, deadline=None)
    def test_finite_length_is_the_last_non_zero_coefficient(self, kind, data, p):
        rows = data.draw(shaped_matrices(kind, p))
        exact = charpoly_faddeev_leverrier(rows)
        poly = matrix_newton_polygon(IntegerMatrix(tuple(map(tuple, rows))), p)
        assert poly.finite_length == max(i for i, c in enumerate(exact) if c)
        assert poly.finite_length + poly.infinite_slopes == len(rows)

    @given(data=st.data(), p=st.sampled_from([2, 3, 5, 7]),
           kind=st.sampled_from(["generated", "transposed", "generated singular", "generated deep",
                                 "deep", "singular", "spread"]))
    @settings(max_examples=180, deadline=None)
    def test_hull_points_from_g_give_the_polygon_of_the_exact_coefficients(self, data, p, kind):
        # matrix_newton_polygon places each point at v_p(g_(t-i)) + lam i - D+, capped at H(i)+s, on
        # every rung of its ladder. The matrices: generated operators at t <= 24 with column scales up
        # to p^40, and from them transposes (the Hodge bound of the rows' contents), singular matrices
        # (last row the sum of the others, which keeps the column contents) and deep ones (the last
        # column replaced by the first plus p^d times itself, which multiplies det by p^d and mixes
        # the contents); and deep, singular and spread matrices from shaped_matrices. So polygons
        # certify at s = 8, at higher rungs and at s_max, singular ones after a jump from s = 16
        if kind in ("deep", "singular", "spread"):
            rows = data.draw(shaped_matrices(kind, p, max_t=16))
        else:
            t, r = data.draw(st.integers(1, 24)), data.draw(st.integers(1, 40))
            b = sorted(data.draw(st.lists(st.integers(1, r), max_size=t)), reverse=True)
            rows = [list(row) for row in gen_instance(data.draw(st.integers(0, 2**32)), p=p, t=t, r=r,
                                                       b_seq=ElemDivSeq(tuple(b)), entry_bound=50).matrix.entries]
            if kind == "transposed":
                rows = [list(column) for column in zip(*rows)]
            elif kind == "generated singular":
                rows[-1] = [sum(column) for column in zip(*rows[:-1])] if t > 1 else [0]
            elif kind == "generated deep":
                d = data.draw(st.integers(1, 60))
                for row in rows:
                    row[-1] = row[0] + p**d * row[-1]
        matrix = IntegerMatrix(tuple(map(tuple, rows)))
        matrix_newton_polygon.cache_clear()
        assert matrix_newton_polygon(matrix, p) == newton_polygon(char_poly(matrix), p)

    @pytest.mark.parametrize("kind", KINDS + ["deep", "spread"])
    @given(data=st.data(), p=st.sampled_from([2, 3, 5, 7]))
    @settings(max_examples=30, deadline=None)
    def test_hull_is_stored_as_the_public_constructor_would_store_it(self, kind, data, p):
        # matrix_newton_polygon stores its hull unchecked: it must be int pairs that pass the
        # public constructor's checks, and a lower hull, every edge steeper than the one before
        rows = data.draw(shaped_matrices(kind, p, max_t=16))
        matrix_newton_polygon.cache_clear()
        poly = matrix_newton_polygon(IntegerMatrix(tuple(map(tuple, rows))), p)
        vertices = poly.vertices
        assert type(vertices) is tuple
        assert all(type(x) is int and type(y) is int for x, y in vertices)
        _check_anchored(vertices)
        assert all((y1 - y0) * (x2 - x1) < (y2 - y1) * (x1 - x0)
                   for (x0, y0), (x1, y1), (x2, y2) in zip(vertices, vertices[1:], vertices[2:]))
        public = NewtonPolygon(vertices, poly.infinite_slopes)
        assert poly == public and hash(poly) == hash(public) and repr(poly) == repr(public)

    @staticmethod
    def precisions(monkeypatch, matrix, p):
        """The polygon of `matrix` at p, and the (prime, digits s above the Hodge bound) of each kernel run."""
        seen = []

        def spy(entries, p, s):
            seen.append((p, s))
            return _kernel(entries, p, s)

        monkeypatch.setattr(newton, "_kernel", spy)
        matrix_newton_polygon.cache_clear()
        return matrix_newton_polygon(matrix, p), seen

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_deep_determinant_runs_again_at_the_exact_precision(self, monkeypatch, p):
        # v_p(det) = 40, far above the Hodge bound from the columns' contents, which is 0: det is 0
        # mod p^16 but not mod 65521, so the ladder doubles to s = 32 and then ends at s_max, the
        # least s past twice the Hadamard bound, which lies between 40 and 64
        matrix = IntegerMatrix(((1, 1), (1, 1 + p**40)))
        assert _char_poly_mod(matrix.entries, p, SLACK) == ([1, (-2 - p**40) % p**SLACK, 0], [0, 0, 0])
        poly, seen = self.precisions(monkeypatch, matrix, p)
        assert poly == newton_polygon([1, -(2 + p**40), p**40], p)
        assert poly.finite_length == 2
        exact = _exact_precision(matrix.entries, p)
        assert 40 < exact < 8 * SLACK
        assert seen == [(p, SLACK), (p, 2 * SLACK), (65521, 1), (p, 4 * SLACK), (p, exact)]

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_start_precision_covers_the_column_contents(self, monkeypatch, p):
        # contents p^3 and p^5, det = p^8: the Hodge bound is [0, 3, 8], and one run at 8 digits
        # above it suffices, where 8 digits above [0, 0, 0] would leave det at 0
        assert SLACK == 8
        matrix = IntegerMatrix(((p**3, p**5), (2 * p**3, 3 * p**5)))
        assert _char_poly_mod(matrix.entries, p, SLACK)[1] == [0, 3, 8]
        poly, seen = self.precisions(monkeypatch, matrix, p)
        assert seen == [(p, SLACK)]
        assert poly == newton_polygon(charpoly_faddeev_leverrier(matrix.entries), p)

    def test_singular_matrix_ends_at_the_exact_lift(self, monkeypatch):
        rows = ((4, 2, 6), (2, 8, 10), (6, 10, 16))  # third column = first + second
        matrix = IntegerMatrix(rows)
        # each column's content is 2, and no column op needs a lower scale
        assert _char_poly_mod(rows, 2, SLACK) == ([1, 484, 84, 0], [0, 1, 2, 3])
        # 2^16 is past twice the Hadamard bound, so the rung at s = 16 is exact: its zero residue
        # is a zero det, and no det check or further rung runs
        assert _exact_precision(rows, 2) <= 2 * SLACK
        poly, seen = self.precisions(monkeypatch, matrix, 2)
        assert seen == [(2, SLACK), (2, 2 * SLACK)]
        assert poly == newton_polygon(charpoly_faddeev_leverrier(rows), 2)
        assert (poly.finite_length, poly.infinite_slopes) == (2, 1)

    @pytest.mark.parametrize(("p", "ell"), [(2, 65521), (3, 65521), (65521, 65519)])
    def test_singular_matrix_jumps_from_s_16_to_the_exact_precision(self, monkeypatch, p, ell):
        # the singular matrix above times p^12: s_max is past 32, c_t's residue is 0 at s = 16 and
        # det is 0 mod ell, a prime other than p, so the next rung is s_max, not s = 32
        rows = tuple(tuple(x * p**12 for x in row) for row in ((4, 2, 6), (2, 8, 10), (6, 10, 16)))
        exact = _exact_precision(rows, p)
        assert exact > 4 * SLACK
        poly, seen = self.precisions(monkeypatch, IntegerMatrix(rows), p)
        assert seen == [(p, SLACK), (p, 2 * SLACK), (ell, 1), (p, exact)]
        assert poly == newton_polygon(charpoly_faddeev_leverrier(rows), p)
        assert (poly.finite_length, poly.infinite_slopes) == (2, 1)

    @pytest.mark.parametrize("p", [2, 3])
    def test_singular_matrix_at_t48_takes_no_rung_between_16_and_the_exact_precision(self, monkeypatch, p):
        rng = random.Random(48)
        rows = [[rng.randint(-30, 30) for _ in range(48)] for _ in range(47)]
        rows.append([sum(column) for column in zip(*rows)])
        matrix = IntegerMatrix(tuple(map(tuple, rows)))
        poly, seen = self.precisions(monkeypatch, matrix, p)
        assert seen == [(p, SLACK), (p, 2 * SLACK), (65521, 1), (p, _exact_precision(matrix.entries, p))]
        assert poly == newton_polygon(char_poly(matrix), p)
        assert poly.infinite_slopes >= 1

    @pytest.mark.parametrize(("p", "upper"), [(2, [4 * SLACK, 8 * SLACK]), (3, [4 * SLACK])])
    def test_large_r_instance_certifies_below_the_exact_precision(self, monkeypatch, p, upper):
        # verify chain --type A2 --g 1 --t 64 --r 32, seed 0: the reduction lowers H(t) past 16
        # digits, and the ladder doubles from s = 16 (det is not 0 mod 65521) up to the first
        # certifying rung, s = 64 at p = 2 and s = 32 at p = 3, far below s_max
        system = build_root_system(*parse_label("A2"))
        matrix = gen_instance(0, p, 64, 32, draw_b_seq(0, system, 1, 32, 64), 50).matrix
        poly, seen = self.precisions(monkeypatch, matrix, p)
        assert seen == [(p, SLACK), (p, 2 * SLACK), (65521, 1)] + [(p, s) for s in upper]
        assert upper[-1] < _exact_precision(matrix.entries, p)
        assert poly.infinite_slopes == 0

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_column_op_lowers_a_larger_scale_just_enough(self, monkeypatch, p):
        # column 0 pivots on row 2, so the transposition brings column 2, scale 3, next to the
        # pivot; adding f = p times column 2 (scale 0) to it lowers that scale to 1, not to 0.
        # At s = 1, f is 0 mod p^s, and the scale stays.
        rows = ((2, 5, 3 * p**3), (p, 1, 7 * p**3), (1, 4, 2 * p**3))
        exact = charpoly_faddeev_leverrier(rows)
        for s in range(1, 13):
            residues, hodge = _char_poly_mod(rows, p, s)
            assert hodge == [0, 0, 0, 3 if s == 1 else 1]
            assert residues == [c % p ** (h + s) for c, h in zip(exact, hodge)]
        poly, seen = self.precisions(monkeypatch, IntegerMatrix(rows), p)
        assert seen == [(p, SLACK)]
        assert poly == newton_polygon(exact, p)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_unsorted_scales_are_sorted_before_the_reduction(self, monkeypatch, p):
        # column scales (0, 3, 0): reduced in this order, column 1 would gain column 2 and drop to
        # scale 0; conjugated by the permutation (0, 2, 1) first, the scales stay and H(3) = 3
        rows = ((1, p**3, 1), (1, 2 * p**3, 3), (1, 5 * p**3, 1))
        exact = charpoly_faddeev_leverrier(rows)
        for s in range(1, 13):
            residues, hodge = _char_poly_mod(rows, p, s)
            assert hodge == [0, 0, 0, 3]
            assert residues == [c % p ** (h + s) for c, h in zip(exact, hodge)]
        poly, seen = self.precisions(monkeypatch, IntegerMatrix(rows), p)
        assert seen == [(p, SLACK)]
        assert poly == newton_polygon(exact, p)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_zero_residue_below_the_known_hull_runs_again(self, monkeypatch, p):
        # c_1 = -p^s is 0 mod p^(H(1)+s) = p^s, and (1, s) lies below the chord to (2, 2s+2);
        # at 2s digits c_1's residue is non-zero, and the second run certifies the hull
        matrix = IntegerMatrix(((p**SLACK, p ** (2 * SLACK + 2)), (1, 0)))
        assert _char_poly_mod(matrix.entries, p, SLACK) == ([1, 0, -(p ** (2 * SLACK + 2)) % p ** (3 * SLACK + 2)],
                                                             [0, 0, 2 * SLACK + 2])
        poly, seen = self.precisions(monkeypatch, matrix, p)
        assert seen == [(p, SLACK), (p, 2 * SLACK)]
        assert poly.slopes() == ((SLACK, 1), (SLACK + 2, 1))

    @pytest.mark.parametrize("p", [2, 3])
    def test_known_determinant_takes_no_check_and_keeps_doubling(self, monkeypatch, p):
        # column contents 1 and p^40; c_1 = -(p^20 + p^40) is 0 mod p^16, and (1, 16) lies below the
        # chord to (2, 40), so s = 16 does not certify. c_2 = 65521 p^40 is known there, so det is
        # not checked, although it is 0 mod 65521, and the next rung is s = 32, not s_max
        matrix = IntegerMatrix(((p**20, (p**20 - 65521) * p**40), (1, p**40)))
        poly, seen = self.precisions(monkeypatch, matrix, p)
        assert seen == [(p, SLACK), (p, 2 * SLACK), (p, 4 * SLACK)]
        assert poly == newton_polygon([1, -(p**20 + p**40), 65521 * p**40], p)
        assert poly.vertices == ((0, 0), (2, 40))

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_zero_residue_above_the_known_hull_needs_no_second_run(self, monkeypatch, p):
        # c_1 = 0 is 0 mod p^s, and (1, s) lies above the chord to (2, 2)
        matrix = IntegerMatrix(((0, p**2), (1, 0)))
        poly, seen = self.precisions(monkeypatch, matrix, p)
        assert seen == [(p, SLACK)]
        assert poly == newton_polygon([1, 0, -(p**2)], p)
        assert poly.slopes() == ((1, 2),)

    @pytest.mark.parametrize("kind", KINDS)
    @given(data=st.data(), p=st.sampled_from([2, 3, 5, 7, 257, 65537]))
    @settings(max_examples=30, deadline=None)
    def test_exact_precision_is_the_least_above_the_bound(self, kind, data, p):
        rows = data.draw(shaped_matrices(kind, p))
        P = _exact_precision(tuple(map(tuple, rows)), p)
        bound = 2
        for column in zip(*rows):
            bound *= 2 + isqrt(sum(x * x for x in column))
        assert p ** (P - 1) <= bound < p**P
        assert all(2 * abs(c) < p**P for c in charpoly_faddeev_leverrier(rows))

    def test_polygon_is_cached_per_matrix_and_prime(self):
        # chi = X^2 - 5X + 5: at p = 5 the point (1, 1) lies above the chord from (0, 0) to (2, 1)
        matrix = IntegerMatrix(((2, 1), (1, 3)))
        assert matrix_newton_polygon(matrix, 2) is matrix_newton_polygon(matrix, 2)
        poly = matrix_newton_polygon(matrix, 5)
        assert poly == newton_polygon([1, -5, 5], 5) == NewtonPolygon(((0, 0), (2, 1)), 0)
        assert all(type(c) is int for vertex in poly.vertices for c in vertex)
        assert poly.polygon == PiecewiseLinear(poly.vertices)

    @pytest.mark.parametrize("p", [1, 4, 3.0, Fraction(3), 2.0])
    def test_not_prime(self, monkeypatch, p):
        # 3.0 and Fraction(3) equal 3 and hash as 3, yet a polygon cached at 3 must not answer them
        matrix_newton_polygon(identity(2), 3)
        matrix_newton_polygon(identity(2), 2)
        monkeypatch.setattr(newton, "_kernel", None)  # no work is done before the refusal
        with pytest.raises(NotPrime):
            matrix_newton_polygon(identity(2), p)

    # a kernel call at size t, and the forms its halves take at t = 7, reduction first. The exact run at
    # 2^13, and at 2^220, where only the recurrence's fields (428 bits) fit; the s = 8 rung at p = 65537,
    # q = 2^128, where the reduction's fields are 423 bits at E = 2 and 439 at E = 3; a rung at a prime
    # above 2^32; scales 1 and 2^E at q = 2^8, whose reduction's fields are 435 bits at E = 404 and 436
    # at E = 405; and the recurrence alone on I mod 3 * 2^252 and 2^254, in fields of 511 and 512 bits
    SELECTION = {
        "exact-I": (lambda t: (char_poly, identity(t)), ("packed", "packed")),
        "exact-2^30-I": (lambda t: (char_poly, IntegerMatrix.diagonal([2**30] * t)), ("rows", "packed")),
        "p65537-E2": (lambda t: (_char_poly_mod, gen_instance(1, 65537, t, 2, ElemDivSeq((1,)), 50).matrix.entries,
                                 65537, SLACK), ("packed", "packed")),
        "p65537-E3": (lambda t: (_char_poly_mod, gen_instance(1, 65537, t, 3, ElemDivSeq((2, 1)), 50).matrix.entries,
                                 65537, SLACK), ("rows", "packed")),
        "p-above-2^32": (lambda t: (_char_poly_mod, gen_instance(1, 2**32 + 15, t, 3, ElemDivSeq((2, 1)), 50)
                                    .matrix.entries, 2**32 + 15, SLACK), ("rows", "rows")),
        "spread-435": (lambda t: (_char_poly_mod, IntegerMatrix.diagonal([1] * (t - 1) + [2**404]).entries, 2, SLACK),
                       ("packed", "rows")),
        "spread-436": (lambda t: (_char_poly_mod, IntegerMatrix.diagonal([1] * (t - 1) + [2**405]).entries, 2, SLACK),
                       ("rows", "rows")),
        "recurrence-511": (lambda t: (_recurrence, identity(t).entries, [1] * t, [1] * t, 3 << 252), ("packed",)),
        "recurrence-512": (lambda t: (_recurrence, identity(t).entries, [1] * t, [1] * t, 1 << 254), ("rows",)),
    }

    @pytest.mark.parametrize("t", [6, 7])
    @pytest.mark.parametrize("case", list(SELECTION))
    def test_each_half_packs_from_t_7_below_its_bound(self, case, t):
        # a half packs when t >= 7 and the fields it would pack are narrower than its bound, 436 bits for
        # the reduction (_field_width) and 512 for the recurrence (_recurrence_field); each width is
        # computed once, and only from t = 7 on
        assert (newton._PACK_FROM_T, newton._REDUCTION_BELOW_BITS, newton._RECURRENCE_BELOW_BITS) == (7, 436, 512)
        build, forms = self.SELECTION[case]
        kernel, *args = build(t)
        widths, taken = {436: [], 512: []}, []

        def width(field, bound):
            def spy(*xs):
                packed = field(*xs)
                widths[bound].append(packed[0])
                return packed

            return spy

        def form(name, fn):
            return lambda *xs: taken.append(name) or fn(*xs)

        with patch.object(newton, "_field_width", width(_field_width, 436)), \
                patch.object(newton, "_recurrence_field", width(_recurrence_field, 512)), \
                patch.object(newton, "_hessenberg_rows", form("rows", _hessenberg_rows)), \
                patch.object(newton, "_hessenberg_packed", form("packed", _hessenberg_packed)), \
                patch.object(newton, "_recurrence_rows", form("rows", _recurrence_rows)), \
                patch.object(newton, "_recurrence_packed", form("packed", _recurrence_packed)):
            kernel(*args)
        if t < 7:
            assert widths == {436: [], 512: []} and taken == ["rows"] * len(forms)
            return
        # the reduction takes its width again, from M's largest entry, only where the first one fits
        # and an entry lies outside [-2^15, 2^15); the last width of each half decides its form
        if reduction := widths[436]:
            entries = args[0].entries if kernel is char_poly else args[0]
            wide = not all(-2**15 <= x < 2**15 for row in entries for x in row)
            assert len(reduction) == 1 + (wide and reduction[0] < 436)
        fits = [taken_widths[-1] < bound for bound, taken_widths in widths.items() if taken_widths]
        assert taken == list(forms) == ["packed" if fit else "rows" for fit in fits]
        if case[-3:].isdigit():
            assert next(taken_widths[-1] for taken_widths in widths.values() if taken_widths) == int(case[-3:])


def moduli(kernel, *args):
    """kernel(*args), and the modulus Q of each recurrence it runs."""
    seen = []

    def spy(columns, weights, scales, Q):
        seen.append(Q)
        return _recurrence(columns, weights, scales, Q)

    with patch.object(newton, "_recurrence", spy):
        return kernel(*args), seen


def balance(hodge):
    """(lam, D+, E-) for the column scales behind `hodge`, lam the least maximum of D+ and E- found
    by trying every lam from min e to max e."""
    e = [y - x for x, y in zip(hodge, hodge[1:])]
    sums = {lam: (sum(max(lam - x, 0) for x in e), sum(max(x - lam, 0) for x in e))
            for lam in range(min(e), max(e) + 1)}
    lam = min(sums, key=lambda lam: max(sums[lam]))
    return (lam, *sums[lam])


SPREAD_KINDS = KINDS + ["deep", "spread"]


class TestBalancedRecurrence:
    """The recurrence at the balanced column scale gives the residues of the plain one (lam = 0),
    mod p^(s + max(D+, E-)), never more than p^(H(t)+s)."""

    @pytest.mark.parametrize("kind", SPREAD_KINDS)
    @given(data=st.data(), p=st.sampled_from([2, 3, 5, 7]), s=st.integers(min_value=1, max_value=12))
    @settings(max_examples=30, deadline=None)
    def test_same_residues_as_the_plain_recurrence(self, kind, data, p, s):
        rows = data.draw(shaped_matrices(kind, p, max_t=16))
        entries = tuple(map(tuple, rows))
        residues, hodge = _char_poly_mod(entries, p, s)
        with patch.object(newton, "_balanced_scale", lambda ordered, hodge: (0, 0, hodge[-1])):
            plain, seen = moduli(_char_poly_mod, entries, p, s)
        assert seen == [p ** (hodge[-1] + s)]
        assert (residues, hodge) == plain
        assert residues == [c % p ** (h + s) for c, h in zip(charpoly_faddeev_leverrier(rows), hodge)]

    @pytest.mark.parametrize("kind", SPREAD_KINDS)
    @given(data=st.data(), p=st.sampled_from([2, 3, 5, 7]), s=st.integers(min_value=1, max_value=12))
    @settings(max_examples=30, deadline=None)
    def test_modulus_is_balanced_and_never_above_the_plain_one(self, kind, data, p, s):
        entries = tuple(map(tuple, data.draw(shaped_matrices(kind, p, max_t=16))))
        (_, hodge), seen = moduli(_char_poly_mod, entries, p, s)
        _, low, high = balance(hodge)
        assert seen == [p ** (s + max(low, high))]
        assert seen[0] <= p ** (hodge[-1] + s)

    @given(st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_balanced_scale_is_a_least_maximum(self, e):
        ordered = sorted(e)
        hodge = list(accumulate(ordered, initial=0))
        lam, low, high = _balanced_scale(ordered, hodge)
        assert min(e) <= lam <= max(e)
        assert (low, high) == (sum(max(lam - x, 0) for x in e), sum(max(x - lam, 0) for x in e))
        assert max(low, high) == max(balance(hodge)[1:])

    @pytest.mark.parametrize("p", [2, 3])
    def test_one_digit_less_of_modulus_loses_the_determinant(self, p):
        # column scales 0 and 4 balance at lam = 2 with D+ = E- = 2, so Q = p^(s+2); c_2 = det is
        # known mod p^(H(2)+s) = p^(4+s) only from g_0 = c_2 / p^2 mod p^(s+2)
        rows = ((1, 3 * p**4), (5, (p**SLACK - 1) * p**4))
        exact = charpoly_faddeev_leverrier(rows)
        residues, hodge = _char_poly_mod(rows, p, SLACK)
        assert hodge == [0, 0, 4] and balance(hodge) == (2, 2, 2)
        assert residues == [c % p ** (h + SLACK) for c, h in zip(exact, hodge)]
        def short_modulus(columns, weights, scales, Q):
            return _recurrence(columns, weights, scales, Q // p)

        with patch.object(newton, "_recurrence", short_modulus):
            short, _ = _char_poly_mod(rows, p, SLACK)
        assert short[:2] == residues[:2] and short[2] != residues[2]


def pivot_reference(column, k, e, scales, p, q):
    """_pivot's decisions from the full arithmetic at every step, with no early exit: the terms
    f_i p^e_i, their gcd and the division by the scale."""
    if (unit := gcd(q, *column)) == q:
        return None
    piv = k + 1
    if column[0] % (unit * p) == 0:
        i = next(i for i, x in enumerate(column) if x % (unit * p))
        column[0], column[i] = column[i], column[0]
        piv += i
        e[k + 1], e[piv] = e[piv], e[k + 1]
        scales[k + 1], scales[piv] = scales[piv], scales[k + 1]
    inverse = pow(column[0] % q // unit, -1, q)
    fs = [x // unit * inverse % q for x in column[1:]]
    terms = list(map(mul, fs, scales[k + 2:]))
    lift = 1
    if (common := gcd(*terms)) % scales[k + 1]:
        e[k + 1] = newton._valuation(common, p)
        lift = scales[k + 1] // p ** e[k + 1] % q
        scales[k + 1] = p ** e[k + 1]
    return piv, fs, lift, [x // scales[k + 1] for x in terms]


def hessenberg_reference(m, e, scales, p, q):
    """A's columns after the full reduction of A, M = A * diag(scales): the pivot row is reduced
    mod q in place, and the row step clears column k too, so every entry below the subdiagonal ends
    a multiple of q. Its steps come from newton._pivot, which takes the scale rule from
    newton._lift, so spies on those names see them."""
    a = [[x // scale for x, scale in zip(row, scales)] for row in m]
    n = len(a)
    for k in range(n - 2):
        if not (step := newton._pivot([row[k] % q for row in a[k + 1:]], k, e, scales, p, q)):
            continue
        piv, fs, lift, multiples = step
        if piv > k + 1:
            a[k + 1], a[piv] = a[piv], a[k + 1]
            for row in a:
                row[k + 1], row[piv] = row[piv], row[k + 1]
        a[k + 1][k:] = pivot = [x % q for x in a[k + 1][k:]]
        for row, f in zip(a[k + 2:], fs):
            row[k:] = [x - f * y for x, y in zip(row[k:], pivot)]
        for row in a:
            row[k + 1] = row[k + 1] * lift + sum(map(mul, multiples, row[k + 2:]))
    return list(zip(*a))


@st.composite
def pivot_inputs(draw, case):
    """(column, k, e, scales, p, q) for step k of the reduction. Except in "any", column[0] is
    prime to p, so the step pivots in place on row k+1, and the scales after it are: "equal", all
    equal to its scale; "above", none below it and one above; "below", one below it, to which the
    step may lower its scale. "any" arranges nothing, so transpositions and zero columns occur."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    q = p ** draw(st.integers(min_value=1, max_value=10))
    t = draw(st.integers(min_value=3, max_value=12))
    k = draw(st.integers(min_value=0, max_value=t - 3))
    column = draw(st.lists(st.integers(min_value=-(10**6), max_value=10**6), min_size=t - k - 1,
                           max_size=t - k - 1))
    column = [x * p ** draw(st.integers(min_value=0, max_value=4)) for x in column]
    e = draw(st.lists(st.integers(min_value=0, max_value=8), min_size=t, max_size=t))
    if case != "any":
        column[0] = column[0] * p + 1
        rest = e[k + 1:]
        if case == "equal":
            rest = [rest[0]] * len(rest)
        elif case == "above":
            rest[1:] = [max(x, rest[0]) for x in rest[1:]]
            rest[-1] = max(rest[-1], rest[0] + 1)
        else:
            rest[0] = max(rest[0], 1)
            rest[-1] = min(rest[-1], rest[0] - 1)
        e[k + 1:] = rest
    return column, k, e, [p**x for x in e], p, q


class TestPivot:
    @pytest.mark.parametrize("case", ["equal", "above", "below", "any"])
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_same_step_as_the_full_arithmetic(self, case, data):
        column, k, e, scales, p, q = data.draw(pivot_inputs(case))
        least, most, scale = min(scales[k + 2:]), max(scales[k + 2:]), scales[k + 1]
        assert {"equal": least == most == scale, "above": least >= scale < most,
                "below": least < scale}.get(case, True)
        expected_args = (column[:], k, e[:], scales[:])
        expected = pivot_reference(*expected_args, p, q)
        assert _pivot(column, k, e, scales, p, q) == expected
        assert (column, k, e, scales) == expected_args


def on_form(forms):
    """A patch of _packed_field that runs each half of the kernel whose fields a key of `forms`
    computes on packed ints where its value is true, else on rows, whatever its size, and leaves any
    other half to the rule."""
    def chosen(t, bound, half, *args):
        if half not in forms:
            return _packed_field(t, bound, half, *args)
        return half(*args) if forms[half] else None

    return patch.object(newton, "_packed_field", chosen)


def char_poly_mod_by(reduction, entries, p, s, packed=None):
    """_char_poly_mod with its reduction on `reduction`, whatever the size: in place of
    _hessenberg_packed where `packed` (by default, where `reduction` is it), else of _hessenberg_rows."""
    packed = reduction is _hessenberg_packed if packed is None else packed
    with on_form({_field_width: packed}), \
            patch.object(newton, "_hessenberg_packed" if packed else "_hessenberg_rows", reduction):
        return _char_poly_mod(entries, p, s)


def reduction_tops(entries, p, s):
    """_char_poly_mod with its reduction packed whatever the size, and the top of each width
    _packed_columns takes: [2^15] where it packs M's columns with struct, [2^15, max |m_ij|] where
    an entry lies outside [-2^15, 2^15) and it sums them by shifts."""
    tops = []

    def width(top, scales, q):
        tops.append(top)
        return _field_width(top, scales, q)

    with patch.object(newton, "_field_width", width), on_form({width: True}):
        return _char_poly_mod(entries, p, s), tops


class TestPackedReduction:
    """_hessenberg_packed, on M's columns as _packed_columns packs them, makes the values of
    _hessenberg_rows."""

    @pytest.mark.parametrize("kind", KINDS + ["deep"])
    @given(data=st.data(), p=st.sampled_from([2, 3, 5, 7, 13]), s=st.integers(min_value=1, max_value=12))
    @settings(max_examples=40, deadline=None)
    def test_same_residues_and_hodge_bound_as_rows(self, kind, data, p, s):
        entries = tuple(map(tuple, data.draw(shaped_matrices(kind, p, max_t=16))))
        packed = char_poly_mod_by(_hessenberg_packed, entries, p, s)
        assert packed == char_poly_mod_by(_hessenberg_rows, entries, p, s)

    @staticmethod
    def steps_of(reduction, entries, p, s):
        """_char_poly_mod on `reduction`, the decision of each step, the steps at which it calls
        _pivot, A before each step and at the end, and the columns it hands over.

        A decision is (k, None) where _pivot finds column k zero mod q below the diagonal, else
        (k, piv, fs, lift, multiples, e, scales), e and scales as the step leaves them; piv is read
        in the frame that calls _lift, _pivot's or the packed reduction's. A state is A row by row,
        and the handed columns are the reduction's return value, the packed form's fields minus the
        bias."""
        decisions, pivots, states, handed = [], [], [], []

        def pivot(column, k, e, scales, p, q):
            pivots.append(k)
            if (step := _pivot(column, k, e, scales, p, q)) is None:
                decisions.append((k, None))
            return step

        def lift(fs, k, e, scales, p, q):
            lift, multiples = _lift(fs, k, e, scales, p, q)
            decisions.append((k, sys._getframe(1).f_locals["piv"], fs[:], lift, multiples[:], e[:], scales[:]))
            return lift, multiples

        def read(names):
            if "cols" in names:
                at, mask, bias = names["at"], names["mask"], names["bias"]
                states.append([[(c >> x & mask) - bias for c in names["cols"]] for x in at])
            else:
                states.append([row[:] for row in names["a"]])

        def local(frame, event, arg):
            # before step k, k states are kept, and the step's first line runs with k bound to it
            names = frame.f_locals
            if event == "return" or names.get("k") == len(states):
                read(names)
            if event == "return":
                bias = names.get("bias", 0)
                handed.append([[x - bias for x in column] for column in arg])
            return local

        def traced(*args):
            before = sys.gettrace()
            sys.settrace(lambda frame, event, arg: local if frame.f_code is reduction.__code__ else None)
            try:
                return reduction(*args)
            finally:
                sys.settrace(before)

        with patch.object(newton, "_pivot", pivot), patch.object(newton, "_lift", lift):
            return (char_poly_mod_by(traced, entries, p, s, reduction is _hessenberg_packed),
                    decisions, pivots, states, handed)

    @staticmethod
    def read_again(states, q):
        """The residues mod q of the entries that a step or the recurrence reads after each state:
        before step k, columns k on whole and rows 0..j+1 of column j < k."""
        return [[x % q for i, row in enumerate(state) for j, x in enumerate(row) if j >= k or i <= j + 1]
                for k, state in enumerate(states)]

    def assert_same_steps(self, entries, p, s):
        """The rows form, the packed form and the full reduction reach the same residues through the
        same decisions; the two forms hold the same A before every step and at the end, and hand over
        its Hessenberg entries, rows 0..j+1 of column j, and the full reduction the same residues of
        every entry read again. Returns the packed run."""
        rows, packed, full = (self.steps_of(reduction, entries, p, s)
                              for reduction in (_hessenberg_rows, _hessenberg_packed, hessenberg_reference))
        steps = list(range(len(entries) - 2))
        assert packed[:2] == rows[:2] == full[:2]
        assert [k for k, *_ in rows[1]] == rows[2] == full[2] == steps
        assert len(rows[3]) == len(steps) + 1 and packed[3] == rows[3]
        assert self.read_again(full[3], p**s) == self.read_again(rows[3], p**s)
        end = rows[3][-1]
        assert packed[4] == rows[4] == [[[row[j] for row in end[:j + 2]] for j in range(len(end))]]
        return packed

    @pytest.mark.parametrize("kind", KINDS + ["deep"])
    @given(data=st.data(), p=st.sampled_from([2, 3, 5, 7, 13]), s=st.integers(min_value=1, max_value=12))
    @settings(max_examples=40, deadline=None)
    def test_rows_packed_and_full_reductions_take_the_same_steps(self, kind, data, p, s):
        # the decision and A at every step, so the packed field reads are checked step by step and
        # not only through the residues; the full reduction writes back the pivot row mod q and
        # clears column k, so it agrees with the forms on the residues of what is read again
        self.assert_same_steps(tuple(map(tuple, data.draw(shaped_matrices(kind, p, max_t=16)))), p, s)

    @pytest.mark.parametrize(("seed", "p", "t"), [(3, 2, 24), (4, 3, 32), (6, 2, 40)])
    def test_generated_instances_take_the_full_reductions_steps(self, seed, p, t):
        entries = gen_instance(seed, p=p, t=t, r=3, b_seq=ElemDivSeq((3, 2, 1)), entry_bound=50).matrix.entries
        self.assert_same_steps(entries, p, SLACK)

    # p = 2 and q = 16: step 0 of each matrix takes one path of the packed form. Column 0 below the
    # diagonal is [1, 2, 3]: a unit subdiagonal; [2, 3, 5]: a transposition to the first unit row,
    # 2, not the later 3; [2, 4, 6] and [0, 16, 32]: no unit, a pivot of valuation 1 and none;
    # and the matrix of test_column_op_lowers_a_larger_scale_just_enough at p = 2, whose
    # transposition brings the scale 2^3 next to the pivot, where f = 2 lowers it to 2^1
    @pytest.mark.parametrize(("entries", "path"), [
        (((1, 2, 3, 4), (1, 5, 6, 7), (2, 1, 1, 3), (3, 2, 5, 1)), "unit"),
        (((1, 2, 3, 4), (2, 5, 6, 7), (3, 1, 1, 3), (5, 2, 5, 1)), "transposition"),
        (((1, 2, 3, 4), (2, 5, 6, 7), (4, 1, 1, 3), (6, 2, 5, 1)), "no unit"),
        (((1, 2, 3, 4), (0, 5, 6, 7), (16, 1, 1, 3), (32, 2, 5, 1)), "no unit"),
        (((2, 5, 24), (2, 1, 56), (1, 4, 16)), "lowering"),
    ])
    def test_each_path_of_a_step(self, entries, path):
        _, decisions, pivots, *_ = self.assert_same_steps(entries, 2, 4)
        first = decisions[0]
        assert first[0] == 0 and (0 in pivots) == (path == "no unit")
        if path == "unit":
            assert first[1] == 1
        elif path == "transposition":
            assert first[1] == 2
        elif path == "lowering":
            assert first[1:4] == (2, [2], 4) and first[5:] == ([0, 1, 0], [1, 2, 1])

    def assert_fields_hold_every_value(self, entries, p, s):
        """Both forms hold the same A before every step and at the end, and every value plus the
        bias inside (0, 2^w) for the width w and bias the kernel took: those of _field_width at top
        2^15 where every entry packs into 16 bits, else at M's largest |m_ij|. So no packed field,
        Hessenberg or not, carried into the next. Returns the largest field, max(value + bias)."""
        widths = []
        top = max(2**15, *(abs(x) for row in entries for x in row))

        def packed(sums, w, bias, e, scales, p, q):
            widths.append((w, bias))
            assert (w, bias) == _field_width(top, scales, q)
            return _hessenberg_packed(sums, w, bias, e, scales, p, q)

        states = self.assert_same_steps(entries, p, s)[3]
        char_poly_mod_by(packed, entries, p, s, True)
        [(w, bias)] = widths
        assert bias % p**s == 0
        fields = [x + bias for state in states for row in state for x in row]
        assert 0 < min(fields) and max(fields) < 2**w
        return max(fields)

    @pytest.mark.parametrize("kind", ["deep", "scaled", "random"])
    @given(data=st.data(), p=st.sampled_from([2, 3, 5, 7, 13]), s=st.integers(min_value=1, max_value=12))
    @settings(max_examples=30, deadline=None)
    def test_every_field_after_every_step_holds_its_value(self, kind, data, p, s):
        self.assert_fields_hold_every_value(tuple(map(tuple, data.draw(shaped_matrices(kind, p, max_t=16)))), p, s)

    @pytest.mark.parametrize(("seed", "p", "t"), [(3, 2, 24), (4, 3, 32), (6, 2, 40)])
    def test_every_field_of_a_generated_instance_holds_its_value(self, seed, p, t):
        inst = gen_instance(seed, p=p, t=t, r=3, b_seq=ElemDivSeq((3, 2, 1)), entry_bound=50)
        self.assert_fields_hold_every_value(inst.matrix.entries, p, SLACK)

    @staticmethod
    def far_reaching(p, a0, t=10, s=4, E=6, least=False):
        """(M, e, s): column 0 pivots on row 1 with f_i = q - 1 for every lower row, and every
        column after column 1 has entries a0, so row 0 of column 1 gains about (t - 2)(q - 1) times
        a0 times the column scales. By default those columns have scale p^E, and row 0 of column 1
        gains (t - 2)(q - 1) p^E a0, about three quarters of the bound V of _field_width at t = 10;
        with `least`, all but the last, which holds ones, have scale 1, the least, as M's largest
        entries do."""
        q = p**s
        a = [[a0, a0], [1, 1]] + [[q - 1, 1] for _ in range(t - 2)]
        for row in a:
            row += [a0] * (t - 3) + [1 if least else a0]
        e = [0] * (t - 1) + [E] if least else [0, 0] + [E] * (t - 2)
        return tuple(tuple(x * p**k for x, k in zip(row, e)) for row in a), e, s

    @staticmethod
    def largest(entries):
        """M's largest |m_ij|, the top of the width the kernel takes where an entry does not pack."""
        return max(abs(x) for row in entries for x in row)

    @pytest.mark.parametrize("p", [2, 3])
    def test_values_reach_a_quarter_of_the_field(self, p):
        entries, e, s = self.far_reaching(p, 10**6 + 1)
        t, q = len(entries), p**s
        scales = [p**k for k in e]
        assert reduction_tops(entries, p, s)[1] == [2**15, self.largest(entries)]
        _, bias = _field_width(self.largest(entries), scales, q)
        columns = _hessenberg_rows(entries, e[:], scales, p, q)
        biggest = max(abs(columns[j][i]) for j in range(t) for i in range(min(j + 2, t)))
        # bias is the least multiple of q above the bound on the values
        assert bias // 4 < biggest < bias
        residues, hodge = char_poly_mod_by(_hessenberg_packed, entries, p, s)
        assert (residues, hodge) == char_poly_mod_by(_hessenberg_rows, entries, p, s)
        assert residues == [c % p ** (k + s) for c, k in zip(charpoly_faddeev_leverrier(entries), hodge)]
        self.assert_fields_hold_every_value(entries, p, s)

    @pytest.mark.parametrize("p", [2, 3])
    def test_largest_field_passes_half_the_width(self, p):
        # the bias lies in (V, V + q] and 2^w above bias + V, so the largest field, bias plus about
        # 3/4 V, passes 2^(w-1) when the bias sits above about 0.29 * 2^w: at a0 = 1.5e6 it is
        # 0.45 (p = 2) and 0.42 (p = 3). A field one bit narrower would carry into the next.
        entries, e, s = self.far_reaching(p, 3 * 10**6 // 2 + 1)
        assert reduction_tops(entries, p, s)[1] == [2**15, self.largest(entries)]
        w, _ = _field_width(self.largest(entries), [p**k for k in e], p**s)
        assert self.assert_fields_hold_every_value(entries, p, s) >= 2 ** (w - 1)

    @pytest.mark.parametrize("least", [False, True])
    @pytest.mark.parametrize("p", [2, 3])
    def test_fields_hold_the_values_wherever_the_largest_entry_lies(self, p, least):
        # a0 of _field_width is M's largest |m_ij| over the least scale: in a column of the least
        # scale it is that entry, in one of the largest it bounds that entry over its own scale
        # times p^E. Over the largest scale instead, the bound falls below the values in both.
        entries, e, s = self.far_reaching(p, 10**7, least=least)
        top = self.largest(entries)
        assert {e[j] for row in entries for j, x in enumerate(row) if abs(x) == top} == {min(e) if least else max(e)}
        assert reduction_tops(entries, p, s)[1] == [2**15, top]
        self.assert_fields_hold_every_value(entries, p, s)

    @pytest.mark.parametrize(("t", "p", "s", "packed"), [
        (8, 2, SLACK, True),
        (8, 2, 112, True),
        (8, 2, 141, True),
        (8, 2, 142, False),
        (8, 257, SLACK, True),
        (8, 16411, SLACK, True),
        (8, 23159, SLACK, True),
    ])
    def test_selection_by_size_and_modulus(self, t, p, s, packed):
        # diag(1..8) packs its reduction while its fields are narrower than 436 bits: 434 at 2^141,
        # 437 at 2^142. The width, not q, decides: q = 23159^8 > 2^113 packs in fields of 355 bits.
        calls, widths = [], []

        def spy(name, reduction):
            return lambda *args: calls.append(name) or reduction(*args)

        def width(*args):
            packed = _field_width(*args)
            widths.append(packed[0])
            return packed

        with patch.object(newton, "_hessenberg_rows", spy("rows", _hessenberg_rows)), \
                patch.object(newton, "_hessenberg_packed", spy("packed", _hessenberg_packed)), \
                patch.object(newton, "_field_width", width):
            _char_poly_mod(IntegerMatrix.diagonal(list(range(1, t + 1))).entries, p, s)
        assert calls == ["packed" if packed else "rows"]
        assert newton._REDUCTION_BELOW_BITS == 436
        assert len(widths) == 1 and (widths[0] < 436) == packed

    @pytest.mark.parametrize(("seed", "p", "t"), [(5, 2, 24), (9, 3, 40), (11, 2, 64)])
    def test_generated_instances_against_faddeev_leverrier(self, seed, p, t):
        inst = gen_instance(seed, p=p, t=t, r=3, b_seq=ElemDivSeq((3, 2, 1)), entry_bound=50)
        matrix_newton_polygon.cache_clear()
        expected = newton_polygon(charpoly_faddeev_leverrier(inst.matrix.entries), p)
        assert matrix_newton_polygon(inst.matrix, p) == expected


def column_scales(entries, p):
    """The column scales p^e_j that _kernel takes, e_j the valuation of column j's content."""
    return [p ** newton._valuation(c, p) if c else 1 for c in map(gcd, *entries)]


class TestShortPacking:
    """_packed_columns packs M's columns with one struct call each where every entry lies in
    [-2^15, 2^15), and sums them by shifts, from a width taken again at M's largest |m_ij|, where
    one does not; the packed reduction makes the values of the rows reduction either way."""

    @staticmethod
    def with_values(values, t=8, scale=1, seed=0):
        """A t x t matrix of `scale` times odd integers in [-49, 49], with `values` written in turn
        at the corners, the lowest and the highest field of the first and the last column, and at
        (t // 2, 1), one value to a cell."""
        rng = random.Random(seed)
        rows = [[scale * rng.randrange(-49, 50, 2) for _ in range(t)] for _ in range(t)]
        for (i, j), value in zip([(0, 0), (t - 1, t - 1), (t - 1, 0), (0, t - 1), (t // 2, 1)], values):
            rows[i][j] = value
        return tuple(map(tuple, rows))

    @staticmethod
    def assert_agrees(entries, p, s, tops):
        """The reduction, packed whatever the size, takes the widths at `tops` and gives the
        residues of the rows reduction and of Faddeev-LeVerrier."""
        (residues, hodge), taken = reduction_tops(entries, p, s)
        assert taken == tops
        assert (residues, hodge) == char_poly_mod_by(_hessenberg_rows, entries, p, s)
        assert residues == [c % p ** (h + s) for c, h in zip(charpoly_faddeev_leverrier(entries), hodge)]

    @pytest.mark.parametrize(("values", "top"), [
        ((-2**15, 2**15 - 1), None),
        ((-2**15,), None),
        ((2**15 - 1,), None),
        ((2**15,), 2**15),
        ((-2**15 - 1,), 2**15 + 1),
        ((2**15 - 1, -2**15 - 1), 2**15 + 1),
    ])
    @pytest.mark.parametrize("p", [2, 3])
    def test_the_16_bit_range_decides_the_packing(self, values, top, p):
        # -2^15 and 2^15 - 1 pack with struct; 2^15 and -2^15 - 1 raise struct.error, and the
        # kernel takes the width again at M's largest |m_ij| and sums the columns by shifts
        entries = self.with_values(values * 2)
        self.assert_agrees(entries, p, SLACK, [2**15] if top is None else [2**15, top])
        sums, w, bias = _packed_columns(entries, column_scales(entries, p), p**SLACK)
        stride = _stride(w)
        assert (w, bias) == _field_width(top or 2**15, column_scales(entries, p), p**SLACK)
        assert sums == [sum(x << stride * i for i, x in enumerate(column)) for column in zip(*entries)]

    # (t, s, e, w): columns of content 2^e, where the width at top 2^15 is least; below 16 bits at
    # t <= 4 and s = 1, where the reduction packs only when forced, 16 bits at t = 7 and s = 1, and
    # 18 at t = 7 and s = 2, whose stride rounds up to 24 bits
    @pytest.mark.parametrize(("t", "s", "e", "w"), [(2, 1, 5, 14), (3, 1, 4, 15), (4, 1, 5, 15),
                                                    (7, 1, 5, 16), (7, 2, 4, 18)])
    def test_each_stride_holds_a_16_bit_value(self, t, s, e, w):
        entries = self.with_values((-2**15, 2**15 - 2**e), t, 2**e)
        assert _field_width(2**15, column_scales(entries, 2), 2**s)[0] == w
        assert _stride(w) == (16 if w <= 16 else 24)
        self.assert_agrees(entries, 2, s, [2**15])

    @pytest.mark.parametrize("off", [-1, 1])
    def test_a_sign_correction_one_bit_off_fails(self, off):
        # the same packing with the sign bit taken one bit lower or higher in every field: the sums,
        # and with them the residues, are no longer M's. The errors are multiples of 2^15, which move
        # no residue mod 2^(H(i)+8) at p = 2, so the kernel runs at p = 3
        entries = self.with_values((-2**15, 2**15 - 1, -5, 3))
        scales, q = column_scales(entries, 3), 3**SLACK
        expected = _packed_columns(entries, scales, q)
        short_fields = newton._short_fields

        def shifted(t, stride):
            pack, signs = short_fields(t, stride)
            return pack, signs << 1 if off > 0 else signs >> 1

        with patch.object(newton, "_short_fields", shifted):
            assert _packed_columns(entries, scales, q)[0] != expected[0]
            assert reduction_tops(entries, 3, SLACK)[0] != char_poly_mod_by(_hessenberg_rows, entries, 3, SLACK)


def recurrence_by(recurrence, kernel, *args):
    """`kernel(*args)` with its recurrence on `recurrence`, _recurrence_packed or _recurrence_rows,
    whatever the size."""
    with on_form({_recurrence_field: recurrence is _recurrence_packed}):
        return kernel(*args)


def packed_recurrence(columns, weights, scales, Q):
    """_recurrence_packed on the fields of _recurrence_field, as _recurrence hands them over."""
    return _recurrence_packed(columns, weights, scales, Q, *_recurrence_field(len(scales), weights, Q))


def fields(x, w, count):
    return [x >> w * m & (1 << w) - 1 for m in range(count)]


@st.composite
def hessenberg_inputs(draw, max_t=16):
    """Columns of any t x t integer matrix (the recurrence reads its Hessenberg part), positive
    weights and scales, and a modulus Q >= 2 that need not be a prime power."""
    t = draw(st.integers(min_value=1, max_value=max_t))
    entries = st.integers(min_value=-(2**70), max_value=2**70)
    a = draw(st.lists(st.lists(entries, min_size=t, max_size=t), min_size=t, max_size=t))
    weights = draw(st.lists(st.integers(min_value=1, max_value=2**40), min_size=t, max_size=t))
    scales = draw(st.lists(st.integers(min_value=1, max_value=2**40), min_size=t, max_size=t))
    return a, weights, scales, draw(st.integers(min_value=2, max_value=2**300))


class TestPackedRecurrence:
    """_recurrence_packed makes the coefficients of _recurrence_rows."""

    @pytest.mark.parametrize("kind", KINDS + ["deep"])
    @given(data=st.data(), p=st.sampled_from([2, 3, 5, 7, 13]), s=st.integers(min_value=1, max_value=12))
    @settings(max_examples=40, deadline=None)
    def test_same_residues_as_rows(self, kind, data, p, s):
        rows = data.draw(shaped_matrices(kind, p, max_t=16))
        entries = tuple(map(tuple, rows))
        packed = recurrence_by(_recurrence_packed, _char_poly_mod, entries, p, s)
        assert packed == recurrence_by(_recurrence_rows, _char_poly_mod, entries, p, s)
        # char_poly runs the recurrence mod 2^s alone
        matrix = IntegerMatrix(entries)
        exact = recurrence_by(_recurrence_packed, char_poly, matrix)
        assert exact == recurrence_by(_recurrence_rows, char_poly, matrix)
        assert exact == charpoly_faddeev_leverrier(rows)

    @given(hessenberg_inputs())
    @settings(max_examples=200, deadline=None)
    def test_same_coefficients_as_rows_for_any_modulus(self, inputs):
        assert packed_recurrence(*inputs) == _recurrence_rows(*inputs)

    @given(hessenberg_inputs())
    @settings(max_examples=50, deadline=None)
    def test_rows_and_packed_take_their_steps_from_one_routine(self, inputs):
        columns, _, scales, Q = inputs
        taken = []
        for recurrence in (_recurrence_rows, packed_recurrence):
            seen = []

            def spy(*args):
                for step in _steps(*args):
                    seen.append(step)
                    yield step

            with patch.object(newton, "_steps", spy):
                recurrence(*inputs)
            taken.append(seen)
        assert taken[0] == taken[1] == list(_steps(columns, scales, Q))
        assert [len(cs) for _, cs in taken[0]] == list(range(len(columns)))

    @given(hessenberg_inputs(max_t=5))
    @settings(max_examples=30, deadline=None)
    def test_rows_give_det_of_x_times_weights_minus_h(self, inputs):
        columns, weights, scales, Q = inputs
        t = len(columns)
        x = sympy.Symbol("x")
        h = [[columns[j][i] * scales[j] if i <= j + 1 else 0 for j in range(t)] for i in range(t)]
        det = sympy.Matrix(t, t, lambda i, j: (x * weights[i] if i == j else 0) - h[i][j]).det(method="berkowitz")
        expected = [int(c) % Q for c in reversed(sympy.Poly(det, x).all_coeffs())]
        assert _recurrence_rows(columns, weights, scales, Q) == expected

    @given(data=st.data(), w=st.integers(min_value=2, max_value=200),
           count=st.integers(min_value=1, max_value=9))
    @settings(max_examples=200, deadline=None)
    def test_barrett_leaves_each_field_congruent_and_below_twice_the_modulus(self, data, w, count):
        q = data.draw(st.integers(min_value=2, max_value=2**w - 1))
        ys = data.draw(st.lists(st.integers(min_value=0, max_value=2**w - 1),
                                min_size=count, max_size=count))
        x = sum(y << w * m for m, y in enumerate(ys))
        even = sum(((1 << w) - 1) << w * m for m in range(0, count, 2))
        reduced = fields(_reduce_fields(x, q, (1 << w) // q, w, even), w, count + 1)
        assert all(0 <= z < 2 * q and (z - y) % q == 0 for y, z in zip(ys, reduced))
        assert reduced[count] == 0

    @staticmethod
    def steps(kernel, *args):
        """kernel(*args) on the packed recurrence, and (T, P_(k+1), Q, w) of each of its steps."""
        seen = []

        def spy(x, q, r, w, even):
            reduced = _reduce_fields(x, q, r, w, even)
            seen.append((x, reduced, q, w))
            return reduced

        with patch.object(newton, "_reduce_fields", spy):
            return recurrence_by(_recurrence_packed, kernel, *args), seen

    @pytest.mark.parametrize("kind", SPREAD_KINDS)
    @given(data=st.data(), p=st.sampled_from([2, 3, 5, 7, 13]), s=st.integers(min_value=1, max_value=12))
    @settings(max_examples=20, deadline=None)
    def test_every_field_after_every_step_is_below_twice_the_modulus(self, kind, data, p, s):
        entries = tuple(map(tuple, data.draw(shaped_matrices(kind, p, max_t=16))))
        t = len(entries)
        (_, hodge), seen = self.steps(_char_poly_mod, entries, p, s)
        assert len(seen) == t
        _, low, high = balance(hodge)
        Q, lead = p ** (s + max(low, high)), 1
        for k, (before, after, q, w) in enumerate(seen):
            assert q == Q
            # field k+1 is the leading coefficient, the weights of columns 0..k: a power of p that
            # grows by one weight per step, to p^D+ at the end
            top = before >> w * (k + 1)
            assert top == after >> w * (k + 1) and top % lead == 0 and top < 2**w
            lead = top
            assert all(0 < y < 2**w for y in fields(before, w, k + 1))
            assert all(0 <= y < 2 * Q for y in fields(after, w, k + 1))
        assert lead == p**low

    @pytest.mark.parametrize("p", [2, 3])
    def test_fields_reach_the_top_bit_of_the_width(self, p):
        # a zero column k makes S = 0 at step k, so every field of T is beta plus a field of P_k,
        # at least beta >= 2^(w-1): one bit less and the fields of T would carry into each other
        t, k, Q = 16, 9, p**40
        a = [[(7**i * 11**j) % (2**60) * (-1) ** (i + j) if i <= j + 1 else 0 for j in range(t)]
             for i in range(t)]
        for row in a[:k + 1]:
            row[k] = 0
        scales = [p ** (j % 4) for j in range(t)]
        h = [[x * c for x, c in zip(row, scales)] for row in a]
        expected = [c % Q for c in reversed(charpoly_faddeev_leverrier(h))]
        columns = list(zip(*a))
        coeffs, seen = self.steps(packed_recurrence, columns, [1] * t, scales, Q)
        assert coeffs == expected == _recurrence_rows(columns, [1] * t, scales, Q)
        w = seen[0][3]
        biggest = max(max(fields(before, w, i + 1)) for i, (before, *_) in enumerate(seen))
        assert 2 ** (w - 1) <= biggest < 2**w

    @staticmethod
    def taken(kernel, *args):
        """The recurrences kernel(*args) runs, in order, and the width of each _recurrence_field."""
        calls, widths = [], []

        def spy(name, recurrence):
            return lambda *xs: calls.append(name) or recurrence(*xs)

        def width(*xs):
            packed = _recurrence_field(*xs)
            widths.append(packed[0])
            return packed

        with patch.object(newton, "_recurrence_rows", spy("rows", _recurrence_rows)), \
                patch.object(newton, "_recurrence_packed", spy("packed", _recurrence_packed)), \
                patch.object(newton, "_recurrence_field", width):
            kernel(*args)
        assert newton._RECURRENCE_BELOW_BITS == 512
        assert calls == ["packed" if w < 512 else "rows" for w in widths]
        return calls

    @pytest.mark.parametrize(("t", "s", "packed"), [
        (8, SLACK, True),
        (8, 253, True),
        (8, 254, False),
        (8, 255, False),
        (8, 256, False),
    ])
    def test_selection_by_size_and_modulus(self, t, s, packed):
        # the identity has every column scale 0, so lam = 0 and Q = 2^s; at t = 8 the recurrence's
        # fields are 511 bits at 2^253 and 513 at 2^254, and pack below 512
        assert self.taken(_char_poly_mod, identity(t).entries, 2, s) == ["packed" if packed else "rows"]

    @pytest.mark.parametrize(("diagonal", "packed"), [([1] * 10, True), ([2**30] * 10, False)])
    def test_exact_run_selects_by_its_own_modulus(self, diagonal, packed):
        # 2^s passes twice the Hadamard bound: 2 * 3^10 < 2^17 for the identity, above 2^300 for 2^30 I,
        # whose fields (609 bits) no longer pack
        assert self.taken(char_poly, IntegerMatrix.diagonal(diagonal)) == ["packed" if packed else "rows"]


class TestHandOff:
    """Both reductions hand the recurrence one shape, whichever form either half takes: column j of
    A as a list of the ints in its rows 0..j+1. The packed form's ints are the rows form's plus the
    bias of its fields, a multiple of q."""

    @staticmethod
    def handed(entries, p, reduction, recurrence):
        """_char_poly_mod at s = SLACK with each half on the form asked for, the columns that _steps
        is given, and the bias of the packed reduction's fields, 0 where it runs on rows."""
        seen, biases = [], [0]

        def steps(columns, scales, Q):
            seen.append(columns)
            return _steps(columns, scales, Q)

        def packed_columns(m, scales, q):
            if packed := _packed_columns(m, scales, q):
                biases.append(packed[2])
            return packed

        with on_form({_field_width: reduction, _recurrence_field: recurrence}), \
                patch.object(newton, "_steps", steps), \
                patch.object(newton, "_packed_columns", packed_columns):
            residues = _char_poly_mod(entries, p, SLACK)
        [columns] = seen
        return residues, columns, biases[-1]

    @pytest.mark.parametrize(("t", "p"), [(8, 2), (8, 3), (16, 2), (16, 3)])
    def test_both_reductions_hand_over_plain_hessenberg_columns(self, t, p):
        entries = gen_instance(t, p=p, t=t, r=3, b_seq=ElemDivSeq((3, 2, 1)), entry_bound=50).matrix.entries
        runs = {(reduction, recurrence): self.handed(entries, p, reduction, recurrence)
                for reduction in (False, True) for recurrence in (False, True)}
        residues, rows, _ = runs[False, False]
        for (reduction, _), (taken, columns, bias) in runs.items():
            assert type(columns) is list and [len(column) for column in columns] == [min(j + 2, t) for j in range(t)]
            assert all(type(column) is list and all(type(x) is int for x in column) for column in columns)
            assert (bias > 0) == reduction and bias % p**SLACK == 0
            assert columns == [[x + bias for x in column] for column in rows]
            assert taken == residues


@st.composite
def generated_matrices(draw, min_t=16, max_t=64, primes=(2, 3, 5)):
    """(matrix, p): a gen_instance matrix at t = 16..64 by default, where both packed paths run and the
    exact oracles are slow."""
    t, p, r = draw(st.integers(min_t, max_t)), draw(st.sampled_from(primes)), draw(st.integers(1, 4))
    b = sorted(draw(st.lists(st.integers(1, r), max_size=t // 2)), reverse=True)
    seed = draw(st.integers(0, 2**32))
    return gen_instance(seed, p=p, t=t, r=r, b_seq=ElemDivSeq(tuple(b)), entry_bound=50).matrix, p


def minkowski_sum(*polygons):
    """The polygon of a product of polynomials from its factors' polygons: their finite slopes merged in
    order, equal slopes into one segment, and their infinite slopes added (Dumas)."""
    lengths = {}
    for polygon in polygons:
        for slope, length in polygon.slopes():
            lengths[slope] = lengths.get(slope, 0) + length
    vertices = [(0, 0)]
    for slope in sorted(lengths):
        x, y = vertices[-1]
        # each factor's edges rise by whole numbers, so their sum at one slope does too
        vertices.append((x + lengths[slope], int(y + slope * lengths[slope])))
    return NewtonPolygon(vertices, sum(polygon.infinite_slopes for polygon in polygons))


class TestMetamorphic:
    """Relations between the polygons of related matrices, which check the packed kernel where it runs
    without an exact oracle."""

    @staticmethod
    def packed_polygon(matrix, p):
        """The polygon, with a check that its first kernel run took both packed paths."""
        calls = []

        def spy(name, fn):
            return lambda *args: calls.append(name) or fn(*args)

        with patch.object(newton, "_hessenberg_packed", spy("reduction", _hessenberg_packed)), \
                patch.object(newton, "_recurrence_packed", spy("recurrence", _recurrence_packed)):
            matrix_newton_polygon.cache_clear()
            polygon = matrix_newton_polygon(matrix, p)
        assert calls[:2] == ["reduction", "recurrence"]
        return polygon

    @given(generated_matrices(), st.randoms(use_true_random=False))
    @settings(max_examples=15, deadline=None)
    def test_permutation_similarity_keeps_the_polygon(self, case, rng):
        matrix, p = case
        order = list(range(matrix.t))
        rng.shuffle(order)
        permuted = IntegerMatrix(tuple(tuple(matrix.entries[i][j] for j in order) for i in order))
        assert self.packed_polygon(permuted, p) == self.packed_polygon(matrix, p)

    @given(generated_matrices())
    @settings(max_examples=15, deadline=None)
    def test_p_times_the_matrix_raises_every_slope_by_one(self, case):
        # c_i(pM) = p^i c_i(M), so each vertex (i, y) moves to (i, y + i)
        matrix, p = case
        polygon = self.packed_polygon(matrix, p)
        scaled = self.packed_polygon(IntegerMatrix(tuple(tuple(p * x for x in row) for row in matrix.entries)), p)
        assert scaled.vertices == tuple((x, y + x) for x, y in polygon.vertices)
        assert scaled.infinite_slopes == polygon.infinite_slopes

    @given(generated_matrices(max_t=24), st.randoms(use_true_random=False))
    @settings(max_examples=8, deadline=None)
    def test_unimodular_similarity_keeps_the_polygon(self, case, rng):
        # t elementary similarities E M E^-1, E = I + c E_ij: row i gains c row j, column j loses
        # c column i; the column contents mix, so the conjugate often climbs the ladder past s = 16
        matrix, p = case
        rows = [list(row) for row in matrix.entries]
        for _ in range(matrix.t):
            i, j = rng.sample(range(matrix.t), 2)
            c = rng.choice([-3, -2, -1, 1, 2, 3])
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
            for row in rows:
                row[j] -= c * row[i]
        conjugate = IntegerMatrix(tuple(map(tuple, rows)))
        matrix_newton_polygon.cache_clear()
        assert matrix_newton_polygon(conjugate, p) == self.packed_polygon(matrix, p)

    @given(st.data())
    @settings(max_examples=10, deadline=None)
    def test_direct_sum_has_the_minkowski_sum_of_the_polygons(self, data):
        # diag(A, B) has characteristic polynomial chi_A chi_B, whose polygon is the Minkowski sum of
        # theirs (Dumas)
        first, p = data.draw(generated_matrices(min_t=8, max_t=32))
        second, _ = data.draw(generated_matrices(min_t=8, max_t=64 - first.t, primes=(p,)))
        zeros = (0,) * second.t
        block = IntegerMatrix(tuple(row + zeros for row in first.entries)
                              + tuple((0,) * first.t + row for row in second.entries))
        assert self.packed_polygon(block, p) == minkowski_sum(self.packed_polygon(first, p),
                                                              self.packed_polygon(second, p))

    @staticmethod
    def large(seed, t=128):
        """A t x t gen_instance matrix at p = 2, r = 4, b = (4, 2, 1): column scales 1, 4, 8, 16, ..., 16."""
        return gen_instance(seed, p=2, t=t, r=4, b_seq=ElemDivSeq((4, 2, 1)), entry_bound=50).matrix

    def test_permutation_similarity_at_t128_takes_no_exact_run(self, monkeypatch):
        # the permuted column scales are sorted back before the reduction, so no scale is lowered
        # and the first run certifies the hull as it does for M
        matrix = self.large(0)
        order = list(range(matrix.t))
        random.Random(0).shuffle(order)
        permuted = IntegerMatrix(tuple(tuple(matrix.entries[i][j] for j in order) for i in order))
        polygon, seen = TestKernel.precisions(monkeypatch, permuted, 2)
        assert seen and set(seen) <= {(2, SLACK), (2, 2 * SLACK)}
        assert polygon == self.packed_polygon(matrix, 2)

    def test_p_times_the_matrix_at_t128(self):
        matrix = self.large(1)
        polygon = self.packed_polygon(matrix, 2)
        scaled = self.packed_polygon(IntegerMatrix(tuple(tuple(2 * x for x in row) for row in matrix.entries)), 2)
        assert scaled.vertices == tuple((x, y + x) for x, y in polygon.vertices)
        assert scaled.infinite_slopes == polygon.infinite_slopes == 0

    def test_direct_sum_of_two_t64_blocks(self):
        first, second = self.large(2, t=64), self.large(3, t=64)
        zeros = (0,) * 64
        block = IntegerMatrix(tuple(row + zeros for row in first.entries)
                              + tuple(zeros + row for row in second.entries))
        assert self.packed_polygon(block, 2) == minkowski_sum(self.packed_polygon(first, 2),
                                                              self.packed_polygon(second, 2))

    @pytest.mark.parametrize(("t", "p"), [(3, 2), (5, 3), (6, 2), (16, 2), (16, 3), (24, 2), (24, 3)])
    def test_row_scaled_matrix_has_the_polygon_of_its_column_scaled_conjugate(self, t, p):
        # diag(p^f) B = diag(p^f) (B diag(p^f)) diag(p^-f), so the two are similar; the kernel sees f
        # in the column contents of B diag(p^f) only, and climbs the ladder on diag(p^f) B
        rng = random.Random(t * p)
        for seed in range(3):
            b = gen_instance(seed, p=p, t=t, r=3, b_seq=ElemDivSeq((3, 2, 1)), entry_bound=50).matrix.entries
            f = [rng.randrange(4) for _ in range(t)]
            rows = IntegerMatrix(tuple(tuple(p**k * x for x in row) for k, row in zip(f, b)))
            columns = IntegerMatrix(tuple(tuple(x * p**k for x, k in zip(row, f)) for row in b))
            matrix_newton_polygon.cache_clear()
            polygon = matrix_newton_polygon(rows, p)
            assert polygon == matrix_newton_polygon(columns, p)
            if t <= 6:
                assert polygon == newton_polygon(char_poly(rows), p) == newton_polygon(char_poly(columns), p)

    @pytest.mark.parametrize(("seed", "p"), [(0, 2), (1, 3)])
    def test_transpose_keeps_the_polygon(self, monkeypatch, seed, p):
        # the transpose's column contents are those of M's rows, mostly 1, so its Hodge bound is
        # about 0 while v_p(det) is about 3 t: the ladder climbs past s = 16, but certifies below s_max
        matrix = gen_instance(seed, p=p, t=64, r=3, b_seq=ElemDivSeq((3, 2, 1)), entry_bound=50).matrix
        transposed = IntegerMatrix(tuple(zip(*matrix.entries)))
        polygon, seen = TestKernel.precisions(monkeypatch, transposed, p)
        rungs = [s for prime, s in seen if prime == p]
        assert rungs[2:] and max(rungs) < _exact_precision(transposed.entries, p)
        assert polygon == self.packed_polygon(matrix, p)


class TestCharPoly:
    def test_identity(self):
        assert char_poly(identity(2)) == [1, -2, 1]

    def test_diag_2_8(self):
        assert char_poly(IntegerMatrix.diagonal([2, 8])) == [1, -10, 16]

    def test_zero_matrix(self):
        assert char_poly(IntegerMatrix(((0, 0, 0), (0, 0, 0), (0, 0, 0)))) == [1, 0, 0, 0]

    @given(st.lists(st.integers(min_value=-20, max_value=20), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_diagonal_against_expansion_oracle(self, diag):
        assert char_poly(IntegerMatrix.diagonal(diag)) == charpoly_by_eigen_expansion(diag)

    @pytest.mark.parametrize("kind", ["scaled", "deep", "spread"])
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_columns_with_contents_powers_of_2(self, kind, data):
        rows = data.draw(shaped_matrices(kind, 2, max_t=12))
        assert char_poly(IntegerMatrix(tuple(map(tuple, rows)))) == charpoly_faddeev_leverrier(rows)

    def test_exact_run_balances_at_a_non_zero_scale(self):
        # odd entries in columns scaled by 2^3, 2^5, 2^4, 2^6: a lowered scale is the valuation of
        # some f_i 2^e_i, so every scale stays at least 3, and so does lam
        rows = [[x * 2**k for x, k in zip(row, (3, 5, 4, 6))]
                for row in ((3, 5, 7, 9), (1, 11, 13, 15), (17, 19, 21, 23), (25, 27, 29, 31))]
        scales = []

        def spy(ordered, hodge):
            balanced = _balanced_scale(ordered, hodge)
            scales.append(balanced[0])
            return balanced

        with patch.object(newton, "_balanced_scale", spy):
            coeffs = char_poly(IntegerMatrix(tuple(map(tuple, rows))))
        assert len(scales) == 1 and scales[0] >= 3
        assert coeffs == charpoly_faddeev_leverrier(rows)

    @given(small_matrices)
    @settings(max_examples=40, deadline=None)
    def test_invariant_under_shear_conjugation(self, rows):
        n = len(rows)
        m = IntegerMatrix(tuple(tuple(r) for r in rows))
        # U = I + 3*E_{0,n-1}; U^-1 = I - 3*E_{0,n-1}
        conj = [row[:] for row in rows]
        for j in range(n):  # U * M
            conj[0][j] += 3 * conj[n - 1][j]
        for i in range(n):  # (U * M) * U^-1
            conj[i][n - 1] -= 3 * conj[i][0]
        assert char_poly(IntegerMatrix(tuple(tuple(r) for r in conj))) == char_poly(m)


class TestPolygon:
    def test_hand_hull(self):
        poly = newton_polygon([1, -2, 8], 2)  # points (0,0), (1,1), (2,3)
        assert poly.slopes() == ((Fraction(1), 1), (Fraction(2), 1))
        assert poly.finite_length == 2
        assert poly.infinite_slopes == 0

    def test_unit_eigenvalues(self):
        poly = newton_polygon([1, -2, 1], 3)
        assert poly.slopes() == ((Fraction(0), 2),)

    def test_nilpotent(self):
        poly = newton_polygon([1, 0, 0, 0], 2)
        assert poly.finite_length == 0
        assert poly.infinite_slopes == 3
        assert poly.vertices == ((0, 0),)

    @given(st.lists(st.tuples(st.integers(min_value=-9, max_value=9), st.integers(min_value=0, max_value=6)),
                    max_size=8),
           st.integers(min_value=0, max_value=3), st.sampled_from([2, 3, 5]))
    @settings(max_examples=100, deadline=None)
    def test_finite_length_is_the_last_non_zero_coefficient(self, terms, zeros, p):
        coeffs = [1] + [c * p**k for c, k in terms] + [0] * zeros
        poly = newton_polygon(coeffs, p)
        assert poly.finite_length == max(i for i, c in enumerate(coeffs) if c)
        assert poly.finite_length + poly.infinite_slopes == len(coeffs) - 1

    def test_dominance_is_decided_on_the_whole_finite_part(self):
        # the hull ends at x = 2, where it lies below the bound; one infinite slope follows
        poly = NewtonPolygon(((0, 0), (1, 0), (2, 5)), 1)
        assert poly.finite_length == 2
        assert not poly.dominates(PiecewiseLinear(((0, 0), (1, 0), (2, 6)), final_slope=0))
        assert poly.dominates(PiecewiseLinear(((0, 0), (1, 0), (2, 5)), final_slope=0))

    @pytest.mark.parametrize("vertices", [((0, 0), (1, Fraction(1, 2))), ((0, 0), (Fraction(3, 2), 1), (2, 2)),
                                          ((0, 0), (1, 1.5)), ((0, 0), (1.5, 1))])
    def test_fractional_vertex_is_refused(self, vertices):
        with pytest.raises(ValueError, match="lattice points"):
            NewtonPolygon(vertices, 0)

    def test_validation(self):
        with pytest.raises(NotMonic):
            newton_polygon([2, 1], 2)
        with pytest.raises(NotPrime):
            newton_polygon([1, -2, 8], 4)
        # 3**60 + 3**59 = 4 * 3**59: at the int 3 the point is (2, 59); a float 3.0 would lose it
        assert newton_polygon([1, 0, 3**60 + 3**59], 3).vertices == ((0, 0), (2, 59))
        for p in (3.0, Fraction(3)):
            with pytest.raises(NotPrime):
                newton_polygon([1, 0, 3**60 + 3**59], p)

    def test_slope_sum_equals_last_valuation(self):
        coeffs = char_poly(IntegerMatrix.diagonal([2, 12, 40, 9]))
        poly = newton_polygon(coeffs, 2)
        total = sum(slope * length for slope, length in poly.slopes())
        c_last = coeffs[poly.finite_length]
        v = 0
        while c_last % 2 == 0:
            c_last //= 2
            v += 1
        assert total == v

    @given(st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=6),
           st.sampled_from([2, 3, 5]))
    @settings(max_examples=50, deadline=None)
    def test_diagonal_prime_powers_oracle(self, exps, p):
        # slopes of diag(p^e_1 .. p^e_t) are the sorted exponents
        poly = newton_polygon(char_poly(IntegerMatrix.diagonal([p**e for e in exps])), p)
        flat = []
        for slope, length in poly.slopes():
            flat.extend([slope] * length)
        assert flat == sorted(Fraction(e) for e in exps)

    def test_conjugation_leaves_polygon_fixed(self):
        m = IntegerMatrix(((4, 2, 0), (0, 6, 2), (2, 0, 8)))
        for perm in permutations(range(3)):
            rows = tuple(tuple(m.entries[perm[i]][perm[j]] for j in range(3)) for i in range(3))
            assert newton_polygon(char_poly(IntegerMatrix(rows)), 2) == newton_polygon(char_poly(m), 2)


def slope_le_dimension_by_fractions(poly, alpha):
    """Reference: the walk over the hull's edges in Fraction arithmetic."""
    pts = poly.polygon.breakpoints
    end = 0
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        if y1 - y0 > Fraction(alpha) * (x1 - x0):
            break
        end = x1
    return int(end)


@st.composite
def lattice_hulls_and_alphas(draw):
    """(polygon, alpha): the lower hull of lattice points (i, y_i), y_0 = 0, and an alpha that is one
    of its slopes, a neighbour of one, or drawn freely."""
    ys = draw(st.lists(st.integers(0, 40), min_size=1, max_size=12))
    hull = newton._lower_hull(list(enumerate([0] + ys)))
    poly = NewtonPolygon(hull, draw(st.integers(0, 3)))
    slopes = [slope for slope, _ in poly.slopes()]
    kind = draw(st.sampled_from(["slope", "near", "free"]))
    if kind == "free":
        return poly, draw(st.fractions(min_value=0, max_value=41, max_denominator=13))
    alpha = draw(st.sampled_from(slopes))
    if kind == "near":
        alpha = max(Fraction(0), alpha + draw(st.sampled_from([-1, 1])) * Fraction(1, draw(st.integers(1, 200))))
    return poly, alpha


class TestSlopeDimension:
    @given(lattice_hulls_and_alphas())
    @settings(max_examples=200, deadline=None)
    def test_integer_count_equals_the_fraction_walk(self, case):
        poly, alpha = case
        assert slope_le_dimension(poly, alpha) == slope_le_dimension_by_fractions(poly, alpha)

    def test_hand_values(self):
        poly = newton_polygon([1, -2, 8], 2)
        assert slope_le_dimension(poly, 1) == 1
        assert slope_le_dimension(poly, Fraction(3, 2)) == 1
        assert slope_le_dimension(poly, 2) == 2

    def test_zero_slopes(self):
        poly = newton_polygon([1, -2, 1], 3)
        assert slope_le_dimension(poly, 0) == 2

    @given(st.lists(st.tuples(st.integers(min_value=-9, max_value=9), st.integers(min_value=0, max_value=6)),
                    min_size=1, max_size=8),
           st.sampled_from([2, 3, 5]), st.fractions(min_value=0, max_value=7, max_denominator=4))
    @settings(max_examples=100, deadline=None)
    def test_sums_the_lengths_of_the_slopes_up_to_alpha(self, terms, p, alpha):
        poly = newton_polygon([1] + [c * p**k for c, k in terms], p)
        assert slope_le_dimension(poly, alpha) == sum(length for slope, length in poly.slopes() if slope <= alpha)

    def test_monotone_and_saturating(self):
        poly = newton_polygon(char_poly(IntegerMatrix.diagonal([1, 2, 4, 8])), 2)
        dims = [slope_le_dimension(poly, Fraction(k, 2)) for k in range(0, 9)]
        assert dims == sorted(dims)
        assert dims[-1] == poly.finite_length == 4


class TestCheckLowerBound:
    def test_scalar_matrix_meets_line(self):
        r, t, p = 3, 4, 2
        matrix = IntegerMatrix.diagonal([p**r] * t)
        line = PiecewiseLinear(
            breakpoints=((Fraction(0), Fraction(0)),), final_slope=Fraction(r)
        )
        assert check_lower_bound(matrix, p, line)

    def test_detects_violation(self):
        bound = from_divisor_sequence(ElemDivSeq((1,)), 1, 2)
        assert not check_lower_bound(identity(2), 5, bound)

    def test_requires_domain(self):
        bound = from_divisor_sequence(ElemDivSeq((1,)), 1, 1)
        with pytest.raises(DomainTooShort):
            check_lower_bound(identity(3), 2, bound)

    def test_rejects_a_non_convex_bound_above_a_segment(self):
        # the polygon of diag(4, 4) at 2 has vertices (0, 0) and (2, 4) (c_1 = -8 sits above the
        # chord); the bound meets both vertices but reaches 3 > 2 at x = 1, so comparing the
        # vertices alone would accept it
        matrix = IntegerMatrix.diagonal([4, 4])
        assert matrix_newton_polygon(matrix, 2).vertices == ((0, 0), (2, 4))
        assert not check_lower_bound(matrix, 2, PiecewiseLinear(((0, 0), (1, 3), (2, 4))))
        assert check_lower_bound(matrix, 2, PiecewiseLinear(((0, 0), (1, 2), (2, 4))))


def prime_by_trial_division(n):
    return n >= 2 and all(n % f for f in range(2, isqrt(n) + 1))


class TestIsPrime:
    def test_agrees_with_trial_division_below_10_to_the_5(self):
        assert [n for n in range(-3, 10**5) if newton.is_prime(n) != prime_by_trial_division(n)] == []

    # the least odd composite passing Miller-Rabin at the first k prime bases, k = 1..11 (OEIS A014233),
    # and Carmichael numbers, which pass the plain Fermat test at every coprime base
    @pytest.mark.parametrize("n", [2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
                                   341550071728321, 3825123056546413051, 561, 41041, 825265, 321197185])
    def test_strong_pseudoprimes_to_small_bases_are_composite(self, n):
        assert not newton.is_prime(n)

    def test_near_10_to_the_23(self):
        # n = k * 2^40 + 1 with k < 2^40 is prime iff some a has a^((n-1)/2) = -1 mod n (Proth)
        k = 90949470261
        prime = k * 2**40 + 1
        assert k < 2**40 and pow(5, (prime - 1) // 2, prime) == prime - 1
        assert newton.is_prime(prime)
        # two primes near 10^11.5: no small factor to find
        q1, q2 = 316227766003, 316227766069
        assert prime_by_trial_division(q1) and prime_by_trial_division(q2)
        assert newton.is_prime(q1) and newton.is_prime(q2)
        assert not newton.is_prime(q1 * q2)
        assert 10**23 < q1 * q2 < prime < 10**23 + 10**14

    def test_refused_from_the_least_composite_passing_every_base(self):
        bound = 318665857834031151167461  # OEIS A014233 at k = 12: composite, passes bases 2..37
        assert not newton.is_prime(bound - 2)
        for n in (bound, 10**30 + 57):
            with pytest.raises(ValueError, match=f"cannot decide whether {n} is prime"):
                newton.is_prime(n)
        assert not newton.is_prime(2 * bound)  # a factor among the bases still decides
