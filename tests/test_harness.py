import hashlib
import math
import re
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from itertools import product
from types import SimpleNamespace
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slopebound import bounds, counting, harness, plf
from slopebound._pcg64 import PCG64
from slopebound.bernoulli import faulhaber_sum
from slopebound.counting import ElemDivSeq, count_nh, count_nh_bruteforce, truncation_divisors
from slopebound.harness import (
    CorollaryReport,
    HypothesisViolation,
    corrupt_instance,
    draw_b_seq,
    gen_instance,
    verify_chain,
    verify_corollary,
)
from slopebound.harness import Instance
from slopebound.newton import IntegerMatrix, char_poly, newton_polygon, slope_le_dimension
from slopebound.plf import PiecewiseLinear, f_infinity, f_r, from_divisor_sequence
from slopebound.rootsystems import build_root_system


def column_divisibility_ok(inst):
    """Whether every column l is divisible by p^(r - b_l)."""
    padded = inst.b_seq.padded(inst.t)
    return all(row[l] % inst.p ** (inst.r - padded[l]) == 0 for row in inst.matrix.entries for l in range(inst.t))


A1 = build_root_system("A", 1)
A2 = build_root_system("A", 2)
B2 = build_root_system("B", 2)
G2 = build_root_system("G", 2)


def test_same_seed_same_instance():
    kwargs = dict(p=2, t=5, r=3, b_seq=ElemDivSeq((2, 1)), entry_bound=50)
    assert gen_instance(42, **kwargs).matrix == gen_instance(42, **kwargs).matrix
    assert gen_instance(42, **kwargs).matrix != gen_instance(43, **kwargs).matrix


def test_full_b_means_no_forcing():
    inst = gen_instance(7, p=3, t=4, r=2, b_seq=ElemDivSeq((2, 2, 2, 2)), entry_bound=9)
    rng_range = range(-9, 10)
    assert all(e in rng_range for row in inst.matrix.entries for e in row)
    with pytest.raises(ValueError):
        corrupt_instance(inst)


def test_empty_b_forces_full_power():
    p, r = 5, 2
    inst = gen_instance(11, p=p, t=3, r=r, b_seq=ElemDivSeq(()), entry_bound=50)
    assert column_divisibility_ok(inst)
    assert all(e % p**r == 0 for row in inst.matrix.entries for e in row)
    # polygon at least the slope-r line on the finite part
    poly = newton_polygon(char_poly(inst.matrix), p)
    for slope, _ in poly.slopes():
        assert slope >= r


def test_column_divisibility_matches_b():
    b = ElemDivSeq((3, 1))
    inst = gen_instance(3, p=2, t=4, r=3, b_seq=b, entry_bound=50)
    assert column_divisibility_ok(inst)
    powers = [2 ** (3 - e) for e in b.padded(4)]
    for l, power in enumerate(powers):
        assert all(inst.matrix.entries[i][l] % power == 0 for i in range(4))


def test_drawn_b_respects_hypothesis():
    for seed in range(30):
        b = draw_b_seq(seed, A2, 2, 3, 6)
        a = truncation_divisors(A2, 2, 3).exponents[:6]
        padded = b.padded(6)
        assert all(bl <= al for bl, al in zip(padded, a))
        assert all(e <= 3 for e in b.exponents)


def test_chain_holds_on_valid_instances():
    for seed in range(25):
        b = draw_b_seq(seed, B2, 1, 2, 5)
        inst = gen_instance(seed, p=3, t=5, r=2, b_seq=b, entry_bound=30)
        report = verify_chain(inst, B2, 1)
        assert report.all_hold, f"seed {seed}: {report}"


def test_equal_sequences_give_equal_profiles():
    a = truncation_divisors(A1, 1, 2)  # (2, 1)
    inst = gen_instance(5, p=2, t=2, r=2, b_seq=a, entry_bound=20)
    report = verify_chain(inst, A1, 1)
    assert report.f_b == report.f_a
    assert report.all_hold


def test_hypothesis_violation_rejected():
    # b exceeds the divisor sequence in the second coordinate: a = (2,1,1) for A2
    bad_b = ElemDivSeq((2, 2))
    inst = gen_instance(1, p=2, t=3, r=2, b_seq=bad_b, entry_bound=10)
    with pytest.raises(HypothesisViolation):
        verify_chain(inst, A2, 1)
    with pytest.raises(HypothesisViolation):
        verify_corollary(inst, A2, 1, 1)


def test_corruption_is_detected_with_empty_b():
    detected = 0
    for seed in range(20):
        inst = gen_instance(seed, p=2, t=4, r=2, b_seq=ElemDivSeq(()), entry_bound=50)
        bad = corrupt_instance(inst)
        assert not column_divisibility_ok(bad)
        if not verify_chain(bad, A2, 1).newton_ge_fb:
            detected += 1
    assert detected == 20  # trace valuation provably drops to 0


def _vertices(points):
    """The points where the slope changes, plus both ends."""
    keep = [points[0]]
    for (x0, y0), (x1, y1), (x2, y2) in zip(points, points[1:], points[2:]):
        if (y1 - y0) * (x2 - x1) != (y2 - y1) * (x1 - x0):
            keep.append((x1, y1))
    return keep + [points[-1]]


@st.composite
def tight_cases(draw):
    """(p, r, t, b, diagonal) with diagonal entry l equal to a unit times p^(r - b_l)."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    r = draw(st.integers(1, 5))
    t = draw(st.integers(1, 10))
    b = sorted(draw(st.lists(st.integers(1, r), max_size=t)), reverse=True)
    units = draw(st.lists(st.integers(-60, 60).filter(lambda u: u % p), min_size=t, max_size=t))
    diagonal = [u * p ** (r - bl) for u, bl in zip(units, ElemDivSeq(tuple(b)).padded(t))]
    return p, r, t, ElemDivSeq(tuple(b)), diagonal


@given(tight_cases())
@settings(max_examples=200, deadline=None)
def test_diagonal_instance_is_tight_for_link_1(case):
    # the eigenvalues are the diagonal entries, so the polygon's slopes are
    # exactly r - b_l: the polygon is f_b with its collinear points dropped
    p, r, t, b, diagonal = case
    f_b = from_divisor_sequence(b, r, t)
    polygon = newton_polygon(char_poly(IntegerMatrix.diagonal(diagonal)), p)
    assert (polygon.finite_length, polygon.infinite_slopes) == (t, 0)
    assert polygon.polygon.breakpoints == tuple(_vertices(f_b.breakpoints))
    assert polygon.dominates(f_b)
    # negative control: one valuation lowered by 1 drops the polygon below f_b at x = t
    forced = [l for l, bl in enumerate(b.padded(t)) if bl < r]
    if forced:
        l = forced[len(forced) // 2]
        diagonal[l] //= p
        assert not newton_polygon(char_poly(IntegerMatrix.diagonal(diagonal)), p).dominates(f_b)


@pytest.mark.parametrize("system", [A1, A2, B2], ids=lambda s: s.label)
def test_diagonal_instances_hold_link_1_with_zero_slack(system):
    controls = 0
    for seed in range(40):
        p, r, t = (2, 3, 5)[seed % 3], 1 + seed % 4, 1 + seed % 8
        b = draw_b_seq(seed, system, 1, r, t)
        units = [u if u % p else u + 1 for u in PCG64(seed).integers(1, 50, t)]
        diagonal = [u * p ** (r - bl) for u, bl in zip(units, b.padded(t))]
        inst = Instance(p=p, r=r, b_seq=b, matrix=IntegerMatrix.diagonal(diagonal), seed=seed)
        report = verify_chain(inst, system, 1)
        assert report.all_hold
        assert report.polygon.polygon.breakpoints == tuple(_vertices(report.f_b.breakpoints))
        forced = [l for l, bl in enumerate(b.padded(t)) if bl < r]
        if not forced:
            continue
        diagonal[forced[0]] //= p
        lowered = Instance(p=p, r=r, b_seq=b, matrix=IntegerMatrix.diagonal(diagonal), seed=seed)
        assert not verify_chain(lowered, system, 1).newton_ge_fb
        controls += 1
    assert controls >= 30


def test_conjugation_invariance_of_verdict():
    b = ElemDivSeq((1,))
    inst = gen_instance(9, p=2, t=3, r=1, b_seq=b, entry_bound=20)
    rows = [list(row) for row in inst.matrix.entries]
    # conjugate by a unit shear: U M U^-1 with U = I + 2*E_{0,2}
    for j in range(3):
        rows[0][j] += 2 * rows[2][j]
    for i in range(3):
        rows[i][2] -= 2 * rows[i][0]
    conj = type(inst.matrix)(tuple(tuple(r) for r in rows))
    assert char_poly(conj) == char_poly(inst.matrix)


def test_corollary_reports():
    inst = gen_instance(21, p=2, t=6, r=3, b_seq=ElemDivSeq((2, 1)), entry_bound=40)
    for alpha in (0, Fraction(1, 2), 1, 2):
        report = verify_corollary(inst, A2, 1, alpha)
        assert report.holds
        assert report.dimension <= report.bound
        assert report.sharp_bound is None  # alpha < M(3)
    at_m = verify_corollary(inst, A2, 1, report.params.M)
    assert at_m.sharp_bound is not None
    assert at_m.holds


def test_negative_seed_raises():
    with pytest.raises(ValueError):
        PCG64(-1)
    with pytest.raises(ValueError):
        PCG64([3, -1])
    with pytest.raises(ValueError):
        draw_b_seq(-1, A2, 1, 2, 3)
    with pytest.raises(ValueError):
        gen_instance(-1, 2, 3, 1, ElemDivSeq(()), 10)


@pytest.mark.parametrize(
    "t, r, b, message",
    [
        (2, 1, (2,), "b exponents must not exceed r"),
        (0, 1, (), "t and r must be positive"),
        (2, 3, (3, 2, 1), "b-sequence longer than t"),
    ],
)
def test_gen_instance_validates_before_computing(t, r, b, message):
    # the messages of Instance itself, not those of the arithmetic they guard
    with pytest.raises(ValueError, match=f"^{message}$"):
        gen_instance(0, 2, t, r, ElemDivSeq(b), 50)


@pytest.mark.parametrize("t", [0, -1])
def test_draw_b_seq_rejects_non_positive_t(t):
    # before the divisor expansion, whose own errors would say nothing about t
    with pytest.raises(ValueError, match="^t and r must be positive$"):
        draw_b_seq(0, A2, 1, 2, t)


def test_entry_bound_past_int64_raises():
    with pytest.raises(ValueError):
        gen_instance(1, 2, 3, 1, ElemDivSeq(()), 2**63)
    gen_instance(1, 2, 3, 1, ElemDivSeq(()), 2**63 - 1)


@pytest.fixture
def fresh_chain_cache():
    """Empty per-parameter caches of verify_chain and verify_corollary, before the test and after it."""
    caches = (harness._adjusted_divisors, harness._chain_constants, harness._bounds)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


def test_cached_links_equal_direct_recomputation(fresh_chain_cache):
    """On every (type, g, r, t) of the acceptance grid, twice: filling the cache, then served from it."""
    systems = {"A1": A1, "A2": A2, "B2": B2}
    keys = list(product(sorted(systems), (1, 2, 3), (1, 2, 3, 4), range(2, 9)))
    for _ in range(2):
        for n, (label, g, r, t) in enumerate(keys):
            system = systems[label]
            seed = 7000 + n
            b_seq = draw_b_seq(seed, system, g, r, t)
            inst = gen_instance(seed, p=(2, 3, 5)[n % 3], t=t, r=r, b_seq=b_seq, entry_bound=50)
            report = verify_chain(inst, system, g)
            a = truncation_divisors(system, g, r).exponents[:t]
            f_a = from_divisor_sequence(ElemDivSeq(a), r, t)
            ramp, limit = f_r(system.s, g, r), f_infinity(system.s, g, r)
            f_b = from_divisor_sequence(b_seq, r, t)
            assert (report.f_a, report.f_r, report.f_inf, report.f_b) == (f_a, ramp, limit, f_b)
            assert report.newton_ge_fb == report.polygon.dominates(report.f_b)
            assert report.fb_ge_fa == f_b.dominates(f_a, t)
            assert report.fa_ge_fr == f_a.dominates(ramp, t)
            assert report.fr_eq_finf_on_window == ramp.agrees_with(limit, g * faulhaber_sum(system.s, r + 1))
            assert report.all_hold
    assert harness._chain_constants.cache_info().hits == len(keys)


def test_cached_link_can_fail(fresh_chain_cache, monkeypatch):
    """A ramp raised by x is no longer f_infinity's profile, so link 4 fails. Link 3 reads f_r's
    exponents, not the raised ramp, and still holds."""
    def raised_ramp(s, g, r):
        ramp = f_r(s, g, r)
        return PiecewiseLinear(tuple((x, y + x) for x, y in ramp.breakpoints), ramp.final_slope + 1)

    monkeypatch.setattr(harness, "f_r", raised_ramp)
    for seed, (system, g, r, t) in enumerate([(A1, 1, 1, 2), (A2, 2, 3, 6), (B2, 3, 4, 8)]):
        inst = gen_instance(seed, p=2, t=t, r=r, b_seq=draw_b_seq(seed, system, g, r, t), entry_bound=50)
        report = verify_chain(inst, system, g)
        assert report.fa_ge_fr
        assert not report.fr_eq_finf_on_window
        assert not report.all_hold


@pytest.mark.parametrize("g", [1, 2, 3])
def test_link_3_fails_on_a1_with_n1_raised(fresh_chain_cache, monkeypatch, g):
    """A1 is the tight case, N_h = 1 = (h+1)^0: with N_1 raised by one, a stays at r - 1 one step
    past f_r's run, so link 3 fails from t = 2g + 1 on, and holds up to t = 2g. The merge walk
    agrees at every t."""
    monkeypatch.setattr(counting, "count_nh", lambda system, H: tuple(
        n + (h == 1) for h, n in enumerate(count_nh(system, H))))
    r = 3
    for t in range(1, 4 * g + 1):
        inst = gen_instance(t, p=2, t=t, r=r, b_seq=draw_b_seq(t, A1, g, r, t), entry_bound=50)
        report = verify_chain(inst, A1, g)
        assert report.fa_ge_fr == (t <= 2 * g) == report.f_a.dominates(report.f_r, t)
        assert report.fr_eq_finf_on_window
        assert report.all_hold == (t <= 2 * g)


def test_link_4_can_fail(fresh_chain_cache, monkeypatch):
    """A wrong closed form in f_infinity's x-coordinates breaks the coincidence window."""
    monkeypatch.setattr(plf, "faulhaber_sum", lambda s, j: faulhaber_sum(s, j) + (j >= 2))
    inst = gen_instance(0, p=2, t=4, r=2, b_seq=draw_b_seq(0, A2, 1, 2, 4), entry_bound=50)
    report = verify_chain(inst, A2, 1)
    assert report.fr_eq_finf_on_window is False
    assert report.all_hold is False


LINK_3_TYPES = [A1, A2, build_root_system("A", 3), B2, G2, build_root_system("C", 3)]


@given(st.sampled_from(LINK_3_TYPES), st.integers(1, 3), st.integers(1, 6), st.integers(1, 300), st.data())
@settings(max_examples=200, deadline=None)
def test_link_3_from_prefix_sums_equals_the_merge_walk(system, g, r, t, data):
    """With the first a_l of one run raised towards a_(l-1) (a_0 = r), which draws f_a lower and
    keeps a non-increasing, so that both verdicts occur; A1 is tight, so any raise there breaks
    link 3. a is all r when t is within the first run, and is then left as it is."""
    a = list(harness._adjusted_divisors.__wrapped__(system, g, r, t))
    run_starts = [l for l in range(t) if a[l] < (a[l - 1] if l else r)] or [0]
    l = data.draw(st.sampled_from(run_starts))
    a[l] = data.draw(st.integers(a[l], a[l - 1] if l else r))
    with patch.object(harness, "_adjusted_divisors", lambda *key: tuple(a)):
        _, f_a, ramp, _, fa_ge_fr, _ = harness._chain_constants.__wrapped__(system, g, r, t)
    assert fa_ge_fr == f_a.dominates(ramp, t)


@given(st.integers(1, 11), st.integers(1, 3), st.integers(1, 14), st.sampled_from(["none", "from P_1", "one P_j"]),
       st.data())
@settings(max_examples=200, deadline=None)
def test_link_4_as_a_breakpoint_identity_equals_the_merge_walk(s, g, r, wrong, data):
    """On f_infinity from the true closed form, and from a wrong one: every P_j from P_1 on moved
    right by 1, or one drawn P_j moved right by 1/2, less than any gap between two of them. Link 4
    depends on the type only through s, so a stand-in type carries s."""
    true_sum = faulhaber_sum
    if wrong == "from P_1":
        moved = lambda s, j: true_sum(s, j) + (j >= 2)
    elif wrong == "one P_j":
        k = data.draw(st.integers(1, r + 1))
        moved = lambda s, j: true_sum(s, j) + Fraction(j == k, 2)
    else:
        moved = true_sum
    with patch.object(plf, "faulhaber_sum", moved), \
            patch.object(harness, "_adjusted_divisors", lambda system, g, r, t: (0,) * t):
        _, _, ramp, limit, _, fr_eq_finf_on_window = harness._chain_constants.__wrapped__(
            SimpleNamespace(s=s), g, r, 1)
    assert fr_eq_finf_on_window == ramp.agrees_with(limit, g * true_sum(s, r + 1)) == (wrong == "none")


def test_chain_walks_no_merged_breakpoints(fresh_chain_cache, monkeypatch):
    """Every link holds on every acceptance-grid cell with dominates and agrees_with failing on call."""
    monkeypatch.setattr(PiecewiseLinear, "dominates", lambda *args: pytest.fail("dominates was called"))
    monkeypatch.setattr(PiecewiseLinear, "agrees_with", lambda *args: pytest.fail("agrees_with was called"))
    systems = {"A1": A1, "A2": A2, "B2": B2}
    for i, (label, g, p, r, t) in enumerate(product(sorted(systems), (1, 2, 3), (2, 3, 5), (1, 2, 3, 4), range(2, 9))):
        system = systems[label]
        inst = gen_instance(i, p=p, t=t, r=r, b_seq=draw_b_seq(i, system, g, r, t), entry_bound=50)
        assert verify_chain(inst, system, g).all_hold


# H for each type, small enough for count_nh_bruteforce
LEMMA_CASES = [(A1, 30), (A2, 30), (B2, 15), (G2, 8), (build_root_system("A", 3), 8), (build_root_system("C", 3), 4)]


@pytest.mark.parametrize("system, H", LEMMA_CASES, ids=lambda case: getattr(case, "label", case))
def test_nh_lemma_behind_link_3(system, H):
    """N_h <= prod over all roots but one simple root of (h // ht_i + 1) <= (h+1)^(s-1): the other
    coefficients fix the simple root's. A1 is tight, N_h = 1 = (h+1)^0."""
    others = list(system.heights)
    others.remove(1)
    for h, n in enumerate(count_nh_bruteforce(system, H)):
        product_bound = math.prod(h // ht + 1 for ht in others)
        assert n <= product_bound <= (h + 1) ** (system.s - 1)
        if system.s == 1:
            assert n == product_bound == (h + 1) ** (system.s - 1)


def test_cached_bounds_equal_direct_recomputation(fresh_chain_cache):
    """At alpha = M and M - 1/2 for every (s, g) of the corollary grid, twice: filling the cache, then
    served from it. The reports of verify_corollary carry the same values."""
    keys = list(product([A1, A2, B2], (1, 2, 3)))
    for _ in range(2):
        for n, (system, g) in enumerate(keys):
            params = bounds.build_params.__wrapped__(system.s, g)
            inst = gen_instance(n, p=2, t=4, r=2, b_seq=draw_b_seq(n, system, g, 2, 4), entry_bound=50)
            for alpha in (Fraction(params.M), params.M - Fraction(1, 2)):
                sharp = bounds.sharp_dimension_bound(params, alpha) if alpha >= params.M else None
                expected = (alpha, bounds.dimension_bound(params, alpha), sharp, params)
                assert harness._bounds(system.s, g, *alpha.as_integer_ratio()) == expected
                report = verify_corollary(inst, system, g, alpha)
                assert (report.alpha, report.bound, report.sharp_bound, report.params) == expected
    assert harness._bounds.cache_info()[:2] == (3 * len(keys) * 2, len(keys) * 2)  # hits, misses
    # the report's params come from the same lookup as its bounds
    with patch.object(harness, "build_params", lambda s, g: pytest.fail("build_params was called")):
        assert verify_corollary(inst, system, g, alpha).params == params


def test_warm_corollary_builds_compares_and_hashes_no_fraction(fresh_chain_cache, monkeypatch):
    """Once _bounds holds an alpha, verify_corollary at it, given as an int or as a Fraction, calls no
    Fraction constructor, hash or comparison."""
    inst = gen_instance(21, p=2, t=6, r=3, b_seq=ElemDivSeq((2, 1)), entry_bound=40)
    alphas = (0, 2, 20, Fraction(0), Fraction(1, 2), Fraction(20))  # M(3) = 20: both bound branches
    expected = [verify_corollary(inst, A2, 1, alpha) for alpha in alphas]  # fills every cache
    calls = []
    for name in ("__new__", "__hash__", "__eq__", "__lt__", "__le__", "__gt__", "__ge__"):
        def spy(*args, _name=name, _method=getattr(Fraction, name), **kwargs):
            calls.append(_name)
            return _method(*args, **kwargs)
        monkeypatch.setattr(Fraction, name, spy)
    reports = [verify_corollary(inst, A2, 1, alpha) for alpha in alphas]
    assert calls == []
    assert harness._bounds.cache_info().misses == 4
    # the spies see what they wrap
    third = Fraction(1, 3)
    assert hash(third) and third < 1
    assert calls == ["__new__", "__hash__", "__lt__"]
    monkeypatch.undo()
    assert reports == expected


class _FractionSubclass(Fraction):
    """A Fraction subclass: verify_corollary reads it as directly as a Fraction."""


def _alpha_forms(value: Fraction) -> list:
    """value as every type verify_corollary takes: a Fraction, a Fraction subclass, a float and a
    Decimal (both exact, the denominator being a power of 2), a "p/q" string, and an int and a bool
    where value is one."""
    num, den = value.as_integer_ratio()
    forms = [value, _FractionSubclass(value), num / den, Decimal(num) / Decimal(den), f"{num}/{den}"]
    if den == 1:
        forms.append(num)
        if num in (0, 1):
            forms.append(bool(num))
    return forms


def test_corollary_reads_alpha_in_every_form(fresh_chain_cache):
    """Each form of a dyadic alpha in [0, 40] gives the report recomputed directly from
    dimension_bound, sharp_dimension_bound and slope_le_dimension, by == and by repr, and all of them
    together cost one _bounds miss. Each form of -alpha raises."""
    seen = set()

    @given(st.sampled_from([A1, A2]), st.integers(1, 3), st.integers(0, 4), st.data())
    @settings(max_examples=200, deadline=None)
    def check(system, g, k, data):
        value = Fraction(data.draw(st.integers(0, 40 << k)), 1 << k)
        inst = gen_instance(k, p=2, t=6, r=2, b_seq=draw_b_seq(k, system, g, 2, 6), entry_bound=50)
        params = bounds.build_params.__wrapped__(system.s, g)
        sharp = bounds.sharp_dimension_bound(params, value) if value >= params.M else None
        dimension = slope_le_dimension(newton_polygon(char_poly(inst.matrix), inst.p), value)
        expected = CorollaryReport(value, dimension, bounds.dimension_bound(params, value), sharp, params)
        harness._bounds.cache_clear()
        for alpha in _alpha_forms(value):
            report = verify_corollary(inst, system, g, alpha)
            assert report == expected
            assert repr(report) == repr(expected)
        assert harness._bounds.cache_info().misses == 1
        for alpha in _alpha_forms(-value) if value else ():
            with pytest.raises(ValueError, match="^alpha must be non-negative$"):
                verify_corollary(inst, system, g, alpha)
        seen.add((value.denominator == 1, sharp is not None))

    check()
    assert seen == set(product((False, True), repeat=2))


@pytest.mark.parametrize("alpha", [None, object(), [1], 1j, "abc", "1/0", float("nan"), float("-inf"),
                                   Decimal("NaN"), Decimal("Infinity")])
def test_corollary_raises_on_a_non_number_what_fraction_raises(alpha):
    with pytest.raises(Exception) as direct:
        Fraction(alpha)
    inst = gen_instance(21, p=2, t=6, r=3, b_seq=ElemDivSeq((2, 1)), entry_bound=40)
    with pytest.raises(type(direct.value), match=f"^{re.escape(str(direct.value))}$"):
        verify_corollary(inst, A2, 1, alpha)


@st.composite
def corollary_cases(draw):
    """(instance, system, g, alpha, polygon): a gen_instance matrix at t <= 12, p in {2, 3, 5}, entries
    up to 1 (about 30% singular at t = 4, whose hull comes from the exact coefficients with infinite
    slopes) or up to 50, and the polygon of its exact coefficients. alpha is 0, one of the polygon's
    edge slopes, a value between two of them, or one past the last."""
    system, g = draw(st.sampled_from([A1, A2, B2])), draw(st.integers(1, 3))
    p, r, t = draw(st.sampled_from([2, 3, 5])), draw(st.integers(1, 4)), draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**32))
    inst = gen_instance(seed, p=p, t=t, r=r, b_seq=draw_b_seq(seed, system, g, r, t),
                        entry_bound=draw(st.sampled_from([1, 50])))
    polygon = newton_polygon(char_poly(inst.matrix), p)
    slopes = sorted({slope for slope, _ in polygon.slopes()})
    between = [(x + y) / 2 for x, y in zip([Fraction(0)] + slopes, slopes) if x < y]
    alpha = draw(st.sampled_from([Fraction(0), *slopes, *between, (slopes or [Fraction(0)])[-1] + 1]))
    return inst, system, g, alpha, polygon


def test_corollary_dimension_equals_the_count_on_the_exact_polygon():
    """verify_corollary counts on the kernel's hull what slope_le_dimension counts on the polygon of the
    exact coefficients, and what the polygon's (slope, length) pairs add up to."""
    seen = set()

    @given(corollary_cases())
    @settings(max_examples=300, deadline=None)
    def check(case):
        inst, system, g, alpha, polygon = case
        dimension = verify_corollary(inst, system, g, alpha).dimension
        assert dimension == slope_le_dimension(polygon, alpha)
        assert dimension == sum(length for slope, length in polygon.slopes() if slope <= alpha)
        seen.add((polygon.infinite_slopes > 0, alpha in dict(polygon.slopes())))

    check()
    # both with and without infinite slopes, and alpha both on and off an edge slope
    assert {infinite for infinite, _ in seen} == {on_edge for _, on_edge in seen} == {False, True}


def test_link_2_can_fail_past_the_hypothesis_guard(monkeypatch):
    """For A1, g = 1, r = 2 the divisors are a = (2, 1); b = (2, 2) lies above them, so f_b >= f_a fails."""
    monkeypatch.setattr(harness, "_require_hypothesis", lambda inst, a_adjusted: None)
    inst = gen_instance(0, p=2, t=2, r=2, b_seq=ElemDivSeq((2, 2)), entry_bound=50)
    report = verify_chain(inst, A1, 1)
    assert report.fb_ge_fa is False
    assert report.all_hold is False


@st.composite
def link_2_cases(draw):
    """(instance, system, g): t <= 40, r <= 4 and a non-increasing b drawn below the divisors a, within one of
    them (so that its prefix sums may dip below a's and come back), or freely."""
    system, g = draw(st.sampled_from([A1, A2, B2, G2])), draw(st.integers(1, 3))
    r, t = draw(st.integers(1, 4)), draw(st.integers(1, 40))
    a = harness._adjusted_divisors(system, g, r, t)
    kind = draw(st.sampled_from(["below", "near", "free"]))
    if kind == "below":
        b = [draw(st.integers(0, al)) for al in a]
    elif kind == "near":
        b = [min(r, max(0, al + draw(st.integers(-1, 1)))) for al in a]
    else:
        b = draw(st.lists(st.integers(1, r), max_size=t))
    b_seq = ElemDivSeq(tuple(filter(None, sorted(b, reverse=True))))
    return gen_instance(draw(st.integers(0, 2**32)), p=2, t=t, r=r, b_seq=b_seq, entry_bound=9), system, g


def test_link_2_equals_the_merge_walk_past_the_hypothesis_guard(monkeypatch):
    """The prefix-sum check of f_b >= f_a decides what the merge walk does, where it holds and where it fails."""
    monkeypatch.setattr(harness, "_require_hypothesis", lambda inst, a_adjusted: None)
    seen = set()

    @given(link_2_cases())
    @settings(max_examples=150, deadline=None)
    def check(case):
        inst, system, g = case
        report = verify_chain(inst, system, g)
        assert report.fb_ge_fa == report.f_b.dominates(report.f_a, inst.t)
        seen.add(report.fb_ge_fa)

    check()
    assert seen == {True, False}


@st.composite
def link_1_cases(draw):
    """(instance, system): a clean instance, its corrupt_instance control, or a matrix whose columns
    follow one non-increasing b while the instance claims another, which may lie above the divisors."""
    system = draw(st.sampled_from([A1, A2, B2, G2]))
    p, r, t = draw(st.sampled_from([2, 3, 5])), draw(st.integers(1, 4)), draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2**32))
    kind = draw(st.sampled_from(["clean", "corrupt", "unguarded"]))
    if kind == "unguarded":
        b_seqs = [ElemDivSeq(tuple(sorted(draw(st.lists(st.integers(1, r), max_size=t)), reverse=True)))
                  for _ in range(2)]
    else:
        b_seqs = [draw_b_seq(seed, system, 1, r, t)] * 2
    inst = gen_instance(seed, p=p, t=t, r=r, b_seq=b_seqs[0], entry_bound=50)
    if kind == "corrupt" and r > b_seqs[0].padded(t)[-1]:
        inst = corrupt_instance(inst)
    return Instance(p=p, r=r, b_seq=b_seqs[1], matrix=inst.matrix, seed=seed), system


@given(link_1_cases())
@settings(max_examples=300, deadline=None)
def test_link_1_from_the_vertices_equals_the_merge_walk(case):
    """f_b is convex, so checking the polygon's vertices decides what the merge walk over both profiles does."""
    inst, system = case
    with patch.object(harness, "_require_hypothesis", lambda inst, a_adjusted: None):
        report = verify_chain(inst, system, 1)
    assert report.newton_ge_fb == report.polygon.dominates(report.f_b)


@given(st.sampled_from([A1, A2, B2, G2]), st.integers(1, 3), st.integers(1, 8), st.integers(1, 12))
@settings(max_examples=100, deadline=None)
def test_adjusted_divisors_are_the_zero_padded_prefix(system, g, r, t):
    exps = truncation_divisors(system, g, r).exponents
    assert harness._adjusted_divisors.__wrapped__(system, g, r, t) == (exps + (0,) * t)[:t]


def test_e8_draw_and_chain_build_only_the_exponents_they_read(fresh_chain_cache):
    """At E8, g = 1, r = 13 the divisor sequence has 3,086,065 entries; t = 4 reads four."""
    e8 = build_root_system("E", 8)
    harness._adjusted_divisors.cache_clear()
    tracemalloc.start()
    try:
        b_seq = draw_b_seq(0, e8, 1, 13, 4)
        report = verify_chain(gen_instance(0, p=2, t=4, r=13, b_seq=b_seq, entry_bound=50), e8, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.all_hold
    assert peak < 2 * 2**20, f"peak {peak / 2**20:.1f} MB"


def grid_draw_lines(base):
    """draw_b_seq, gen_instance and corrupt_instance on every acceptance-grid cell, seeds (base << 32) + i."""
    systems = {"A1": A1, "A2": A2, "B2": B2}
    grid = product(sorted(systems), (1, 2, 3), (2, 3, 5), (1, 2, 3, 4), range(2, 9))
    for i, (label, g, p, r, t) in enumerate(grid):
        seed = (base << 32) + i
        b_seq = draw_b_seq(seed, systems[label], g, r, t)
        inst = gen_instance(seed, p=p, t=t, r=r, b_seq=b_seq, entry_bound=50)
        forced = any(b < r for b in b_seq.padded(t))
        corrupted = corrupt_instance(inst).matrix.entries if forced else None
        yield f"{label},{g},{p},{r},{t} {seed} {b_seq.exponents} {inst.matrix.entries} {corrupted}"


# base 0 gives one-word matrix entropy, base 1312 (the benchmark's golden seed) two words
@pytest.mark.parametrize(
    "base, digest",
    [
        (0, "625958ec974ea9a4af9d3fce40d3c56d9b3e7ac13b99ec17d73f08c07f165d2c"),
        (1312, "2c530672e205234ecf40b9788fd1ee293ceb42958eeb8fab20d59993df9a02f7"),
    ],
)
def test_grid_draws_frozen_digest(base, digest):
    """Every seeded draw over the 756 cells is unchanged; guards the PCG64 port where numpy is absent."""
    # recorded when every drawn value took its own PCG64 call, before the draws were batched
    lines = list(grid_draw_lines(base))
    assert len(lines) == 756
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest
