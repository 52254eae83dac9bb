import json
from bisect import bisect_right
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slopebound import plf
from slopebound.bernoulli import faulhaber_sum
from slopebound.counting import ElemDivSeq, truncation_divisors
from slopebound.plf import (
    BadLength,
    DomainTooShort,
    ExponentExceedsR,
    OutOfDomain,
    PiecewiseLinear,
    f_infinity,
    f_infinity_star,
    f_r,
    from_divisor_sequence,
)
from slopebound.newton import newton_polygon
from slopebound.rootsystems import build_root_system


# JSON documents that are not profiles, one per way the parse can go wrong
MALFORMED_PROFILES = [
    '{"final_slope": null}',
    "[1, 2]",
    '"x"',
    '{"breakpoints": 5}',
    '{"breakpoints": [[null, 1]]}',
    '{"breakpoints": [["0", "0"]], "final_slope": []}',
    '{"breakpoints": [["0", "0"], ["1/0", "1"]]}',
    '{"breakpoints": [["0", "0"]], "final_slope": "1/0"}',
    '{"breakpoints": [["0", "0"], [1e400, "1"]]}',
    '{"breakpoints": ["00", "12"]}',
    '{"breakpoints": [["0", "0", "0"]]}',
    '{"breakpoints": [["0", "0"], [0.1, "1"]]}',
    '{"breakpoints": [["0", "0"], ["1", "1"]], "final_slope": 0.5}',
    '{"breakpoints": [[false, false]]}',
    '{"breakpoints": [["0", "0"]], "final_slope": true}',
]


def pts(*pairs):
    return tuple((Fraction(x), Fraction(y)) for x, y in pairs)


def value_at(fn, x):
    """Oracle for the merge walk: fn(x) by bisecting the breakpoints; OutOfDomain off the domain."""
    x = Fraction(x)
    if x < 0:
        raise OutOfDomain(f"{x} < 0")
    xs = [bx for bx, _ in fn.breakpoints]
    last_x, last_y = fn.breakpoints[-1]
    if x > last_x:
        if fn.final_slope is None:
            raise OutOfDomain(f"{x} beyond domain end {last_x}")
        return last_y + fn.final_slope * (x - last_x)
    i = bisect_right(xs, x) - 1
    x0, y0 = fn.breakpoints[i]
    if x == x0:
        return y0
    x1, y1 = fn.breakpoints[i + 1]
    return y0 + (y1 - y0) * (x - x0) / (x1 - x0)


def is_convex(fn):
    """Whether the slopes of consecutive segments, final ray included, never decrease."""
    points = fn.breakpoints
    slopes = [(y1 - y0) / (x1 - x0) for (x0, y0), (x1, y1) in zip(points, points[1:])]
    if fn.final_slope is not None:
        slopes.append(fn.final_slope)
    return all(a <= b for a, b in zip(slopes, slopes[1:]))


@st.composite
def divisor_pairs(draw):
    """(b, a, r, t) with b coordinatewise below a, both non-increasing, entries <= r."""
    r = draw(st.integers(min_value=1, max_value=5))
    t = draw(st.integers(min_value=1, max_value=7))
    a = sorted(
        (draw(st.integers(min_value=0, max_value=r)) for _ in range(t)), reverse=True
    )
    b = sorted((draw(st.integers(min_value=0, max_value=ai)) for ai in a), reverse=True)
    return b, a, r, t


@st.composite
def plfs(draw):
    """Arbitrary (not necessarily convex) functions with fractional breakpoints, some with a final ray."""
    steps = draw(st.lists(st.fractions(min_value=Fraction(1, 3), max_value=3, max_denominator=3), max_size=5))
    x, points = Fraction(0), [(Fraction(0), Fraction(0))]
    for step in steps:
        x += step
        points.append((x, draw(st.fractions(min_value=0, max_value=6, max_denominator=4))))
    slope = draw(st.none() | st.fractions(min_value=0, max_value=4, max_denominator=3))
    return PiecewiseLinear(tuple(points), slope)


def lowered(fn, drops):
    """fn with each breakpoint value lowered by the matching drop (clamped at 0) and a flatter ray."""
    points = ((x, max(Fraction(0), y - d)) for (x, y), d in zip(fn.breakpoints, [Fraction(0)] + drops))
    slope = None if fn.final_slope is None else fn.final_slope / 2
    return PiecewiseLinear(tuple(points), slope)


class TestStructure:
    def test_must_start_at_origin(self):
        with pytest.raises(ValueError):
            PiecewiseLinear(breakpoints=pts((1, 0), (2, 1)))

    def test_strictly_increasing_x(self):
        with pytest.raises(ValueError):
            PiecewiseLinear(breakpoints=pts((0, 0), (1, 1), (1, 2)))

    def test_non_negative_values(self):
        with pytest.raises(ValueError):
            PiecewiseLinear(breakpoints=pts((0, 0), (1, -1)))

    def test_eval_breakpoints_and_midpoint(self):
        fn = PiecewiseLinear(breakpoints=pts((0, 0), (2, 1)))
        assert value_at(fn, 0) == 0
        assert value_at(fn, 2) == 1
        assert value_at(fn, 1) == Fraction(1, 2)

    def test_eval_ray_and_domain(self):
        fn = PiecewiseLinear(breakpoints=pts((0, 0), (2, 1)), final_slope=Fraction(3))
        assert value_at(fn, 4) == 7
        assert fn.domain_end is None
        bounded = PiecewiseLinear(breakpoints=pts((0, 0), (2, 1)))
        assert bounded.domain_end == 2
        with pytest.raises(OutOfDomain):
            value_at(bounded, 3)
        with pytest.raises(OutOfDomain):
            value_at(bounded, -1)

    def test_json_roundtrip(self):
        fn = f_r(2, 3, 4)
        assert PiecewiseLinear.from_json_dict(fn.to_json_dict()) == fn

    @pytest.mark.parametrize("text", MALFORMED_PROFILES)
    def test_json_of_any_other_shape_is_a_value_error(self, text):
        with pytest.raises(ValueError, match="not a profile"):
            PiecewiseLinear.from_json_dict(json.loads(text))


class TestFromDivisorSequence:
    def test_frozen_examples(self):
        fn = from_divisor_sequence(ElemDivSeq((3, 2, 1)), 3, 3)
        assert fn.breakpoints == pts((0, 0), (1, 0), (2, 1), (3, 3))
        assert from_divisor_sequence(ElemDivSeq(()), 1, 2).breakpoints == pts((0, 0), (1, 1), (2, 2))
        assert from_divisor_sequence(ElemDivSeq((1,)), 1, 1).breakpoints == pts((0, 0), (1, 0))

    def test_errors(self):
        with pytest.raises(ExponentExceedsR):
            from_divisor_sequence(ElemDivSeq((3,)), 2, 3)
        with pytest.raises(BadLength):
            from_divisor_sequence(ElemDivSeq((1, 1)), 1, 1)

    @given(r=st.integers(1, 8), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_equals_the_public_constructor_on_the_same_ints(self, r, data):
        # from_divisor_sequence stores its Fractions unchecked; the public constructor, which
        # checks them, must make the same value from the same ints
        t = data.draw(st.integers(0, 48))
        b = sorted(data.draw(st.lists(st.integers(1, r), max_size=t)), reverse=True)
        points = [(0, 0)]
        for l, e in enumerate(b + [0] * (t - len(b)), start=1):
            points.append((l, points[-1][1] + r - e))
        fn, public = from_divisor_sequence(ElemDivSeq(tuple(b)), r, t), PiecewiseLinear(points)
        assert fn.breakpoints == public.breakpoints
        assert fn.final_slope is None and public.final_slope is None
        assert hash(fn) == hash(public) and repr(fn) == repr(public)
        assert all(type(c) is Fraction for point in fn.breakpoints for c in point)

    @given(divisor_pairs())
    @settings(max_examples=60, deadline=None)
    def test_convex_and_dominance_transfer(self, pair):
        b, a, r, t = pair
        fb = from_divisor_sequence(ElemDivSeq(tuple(e for e in b if e > 0)), r, t)
        fa = from_divisor_sequence(ElemDivSeq(tuple(e for e in a if e > 0)), r, t)
        assert is_convex(fb) and is_convex(fa)
        assert fb.dominates(fa, t)


class TestRamp:
    def test_frozen_s1(self):
        fn = f_r(1, 1, 2)
        assert fn.breakpoints == pts((0, 0), (1, 0), (2, 1))
        assert fn.final_slope == 2
        assert value_at(fn, 3) == 3

    def test_frozen_s2_r1(self):
        fn = f_r(2, 1, 1)
        assert fn.breakpoints == pts((0, 0), (1, 0))
        assert fn.final_slope == 1

    @pytest.mark.parametrize("s,g,r", [(1, 1, 3), (2, 2, 4), (3, 1, 2), (4, 3, 5)])
    def test_zero_through_first_interval(self, s, g, r):
        assert value_at(f_r(s, g, r), g) == 0

    @pytest.mark.parametrize("s,g,r", [(1, 1, 3), (2, 2, 4), (3, 3, 6), (4, 1, 5)])
    def test_convex_with_interval_widths(self, s, g, r):
        fn = f_r(s, g, r)
        assert is_convex(fn)
        xs = [x for x, _ in fn.breakpoints]
        widths = [x1 - x0 for x0, x1 in zip(xs, xs[1:])]
        assert widths == [g * (j + 1) ** (s - 1) for j in range(r)]


class TestLimitProfiles:
    def test_s1_points(self):
        # x-coordinates follow the plain power sums
        fn = f_infinity(1, 1, 6)
        for j in range(7):
            x, y = fn.breakpoints[j + 1]
            assert x == sum((h + 1) ** 0 for h in range(j + 1))
            assert y == sum(h * (h + 1) ** 0 for h in range(j + 1)) == j * (j + 1) // 2

    def test_s2_points(self):
        fn = f_infinity(2, 1, 4)
        assert fn.breakpoints[2] == (Fraction(3), Fraction(2))  # arrival of slope 1
        star = f_infinity_star(2, 1, 4)
        assert star.breakpoints[2] == (Fraction(3), Fraction(1))  # power-sum height 1^2

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_star_origin_height_zero(self, s):
        star = f_infinity_star(s, 2, 3)
        assert star.breakpoints[1][1] == 0

    def test_s1_profiles_coincide(self):
        for g in (1, 2, 3):
            assert f_infinity(1, g, 20).breakpoints == f_infinity_star(1, g, 20).breakpoints

    @pytest.mark.parametrize("s", [2, 3, 4])
    def test_strict_dominance_for_higher_s(self, s):
        fn, star = f_infinity(s, 1, 20), f_infinity_star(s, 1, 20)
        assert fn.dominates(star, fn.breakpoints[-1][0])
        for j in range(1, 21):
            assert fn.breakpoints[j + 1][1] > star.breakpoints[j + 1][1]

    @pytest.mark.parametrize("s,g", [(1, 1), (2, 3), (3, 2), (4, 1)])
    def test_convexity(self, s, g):
        assert is_convex(f_infinity(s, g, 15))
        assert is_convex(f_infinity_star(s, g, 15))


class TestDominance:
    def test_reflexive(self):
        fn = f_infinity(2, 1, 5)
        assert fn.dominates(fn, fn.breakpoints[-1][0])

    def test_hand_example(self):
        fb = from_divisor_sequence(ElemDivSeq((1,)), 2, 1)
        fa = from_divisor_sequence(ElemDivSeq((2,)), 2, 1)
        assert fb.breakpoints == pts((0, 0), (1, 1))
        assert fa.breakpoints == pts((0, 0), (1, 0))
        assert fb.dominates(fa, 1)
        assert not fa.dominates(fb, 1)

    @given(plfs(), st.one_of(plfs(), st.lists(st.fractions(min_value=0, max_value=2), min_size=6, max_size=6)),
           st.fractions(min_value=0, max_value=15, max_denominator=4))
    @settings(max_examples=150, deadline=None)
    def test_walk_matches_value_at_oracle(self, fn, other, x_max):
        if not isinstance(other, PiecewiseLinear):
            other = lowered(fn, other)
        for first, second in ((fn, other), (other, fn)):
            if not (first.defined_on(x_max) and second.defined_on(x_max)):
                with pytest.raises(DomainTooShort):
                    first.dominates(second, x_max)
                continue
            xs = sorted({Fraction(0), x_max} | {x for f in (first, second) for x, _ in f.breakpoints if x <= x_max})
            # both sides are linear between merged points, so midpoints add nothing
            probes = xs + [(a + b) / 2 for a, b in zip(xs, xs[1:])]
            expected = all(value_at(first, x) >= value_at(second, x) for x in xs)
            assert expected == all(value_at(first, x) >= value_at(second, x) for x in probes)
            assert first.dominates(second, x_max) == expected

    def test_ray_and_fractional_breakpoints(self):
        fn = PiecewiseLinear(pts((0, 0), (Fraction(1, 2), 1)), final_slope=Fraction(1, 3))
        other = PiecewiseLinear(pts((0, 0), (Fraction(7, 3), Fraction(3, 2)), (4, 2)))
        # fn(7/3) = 1 + (11/6)/3 = 29/18 >= 3/2, fn(4) = 1 + (7/2)/3 = 13/6 >= 2
        assert fn.dominates(other, 4)
        assert fn.dominates(other, Fraction(13, 4))  # x_max between breakpoints
        assert not other.dominates(fn, Fraction(1, 3))
        with pytest.raises(DomainTooShort):
            fn.dominates(other, Fraction(17, 4))

    def test_domain_too_short(self):
        short = PiecewiseLinear(breakpoints=pts((0, 0), (1, 1)))
        with pytest.raises(DomainTooShort):
            short.dominates(short, 2)

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    @pytest.mark.parametrize("g", [1, 2, 3])
    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
    def test_ramp_equals_limit_on_window(self, s, g, r):
        window = g * faulhaber_sum(s, r + 1)
        ramp, limit = f_r(s, g, r), f_infinity(s, g, r + 1)
        assert ramp.agrees_with(limit, window)
        # beyond the window the limit profile pulls ahead
        past = window + 1
        assert value_at(limit, past) > value_at(ramp, past)

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    @pytest.mark.parametrize("g", [1, 2, 3])
    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
    def test_window_catches_a_wrong_closed_form(self, s, g, r, monkeypatch):
        """f_r sums its x-coordinates directly, so f_infinity's closed form is checked against that sum."""
        monkeypatch.setattr(plf, "faulhaber_sum", lambda s, j: faulhaber_sum(s, j) + (j >= 2))
        window = g * faulhaber_sum(s, r + 1)
        assert not f_r(s, g, r).agrees_with(f_infinity(s, g, r), window)


def test_counting_profile_matches_ramp_when_counts_saturate():
    # for a single height-1 root, N_h = (h+1)^(s-1) = 1 exactly
    system = build_root_system("A", 1)
    for g in (1, 2):
        for r in (1, 2, 3, 4):
            seq = truncation_divisors(system, g, r)
            for extra in (0, 2):
                t = len(seq) + extra
                profile = from_divisor_sequence(seq, r, t)
                assert profile.agrees_with(f_r(system.s, g, r), t)


def _all_fractions(fn):
    coordinates = [c for point in fn.breakpoints for c in point]
    return all(type(c) is Fraction for c in coordinates) and (
        fn.final_slope is None or type(fn.final_slope) is Fraction
    )


@pytest.mark.parametrize(
    "build",
    [
        lambda: from_divisor_sequence(ElemDivSeq((3, 2, 1)), 3, 5),
        lambda: f_r(3, 2, 4),
        lambda: f_infinity(3, 2, 4),
        lambda: f_infinity(1, 1, 3),
        lambda: f_infinity_star(3, 2, 4),
        lambda: f_infinity_star(1, 1, 3),
        lambda: newton_polygon([1, -24, 168, -320], 2).polygon,
        lambda: PiecewiseLinear.from_json_dict(
            {"breakpoints": [[0, 0], ["3/2", 1], [2, "5"]], "final_slope": 7}
        ),
        lambda: PiecewiseLinear.from_json_dict(f_r(2, 1, 3).to_json_dict()),
    ],
    ids=["f_b", "f_r", "f_infinity", "f_infinity_s1", "f_infinity_star", "f_infinity_star_s1",
         "newton", "json_mixed", "json_round_trip"],
)
def test_every_coordinate_and_slope_is_stored_as_a_fraction(build):
    # the constructor is the one conversion point; value equality, hashing and
    # repr of the profiles (and of everything that holds one) rely on it
    assert _all_fractions(build())
