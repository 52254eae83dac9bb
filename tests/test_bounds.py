import hashlib
from fractions import Fraction
from math import comb

import pytest

from slopebound.bernoulli import RationalPolynomial, bernoulli_poly
from slopebound.bounds import (
    build_params,
    compare_h,
    compute_M,
    dimension_bound,
    envelope_polynomials,
    infimum_dimension_bound,
    sharp_dimension_bound,
)
from slopebound.plf import OutOfDomain, f_infinity_star


def test_envelope_polynomials_expand_exactly():
    upper1, lower1 = envelope_polynomials(1)
    assert upper1.coefficients == (Fraction(2), Fraction(1))          # x + 2
    assert lower1.coefficients == (Fraction(0), Fraction(1), Fraction(1))  # x^2 + x
    upper2, lower2 = envelope_polynomials(2)
    assert upper2.coefficients == (Fraction(2), Fraction(3), Fraction(1))  # x^2 + 3x + 2
    assert lower2.coefficients == (Fraction(0), Fraction(1, 2), Fraction(3, 2), Fraction(1))


def taylor_shift_from_origin(poly, a):
    """x -> poly(x + a) - poly(0) by expanding every (x + a)^k binomially."""
    out = [Fraction(0)] * len(poly.coefficients)
    for k, c in enumerate(poly.coefficients):
        for i in range(k + 1):
            out[i] += c * comb(k, i) * a ** (k - i)
    out[0] -= poly(0)
    return RationalPolynomial(tuple(out))


@pytest.mark.parametrize("s", range(1, 61))
def test_envelopes_match_taylor_shift(s):
    bs, bs1 = bernoulli_poly(s), bernoulli_poly(s + 1)
    upper, lower = envelope_polynomials(s)
    assert upper == taylor_shift_from_origin(bs, 2)
    assert lower == taylor_shift_from_origin(bs1, 1)
    assert all(type(c) is Fraction for poly in (upper, lower) for c in poly.coefficients)


@pytest.mark.parametrize(
    "s, digest",
    [
        (36, "5398f919872e572ec1047dbddf36249a845efe17d13ecf741089c6d4df11fb5e"),  # E6
        (63, "3e0c73ba9c259e83965c2f3a8d91443fb174c2a86efaba5f8ee9b94f62a3bbcc"),  # E7
        (120, "98ae19eac0a8fffb4eb896f2b128623ad9550452c452c7e6b07c5fb78661cd07"),  # E8
    ],
)
def test_build_params_frozen_digest(s, digest):
    # hex keeps E8's 13k-digit n clear of CPython's int-to-str digit limit
    p = build_params(s, 1)
    fields = (p.M, p.c_pow_s.numerator, p.c_pow_s.denominator,
              p.m.numerator, p.m.denominator, p.n.numerator, p.n.denominator)
    assert hashlib.sha256(" ".join(format(v, "x") for v in fields).encode()).hexdigest() == digest


def test_threshold_frozen_values():
    assert compute_M(1) == 4
    assert compute_M(2) == 9
    assert all(compute_M(s) >= 1 for s in range(1, 9))


@pytest.mark.parametrize("s", range(1, 7))
def test_envelopes_hold_past_threshold(s):
    M = compute_M(s)
    upper, lower = envelope_polynomials(s)
    for k in range(0, 101):
        x = M + Fraction(k, 2)
        assert upper(x) <= 2 * x**s
        assert lower(x) >= Fraction(1, 2) * x ** (s + 1)


def test_build_params_frozen():
    params = build_params(1, 1)
    assert (params.M, params.m, params.c_pow_s, params.n) == (4, 16, Fraction(1, 16), 6)
    assert params.x_M == 6
    assert build_params(2, 3).m == 192


@pytest.mark.parametrize("s", range(1, 9))
@pytest.mark.parametrize("g", range(1, 6))
def test_m_is_inverse_of_c_power(s, g):
    params = build_params(s, g)
    assert params.m * params.c_pow_s == 1


class TestCompareH:
    def test_equality_point(self):
        params = build_params(1, 1)
        assert compare_h(params, 16, 16) == 0

    def test_above_zero(self):
        params = build_params(1, 1)
        assert compare_h(params, params.x_M, 0) == 1

    def test_out_of_domain(self):
        params = build_params(1, 1)
        with pytest.raises(OutOfDomain):
            compare_h(params, params.x_M - 1, 3)

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_curve_below_star_profile_breakpoints(self, s, g):
        # h stays below every profile point from the threshold onward; below
        # x_M the extended comparison function equals the profile itself.
        params = build_params(s, g)
        star = f_infinity_star(s, g, params.M + 31)
        for j in range(params.M, params.M + 31):
            x, y = star.breakpoints[j + 1]
            if x >= params.x_M:
                assert compare_h(params, x, y) <= 0


class TestDimensionBound:
    def test_alpha_zero(self):
        params = build_params(1, 1)
        assert dimension_bound(params, 0) == params.n == params.x_M

    def test_headline_value(self):
        params = build_params(1, 1)
        assert dimension_bound(params, 1) == 22
        assert infimum_dimension_bound(params, 1) == 16

    def test_sharp_value(self):
        params = build_params(1, 1)
        assert sharp_dimension_bound(params, 5) == 80
        with pytest.raises(ValueError):
            sharp_dimension_bound(params, 3)

    def test_infimum_case_split(self):
        params = build_params(1, 1)
        assert infimum_dimension_bound(params, 0) == params.n
        assert infimum_dimension_bound(params, 100) == params.m * 100

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_monotone_in_alpha_and_g(self, s):
        alphas = [Fraction(k, 3) for k in range(0, 12)]
        for g in (1, 2, 3):
            params = build_params(s, g)
            values = [dimension_bound(params, a) for a in alphas]
            assert values == sorted(values)
        for a in alphas:
            by_g = [dimension_bound(build_params(s, g), a) for g in (1, 2, 3)]
            assert by_g == sorted(by_g)
