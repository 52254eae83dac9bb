import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slopebound import bernoulli
from slopebound.bernoulli import RationalPolynomial, bernoulli_poly, faulhaber_sum, power_sum

fractions_st = st.fractions(min_value=-10, max_value=10, max_denominator=12)


def integrated_bernoulli(s_max):
    """Reference B_0..B_s_max, each degree integrated from the one below.

    B_s = integral of s*B_{s-1}, plus the constant that makes the [0, 1]
    integral vanish; shares nothing with the tangent-number code.
    """
    polys = [RationalPolynomial((Fraction(1),))]
    for s in range(1, s_max + 1):
        prev = polys[-1].coefficients
        body = [Fraction(0)] + [Fraction(s) * c / (k + 1) for k, c in enumerate(prev)]
        c0 = -sum(c / (k + 1) for k, c in enumerate(body))
        polys.append(RationalPolynomial(tuple([body[0] + c0] + body[1:])))
    return polys


def taylor_shift(poly, a):
    """The composed polynomial x -> poly(x + a), by Horner's rule on x + a."""
    a = Fraction(a)
    acc = []
    for c in reversed(poly.coefficients):
        # acc <- acc * (x + a) + c
        nxt = [Fraction(0)] * (len(acc) + 1)
        for i, t in enumerate(acc):
            nxt[i + 1] += t
            nxt[i] += t * a
        nxt[0] += c
        acc = nxt
    return RationalPolynomial(tuple(acc))


def test_first_polynomials():
    assert bernoulli_poly(0).coefficients == (Fraction(1),)
    assert bernoulli_poly(1).coefficients == (Fraction(-1, 2), Fraction(1))
    assert bernoulli_poly(2).coefficients == (Fraction(1, 6), Fraction(-1), Fraction(1))


@pytest.mark.parametrize("s", range(11))
def test_monic(s):
    poly = bernoulli_poly(s)
    assert poly.degree == s
    assert poly.coefficients[-1] == 1


@pytest.mark.parametrize("n", range(2, 12))
def test_endpoint_symmetry(n):
    poly = bernoulli_poly(n)
    assert poly(1) == poly(0)


def test_evaluate():
    assert bernoulli_poly(2).evaluate(0) == Fraction(1, 6)
    assert RationalPolynomial(()).evaluate(Fraction(7, 3)) == 0
    assert bernoulli_poly(1).evaluate(Fraction(1, 2)) == 0


def horner(poly, x):
    """Evaluation oracle: Fraction Horner, reducing by a gcd at every step."""
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(poly.coefficients):
        acc = acc * x + c
    return acc


@given(
    st.lists(st.one_of(st.integers(), st.fractions(max_denominator=10**12)), max_size=40),
    st.one_of(st.integers(), st.fractions(max_denominator=10**6)),
)
@example([], Fraction(7, 3))  # the zero polynomial
@example([0, 0, 0], 5)  # normalizes to the zero polynomial
@example([Fraction(1, 3)], Fraction(-2, 9))  # a constant
@example([1, Fraction(-1, 2), 0, 0, Fraction(5, 6)], 0)
@example([Fraction(k, k + 1) for k in range(33)], Fraction(-3, 2))  # 33 terms: odd counts at several levels
@settings(max_examples=300, deadline=None)
def test_evaluate_matches_horner(coefficients, x):
    poly = RationalPolynomial(tuple(coefficients))
    value = poly.evaluate(x)
    assert type(value) is Fraction
    assert value == horner(poly, x)


def test_high_degree_needs_no_deep_recursion():
    bernoulli_poly.cache_clear()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        poly = bernoulli_poly(300)
    finally:
        sys.setrecursionlimit(limit)
    assert poly.degree == 300
    assert poly(1) == poly(0)
    # the next degree is one step from the cached one, not a rebuild
    misses = bernoulli_poly.cache_info().misses
    assert bernoulli_poly(301).degree == 301
    assert bernoulli_poly.cache_info().misses == misses + 1


@pytest.mark.parametrize("order", ["ascending", "descending"])
def test_matches_integration_reference(order, monkeypatch):
    # ascending rebuilds the number table at every even degree; descending
    # builds it once and serves every lower degree from a prefix
    reference = integrated_bernoulli(200)
    monkeypatch.setattr(bernoulli, "_numbers", [Fraction(1), Fraction(-1, 2)])
    bernoulli_poly.cache_clear()
    degrees = range(201) if order == "ascending" else range(200, -1, -1)
    try:
        for s in degrees:
            assert bernoulli_poly(s).coefficients == reference[s].coefficients, s
    finally:
        bernoulli_poly.cache_clear()


def test_frozen_bernoulli_numbers():
    assert bernoulli_poly(1)(0) == Fraction(-1, 2)
    assert bernoulli_poly(12)(0) == Fraction(-691, 2730)
    assert bernoulli_poly(20)(0) == Fraction(-174611, 330)
    assert all(bernoulli_poly(k)(0) == 0 for k in range(3, 120, 2))


def test_faulhaber_frozen_values():
    assert faulhaber_sum(2, 3) == 6  # 1 + 2 + 3
    assert faulhaber_sum(1, 5) == 5  # five ones
    assert all(faulhaber_sum(s, 0) == 0 for s in range(1, 8))


@pytest.mark.parametrize("s", range(1, 11))
def test_faulhaber_matches_brute_force(s):
    for j in range(0, 30):
        assert faulhaber_sum(s, j) == sum((h + 1) ** (s - 1) for h in range(j))


@pytest.mark.parametrize("s", range(1, 8))
def test_power_sum_matches_brute_force(s):
    for j in range(0, 30):
        assert power_sum(s, j) == sum(h**s for h in range(j + 1))


def test_translation_identity():
    # B_n(x+1) - B_n(x) = n * x^(n-1)
    for n in range(1, 9):
        poly = bernoulli_poly(n)
        for x in (0, 1, Fraction(3, 2), Fraction(-5, 7)):
            assert poly(x + 1) - poly(x) == n * Fraction(x) ** (n - 1)


@given(fractions_st, fractions_st)
@settings(max_examples=50, deadline=None)
def test_shift_agrees_with_eval(a, x):
    poly = bernoulli_poly(4)
    assert taylor_shift(poly, a)(x) == poly(x + a)


def test_zero_polynomial_normalization():
    zero = RationalPolynomial((0, 0))
    assert zero.coefficients == ()
    assert zero.degree == -1
