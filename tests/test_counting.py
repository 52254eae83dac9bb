import hashlib
from itertools import accumulate, product
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slopebound.counting import (
    BRUTEFORCE_GUARD,
    ElemDivSeq,
    TooLarge,
    count_nh,
    count_nh_bruteforce,
    truncation_divisors,
)
from slopebound.rootsystems import RootSystem, build_root_system

A1 = build_root_system("A", 1)
A2 = build_root_system("A", 2)
B2 = build_root_system("B", 2)
G2 = build_root_system("G", 2)


def enumerate_tuples(heights, h):
    """Oracle used to freeze expected values: raw product over [0, h]^s."""
    return sum(
        1
        for tup in product(range(h + 1), repeat=len(heights))
        if sum(n * w for n, w in zip(tup, heights)) == h
    )


def test_a1_table_is_all_ones():
    assert count_nh(A1, 5) == (1, 1, 1, 1, 1, 1)


def test_a2_small_values():
    counts = count_nh(A2, 2)
    assert counts[1] == 2 == enumerate_tuples(A2.heights, 1)
    assert counts[2] == 4 == enumerate_tuples(A2.heights, 2)
    assert counts[2] <= (2 + 1) ** (A2.s - 1)


def test_b2_h3():
    assert count_nh(B2, 3)[3] == 7 == enumerate_tuples(B2.heights, 3)


@pytest.mark.parametrize("system", [A1, A2, B2, G2], ids=lambda rs: rs.label)
def test_dp_matches_bruteforce(system):
    H = 12
    assert count_nh(system, H) == count_nh_bruteforce(system, H)


def _oracle_horizon(system, budget=20_000):
    """Largest H within the brute-force guard whose enumeration visits at most `budget` tuples."""
    H = 0
    while (H + 2) ** system.s <= BRUTEFORCE_GUARD and prod((H + 1) // ht + 1 for ht in system.heights) <= budget:
        H += 1
    return H


ORACLE_SYSTEMS = [
    build_root_system(letter, rank)
    for letter, rank in (("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("C", 3), ("D", 4), ("G", 2))
]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_dp_matches_bruteforce_property(data):
    system = data.draw(st.sampled_from(ORACLE_SYSTEMS), label="system")
    H = data.draw(st.integers(min_value=0, max_value=_oracle_horizon(system)), label="H")
    assert count_nh(system, H) == count_nh_bruteforce(system, H)


def test_e8_table_frozen_digest():
    # sha256 of the hex values of count_nh(E8, 2000), recorded with the per-h DP loop
    values = count_nh(build_root_system("E", 8), 2000)
    assert len(values) == 2001
    digest = hashlib.sha256(" ".join(format(v, "x") for v in values).encode()).hexdigest()
    assert digest == "e79d472eef535d09bd291c40efe84326a141e2c4e7ed24b9610ac3932345b2d5"


# every type of rank <= 8: A1-A8, B2-B8, C3-C8, D4-D8, E6-E8, F4 and G2, 31 in all
RANK_8_TYPES = ([f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)] + [f"C{n}" for n in range(3, 9)]
                + [f"D{n}" for n in range(4, 9)] + ["E6", "E7", "E8", "F4", "G2"])


@pytest.mark.parametrize("label", RANK_8_TYPES)
def test_counts_below_the_paper_bound_for_every_type_of_rank_8_or_less(label):
    # the paper's counting bound N_h <= (h+1)^(s-1), s the number of positive roots, on which f_a >= f_r rests
    system = build_root_system(label[0], int(label[1:]))
    assert [h for h, count in enumerate(count_nh(system, 30)) if count > (h + 1) ** (system.s - 1)] == []


def test_bruteforce_h0():
    assert count_nh_bruteforce(A1, 0) == (1,)


@pytest.mark.parametrize("system", [A1, A2, B2, G2], ids=lambda rs: rs.label)
def test_counts_always_positive(system):
    # simple roots have height 1, so every h is reachable
    assert all(v > 0 for v in count_nh(system, 50))


def test_bruteforce_guard():
    with pytest.raises(TooLarge):
        count_nh_bruteforce(build_root_system("E", 6), 10)


def test_generating_function_identity():
    # product of 1/(1 - x^ht) over the height multiset, as truncated series
    H = 40
    for system in (A2, B2, G2):
        series = [1] + [0] * H
        for ht in system.heights:
            # multiply by 1/(1 - x^ht): prefix-sum with stride ht
            for i in range(ht, H + 1):
                series[i] += series[i - ht]
        assert tuple(series) == count_nh(system, H)


def prefix_sum_series(heights, H):
    """prod of 1/(1 - x^ht) over the heights up to H, one prefix sum per height (the parent's DP)."""
    series = [1] + [0] * H
    for ht in heights:
        if ht <= H:
            for c in range(ht):
                series[c::ht] = accumulate(series[c::ht])
    return tuple(series)


@pytest.mark.parametrize("label", [f"A{n}" for n in range(1, 31)] + ["B7", "C4", "D6", "E6", "E7", "E8", "F4", "G2"])
def test_height_counts_give_the_per_height_series(label):
    # H = 10 takes the binomial convolution at every h <= 10 for A11 and up, H = 200 takes the
    # prefix sums at small h and the convolution at large h
    system = build_root_system(label[0], int(label[1:]))
    for H in (0, 1, 2, 5, 10, 37, 200):
        assert count_nh(system, H) == prefix_sum_series(system.heights, H)


def test_rank_100000_reads_only_the_height_counts(monkeypatch):
    # 5 * 10^9 positive roots; N_1 counts the n roots of height 1, N_2 the multisets of two of
    # them and the n - 1 roots of height 2
    monkeypatch.setattr(RootSystem, "heights", property(lambda self: pytest.fail("heights were built")))
    n = 100000
    counts = count_nh(build_root_system("A", n), 10)
    assert counts[:3] == (1, n, n * (n + 1) // 2 + n - 1)
    assert all(x < y for x, y in zip(counts, counts[1:]))


@given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=4))
@settings(max_examples=30, deadline=None)
def test_divisor_sequence_shape(g, r):
    for system in (A1, A2, B2):
        seq = truncation_divisors(system, g, r)
        expected_len = g * sum(count_nh(system, r - 1))
        assert len(seq) == expected_len
        assert all(a >= b for a, b in zip(seq.exponents, seq.exponents[1:]))
        assert all(1 <= e <= r for e in seq.exponents)


def test_divisor_sequence_values():
    assert truncation_divisors(A1, 1, 3).exponents == (3, 2, 1)
    assert truncation_divisors(A2, 1, 2).exponents == (2, 1, 1)
    assert truncation_divisors(G2, 2, 1).exponents == (1, 1)


def test_elem_div_seq_validation():
    with pytest.raises(ValueError):
        ElemDivSeq((1, 2))
    with pytest.raises(ValueError):
        ElemDivSeq((2, 0))
    assert ElemDivSeq(()).padded(3) == (0, 0, 0)
    assert ElemDivSeq((3, 1)).padded(4) == (3, 1, 0, 0)
    with pytest.raises(ValueError):
        ElemDivSeq((3, 1)).padded(1)
