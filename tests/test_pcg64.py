"""The pure-Python PCG64 port against numpy's generator, which it must match bit for bit."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slopebound._pcg64 import PCG64
from slopebound.counting import ElemDivSeq, truncation_divisors
from slopebound.harness import draw_b_seq, gen_instance
from slopebound.rootsystems import build_root_system

np = pytest.importorskip("numpy")

INT64_MAX = 2**63 - 1

entropies = st.one_of(
    st.integers(min_value=0, max_value=2**90),
    st.integers(min_value=0, max_value=2**90).map(lambda seed: [seed, 0xB]),
    # more than the four pool words, which SeedSequence mixes in after the pool
    st.lists(st.integers(min_value=0, max_value=2**100), min_size=1, max_size=4),
)
ranges = st.one_of(
    # draw_b_seq: [0, min(r, a_l)], including the one-value range that draws nothing
    st.integers(min_value=1, max_value=6).map(lambda n: (0, n)),
    # gen_instance's [-entry_bound, entry_bound], 32-bit Lemire
    st.integers(min_value=1, max_value=2**31 - 1).map(lambda eb: (-eb, eb + 1)),
    # 64-bit Lemire, up to the largest entry bound int64 allows
    st.integers(min_value=2**31, max_value=INT64_MAX - 1).map(lambda eb: (-eb, eb + 1)),
    # around the 32-bit boundary: rng = 2^32 - 2, 2^32 - 1, 2^32
    st.sampled_from([(0, 2**32 - 1), (0, 2**32), (-1, 2**32), (7, 8)]),
)
# inclusive upper bounds of PCG64.bounded: no draw, one bit, a whole 32-bit word, small, 32-bit, 64-bit
bounds = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1]),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=2**32, max_value=2**64 - 1),
)
# (range, None) is one scalar draw, (range, n) a fill of n values, a list one batch draw per bound
draws = st.lists(
    st.one_of(
        st.tuples(ranges, st.one_of(st.none(), st.integers(min_value=0, max_value=12))),
        st.lists(bounds, max_size=10),
    ),
    min_size=1,
    max_size=6,
)


@given(entropies, draws)
@example(12345, [((-50, 51), 9), ((0, 4), None), ((0, 4), None)])  # scalar draws after an odd fill
@example(12345, [((-50, 51), 9), [3, 0, 1], ((0, 4), None), [2**32 - 1, 5]])  # batches after an odd fill
@example([0, 0xB], [((0, 1), None), ((0, 3), 3)])
@example([0, 0xB], [[0, 1, 2**32 - 1, 0, 2**64 - 1, 1], ((0, 2), 1)])  # a 64-bit draw keeps the buffered half
@example(2**64 + 5, [((-5 * 10**9, 5 * 10**9 + 1), 4), ((-(INT64_MAX - 1), INT64_MAX), 3)])
@example(2**200 + 1, [((0, 7), 2)])  # seven entropy words
@settings(max_examples=300, deadline=None)
def test_matches_numpy(entropy, calls):
    ours = PCG64(entropy)
    theirs = np.random.Generator(np.random.PCG64(entropy))
    for call in calls:
        if isinstance(call, list):
            # numpy broadcasts one closed upper bound per draw, drawing in order as for scalar calls
            expected = theirs.integers(0, np.array(call, dtype=np.uint64), endpoint=True, dtype=np.uint64)
            assert ours.bounded(call) == [int(v) for v in expected]
            continue
        (low, high), size = call
        if size is None:
            assert ours.integers(low, high) == int(theirs.integers(low, high))
        else:
            assert ours.integers(low, high, size) == [int(v) for v in theirs.integers(low, high, size=size)]


def test_bounded_is_one_scalar_draw_per_bound():
    bounds = [0, 1, 2**32 - 1, 100, 0, 2**40, 3, 3, 2**64 - 1, 1]
    batch, scalar = PCG64([9, 0xB]), PCG64([9, 0xB])
    batch.integers(-50, 51, 3)
    scalar.integers(-50, 51, 3)
    assert batch.bounded(bounds, offset=-7) == [-7 + scalar.bounded((b,))[0] for b in bounds]
    assert batch.integers(0, 10, 5) == scalar.integers(0, 10, 5)


@pytest.mark.parametrize("bounds", [[-1], [3, -2], [2**64], [0, 2**64 + 5]])
def test_bounded_rejects_out_of_range_bounds(bounds):
    with pytest.raises(ValueError):
        PCG64(1).bounded(bounds)


@given(st.integers(min_value=0, max_value=2**70))
@settings(max_examples=40, deadline=None)
def test_instances_match_numpy(seed):
    """gen_instance and draw_b_seq give what the numpy-based versions gave."""
    a2 = build_root_system("A", 2)
    b_seq = draw_b_seq(seed, a2, 2, 3, 6)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0xB])))
    a = truncation_divisors(a2, 2, 3).exponents[:6]
    expected = sorted((int(rng.integers(0, min(3, al) + 1)) for al in a), reverse=True)
    assert b_seq == ElemDivSeq(tuple(b for b in expected if b > 0))
    inst = gen_instance(seed, 2, 6, 3, b_seq, 50)
    raw = np.random.Generator(np.random.PCG64(seed)).integers(-50, 51, size=(6, 6))
    scales = [2 ** (3 - b) for b in b_seq.padded(6)]
    assert inst.matrix.entries == tuple(tuple(int(raw[i][l]) * scales[l] for l in range(6)) for i in range(6))

