"""Pure-Python port of numpy's PCG64 bit generator, for the draws slopebound makes.

``PCG64(entropy).integers(low, high, size)`` returns exactly what
``numpy.random.Generator(numpy.random.PCG64(entropy)).integers(low, high, size)``
returns for int64 output, for int or list-of-int entropy: numpy's
SeedSequence mixing, the 128-bit LCG with the XSL-RR output function
(O'Neill 2014), the buffered upper half for 32-bit draws, and Lemire's
bounded rejection (Lemire 2019) with 32-bit draws for ranges below 2^32 and
64-bit draws above.

``PCG64(entropy).bounded(bounds)`` is the batch form: one value in
[0, bound] per bound, in order, exactly what one ``integers(0, bound + 1)``
call per bound returns, and what numpy's broadcast
``integers(0, bounds, endpoint=True)`` returns. ``integers`` is that batch
with one bound repeated, so every draw runs in the same local loop, with the
generator state and the buffered half in local variables. SeedSequence runs
from a precomputed schedule of its hash constants, which do not depend on the
entropy. No stream changed with the batching: each is numpy's, value for
value.
"""

from __future__ import annotations

from itertools import permutations

__all__ = ["PCG64"]

MASK32 = (1 << 32) - 1
MASK64 = (1 << 64) - 1
MASK128 = (1 << 128) - 1
INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1

# numpy's SeedSequence constants (pool of four 32-bit words)
POOL_SIZE = 4
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715

# PCG's default 128-bit LCG multiplier
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# SeedSequence's k-th hash of a word xors it with INIT_A * MULT_A^k and then
# multiplies by INIT_A * MULT_A^(k+1), mod 2^32, whatever the entropy; the
# output words hash with INIT_B * MULT_B^k alike. The pool takes hashes 0..15;
# entropy words past the fourth, which are rare, continue the schedule inline.
_HASH_A = [INIT_A * MULT_A**k & MASK32 for k in range(POOL_SIZE * POOL_SIZE + 1)]
_HASH_B = [INIT_B * MULT_B**k & MASK32 for k in range(2 * POOL_SIZE + 1)]
# hashes 4..15 mix every pool word into every other one: (source, target, xor, multiplier)
_CROSS_MIX = [
    (src, dst, _HASH_A[k], _HASH_A[k + 1])
    for k, (src, dst) in enumerate(permutations(range(POOL_SIZE), 2), start=POOL_SIZE)
]


def _words32(entropy: int | list[int] | tuple[int, ...]) -> list[int]:
    """Entropy as little-endian 32-bit words, each list entry contributing its own words."""
    words = []
    for part in (entropy,) if isinstance(entropy, int) else entropy:
        if part < 0:
            raise ValueError("expected non-negative integer")
        words.append(part & MASK32)
        part >>= 32
        while part:
            words.append(part & MASK32)
            part >>= 32
    return words


def _seed_words(entropy: int | list[int] | tuple[int, ...]) -> list[int]:
    """SeedSequence(entropy).generate_state(4, uint64), as Python ints."""
    words = _words32(entropy)
    words += [0] * (POOL_SIZE - len(words))
    pool = []
    for k in range(POOL_SIZE):
        value = (words[k] ^ _HASH_A[k]) * _HASH_A[k + 1] & MASK32
        pool.append(value ^ value >> 16)
    for src, dst, xor, mult in _CROSS_MIX:
        value = (pool[src] ^ xor) * mult & MASK32
        mixed = (MIX_MULT_L * pool[dst] - MIX_MULT_R * (value ^ value >> 16)) & MASK32
        pool[dst] = mixed ^ mixed >> 16
    xor = _HASH_A[-1]
    for word in words[POOL_SIZE:]:
        for dst in range(POOL_SIZE):
            mult = xor * MULT_A & MASK32
            value = (word ^ xor) * mult & MASK32
            mixed = (MIX_MULT_L * pool[dst] - MIX_MULT_R * (value ^ value >> 16)) & MASK32
            pool[dst] = mixed ^ mixed >> 16
            xor = mult
    state = []
    for i in range(2 * POOL_SIZE):
        value = (pool[i % POOL_SIZE] ^ _HASH_B[i]) * _HASH_B[i + 1] & MASK32
        state.append(value ^ value >> 16)
    return [state[k] | state[k + 1] << 32 for k in range(0, len(state), 2)]


class PCG64:
    """PCG64 stream seeded like numpy's ``PCG64(entropy)``; entropy is a non-negative int or a list of them."""

    def __init__(self, entropy: int | list[int] | tuple[int, ...]) -> None:
        s_hi, s_lo, i_hi, i_lo = _seed_words(entropy)
        self._inc = ((i_hi << 64 | i_lo) << 1 | 1) & MASK128
        # srandom: state = 0, step, add the seed, step
        self._state = ((self._inc + (s_hi << 64 | s_lo)) * PCG_MULT + self._inc) & MASK128
        # the unused upper half of the last 64-bit output drawn for a 32-bit draw, or -1
        self._half = -1

    def bounded(self, bounds: list[int] | tuple[int, ...], offset: int = 0) -> list[int]:
        """offset plus a uniform value in [0, bound] for each bound in order, by Lemire's multiply-and-reject.

        A bound of 0 draws nothing; one below 2^32 takes 32-bit draws, the
        low half of a 64-bit output and then its high half; a larger one takes
        64-bit draws and leaves a buffered half in place.
        """
        state, inc, half = self._state, self._inc, self._half
        out = []
        last = None
        for bound in bounds:
            if bound != last:
                if not 0 <= bound <= MASK64:
                    raise ValueError(f"bound {bound} is outside [0, 2^64 - 1]")
                last, excl = bound, bound + 1
                bits = 32 if bound <= MASK32 else 64
                mask = (1 << bits) - 1
                threshold = (1 << bits) % excl
            if not bound:
                out.append(offset)
                continue
            while True:
                if half < 0 or bits == 64:
                    state = (state * PCG_MULT + inc) & MASK128
                    xored = (state >> 64 ^ state) & MASK64
                    rot = state >> 122
                    value = (xored >> rot | xored << (64 - rot)) & MASK64
                    if bits == 32:
                        half = value >> 32
                        value &= MASK32
                else:
                    value, half = half, -1
                m = value * excl
                if m & mask >= threshold:
                    break
            out.append(offset + (m >> bits))
        self._state, self._half = state, half
        return out

    def integers(self, low: int, high: int, size: int | None = None) -> int | list[int]:
        """Uniform int64 values in [low, high): one, or a list of `size` in draw order."""
        top = high - 1
        if low < INT64_MIN:
            raise ValueError("low is out of bounds for int64")
        if top > INT64_MAX:
            raise ValueError("high is out of bounds for int64")
        if low > top:
            raise ValueError("low >= high")
        if size is None:
            return self.bounded((top - low,), low)[0]
        return self.bounded((top - low,) * size, low)
