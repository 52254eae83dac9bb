"""Pure-Python port of numpy's PCG64 bit generator, for the draws slopebound makes.

``PCG64(entropy).integers(low, high, size)`` returns exactly what
``numpy.random.Generator(numpy.random.PCG64(entropy)).integers(low, high, size)``
returns for int64 output, for int or list-of-int entropy: numpy's
SeedSequence mixing, the 128-bit LCG with the XSL-RR output function
(O'Neill 2014), the buffered upper half for 32-bit draws, and Lemire's
bounded rejection (Lemire 2019) with 32-bit draws for ranges below 2^32 and
64-bit draws above.
"""

from __future__ import annotations

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


def _words32(entropy: int | list[int] | tuple[int, ...]) -> list[int]:
    """Entropy as little-endian 32-bit words, each list entry contributing its own words."""
    if not isinstance(entropy, int):
        return [w for part in entropy for w in _words32(part)]
    if entropy < 0:
        raise ValueError("expected non-negative integer")
    words = [entropy & MASK32]
    entropy >>= 32
    while entropy:
        words.append(entropy & MASK32)
        entropy >>= 32
    return words


def _seed_words(entropy: int | list[int] | tuple[int, ...]) -> list[int]:
    """SeedSequence(entropy).generate_state(4, uint64), as Python ints."""
    words = _words32(entropy)
    hash_const = INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * MULT_A & MASK32
        value = value * hash_const & MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (MIX_MULT_L * x - MIX_MULT_R * y) & MASK32
        return result ^ result >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(POOL_SIZE)]
    for i_src in range(POOL_SIZE):
        for i_dst in range(POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in words[POOL_SIZE:]:
        for i_dst in range(POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    hash_const = INIT_B
    state = []
    for i in range(2 * POOL_SIZE):
        value = pool[i % POOL_SIZE] ^ hash_const
        hash_const = hash_const * MULT_B & MASK32
        value = value * hash_const & MASK32
        state.append(value ^ value >> 16)
    return [state[k] | state[k + 1] << 32 for k in range(0, len(state), 2)]


class PCG64:
    """PCG64 stream seeded like numpy's ``PCG64(entropy)``; entropy is a non-negative int or a list of them."""

    def __init__(self, entropy: int | list[int] | tuple[int, ...]) -> None:
        s_hi, s_lo, i_hi, i_lo = _seed_words(entropy)
        self._inc = ((i_hi << 64 | i_lo) << 1 | 1) & MASK128
        # srandom: state = 0, step, add the seed, step
        self._state = ((self._inc + (s_hi << 64 | s_lo)) * PCG_MULT + self._inc) & MASK128
        self._half: int | None = None

    def next64(self) -> int:
        state = self._state = (self._state * PCG_MULT + self._inc) & MASK128
        xored = (state >> 64 ^ state) & MASK64
        rot = state >> 122
        return (xored >> rot | xored << (64 - rot)) & MASK64

    def next32(self) -> int:
        """The low half of a fresh 64-bit output, then its high half on the next call."""
        half = self._half
        if half is not None:
            self._half = None
            return half
        value = self.next64()
        self._half = value >> 32
        return value & MASK32

    def _bounded(self, rng: int) -> int:
        """Uniform in [0, rng] by Lemire's multiply-and-reject."""
        if rng == 0:
            return 0
        bits, draw = (32, self.next32) if rng <= MASK32 else (64, self.next64)
        excl = rng + 1
        mask = (1 << bits) - 1
        m = draw() * excl
        if m & mask < excl:
            threshold = (1 << bits) % excl
            while m & mask < threshold:
                m = draw() * excl
        return m >> bits

    def integers(self, low: int, high: int, size: int | None = None) -> int | list[int]:
        """Uniform int64 values in [low, high): one, or a list of `size` in draw order."""
        top = high - 1
        if low < INT64_MIN:
            raise ValueError("low is out of bounds for int64")
        if top > INT64_MAX:
            raise ValueError("high is out of bounds for int64")
        if low > top:
            raise ValueError("low >= high")
        rng = top - low
        if size is None:
            return low + self._bounded(rng)
        return [low + self._bounded(rng) for _ in range(size)]
