"""numpy's ``default_rng(seed).random(n)`` in plain Python ints.

The lattice shift needs a handful of floats, but importing ``numpy.random``
loads nine extension modules plus ``hashlib``, ``hmac`` and ``secrets``
(about 6 MiB of resident memory and 16 ms of start-up).  The same numbers
follow from three short steps:

* ``SeedSequence(seed)`` hash-mixes the seed's little-endian 32-bit words
  into a pool of four words; ``generate_state(4, uint64)`` hashes the pool
  into four 64-bit words;
* ``PCG64`` takes the first two words as its 128-bit state, the last two
  as its increment, and takes two LCG steps;
* each float is the XSL-RR output of one more step, its top 53 bits
  times 2^-53.

Only a non-negative integer seed is taken, with no spawn key.
"""

from __future__ import annotations

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _pool(seed: int) -> list[int]:
    """The 32-bit entropy pool of ``SeedSequence(seed)``."""
    words = [seed & _MASK32]
    while seed := seed >> 32:
        words.append(seed & _MASK32)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (_MIX_L * x - _MIX_R * y) & _MASK32
        return r ^ r >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _state_words(pool: list[int]) -> list[int]:
    """``generate_state(4, uint64)``: eight hashed 32-bit words, paired low first."""
    hash_const = _INIT_B
    out = []
    for i in range(8):
        value = pool[i % _POOL] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        out.append(value ^ value >> 16)
    return [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]


def uniform_floats(seed: int, n: int) -> tuple[float, ...]:
    """The n floats in [0, 1) of ``numpy.random.default_rng(seed).random(n)``."""
    w = _state_words(_pool(seed))
    inc = ((w[2] << 64 | w[3]) << 1 | 1) & _MASK128
    # state 0 stepped once is inc; add the seed's state, then step again
    state = ((inc + (w[0] << 64 | w[1])) * _PCG_MULT + inc) & _MASK128
    floats = []
    for _ in range(n):
        state = (state * _PCG_MULT + inc) & _MASK128
        x = (state >> 64 ^ state) & _MASK64
        rot = state >> 122
        x = (x >> rot | x << (64 - rot)) & _MASK64
        floats.append((x >> 11) * 2.0**-53)
    return tuple(floats)
