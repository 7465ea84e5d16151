"""Deterministic derivation of per-replicate random streams.

Replicate ``r`` of a run with master seed ``s`` is seeded with the
``(r+1)``-th output of the splitmix64 sequence started at ``s``; that
64-bit value seeds an independent PCG64 generator.  The derivation
depends only on ``(s, r)``, never on scheduling, so results are
bit-identical for any worker count and replicates can be recomputed in
isolation.

Replicate ``r`` draws exactly what
``np.random.Generator(np.random.PCG64(replicate_seed(s, r)))`` draws,
but its generator is not built that way.  numpy hashes an integer seed
through ``SeedSequence``, which costs several times more than the
``PCG64`` it seeds.  ``replicate_rngs`` builds the generators of many
replicates at once instead: splitmix64 of every id, then numpy's
documented ``SeedSequence`` algorithm (pool mixing, then
``generate_state(4, uint64)``), both vectorised in wrapping ``uint64``
arithmetic, and each ``PCG64`` is seeded from its four precomputed
state words.  ``replicate_rng`` is the one-replicate case, on Python
integers.  ``numpy.random`` is imported on first use, not with this
module.
"""

from __future__ import annotations

from functools import cache

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(state):
    """Output of one splitmix64 step for the given 64-bit state: a Python
    integer, or elementwise for a ``uint64`` array."""
    z = state & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def replicate_seed(master_seed: int, index: int) -> int:
    if index < 0:
        raise ValueError("replicate index must be nonnegative")
    return splitmix64((master_seed + (index + 1) * _GOLDEN) & _MASK)


# numpy's SeedSequence, for one 64-bit entropy value and no spawn key:
# a pool of four 32-bit words, hashed with the constants INIT_A * MULT_A^k
# while mixing (4 + 12 hashes) and INIT_B * MULT_B^k while generating state
_M32 = 0xFFFFFFFF


def _hash_constants(init: int, mult: int, count: int) -> list[int]:
    out = [init]
    for _ in range(count):
        out.append((out[-1] * mult) & _M32)
    return out


_MIX_HASH = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_STATE_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)


def _hashmix(value, constants: list[int], k: int):
    value = ((value ^ constants[k]) * constants[k + 1]) & _M32
    return value ^ (value >> 16)


def _mix(x, y):
    out = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
    return out ^ (out >> 16)


def _pcg64_words(seed):
    """``SeedSequence(seed).generate_state(4, np.uint64)`` as four words,
    for a 64-bit ``seed``: a Python integer, or elementwise for a
    ``uint64`` array.  Products of two 32-bit words fit in 64 bits, so
    ``uint64`` arithmetic masked to 32 bits is exact.

    A seed below ``2^32`` has one entropy word where a larger one has
    two; with four pool slots the missing high word hashes exactly like
    a zero one, so every seed is taken as ``(low, high)``."""
    pool = [_hashmix(seed & _M32, _MIX_HASH, 0), _hashmix(seed >> 32, _MIX_HASH, 1),
            _hashmix(0, _MIX_HASH, 2), _hashmix(0, _MIX_HASH, 3)]
    k = 4
    for src in range(4):
        for dst in range(4):
            if dst != src:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], _MIX_HASH, k))
                k += 1
    state = [_hashmix(pool[i % 4], _STATE_HASH, i) for i in range(8)]
    return [state[i] | (state[i + 1] << 32) for i in range(0, 8, 2)]


@cache
def _seeded_pcg64():
    """``words -> Generator``: a PCG64 generator seeded from its four
    precomputed state words."""
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class StateWords(ISeedSequence):
        """Hands PCG64 the state words that its own seed sequence would
        generate."""

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or dtype is not np.uint64:
                raise ValueError("precomputed state words seed a PCG64 only")
            return self.words

    return lambda words: Generator(PCG64(StateWords(words)))


def replicate_rngs(master_seed: int, ids) -> list[np.random.Generator]:
    """Independent generators for replicates ``ids`` of a seeded run, in
    order; each equals ``replicate_rng(master_seed, r)``."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and ids.min() < 0:
        raise ValueError("replicate index must be nonnegative")
    seeds = splitmix64((master_seed & _MASK) + (ids.astype(np.uint64) + 1) * _GOLDEN)
    words = np.stack(_pcg64_words(seeds), axis=-1)
    seeded = _seeded_pcg64()
    return [seeded(w) for w in words]


def replicate_rng(master_seed: int, index: int) -> np.random.Generator:
    """Independent generator for one replicate of a seeded run."""
    words = np.array(_pcg64_words(replicate_seed(master_seed, index)), dtype=np.uint64)
    return _seeded_pcg64()(words)
