"""Deterministic derivation of per-replicate random streams.

Replicate ``r`` of a run with master seed ``s`` has the key
``replicate_seed(s, r)``, the ``(r+1)``-th output of the splitmix64
sequence started at ``s``.  Everything a replicate draws depends only on
``(s, r)``, never on scheduling, so results are bit-identical for any
worker count and replicates can be recomputed in isolation.

The batched engines draw from a counter stream, split into one block per
generation.  Uniform ``k`` of block ``g`` of replicate ``r`` is

    block_key = splitmix64(key_r ^ ((g + 1) * 0xD1B54A32D192ED03 mod 2^64))
    u = (splitmix64(block_key + (k + 1) * 0x9E3779B97F4A7C15) >> 11) * 2^-53,

a pure function of ``(s, r, g, k)`` in the style of Random123 (Salmon et
al. 2011) and SplitMix (Steele, Lea and Flood 2014): the uniforms of a
block are the splitmix64 sequence started at its key.
``replicate_keys`` gives the keys of many replicates, ``block_keys`` the
keys of their block ``g``, and ``counter_uniforms`` concatenated blocks
of given lengths, all in one numpy pass in wrapping ``uint64``
arithmetic, so a whole batch draws a generation without a Python call
per replicate.  A block that
needs a ``multinomial`` draws it from a PCG64 seeded with its block key
instead (``pcg64_generators``).

The tree API takes generators: ``replicate_rng(s, r)`` is numpy's
``default_rng(replicate_seed(s, r))``.  numpy hashes an integer seed
through ``SeedSequence``, which costs several times more than the
``PCG64`` it seeds, so ``pcg64_generators`` builds the generators of many
seeds at once instead: numpy's documented ``SeedSequence`` algorithm
(pool mixing, then ``generate_state(4, uint64)``), vectorised in wrapping
``uint64`` arithmetic, and each ``PCG64`` is seeded from its four
precomputed state words.  ``numpy.random`` is imported on first use, not
with this module, so a run that draws only counter uniforms never loads
it.
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


# the counter stream, in uint64 arrays: numpy wraps uint64 products
_U_GOLDEN = np.uint64(_GOLDEN)
_BLOCK_MULT = 0xD1B54A32D192ED03  # odd multiplier of the generation hash
_U_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_U_MIX2 = np.uint64(0x94D049BB133111EB)


def _splitmix64_inplace(z: np.ndarray) -> np.ndarray:
    """``splitmix64`` of a ``uint64`` array, overwriting it: one scratch
    array instead of a temporary per operation."""
    t = z >> np.uint64(30)
    z ^= t
    z *= _U_MIX1
    np.right_shift(z, np.uint64(27), out=t)
    z ^= t
    z *= _U_MIX2
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    return z


def replicate_keys(master_seed: int, ids) -> np.ndarray:
    """``replicate_seed(master_seed, r)`` for each ``r`` of ``ids``, as a
    ``uint64`` array."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and ids.min() < 0:
        raise ValueError("replicate index must be nonnegative")
    state = (ids.astype(np.uint64) + np.uint64(1)) * _U_GOLDEN
    state += np.uint64(master_seed & _MASK)
    return _splitmix64_inplace(state)


def block_keys(keys: np.ndarray, g: int) -> np.ndarray:
    """Keys of block ``g`` (generation ``g``) of the replicates with the
    given keys."""
    if g < 0:
        raise ValueError("block index must be nonnegative")
    return _splitmix64_inplace(keys ^ np.uint64(((g + 1) * _BLOCK_MULT) & _MASK))


def counter_uniforms(keys: np.ndarray, lengths) -> np.ndarray:
    """The first ``lengths[i]`` uniforms of the block with key ``keys[i]``,
    for every ``i``, concatenated in order; lengths may be 0.

    Uniform ``k`` of a block is its key's splitmix64 output ``k + 1``; with
    ``start[i]`` the offset of block ``i``, its counter is ``keys[i] + (1 -
    start[i]) * gamma`` repeated, plus ``j * gamma`` at offset ``j``."""
    lengths = np.asarray(lengths, dtype=np.int64)
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    base = (np.uint64(1) - (ends - lengths).astype(np.uint64)) * _U_GOLDEN
    base += keys
    z = np.arange(total, dtype=np.uint64)
    z *= _U_GOLDEN
    z += np.repeat(base, lengths)
    z = _splitmix64_inplace(z)
    z >>= np.uint64(11)
    return z * 2.0**-53


# numpy's SeedSequence, for one 64-bit entropy value and no spawn key:
# a pool of four 32-bit words, hashed with the constants INIT_A * MULT_A^k
# while mixing (4 + 12 hashes) and INIT_B * MULT_B^k while generating state
_M32 = 0xFFFFFFFF


def _hash_constants(init: int, mult: int, count: int) -> list[int]:
    out = [init]
    for _ in range(count):
        out.append((out[-1] * mult) & _M32)
    return out


_MIX_HASH = np.array(_hash_constants(0x43B0D7E5, 0x931E8875, 16), dtype=np.uint64)[:, None]
_STATE_HASH = np.array(_hash_constants(0x8B51F9DD, 0x58F38DED, 8), dtype=np.uint64)[:, None]


def _hashmix(value: np.ndarray, constants: np.ndarray, k: int, rows: int) -> np.ndarray:
    """SeedSequence's hashmix of ``rows`` rows of words (or of one row,
    broadcast), row ``j`` with hash constant ``k + j``."""
    value = ((value ^ constants[k : k + rows]) * constants[k + 1 : k + rows + 1]) & _M32
    return value ^ (value >> 16)


def _mix(x, y):
    out = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
    return out ^ (out >> 16)


def _pcg64_words(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` for each 64-bit
    seed of a ``uint64`` array, one row of four words per seed.  Products
    of two 32-bit words fit in 64 bits, so ``uint64`` arithmetic masked to
    32 bits is exact.

    A seed below ``2^32`` has one entropy word where a larger one has
    two; with four pool slots the missing high word hashes exactly like
    a zero one, so every seed is taken as ``(low, high)``.  Within one
    source word the three pool updates are independent, so each source
    word's updates, and the eight state hashes, run as one array
    operation each."""
    entropy = np.zeros((4, seeds.size), dtype=np.uint64)
    entropy[0] = seeds & _M32
    entropy[1] = seeds >> 32
    pool = _hashmix(entropy, _MIX_HASH, 0, 4)
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], _MIX_HASH, 4 + 3 * src, 3))
    state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _STATE_HASH, 0, 8)
    return np.ascontiguousarray((state[0::2] | (state[1::2] << 32)).T)


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


def pcg64_generators(seeds: np.ndarray) -> list[np.random.Generator]:
    """One generator per 64-bit seed of a ``uint64`` array, in order; each
    equals ``np.random.Generator(np.random.PCG64(int(seed)))``.  No seeds,
    no import of ``numpy.random``."""
    if not seeds.size:
        return []
    seeded = _seeded_pcg64()
    return [seeded(w) for w in _pcg64_words(seeds)]


def replicate_rngs(master_seed: int, ids) -> list[np.random.Generator]:
    """Independent generators for replicates ``ids`` of a seeded run, in
    order; each equals ``replicate_rng(master_seed, r)``."""
    return pcg64_generators(replicate_keys(master_seed, ids))


def replicate_rng(master_seed: int, index: int) -> np.random.Generator:
    """Independent generator for one replicate of a seeded run.  For one
    seed numpy's own seeding is the faster path."""
    from numpy.random import default_rng

    return default_rng(replicate_seed(master_seed, index))
