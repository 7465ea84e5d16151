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
per replicate.  A block that needs a ``multinomial`` draws it instead
from a PCG64 whose state is two splitmix64 words of its block key
(``block_multinomials``).

The tree API takes generators: ``replicate_rng(s, r)`` is numpy's
``default_rng(replicate_seed(s, r))``.  ``numpy.random`` is imported on
first use, not with this module, so a run that draws only counter
uniforms never loads it.
"""

from __future__ import annotations

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


# the multinomial stream: a block that draws a multinomial takes it from a
# PCG64 whose state is a pure function of the block key; the constants
# are the first fractional words of pi, used by no uniform of the block
_PCG_HI = 0x243F6A8885A308D3
_PCG_LO = 0x13198A2E03707344
_PCG_INC = 0xA4093822299F31D1  # the next word, made odd as PCG64's increment must be


def block_multinomials(keys: np.ndarray, counts: np.ndarray, rows, p) -> np.ndarray:
    """``multinomial(counts[rows of key i], p)`` for the block with key
    ``keys[i]``, for every ``i``, concatenated in order: ``counts`` holds
    ``rows[i]`` consecutive counts for key ``i``, and the result has one
    row of atom counts per count.

    Block ``i`` draws from a PCG64 (O'Neill 2014) with the 128-bit state
    ``splitmix64(key ^ _PCG_HI) << 64 | splitmix64(key ^ _PCG_LO)`` and
    the increment ``_PCG_INC``.  One generator is made per call, so no two
    callers share one, and reseeded for each key, so a block never sees
    another's draws; ``numpy.random`` is imported only once a block draws."""
    if not keys.size:
        return np.zeros((0, len(p)), dtype=np.int64)
    from numpy.random import PCG64, Generator

    gen = Generator(PCG64(0))
    state = {"bit_generator": "PCG64", "state": {"state": 0, "inc": _PCG_INC},
             "has_uint32": 0, "uinteger": 0}
    hi = _splitmix64_inplace(keys ^ np.uint64(_PCG_HI)).tolist()
    lo = _splitmix64_inplace(keys ^ np.uint64(_PCG_LO)).tolist()
    ends = np.cumsum(rows).tolist()
    draws = []
    for h, l, start, end in zip(hi, lo, [0, *ends], ends):
        state["state"]["state"] = h << 64 | l
        gen.bit_generator.state = state
        draws.append(gen.multinomial(counts[start:end], p))
    return np.concatenate(draws)


def replicate_rng(master_seed: int, index: int) -> np.random.Generator:
    """Independent generator for one replicate of a seeded run."""
    from numpy.random import default_rng

    return default_rng(replicate_seed(master_seed, index))
