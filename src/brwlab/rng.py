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
block are ``unit`` of its words, the splitmix64 sequence started at its
key.  ``replicate_keys`` gives the keys of many replicates,
``block_keys`` the keys of their block ``g``, and ``counter_words``
concatenated blocks of given lengths (``counter_uniforms`` their
uniforms), all in one numpy pass in wrapping ``uint64`` arithmetic, so
a whole batch draws a generation without a Python call per replicate.
Since ``u = k * 2^-53`` with ``k = w >> 11`` an integer and ``c * 2^53``
exact for a float ``c``, ``u >= c`` holds exactly when ``w >=
ceil(c * 2^53) << 11``: ``word_thresholds`` gives these thresholds of a
cdf, so a word can be compared with a cdf without ever becoming a float.

A block that needs a ``multinomial`` draws it instead as a chain of
binomials, each from its own sub-block: sub-block ``i`` of a block is
derived from the block key as block ``i`` is from a replicate key, and
a binomial is Hormann's BTRD, or inversion for small means, on the
sub-block's uniforms (``binomials``, ``counter_multinomials``).  A whole
batch's rows take one vectorised pass per atom, with no generator and
no Python loop per block.

The tree API takes generators: ``replicate_rng(s, r)`` is numpy's
``default_rng(replicate_seed(s, r))``.  ``numpy.random`` is imported on
first use, not with this module, and no command calls it.
"""

from __future__ import annotations

import math

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


def block_keys(keys: np.ndarray, g) -> np.ndarray:
    """Keys of block ``g`` (generation ``g``) of the replicates with the
    given keys, or, for an array ``g``, of block ``g[i]`` of the key
    ``keys[i]``.  The arithmetic runs on arrays: numpy warns on a wrapping
    ``uint64`` scalar product."""
    g = np.atleast_1d(np.asarray(g, dtype=np.int64))
    if g.size and g.min() < 0:
        raise ValueError("block index must be nonnegative")
    z = g.astype(np.uint64) + np.uint64(1)
    z *= np.uint64(_BLOCK_MULT)
    return _splitmix64_inplace(keys ^ z)


def counter_words(keys: np.ndarray, lengths) -> np.ndarray:
    """The first ``lengths[i]`` words of the block with key ``keys[i]``,
    for every ``i``, concatenated in order as ``uint64``; lengths may be 0.

    Word ``k`` of a block is its key's splitmix64 output ``k + 1``; with
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
    return _splitmix64_inplace(z)


def unit(words: np.ndarray) -> np.ndarray:
    """The uniform ``(w >> 11) * 2^-53`` of each word."""
    return (words >> np.uint64(11)) * 2.0**-53


def word_thresholds(cdf) -> np.ndarray:
    """``ceil(c * 2^53) << 11`` of each entry ``c`` of a cdf, as ``uint64``,
    so that ``w >= t`` exactly when ``unit(w) >= c``: ``unit(w) = k *
    2^-53`` with ``k = w >> 11``, and ``c * 2^53`` is exact.  Entries at or
    past 1, which no uniform reaches, are left out, so the result may be
    shorter than ``cdf``; an entry at or below 0 gives 0."""
    c = np.asarray(cdf, dtype=np.float64)
    c = np.maximum(c[c < 1.0], 0.0)
    return np.ceil(c * 2.0**53).astype(np.uint64) << np.uint64(11)


def counter_uniforms(keys: np.ndarray, lengths) -> np.ndarray:
    """``unit`` of ``counter_words``: the first ``lengths[i]`` uniforms of
    the block with key ``keys[i]``, for every ``i``, concatenated."""
    return unit(counter_words(keys, lengths))


# the binomial stream: each binomial reads its own counter block, a
# sub-block of the generation block's key
_BTRD_MEAN = 10.0  # BTRD from n * min(p, 1 - p) = 10 up, inversion below
_EPS = 2.0**-52  # float64 epsilon
# Stirling correction fc(k) = log k! - (k + 1/2) log(k + 1) + k + 1 -
# log(2 pi) / 2 for k < 10 (Hormann 1993); a series above
_FC = np.array([0.08106146679532726, 0.04134069595540929, 0.02767792568499834,
                0.02079067210376509, 0.01664469118982119, 0.01387612882307075,
                0.01189670994589177, 0.01041126526197209, 0.009255462182712733,
                0.008330563433362871])


def _uniform(keys: np.ndarray, k: int) -> np.ndarray:
    """Uniform ``k`` of each block with the given keys."""
    return unit(_splitmix64_inplace(keys + np.uint64(((k + 1) * _GOLDEN) & _MASK)))


def _fc(k: np.ndarray) -> np.ndarray:
    """``fc(k)`` of float ``k >= 0``."""
    k1 = 1.0 / (k + 1.0)
    k2 = k1 * k1
    out = (1.0 / 12 - (1.0 / 360 - k2 / 1260) * k2) * k1
    small = k < 10
    out[small] = _FC[k[small].astype(np.int64)]
    return out


def _inversion(keys: np.ndarray, n: np.ndarray, q: float) -> np.ndarray:
    """``binomial(n, q)`` by sequential search on uniform 0 of each block
    (BINV, Kachitvichyanukul and Schmeiser 1988), stepping the pmf by its
    ratio from ``(1 - q)^n``.  A search also stops once the pmf is falling
    and below float epsilon, which ends it where rounding leaves the
    uniform above the summed mass."""
    u = _uniform(keys, 0)
    s = q / (1.0 - q)
    r = np.exp(n * math.log1p(-q))
    x = np.zeros(n.size, dtype=np.int64)
    live = np.flatnonzero(u > r)
    u, r, a = u[live], r[live], (n[live] + 1.0) * s
    k = 0
    while live.size:
        # every live search stands at the same k
        k += 1
        u -= r
        r1 = (a / k - s) * r
        go = (u > r1) & ((r1 >= _EPS) | (r1 >= r))
        x[live[~go]] = k
        live, u, r, a = live[go], u[go], r1[go], a[go]
    return np.minimum(x, n)


def _btrd(keys: np.ndarray, n: np.ndarray, q: float) -> np.ndarray:
    """``binomial(n, q)`` for ``q <= 1/2`` and ``n q >= 10`` by Hormann's
    BTRD, transformed rejection with decomposition (J. Statist. Comput.
    Simul. 46, 1993), step for step.  Attempt ``j`` of a row reads
    uniforms ``2j`` and ``2j + 1`` of its block, the second only past the
    quick acceptance; every live row takes the quick path's arithmetic,
    and only the rest (about 14%) the acceptance tests."""
    r = q / (1.0 - q)
    rows = np.arange(n.size)  # the row of each live attempt
    nf = n.astype(np.float64)
    npq = nf * (q * (1.0 - q))
    b = 2.53 * np.sqrt(npq) + 1.15
    a2 = 0.0496 * b + (0.02 * q - 0.1746)  # 2a, a = -0.0873 + 0.0248 b + 0.01 q
    c = nf * q + 0.5
    vr = 0.92 - 4.2 / b
    out = np.empty(n.size, dtype=np.int64)
    j = 0
    while rows.size:
        v = _uniform(keys, 2 * j)
        # step 1, quick acceptance: U = V / v_r - 0.43 for V <= 0.86 v_r
        u = v / vr - 0.43
        slow = np.flatnonzero(v > 0.86 * vr)
        if slow.size:
            # step 2: U uniform on (-1/2, 1/2) for V >= v_r; otherwise U
            # reflected from V's band and V uniform on (0, v_r)
            vs, vrs = v[slow], vr[slow]
            w = _uniform(keys[slow], 2 * j + 1)
            us = w - 0.5
            band = np.flatnonzero(vs < vrs)
            u0 = vs[band] / vrs[band] - 0.93
            us[band] = np.where(u0 < 0, -0.5, 0.5) - u0
            vs[band] = w[band] * vrs[band]
            u[slow] = us
        # step 2.1, for every attempt: k = floor((2a / us + b) U + c)
        us = 0.5 - np.abs(u)
        with np.errstate(divide="ignore", invalid="ignore"):
            k = np.floor((a2 / us + b) * u + c)
        retry = slow[~_btrd_accept(k[slow], vs, us[slow], nf[slow], npq[slow], b[slow],
                                   a2[slow], q, r)] if slow.size else slow
        k[retry] = 0  # a placeholder, until the row's attempt is taken
        out[rows] = k
        rows, keys, nf, npq, b, a2, c, vr = (x[retry] for x in (rows, keys, nf, npq, b, a2, c, vr))
        j += 1
    # past 2^53 a float k may round above a count it cannot pass
    return np.minimum(out, n)


def _btrd_accept(k, v, us, nf, npq, b, a2, q: float, r: float) -> np.ndarray:
    """Steps 2.1-3.4 of BTRD past the quick acceptance: whether ``k`` is
    taken, given ``V`` and ``us = 1/2 - |U|``."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ok = (k >= 0) & (k <= nf)
        # step 2.2: V scaled to the hat at k
        v = v * ((2.83 + 5.1 / b) * np.sqrt(npq)) / (0.5 * a2 / (us * us) + b)
    m = np.floor((nf + 1.0) * q)
    km = np.abs(k - m)
    accept = np.zeros(k.size, dtype=bool)
    # step 3.1: recursive evaluation of f(k) within 15 of the mode
    near = np.flatnonzero(ok & (km <= 15))
    if near.size:
        kn, mn, steps, nr = k[near], m[near], km[near], (nf[near] + 1.0) * r
        up = mn < kn
        f = np.where(up, 1.0, v[near])
        lo = np.minimum(kn, mn)
        for i in range(1, int(steps.max()) + 1):
            f = np.where(i <= steps, f * (nr / (lo + i) - r), f)
        accept[near] = np.where(up, v[near] <= f, f <= 1.0)
    # steps 3.2-3.4: squeeze on log V, then the final acceptance
    far = np.flatnonzero(ok & (km > 15))
    if far.size:
        d, sd = km[far], npq[far]
        with np.errstate(divide="ignore"):
            lv = np.log(v[far])
        rho = (d / sd) * (((d / 3.0 + 0.625) * d + 1.0 / 6) / sd + 0.5)
        t = -d * d / (2.0 * sd)
        take = lv < t - rho
        test = np.flatnonzero(~take & (lv <= t + rho))
        if test.size:
            kt, nt, mt = k[far][test], nf[far][test], m[far][test]
            nm = nt - mt + 1.0
            h = (mt + 0.5) * np.log((mt + 1.0) / (r * nm)) + _fc(mt) + _fc(nt - mt)
            nk = nt - kt + 1.0
            take[test] = lv[test] <= (h + (nt + 1.0) * np.log(nm / nk)
                                      + (kt + 0.5) * np.log(nk * r / (kt + 1.0))
                                      - _fc(kt) - _fc(nt - kt))
        accept[far] = take
    return accept


def binomials(keys: np.ndarray, n, p: float) -> np.ndarray:
    """``binomial(n[i], p)`` drawn from the counter block with key
    ``keys[i]``, for every ``i``; a pure function of ``(keys[i], n[i],
    p)``.  ``p`` is clamped to [0, 1].  With ``q = min(p, 1 - p)``, rows
    with ``n q >= 10`` take BTRD (``_btrd``) and the rest inversion on
    uniform 0 (``_inversion``); for ``p > 1/2`` the draw is ``n`` minus
    that of ``1 - p``.  Counts past ``2^53`` are exact only to float
    resolution, as for numpy's BTPE."""
    n = np.asarray(n, dtype=np.int64)
    p = min(max(float(p), 0.0), 1.0)
    q = min(p, 1.0 - p)
    out = np.zeros(n.size, dtype=np.int64)
    if q > 0.0:
        big = n * q >= _BTRD_MEAN
        small = np.flatnonzero(~big & (n > 0))
        big = np.flatnonzero(big)
        if small.size:
            out[small] = _inversion(keys[small], n[small], q)
        if big.size:
            out[big] = _btrd(keys[big], n[big], q)
    return n - out if p > 0.5 else out


def counter_multinomials(keys: np.ndarray, counts: np.ndarray, rows, p) -> np.ndarray:
    """``multinomial(count, p)`` of every count, one row of atom counts
    each: ``counts`` holds ``rows[i]`` consecutive counts for the block
    with key ``keys[i]``.

    Row ``j`` of a block is a chain of conditional binomials: cell ``c``
    is ``binomials`` of the count not yet placed, at ``p[c] / (1 - p[0] -
    ... - p[c-1])`` clamped to [0, 1], drawn from sub-block ``j * len(p) +
    c`` of the block key (``block_keys``); the last cell takes the
    remainder, so a row sums to its count.  A sub-block is a counter
    stream of its own, so a binomial reads no uniform of another cell, nor
    of the block itself, whose first two a spine takes."""
    atoms = len(p)
    counts = np.asarray(counts, dtype=np.int64)
    out = np.empty((counts.size, atoms), dtype=np.int64)
    rows = np.asarray(rows, dtype=np.int64)
    row_keys = np.repeat(keys, rows)
    index = (np.arange(counts.size) - np.repeat(np.cumsum(rows) - rows, rows)) * atoms
    left = counts.copy()
    rest = 1.0
    for c, pc in enumerate(np.asarray(p, dtype=np.float64).tolist()[:-1]):
        draw = binomials(block_keys(row_keys, index + c), left, pc / rest if rest > 0 else 1.0)
        out[:, c] = draw
        left -= draw
        rest -= pc
    out[:, -1] = left
    return out


def replicate_rng(master_seed: int, index: int) -> np.random.Generator:
    """Independent generator for one replicate of a seeded run."""
    from numpy.random import default_rng

    return default_rng(replicate_seed(master_seed, index))
