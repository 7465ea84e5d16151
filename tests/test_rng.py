"""Seed-splitting determinism, the frozen mixing-function vectors, the
counter stream against a scalar reference and for uniformity, and the
counter-stream binomials against a scalar transcription of BTRD, frozen
answers and the binomial law."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import brwlab.rng as rng_mod
from brwlab import (
    block_keys,
    counter_uniforms,
    replicate_keys,
    replicate_rng,
    replicate_seed,
    splitmix64,
)
from brwlab.rng import counter_words, unit, word_thresholds

MASK = (1 << 64) - 1

# First three outputs of the reference splitmix64 stream seeded with 0;
# replicate_seed(0, i) must reproduce them because replicate i hashes
# state 0 + (i + 1) * golden-gamma.
KNOWN_STREAM_FROM_ZERO = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
]


def test_replicate_seed_matches_reference_stream():
    for i, want in enumerate(KNOWN_STREAM_FROM_ZERO):
        assert replicate_seed(0, i) == want


def test_splitmix64_range_and_determinism():
    for state in [0, 1, 2**63, MASK, 0xDEADBEEF]:
        out = splitmix64(state)
        assert 0 <= out <= MASK
        assert out == splitmix64(state)


def test_splitmix64_wraps_modulo_2_64():
    assert splitmix64(MASK + 1) == splitmix64(0)


@given(st.integers(0, MASK), st.integers(0, 1023))
def test_replicate_seed_in_range(master, index):
    out = replicate_seed(master, index)
    assert 0 <= out <= MASK


def test_replicate_seeds_do_not_collide_locally():
    seen = set()
    for master in range(4):
        for index in range(256):
            seen.add(replicate_seed(master, index))
    assert len(seen) == 4 * 256


def test_replicate_rng_is_deterministic():
    a = replicate_rng(7, 3).random(8)
    b = replicate_rng(7, 3).random(8)
    assert np.array_equal(a, b)
    c = replicate_rng(7, 4).random(8)
    assert not np.array_equal(a, c)


def test_replicate_rng_is_a_numpy_generator():
    assert isinstance(replicate_rng(0, 0), np.random.Generator)


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        replicate_seed(0, -1)


# ---------------------------------------------------------------------------
# the counter stream
# ---------------------------------------------------------------------------


def _scalar_splitmix64(x: int) -> int:
    z = x & MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def _scalar_uniform(master: int, r: int, g: int, k: int) -> float:
    """Uniform ``k`` of block ``g`` of replicate ``r``, by the definition,
    one Python integer at a time."""
    key = _scalar_splitmix64(master + (r + 1) * 0x9E3779B97F4A7C15)
    block = _scalar_splitmix64(key ^ (((g + 1) * 0xD1B54A32D192ED03) & MASK))
    return (_scalar_splitmix64(block + (k + 1) * 0x9E3779B97F4A7C15) >> 11) * 2.0**-53


def _uniforms(master: int, ids, g: int, lengths) -> np.ndarray:
    return counter_uniforms(block_keys(replicate_keys(master, ids), g), lengths)


# uniforms 0-2 of block 0 of replicate 0 of master seed 0, frozen: a change
# of the stream definition changes every Monte Carlo sample
KNOWN_BLOCK_FROM_ZERO = [0.826027878428408, 0.6917740324130444, 0.6790888559808632]


def test_counter_stream_known_answers():
    assert _uniforms(0, [0], 0, [3]).tolist() == KNOWN_BLOCK_FROM_ZERO
    assert [_scalar_uniform(0, 0, 0, k) for k in range(3)] == KNOWN_BLOCK_FROM_ZERO


@pytest.mark.parametrize("master", [0, 2**32, 2**63 - 1, MASK])
def test_counter_stream_matches_the_scalar_definition(master):
    ids = [0, 1, 4095, 2**40]
    assert replicate_keys(master, ids).tolist() == [replicate_seed(master, r) for r in ids]
    for g in (0, 1, 29, 2**31):
        u = _uniforms(master, ids, g, [5] * len(ids)).reshape(len(ids), 5)
        want = [[_scalar_uniform(master, r, g, k) for k in range(5)] for r in ids]
        assert u.tolist() == want, (master, g)


def test_counter_blocks_concatenate_with_empty_and_single_blocks():
    ids, lengths = [3, 4, 5, 6, 7, 8], [2, 0, 1, 0, 3, 1]
    u = _uniforms(11, ids, 4, lengths)
    want = [_scalar_uniform(11, r, 4, k) for r, n in zip(ids, lengths) for k in range(n)]
    assert u.tolist() == want
    assert _uniforms(11, ids, 4, [0] * 6).size == 0
    assert _uniforms(11, [], 4, []).size == 0


def test_counter_keys_reject_negative_ids_and_blocks():
    with pytest.raises(ValueError):
        replicate_keys(0, [2, -1])
    with pytest.raises(ValueError):
        block_keys(replicate_keys(0, [2]), -1)


# cdf entries at the edges of the uniforms' grid: 0, the least subnormal,
# one below the grid's step, two ties with it, the largest uniform, 1 and a
# cumulative sum rounded past 1
CDF_ENTRIES = [0.0, 5e-324, 2.0**-60, 0.2, 0.5, 1 - 2.0**-53, 1.0, 1 + 2.0**-52]


def _unit(words: np.ndarray) -> np.ndarray:
    """The uniform of each counter word, as ``counter_uniforms`` makes it."""
    return (words >> np.uint64(11)) * 2.0**-53


def _assert_threshold_exact(c: float, words: np.ndarray) -> None:
    """``w >= t`` exactly when ``unit(w) >= c``, for the threshold ``t`` of
    ``c``, on the given words and on ``t - 1``, ``t``, ``t + 1``, 0 and
    2^64 - 1; an entry that no uniform reaches has no threshold."""
    t = word_thresholds([c])
    assert np.array_equal(unit(words), _unit(words))
    edges = [0, MASK]
    if t.size:
        edges += [int(t[0]) + d for d in (-1, 0, 1) if int(t[0]) + d >= 0]
    for w in (words, np.array(edges, dtype=np.uint64)):
        reached = _unit(w) >= c
        if t.size:
            assert np.array_equal(w >= t[0], reached), (c, w[(w >= t[0]) != reached][:3])
        else:
            assert not reached.any(), c


def test_word_thresholds_are_exact_at_the_edges():
    words = counter_words(block_keys(replicate_keys(3, np.arange(100)), 0), np.full(100, 1000))
    assert words.size == 10**5
    for c in CDF_ENTRIES:
        _assert_threshold_exact(c, words)
    # one threshold per entry below 1, in order
    assert word_thresholds(CDF_ENTRIES).size == 6


@given(st.floats(0.0, 1.0 + 2.0**-50))
def test_word_thresholds_are_exact_for_any_entry(c):
    _assert_threshold_exact(c, counter_words(block_keys(replicate_keys(4, [0]), 0), [64]))


def test_counter_uniforms_are_the_units_of_the_words():
    keys, lengths = block_keys(replicate_keys(2, [0, 1, 2]), 5), [3, 0, 4]
    words = counter_words(keys, lengths)
    assert words.dtype == np.uint64 and words.size == 7
    assert counter_uniforms(keys, lengths).tolist() == _unit(words).tolist()


# upper 10^-6 point of chi-square with 63 degrees of freedom
CHI2_63 = 131.37


def _chi2(observed: np.ndarray) -> float:
    expected = observed.sum() / observed.size
    return float(((observed - expected) ** 2).sum() / expected)


def test_counter_uniforms_are_uniform_on_64_bins():
    u = _uniforms(7, np.arange(1024), 3, np.full(1024, 256))
    assert 0.0 <= u.min() and u.max() < 1.0
    assert _chi2(np.bincount((u * 64).astype(np.int64), minlength=64)) < CHI2_63


def _pair_chi2(a: np.ndarray, b: np.ndarray) -> float:
    """Chi-square of the 8x8 table of ``(a, b)`` pairs against independence
    of two uniforms."""
    cells = (a * 8).astype(np.int64) * 8 + (b * 8).astype(np.int64)
    return _chi2(np.bincount(cells, minlength=64))


def test_counter_uniforms_are_pairwise_independent():
    reps, n = 4096, 16
    u = _uniforms(5, np.arange(reps), 2, np.full(reps, n)).reshape(reps, n)
    # lag 1 within a block
    assert _pair_chi2(u[:, :-1].ravel(), u[:, 1:].ravel()) < CHI2_63
    # the same k in adjacent replicates
    assert _pair_chi2(u[:-1].ravel(), u[1:].ravel()) < CHI2_63
    # the same (r, k) in adjacent generations
    nxt = _uniforms(5, np.arange(reps), 3, np.full(reps, n)).reshape(reps, n)
    assert _pair_chi2(u.ravel(), nxt.ravel()) < CHI2_63


# ---------------------------------------------------------------------------
# counter-stream binomials and multinomials
# ---------------------------------------------------------------------------

P = [0.25, 0.5, 0.25]

_FC = [0.08106146679532726, 0.04134069595540929, 0.02767792568499834, 0.02079067210376509,
       0.01664469118982119, 0.01387612882307075, 0.01189670994589177, 0.01041126526197209,
       0.009255462182712733, 0.008330563433362871]


def _scalar_fc(k: float) -> float:
    if k < 10:
        return _FC[int(k)]
    k1 = 1.0 / (k + 1.0)
    return (1.0 / 12 - (1.0 / 360 - k1 * k1 / 1260) * k1 * k1) * k1


def _block_uniform(key: int, k: int) -> float:
    return (_scalar_splitmix64(key + (k + 1) * 0x9E3779B97F4A7C15) >> 11) * 2.0**-53


def _scalar_binomial(key: int, n: int, p: float) -> int:
    """``binomials`` of one row, transcribed from Hormann's BTRD (1993) and
    sequential inversion one Python float at a time."""
    p = min(max(p, 0.0), 1.0)
    q = min(p, 1.0 - p)
    if q == 0.0 or n == 0:
        k = 0
    elif n * q < 10:
        u, s = _block_uniform(key, 0), q / (1.0 - q)
        a, r, k = (n + 1.0) * s, math.exp(n * math.log1p(-q)), 0
        while u > r:
            u -= r
            k += 1
            r1 = (a / k - s) * r
            if r1 < 2.0**-52 and r1 < r:
                break
            r = r1
        k = min(k, n)
    else:
        r, nf = q / (1.0 - q), float(n)
        npq = nf * (q * (1.0 - q))
        b = math.sqrt(npq) * 2.53 + 1.15
        a2 = b * 0.0496 + (0.02 * q - 0.1746)
        c = nf * q + 0.5
        vr = 0.92 - 4.2 / b
        m = math.floor((nf + 1.0) * q)
        j = 0
        while True:
            v = _block_uniform(key, 2 * j)
            u = v / vr - 0.43
            j += 1
            if v <= 0.86 * vr:
                k = math.floor((a2 / (0.5 - abs(u)) + b) * u + c)
                break
            w = _block_uniform(key, 2 * j - 1)
            if v >= vr:
                u = w - 0.5
            else:
                u = v / vr - 0.93
                u = (-0.5 if u < 0 else 0.5) - u
                v = w * vr
            us = 0.5 - abs(u)
            if us == 0.0:
                continue
            k = math.floor((a2 / us + b) * u + c)
            if k < 0 or k > nf:
                continue
            v = v * ((2.83 + 5.1 / b) * math.sqrt(npq)) / (0.5 * a2 / (us * us) + b)
            km = abs(k - m)
            if km <= 15:
                f = 1.0 if m < k else v
                for i in range(min(k, m) + 1, max(k, m) + 1):
                    f = f * ((nf + 1.0) * r / i - r)
                if (v <= f) if m < k else (f <= 1.0):
                    break
                continue
            lv = math.log(v) if v > 0 else -math.inf
            rho = (km / npq) * (((km / 3.0 + 0.625) * km + 1.0 / 6) / npq + 0.5)
            t = -km * km / (2.0 * npq)
            if lv < t - rho:
                break
            if lv > t + rho:
                continue
            nm = nf - m + 1.0
            h = (m + 0.5) * math.log((m + 1.0) / (r * nm)) + _scalar_fc(m) + _scalar_fc(nf - m)
            nk = nf - k + 1.0
            if lv <= (h + (nf + 1.0) * math.log(nm / nk) + (k + 0.5) * math.log(nk * r / (k + 1.0))
                      - _scalar_fc(k) - _scalar_fc(nf - k)):
                break
        k = min(int(k), n)
    return n - k if p > 0.5 else k


def _keys(*values) -> np.ndarray:
    return np.array(values, dtype=np.uint64)


# binomials of keys 0..5 at (n, p) pairs that take inversion, BTRD and the
# reflection p > 1/2, frozen: a change of the stream definition changes
# every sample past the multinomial budget
KNOWN_BINOMIALS = {
    (7, 0.3): [4, 2, 2, 1, 2, 2],
    (60, 0.25): [14, 18, 18, 13, 7, 19],
    (2000, 0.8): [1604, 1586, 1584, 1617, 1595, 1598],
    (10**15, 0.5): [499999975884235, 500000008607225, 500000009972212, 499999984584035,
                    500000001726794, 499999999577136],
}


def test_binomials_known_answers():
    for (n, p), want in KNOWN_BINOMIALS.items():
        got = rng_mod.binomials(_keys(*range(6)), np.full(6, n), p).tolist()
        assert got == want, (n, p)
        assert got == [_scalar_binomial(k, n, p) for k in range(6)], (n, p)


@pytest.mark.parametrize("n", [1, 9, 33, 50, 51, 700, 12345, 2**40 + 7, 2**62])
@pytest.mark.parametrize("p", [1e-9, 0.03, 0.2, 0.3, 0.5, 0.77, 0.999])
def test_binomials_match_the_scalar_transcription(n, p):
    keys = replicate_keys(n % 1000 + int(1000 * p), np.arange(400))
    got = rng_mod.binomials(keys, np.full(400, n), p).tolist()
    assert got == [_scalar_binomial(k, n, p) for k in keys.tolist()]


def test_binomials_of_degenerate_rows():
    keys = _keys(1, 2, 3)
    n = np.array([0, 5, 2**62])
    assert rng_mod.binomials(keys, n, 0.0).tolist() == [0, 0, 0]
    assert rng_mod.binomials(keys, n, -0.5).tolist() == [0, 0, 0]
    assert rng_mod.binomials(keys, n, 1.0).tolist() == n.tolist()
    assert rng_mod.binomials(keys, n, 1.5).tolist() == n.tolist()
    assert rng_mod.binomials(_keys(), np.zeros(0, dtype=np.int64), 0.5).size == 0


KNOWN_MULTINOMIALS = [[0, 4, 3], [0, 0, 0], [9, 11, 10], [258, 517, 225], [1, 3, 1], [3, 7, 2]]


def test_counter_multinomials_known_answers():
    keys = [0, 2**63 - 1, MASK]
    counts = np.array([7, 0, 30, 1000, 5, 12], dtype=np.int64)
    rows = [1, 3, 2]
    got = rng_mod.counter_multinomials(np.array(keys, dtype=np.uint64), counts, rows, P)
    assert got.tolist() == KNOWN_MULTINOMIALS
    assert (got.sum(axis=1) == counts).all()
    # row j of a block draws cell c from its sub-block j * atoms + c, as
    # binomials of the count left at the probability left
    want = []
    for key, first, n_rows in zip(keys, [0, 1, 4], rows):
        for j in range(n_rows):
            n, rest, row = int(counts[first + j]), 1.0, []
            for c, pc in enumerate(P[:-1]):
                sub = _scalar_splitmix64(key ^ (((j * 3 + c + 1) * 0xD1B54A32D192ED03) & MASK))
                row.append(_scalar_binomial(sub, n, pc / rest))
                n -= row[-1]
                rest -= pc
            want.append([*row, n])
    assert got.tolist() == want


def test_counter_multinomials_carry_nothing_between_keys():
    a, b = _keys(3), _keys(4)
    counts = np.array([500, 40, 9, 10**12], dtype=np.int64)
    alone = rng_mod.counter_multinomials(b, counts[1:], [3], P)
    after = rng_mod.counter_multinomials(np.concatenate([a, b]), counts, [1, 3], P)
    assert after[1:].tolist() == alone.tolist()
    # a binomial row depends on its own key, count and p alone
    keys, n = _keys(5, 6, 7, 8), np.array([10**9, 3, 80, 0])
    whole = rng_mod.binomials(keys, n, 0.4).tolist()
    assert whole == [rng_mod.binomials(keys[i:i + 1], n[i:i + 1], 0.4)[0] for i in range(4)]


def test_counter_multinomials_of_no_keys_are_empty():
    out = rng_mod.counter_multinomials(np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.int64),
                                       [], P)
    assert out.shape == (0, len(P))


def test_counter_multinomials_at_the_count_limit():
    n, reps = 2**62, 2000
    keys = replicate_keys(9, np.arange(reps))
    for p in ([0.5, 0.5], [0.2, 0.8], [0.1, 0.3, 0.6], [1e-17, 0.5, 0.5 - 1e-17]):
        draws = rng_mod.counter_multinomials(keys, np.full(reps, n), np.ones(reps), p)
        assert (draws >= 0).all() and (draws <= n).all()
        assert (draws.sum(axis=1) == n).all()
        # within six standard deviations of the mean, to float resolution
        first = draws[:, 0].astype(np.float64)
        sd = math.sqrt(n * p[0] * (1 - p[0]))
        assert abs(first.mean() - n * p[0]) <= 6 * sd / math.sqrt(reps) + 2.0**11
    for p in (0.2, 0.5, 0.9):
        k = rng_mod.binomials(keys, np.full(reps, n), p)
        assert (k >= 0).all() and (k <= n).all()


LAW_DRAWS = 10**6
LAW_P_MIN = 1e-4  # chi-square p-value floor, fixed before any run


@pytest.mark.parametrize("n", [12, 50, 2000, 10**6])
@pytest.mark.parametrize("p", [0.2, 0.3, 0.5, 0.8])
def test_binomials_follow_the_binomial_law(n, p):
    # per-value chi-square against the exact pmf, cells with an expected
    # count under 5 pooled into the two tails; (50, 0.3) sits just above
    # the BTRD switch at n min(p, 1 - p) = 10, (12, p) below it
    from scipy import stats

    keys = replicate_keys(1000 * n + int(10 * p), np.arange(LAW_DRAWS))
    draws = rng_mod.binomials(keys, np.full(LAW_DRAWS, n), p)
    assert draws.min() >= 0 and draws.max() <= n
    observed = np.bincount(draws, minlength=n + 1).astype(np.float64)
    expected = stats.binom.pmf(np.arange(n + 1), n, p) * LAW_DRAWS
    big = np.flatnonzero(expected >= 5)
    lo, hi = big[0], big[-1] + 1
    cells_o = [observed[:lo].sum(), *observed[lo:hi], observed[hi:].sum()]
    cells_e = [expected[:lo].sum(), *expected[lo:hi], expected[hi:].sum()]
    pairs = [(o, e) for o, e in zip(cells_o, cells_e) if e > 0]
    chi2 = sum((o - e) ** 2 / e for o, e in pairs)
    assert stats.chi2.sf(chi2, len(pairs) - 1) > LAW_P_MIN


# ---------------------------------------------------------------------------
# tree generators: numpy's own seeding of the replicate key
# ---------------------------------------------------------------------------

EDGE_MASTERS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, MASK]


@pytest.mark.parametrize("master", EDGE_MASTERS)
def test_replicate_rng_is_the_one_replicate_case(master):
    for r in [0, 5, 4999]:
        want = np.random.Generator(np.random.PCG64(replicate_seed(master, r))).random(4)
        assert np.array_equal(replicate_rng(master, r).random(4), want)


def test_importing_the_cli_leaves_numpy_random_unloaded():
    code = "import sys, brwlab.cli; print('numpy.random' in sys.modules)"
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert proc.stdout.strip() == "False", proc.stderr
