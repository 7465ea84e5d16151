"""Seed-splitting determinism, the frozen mixing-function vectors, the
counter stream against a scalar reference and for uniformity, and the
multinomial blocks' PCG64 state against a scalar construction."""

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
from occupation_reference import block_pcg64

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
# multinomial blocks: a PCG64 reseeded from each block key
# ---------------------------------------------------------------------------

P = [0.25, 0.5, 0.25]


def test_block_multinomials_known_answers():
    keys = [0, 2**63 - 1, MASK]
    counts = np.array([7, 0, 30, 1000, 5, 12], dtype=np.int64)
    rows = [1, 3, 2]
    got = rng_mod.block_multinomials(np.array(keys, dtype=np.uint64), counts, rows, P)
    want = np.concatenate([block_pcg64(keys[0]).multinomial(counts[:1], P),
                           block_pcg64(keys[1]).multinomial(counts[1:4], P),
                           block_pcg64(keys[2]).multinomial(counts[4:], P)])
    assert got.tolist() == want.tolist()
    assert (got.sum(axis=1) == counts).all()


def test_block_multinomials_carry_nothing_between_keys():
    a, b = np.array([3], dtype=np.uint64), np.array([4], dtype=np.uint64)
    counts = np.array([500, 40], dtype=np.int64)
    alone = rng_mod.block_multinomials(b, counts[1:], [1], P)
    after = rng_mod.block_multinomials(np.concatenate([a, b]), counts, [1, 1], P)
    assert after[1:].tolist() == alone.tolist()


def test_block_multinomials_of_no_keys_are_empty():
    out = rng_mod.block_multinomials(np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.int64),
                                     [], P)
    assert out.shape == (0, len(P))


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
