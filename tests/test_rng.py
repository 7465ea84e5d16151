"""Seed-splitting determinism, the frozen mixing-function vectors, and
batched generator construction against numpy's own seeding."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import brwlab.rng as rng_mod
from brwlab import replicate_rng, replicate_rngs, replicate_seed, splitmix64

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
# batched construction: the same PCG64 streams as numpy's own seeding
# ---------------------------------------------------------------------------

EDGE_MASTERS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, MASK]


def _numpy_rng(master: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(replicate_seed(master, index)))


def _assert_same_streams(master: int, ids: list[int]) -> None:
    rngs = replicate_rngs(master, np.array(ids, dtype=np.int64))
    assert len(rngs) == len(ids)
    for rng, r in zip(rngs, ids):
        assert np.array_equal(rng.random(4), _numpy_rng(master, r).random(4)), (master, r)


@pytest.mark.parametrize("master", EDGE_MASTERS)
def test_replicate_rngs_match_numpy_seeding(master):
    _assert_same_streams(master, [0, 1, 2, 3, 4095, 4096, 4999, 5000])


@given(st.integers(0, MASK), st.lists(st.integers(0, 5000), min_size=1, max_size=12))
def test_replicate_rngs_match_numpy_seeding_on_any_ids(master, ids):
    _assert_same_streams(master, ids)


@pytest.mark.parametrize("master", EDGE_MASTERS)
def test_replicate_rng_is_the_one_replicate_case(master):
    for r in [0, 5, 4999]:
        want = _numpy_rng(master, r).random(4)
        assert np.array_equal(replicate_rng(master, r).random(4), want)
        assert np.array_equal(replicate_rngs(master, [r])[0].random(4), want)


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, MASK])
def test_state_words_equal_seed_sequence_state(seed):
    want = np.random.SeedSequence(seed).generate_state(4, np.uint64)
    assert rng_mod._pcg64_words(seed) == want.tolist()
    batched = rng_mod._pcg64_words(np.array([seed, seed], dtype=np.uint64))
    assert np.array_equal(np.stack(batched, axis=-1), np.stack([want, want]))


def test_replicate_rngs_rejects_negative_ids_and_takes_none():
    with pytest.raises(ValueError):
        replicate_rngs(0, [3, -1])
    assert replicate_rngs(0, []) == []


def test_precomputed_state_words_seed_only_a_pcg64():
    seeded = replicate_rng(0, 0).bit_generator.seed_seq
    with pytest.raises(ValueError):
        seeded.generate_state(2, np.uint32)


def test_importing_the_cli_leaves_numpy_random_unloaded():
    code = "import sys, brwlab.cli; print('numpy.random' in sys.modules)"
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert proc.stdout.strip() == "False", proc.stderr
