"""Tree growth under the plain law, batched growth, and log-domain martingale trajectories."""

import math

import numpy as np
import pytest

import brwlab.brw as brw_mod
from brwlab import (
    Atom,
    DomainError,
    FiniteLaw,
    GrowthCaps,
    LogDivergentLaw,
    PopulationCapError,
    generation_sizes,
    grow_batch,
    grow_tree,
    log_sum_exp,
    martingale_trajectory,
    replicate_rng,
    tilted_mass,
)
from conftest import binary_zero_law, coin_pair_law, quad_or_twin_law

CAPS = GrowthCaps()


def test_grow_tree_is_deterministic(pair_law):
    a = grow_tree(pair_law, 8, CAPS, replicate_rng(3, 0))
    b = grow_tree(pair_law, 8, CAPS, replicate_rng(3, 0))
    assert np.array_equal(a.parent, b.parent)
    assert np.array_equal(a.position, b.position)
    assert a.extinct_at == b.extinct_at


def test_node_invariants(pair_law):
    tree = grow_tree(pair_law, 7, CAPS, replicate_rng(11, 2))
    root = tree.node(0)
    assert root.parent is None and root.position == 0.0 and root.generation == 0
    for i in range(1, len(tree)):
        rec = tree.node(i)
        parent = tree.node(rec.parent)
        assert rec.generation == parent.generation + 1
        assert rec.position == pytest.approx(
            parent.position + rec.displacement, abs=1e-12
        )


def test_generation_index_partitions_nodes(quad_law):
    tree = grow_tree(quad_law, 6, CAPS, replicate_rng(1, 5))
    seen = np.concatenate(tree.generation_index)
    assert len(seen) == len(tree)
    assert len(np.unique(seen)) == len(tree)
    for n, idx in enumerate(tree.generation_index):
        assert np.all(tree.generation[idx] == n)


def test_binary_law_is_deterministic_doubling(binary_law):
    tree = grow_tree(binary_law, 10, CAPS, replicate_rng(0, 0))
    assert generation_sizes(tree) == [2**n for n in range(11)]
    traj = martingale_trajectory(tree, 1.0, math.log(2.0))
    assert np.allclose(traj.log_w, 0.0, atol=1e-12)
    assert list(traj.population) == [2**n for n in range(11)]


def test_extinction_is_recorded(critical_law):
    # the critical coin dies quickly for most seeds; find one and check the
    # bookkeeping that follows
    for rep in range(50):
        tree = grow_tree(critical_law, 12, CAPS, replicate_rng(9, rep))
        if tree.extinct_at is not None:
            break
    else:
        pytest.fail("no extinct replicate found in 50 draws")
    sizes = generation_sizes(tree)
    assert all(s == 0 for s in sizes[tree.extinct_at :])
    assert all(s > 0 for s in sizes[: tree.extinct_at])
    traj = martingale_trajectory(tree, 0.0, 0.0)
    assert all(math.isinf(v) and v < 0 for v in traj.log_w[tree.extinct_at :])


def test_trajectory_matches_direct_recomputation(pair_law):
    alpha = 1.0
    log_m = math.log(tilted_mass(pair_law, alpha))
    tree = grow_tree(pair_law, 6, CAPS, replicate_rng(21, 4))
    traj = martingale_trajectory(tree, alpha, log_m)
    assert traj.alpha == alpha and traj.log_m == log_m
    for n, idx in enumerate(tree.generation_index):
        if idx.size == 0:
            assert math.isinf(traj.log_w[n])
            continue
        direct = math.log(
            sum(math.exp(-alpha * float(s)) for s in tree.position[idx])
        )
        assert traj.log_w[n] == pytest.approx(direct - n * log_m, abs=1e-10)


def test_population_cap_carries_partial_tree(binary_law):
    caps = GrowthCaps(max_nodes=40)
    with pytest.raises(PopulationCapError) as info:
        grow_tree(binary_law, 10, caps, replicate_rng(0, 0))
    err = info.value
    assert err.cap == 40
    partial = err.partial
    # complete through the last finished generation: 1+2+4+8+16 = 31 nodes
    assert len(partial) == 31
    assert generation_sizes(partial) == [1, 2, 4, 8, 16]
    assert err.generation == 5


def test_depth_above_cap_is_refused(binary_law):
    with pytest.raises(DomainError):
        grow_tree(binary_law, 11, GrowthCaps(max_depth=10), replicate_rng(0, 0))


def test_heavy_law_grows(heavy_law):
    tree = grow_tree(heavy_law, 3, CAPS, replicate_rng(2, 0))
    sizes = generation_sizes(tree)
    assert sizes[0] == 1 and sizes[1] >= 2
    assert np.all(tree.position == 0.0)


def test_log_sum_exp_basics():
    assert log_sum_exp(np.array([])) == -math.inf
    assert log_sum_exp(np.array([0.0, 0.0])) == pytest.approx(math.log(2))
    assert log_sum_exp(np.array([-math.inf, 0.0])) == pytest.approx(0.0)
    # immune to a huge common offset
    big = np.array([1000.0, 1000.0 + math.log(3)])
    assert log_sum_exp(big) == pytest.approx(1000.0 + math.log(4))
    assert log_sum_exp(np.array([-math.inf, -math.inf])) == -math.inf


# ---------------------------------------------------------------------------
# batched growth against tree growth
# ---------------------------------------------------------------------------

NON_DYADIC = FiniteLaw((Atom(0.3, ()), Atom(0.3, (0.1,)), Atom(0.4, (0.2, 0.7))))

# (law, alpha, depth, max_nodes); depths reach frontiers past 10^4
# particles, caps of a few hundred nodes make replicates hit them
PARITY_CASES = {
    "coin_pair": (coin_pair_law(), 1.0, 10, 1_000_000),
    "quad_or_twin": (quad_or_twin_law(), 5.0, 9, 1_000_000),
    "binary": (binary_zero_law(), 0.7, 11, 1_000_000),
    "heavy_tail": (LogDivergentLaw(1.5, n_max=100), 0.0, 3, 1_000_000),
    "non_dyadic": (NON_DYADIC, 0.5, 14, 1_000_000),
    "cap_hit": (coin_pair_law(), 1.0, 10, 450),
}


def _tree_reference(law, alpha, depth, caps, seed, reps):
    """Per-replicate (Z_n, log W_n, capped generation or -1) from trees."""
    log_m = math.log(tilted_mass(law, alpha))
    out = []
    for r in range(reps):
        try:
            tree, capped_at = grow_tree(law, depth, caps, replicate_rng(seed, r)), -1
        except PopulationCapError as e:
            tree, capped_at = e.partial, e.generation
        traj = martingale_trajectory(tree, alpha, log_m)
        out.append((traj.population, traj.log_w, capped_at))
    return out


@pytest.mark.parametrize("case", sorted(PARITY_CASES))
@pytest.mark.parametrize("seed", [1, 29, 2**63 + 5])
def test_batch_matches_tree_growth_exactly(case, seed, monkeypatch):
    law, alpha, depth, max_nodes = PARITY_CASES[case]
    caps = GrowthCaps(max_nodes=max_nodes)
    log_m = math.log(tilted_mass(law, alpha))
    reps = 24

    def batch():
        return grow_batch(law, depth, caps, lambda r: replicate_rng(seed, r), reps, alpha, log_m)

    grown = batch()
    assert grown.generations == tuple(range(depth + 1))
    for r, (population, log_w, capped_at) in enumerate(
        _tree_reference(law, alpha, depth, caps, seed, reps)
    ):
        done = population.size
        assert grown.capped_at[r] == capped_at
        assert np.array_equal(grown.population[r, :done], population)
        assert np.array_equal(grown.log_w[r, :done], log_w)  # -inf after extinction too
        assert not grown.population[r, done:].any()
    if case == "cap_hit":
        assert (grown.capped_at > 0).any() and (grown.capped_at < 0).any()
    if case == "coin_pair":
        assert np.isneginf(grown.log_w[:, -1]).any()

    # batch composition: every replicate alone gives the same arrays
    monkeypatch.setattr(brw_mod, "_BATCH_PARTICLES", 1)
    alone = batch()
    assert np.array_equal(alone.population, grown.population)
    assert np.array_equal(alone.log_w, grown.log_w)
    assert np.array_equal(alone.capped_at, grown.capped_at)


@pytest.mark.parametrize("case", sorted(PARITY_CASES))
def test_batch_pieces_placed_one_at_a_time_match(case, monkeypatch):
    # a _BATCH_CHILDREN of 1 places each replicate's children as a piece of
    # its own, when growth reaches it
    law, alpha, depth, max_nodes = PARITY_CASES[case]
    caps = GrowthCaps(max_nodes=max_nodes)
    log_m = math.log(tilted_mass(law, alpha))

    def batch():
        return grow_batch(law, depth, caps, lambda r: replicate_rng(3, r), 24, alpha, log_m)

    whole = batch()
    monkeypatch.setattr(brw_mod, "_BATCH_CHILDREN", 1)
    pieces = batch()
    for name in ("population", "log_w", "capped_at", "max_position"):
        assert np.array_equal(getattr(pieces, name), getattr(whole, name)), name
    reps = _tree_reference(law, alpha, depth, caps, 3, 24)
    for r, (population, _, capped_at) in enumerate(reps):
        if capped_at < 0 and population[-1]:
            tree = grow_tree(law, depth, caps, replicate_rng(3, r))
            assert whole.max_position[r] == tree.position[tree.generation_index[depth]].max()
        else:
            assert whole.max_position[r] == -math.inf


def test_batch_records_chosen_generations_and_counts_only(pair_law):
    full = grow_batch(pair_law, 8, CAPS, lambda r: replicate_rng(4, r), 30, 1.0, 0.3)
    some = grow_batch(pair_law, 8, CAPS, lambda r: replicate_rng(4, r), 30, 1.0, 0.3,
                      generations=(0, 5, 8))
    assert np.array_equal(some.population, full.population[:, [0, 5, 8]])
    assert np.array_equal(some.log_w, full.log_w[:, [0, 5, 8]])
    counts = grow_batch(pair_law, 8, CAPS, lambda r: replicate_rng(4, r), 30)
    assert counts.log_w is None
    assert np.array_equal(counts.population, full.population)


def test_batch_stop_draws_the_next_uniform(pair_law, monkeypatch):
    monkeypatch.setattr(brw_mod, "_BATCH_REPLICATES", 7)  # several root batches
    grown = grow_batch(pair_law, 12, CAPS, lambda r: replicate_rng(8, r), 40, stop_above=5)
    assert grown.stops
    for r, (g, z, u) in grown.stops.items():
        rng = replicate_rng(8, r)
        tree = grow_tree(pair_law, g, CAPS, rng)
        assert generation_sizes(tree)[-1] == z > 5
        assert max(generation_sizes(tree)[:-1]) <= 5
        assert rng.random() == u
        assert not grown.population[r, g + 1 :].any()
    for r in set(range(40)) - set(grown.stops):
        tree = grow_tree(pair_law, 12, CAPS, replicate_rng(8, r))
        assert max(generation_sizes(tree)[:-1]) <= 5
        assert list(grown.population[r]) == generation_sizes(tree)
