"""Tree growth under the plain law, occupation-measure growth, and log-domain martingale
trajectories."""

import itertools
import math
from collections import Counter
from functools import partial

import numpy as np
import pytest

import brwlab.brw as brw_mod
import brwlab.mc as mc_mod
import occupation_reference
from brwlab import oracle
from brwlab import (
    Atom,
    DomainError,
    FiniteLaw,
    GrowthCaps,
    LogDivergentLaw,
    PopulationCapError,
    ResourceError,
    generation_sizes,
    grow_occupation,
    grow_tree,
    log_sum_exp,
    martingale_trajectory,
    replicate_rng,
    replicate_rngs,
    tilted_mass,
)
from conftest import binary_zero_law, coin_pair_law, make_random_laws, quad_or_twin_law

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


def test_atom_scan_matches_binary_search():
    # few-atom laws count cdf entries instead of searching them; ties at
    # the entries and the rounding excess past the last one included
    u = np.random.default_rng(0).random(2000)
    for law in make_random_laws(30, 5) + [quad_or_twin_law(), NON_DYADIC]:
        cdf = law._tables.cum_p
        probe = np.concatenate([u, cdf, np.nextafter(cdf, 0.0), [np.nextafter(1.0, 0.0)]])
        want = np.minimum(np.searchsorted(cdf, probe, side="right"), cdf.size - 1)
        assert np.array_equal(brw_mod._atoms(law, probe), want)


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


def _occupation_reference(grown, law, alpha, log_m, depth, caps, seed):
    """Each replicate of ``grown`` equals its occupation grown alone, one
    particle at a time, bit for bit."""
    for r in range(grown.population.shape[0]):
        population, log_w, capped_at, last, _ = occupation_reference.grow_one(
            law, depth, caps, replicate_rng(seed, r), alpha, log_m)
        done = len(population)
        assert grown.capped_at[r] == capped_at
        assert grown.population[r, :done].tolist() == population
        assert not grown.population[r, done:].any()
        assert grown.log_w[r, :done].tolist() == log_w  # -inf after extinction too
        top = last[-1][0] if capped_at < 0 and last else -math.inf
        assert grown.max_position[r] == top


@pytest.mark.parametrize("case", sorted(PARITY_CASES))
@pytest.mark.parametrize("seed", [1, 29, 2**63 + 5])
def test_batch_matches_tree_growth_exactly(case, seed, monkeypatch):
    law, alpha, depth, max_nodes = PARITY_CASES[case]
    caps = GrowthCaps(max_nodes=max_nodes)
    log_m = math.log(tilted_mass(law, alpha))
    reps = 24

    def batch():
        return grow_occupation(law, depth, caps, partial(replicate_rngs, seed), reps, alpha,
                               log_m)

    grown = batch()
    assert grown.generations == tuple(range(depth + 1))
    _occupation_reference(grown, law, alpha, log_m, depth, caps, seed)
    if case == "cap_hit":
        assert (grown.capped_at > 0).any() and (grown.capped_at < 0).any()
    if case == "coin_pair":
        assert np.isneginf(grown.log_w[:, -1]).any()

    # drawing uniforms only, a replicate draws the block its tree draws:
    # the same Z_n and cap generation, and where all particles share one
    # position (binary, heavy_tail) the same log W_n
    with monkeypatch.context() as patch:
        patch.setattr(brw_mod, "_MULTINOMIAL_ABOVE", 2**62)
        uniform = batch()
    for r, (population, log_w, capped_at) in enumerate(
        _tree_reference(law, alpha, depth, caps, seed, reps)
    ):
        done = population.size
        assert uniform.capped_at[r] == capped_at
        assert np.array_equal(uniform.population[r, :done], population)
        assert not uniform.population[r, done:].any()
        if case in ("binary", "heavy_tail"):
            assert np.array_equal(uniform.log_w[r, :done], log_w)

    # batch composition: every replicate alone gives the same arrays
    monkeypatch.setattr(brw_mod, "_BATCH_PARTICLES", 1)
    alone = batch()
    for name in ("population", "log_w", "capped_at", "max_position"):
        assert np.array_equal(getattr(alone, name), getattr(grown, name)), name


@pytest.mark.parametrize("case", sorted(PARITY_CASES))
def test_batch_pieces_placed_one_at_a_time_match(case, monkeypatch):
    # with the multinomial budgets at 0, every replicate-generation of a
    # finite law draws its atom counts as one multinomial piece (heavy
    # tails keep drawing uniforms); each replicate still equals its
    # one-particle-at-a-time reference and does not depend on its batch
    law, alpha, depth, max_nodes = PARITY_CASES[case]
    caps = GrowthCaps(max_nodes=max_nodes)
    log_m = math.log(tilted_mass(law, alpha))
    monkeypatch.setattr(brw_mod, "_MULTINOMIAL_ABOVE", 0)
    monkeypatch.setattr(brw_mod, "_MULTINOMIAL_CELL", 0)

    def batch():
        return grow_occupation(law, depth, caps, partial(replicate_rngs, 3), 24, alpha, log_m)

    pieces = batch()
    _occupation_reference(pieces, law, alpha, log_m, depth, caps, 3)
    monkeypatch.setattr(brw_mod, "_BATCH_PARTICLES", 1)
    alone = batch()
    for name in ("population", "log_w", "capped_at", "max_position"):
        assert np.array_equal(getattr(alone, name), getattr(pieces, name)), name


def test_batch_records_chosen_generations_and_counts_only(pair_law):
    full = grow_occupation(pair_law, 8, CAPS, partial(replicate_rngs, 4), 30, 1.0, 0.3)
    some = grow_occupation(pair_law, 8, CAPS, partial(replicate_rngs, 4), 30, 1.0, 0.3,
                           generations=(0, 5, 8))
    assert np.array_equal(some.population, full.population[:, [0, 5, 8]])
    assert np.array_equal(some.log_w, full.log_w[:, [0, 5, 8]])
    counts = grow_occupation(pair_law, 8, CAPS, partial(replicate_rngs, 4), 30)
    assert counts.log_w is None
    assert np.array_equal(counts.population, full.population)


def test_batch_stop_draws_the_next_uniform(pair_law, monkeypatch):
    monkeypatch.setattr(brw_mod, "_BATCH_REPLICATES", 7)  # several root batches
    grown = grow_occupation(pair_law, 12, CAPS, partial(replicate_rngs, 8), 40, stop_above=5)
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


def test_stop_threshold_stays_below_the_multinomial_budget():
    # extinction runs stop replicates past _ANALYTIC_SWITCH particles; below
    # the budget they draw the uniforms grow_tree draws, so their values
    # stay those of the tree engine
    assert brw_mod._MULTINOMIAL_ABOVE >= mc_mod._ANALYTIC_SWITCH


# ---------------------------------------------------------------------------
# occupation growth: its law, and counts past 2^62
# ---------------------------------------------------------------------------


def _class_occupations(law, alpha, depth):
    """Generation-``depth`` occupation of every outcome class of the exact
    enumeration, as (Z, sorted (rounded position, count) pairs) with its
    probability; consistent with the class arrays' sizes and tilted sums."""
    levels = oracle._Enumeration(law, alpha, depth).levels
    sets = [[Counter({0.0: 1})]]
    for k in range(1, depth + 1):
        below, level = sets[-1], []
        for atom in law.atoms:
            # the enumeration's class order: atoms in turn, child classes
            # as digits, the first child's the most significant
            for kids in itertools.product(range(len(below)), repeat=atom.count):
                here = Counter()
                for x, kid in zip(atom.displacements, kids):
                    for pos, m in below[kid].items():
                        here[round(x + pos, 9)] += m
                level.append(here)
        lv = levels[k]
        assert len(level) == lv.size
        assert [sum(c.values()) for c in level] == lv.z.tolist()
        log_e = [math.log(math.fsum(m * math.exp(-alpha * x) for x, m in c.items()))
                 if c else -math.inf for c in level]
        assert np.allclose(log_e, lv.log_e, rtol=0, atol=1e-9)
        sets.append(level)
    want = Counter()
    for c, p in zip(sets[depth], levels[depth].p.tolist()):
        want[(sum(c.values()), tuple(sorted(c.items())))] += p
    return want


@pytest.mark.parametrize("path", ["uniform", "multinomial"])
@pytest.mark.parametrize("name", ["coin_pair", "non_dyadic"])
def test_occupation_matches_enumerated_joint_law(name, path, monkeypatch):
    """Empirical frequencies of (Z_n, occupied positions with their
    multiplicities) sit inside 4-sigma binomial bands around the exact
    enumeration's class probabilities, on either draw path."""
    law, depth = {"coin_pair": (coin_pair_law(), 3), "non_dyadic": (NON_DYADIC, 3)}[name]
    want = _class_occupations(law, 1.0, depth)
    budget = 2**62 if path == "uniform" else 0
    monkeypatch.setattr(brw_mod, "_MULTINOMIAL_ABOVE", budget)
    monkeypatch.setattr(brw_mod, "_MULTINOMIAL_CELL", 0)
    n = 20_000
    seen = Counter()

    def record(b, g):
        if g != depth:
            return
        ends = np.cumsum(b.rows)
        for r, lo, hi in zip(b.ids.tolist(), (ends - b.rows).tolist(), ends.tolist()):
            here = Counter()
            for x, m in zip(b.pos[lo:hi].tolist(), b.count[lo:hi].tolist()):
                here[round(x, 9)] += m
            seen[r] = (sum(here.values()), tuple(sorted(here.items())))

    brw_mod._grow_occupied(law, depth, CAPS, partial(replicate_rngs, 4321), n, True, None,
                           record)
    counts = Counter(seen.get(r, (0, ())) for r in range(n))
    assert set(counts) <= set(want)
    for key, p in want.items():
        band = 4 * math.sqrt(p * (1 - p) / n)
        assert abs(counts[key] / n - p) < band, (key, counts[key] / n, p)


def test_counts_past_2_62_are_refused_not_wrapped():
    law, caps = quad_or_twin_law(), GrowthCaps(max_nodes=2**63 - 1)
    log_m = math.log(tilted_mass(law, 5.0))
    with pytest.raises(ResourceError, match="2\\^62"):
        grow_occupation(law, 45, caps, partial(replicate_rngs, 2), 16, 5.0, log_m)
    # a cap at 2^62 is reached first: every replicate is capped, none refused
    capped = grow_occupation(law, 45, GrowthCaps(max_nodes=2**62), partial(replicate_rngs, 2),
                             16, 5.0, log_m)
    assert (capped.capped_at > 30).all()
    assert (capped.population >= 0).all()
    last = capped.population[np.arange(16), capped.capped_at - 1]
    assert (last > 2**55).all()
    # broods of 64 take Z_n from 2^60 to 2^66, past int64 itself
    wide = FiniteLaw((Atom(1.0, (0.0,) * 64),))
    with pytest.raises(ResourceError):
        grow_occupation(wide, 12, caps, partial(replicate_rngs, 2), 2, 1.0, math.log(64))
    capped = grow_occupation(wide, 12, GrowthCaps(max_nodes=2**62), partial(replicate_rngs, 2),
                             2, 1.0, math.log(64))
    assert capped.capped_at.tolist() == [11, 11]
    assert capped.population[:, 10].tolist() == [2**60, 2**60]
