"""Size-biased tree growth with a distinguished ray, spined batches, and the spine walk."""

import math
from collections import Counter
from functools import partial

import numpy as np
import pytest

import brwlab.brw as brw_mod
import brwlab.spine as spine_mod
import occupation_reference
from brwlab import (
    Atom,
    FiniteLaw,
    GrowthCaps,
    LogDivergentLaw,
    PopulationCapError,
    grow_spined_batch,
    grow_spined_tree,
    replicate_rng,
    spine_step_law,
    spine_walk_ends,
    tilted_mass,
)
from brwlab.spine import _spine_brood, _spine_tables
from conftest import binary_zero_law, coin_pair_law, generation_sizes, quad_or_twin_law
from occupation_reference import CounterStream, sample_spine_walk
from oracle_reference import enumerate_spined_trees, generation_positions, ray_positions

CAPS = GrowthCaps()


def test_grow_spined_tree_is_deterministic(pair_law):
    a = grow_spined_tree(pair_law, 1.0, 6, CAPS, replicate_rng(4, 1))
    b = grow_spined_tree(pair_law, 1.0, 6, CAPS, replicate_rng(4, 1))
    assert np.array_equal(a.ray, b.ray)
    assert np.array_equal(a.tree.position, b.tree.position)
    assert np.array_equal(a.spine_log_weight, b.spine_log_weight)


def test_ray_is_a_line_of_descent(pair_law):
    spined = grow_spined_tree(pair_law, 1.0, 8, CAPS, replicate_rng(17, 0))
    tree, ray = spined.tree, spined.ray
    assert len(ray) == 9
    assert ray[0] == 0
    for k in range(1, 9):
        assert tree.parent[ray[k]] == ray[k - 1]
        assert tree.generation[ray[k]] == k


def test_spine_never_dies(pair_law):
    # the plain pair law dies with probability 1/4; the spined tree never does
    for rep in range(60):
        spined = grow_spined_tree(pair_law, 1.0, 10, CAPS, replicate_rng(8, rep))
        assert spined.tree.extinct_at is None
        assert all(s >= 1 for s in generation_sizes(spined.tree))


def test_spine_log_weight_formula(pair_law):
    alpha = 1.0
    log_m = math.log(tilted_mass(pair_law, alpha))
    spined = grow_spined_tree(pair_law, alpha, 7, CAPS, replicate_rng(30, 2))
    pos = spined.tree.position[spined.ray]
    assert spined.spine_log_weight.shape == (8,)
    for k in range(8):
        want = -alpha * float(pos[k]) - k * log_m
        assert spined.spine_log_weight[k] == pytest.approx(want, abs=1e-12)
    assert spined.spine_log_weight[0] == 0.0


def test_binary_spined_tree_is_full(binary_law):
    spined = grow_spined_tree(binary_law, 1.0, 6, CAPS, replicate_rng(5, 5))
    assert generation_sizes(spined.tree) == [2**n for n in range(7)]
    assert np.all(spined.tree.position == 0.0)
    # weight reduces to -k log 2 when alpha * S vanishes
    for k in range(7):
        assert spined.spine_log_weight[k] == pytest.approx(-k * math.log(2))


def test_spine_child_frequencies_match_step_law(pair_law):
    # on the pair law at alpha = 1 the spine parent always uses the two-child
    # atom; its child is the 0-displacement slot with probability
    # 1/(1 + e^{-1})
    steps = dict(spine_step_law(pair_law, 1.0))
    n = 4000
    zeros = 0
    for rep in range(n):
        spined = grow_spined_tree(pair_law, 1.0, 1, CAPS, replicate_rng(99, rep))
        step = float(spined.tree.position[spined.ray[1]])
        zeros += step == 0.0
    p0 = steps[0.0]
    assert abs(zeros / n - p0) < 4 * math.sqrt(p0 * (1 - p0) / n)


def test_spine_brood_is_size_biased(heavy_law):
    # size-biasing tilts brood sizes upward: the smallest brood (2) must be
    # visibly rarer on the spine than under the plain law.  The biased count
    # law has infinite mean, so roughly 1% of spine broods land on the lumped
    # truncation atom (10^6 children): give the arena room for one of those.
    from brwlab import grow_tree

    roomy = GrowthCaps(max_nodes=1_100_000)
    n = 400
    plain = sum(
        generation_sizes(grow_tree(heavy_law, 1, roomy, replicate_rng(1, r)))[1] == 2
        for r in range(n)
    )
    spined = sum(
        generation_sizes(grow_spined_tree(heavy_law, 0.0, 1, roomy, replicate_rng(1, r)).tree)[1]
        == 2
        for r in range(n)
    )
    assert spined < plain - 4 * math.sqrt(n * 0.25)


def test_population_cap_interrupts_spined_growth(quad_law):
    with pytest.raises(PopulationCapError) as info:
        grow_spined_tree(quad_law, 0.0, 30, GrowthCaps(max_nodes=200), replicate_rng(0, 0))
    assert info.value.cap == 200
    assert info.value.partial is None


def test_sample_spine_walk_matches_step_law(pair_law):
    alpha = 1.0
    rng = replicate_rng(41, 0)
    walk = sample_spine_walk(pair_law, alpha, 5000, rng)
    assert walk.shape == (5001,)
    assert walk[0] == 0.0
    increments = np.diff(walk)
    vals = sorted(set(float(v) for v in np.round(increments, 12)))
    assert vals == [0.0, 1.0]
    drift = sum(x * p for x, p in spine_step_law(pair_law, alpha))
    assert walk[-1] / 5000 == pytest.approx(drift, abs=4 * 0.45 / math.sqrt(5000))


def test_sample_spine_walk_is_deterministic(pair_law):
    a = sample_spine_walk(pair_law, 1.0, 50, replicate_rng(3, 3))
    b = sample_spine_walk(pair_law, 1.0, 50, replicate_rng(3, 3))
    assert np.array_equal(a, b)


def test_walk_agrees_with_spined_tree_marginal(pair_law):
    # the ray of a spined tree and the standalone walk have the same law;
    # compare mean final positions at matching sample sizes
    alpha, depth, n = 1.0, 6, 800
    trees = [grow_spined_tree(pair_law, alpha, depth, CAPS, replicate_rng(7, r)) for r in range(n)]
    tree_final = np.array([float(t.tree.position[t.ray[-1]]) for t in trees])
    walk_final = np.array(
        [float(sample_spine_walk(pair_law, alpha, depth, replicate_rng(1009, r))[-1]) for r in range(n)]
    )
    pooled = math.sqrt(tree_final.var(ddof=1) / n + walk_final.var(ddof=1) / n)
    assert abs(tree_final.mean() - walk_final.mean()) < 4 * pooled


# ---------------------------------------------------------------------------
# spined batches against spined trees
# ---------------------------------------------------------------------------

NON_DYADIC = FiniteLaw((Atom(0.3, ()), Atom(0.3, (0.1,)), Atom(0.4, (0.2, 0.7))))

# no uniform reaches the last atom, whose plain cdf entry rounds to 1, but
# the tilt at alpha = 20 gives it most of the size-biased mass
EARLY_ONE = FiniteLaw((Atom(0.75, ()), Atom(0.25, (0.0, 0.0)), Atom(1e-17, (-2.0,))))

# (law, alpha, depth, max_nodes); the cap of a few hundred nodes makes
# some spined replicates hit it
SPINED_CASES = {
    "early_one": (EARLY_ONE, 20.0, 10, 1_000_000),
    "coin_pair": (coin_pair_law(), 1.0, 10, 1_000_000),
    "quad_or_twin": (quad_or_twin_law(), 5.0, 8, 1_000_000),
    "binary": (binary_zero_law(), 0.7, 11, 1_000_000),
    "heavy_tail": (LogDivergentLaw(1.5, n_max=100), 0.0, 3, 1_000_000),
    "non_dyadic": (NON_DYADIC, 0.5, 14, 1_000_000),
    "cap_hit": (coin_pair_law(), 1.0, 10, 450),
}


def _spined_reference(law, alpha, depth, caps, seed, reps):
    """Per replicate (ray positions, spine log weight, Z_n, log W_n, last
    generation's largest position, capped generation or -1), each replicate
    grown alone, one particle at a time, by the occupation reference."""
    tables = _spine_tables(law, alpha)
    hook = partial(_spine_brood, law, tables)
    out = []
    for r in range(reps):
        population, log_w, capped_at, last, ray = occupation_reference.grow_one(
            law, depth, caps, CounterStream(seed, r), alpha, tables.log_m, spine_brood=hook)
        if capped_at >= 0:
            out.append((None, None, None, None, None, capped_at))
            continue
        weight = [-alpha * x - k * tables.log_m if k else 0.0 for k, x in enumerate(ray)]
        out.append((ray, weight, population, log_w, last[-1][0], -1))
    return out


# each draw path forced for every replicate-generation: one uniform per
# particle, or one multinomial over the atoms (heavy tails always draw
# uniforms)
PATHS = {"uniform": (2**62, 4), "multinomial": (0, 0)}


@pytest.mark.parametrize("case", sorted(SPINED_CASES))
@pytest.mark.parametrize("seed", [1, 29, 2**63 + 5])
def test_spined_batch_matches_spined_trees_exactly(case, seed, monkeypatch):
    """Each spined replicate equals the spined tree that the occupation
    reference grows alone on its stream, bit for bit, on either draw
    path, whatever the other replicates of its batch."""
    law, alpha, depth, max_nodes = SPINED_CASES[case]
    caps = GrowthCaps(max_nodes=max_nodes)
    reps = 24

    def batch():
        return grow_spined_batch(law, alpha, depth, caps, seed, reps)

    for above, cell in PATHS.values():
        monkeypatch.setattr(brw_mod, "_MULTINOMIAL_ABOVE", above)
        monkeypatch.setattr(brw_mod, "_MULTINOMIAL_CELL", cell)
        grown, log_weight = batch()
        assert grown.generations == tuple(range(depth + 1))
        for r, (ray, weight, population, log_w, top, capped_at) in enumerate(
            _spined_reference(law, alpha, depth, caps, seed, reps)
        ):
            assert grown.capped_at[r] == capped_at
            if capped_at >= 0:
                continue
            assert grown.ray_position[r].tolist() == ray
            assert log_weight[r].tolist() == weight
            assert grown.population[r].tolist() == population
            assert grown.log_w[r].tolist() == log_w
            assert grown.max_position[r] == top
        if case == "cap_hit":
            assert (grown.capped_at > 0).any() and (grown.capped_at < 0).any()

        # batch composition: every replicate alone gives the same arrays
        with monkeypatch.context() as patch:
            patch.setattr(brw_mod, "_BATCH_PARTICLES", 1)
            alone, alone_weight = batch()
        assert np.array_equal(alone.capped_at, grown.capped_at)
        assert np.array_equal(alone.population, grown.population)
        assert np.array_equal(alone.log_w, grown.log_w)
        assert np.array_equal(alone.ray_position, grown.ray_position, equal_nan=True)
        assert np.array_equal(alone_weight, log_weight, equal_nan=True)
        assert np.array_equal(alone.max_position, grown.max_position)


def _spined_class_law(law, alpha, depth):
    """Size-biased probability of each (generation-``depth`` occupation as
    sorted (rounded position, count) pairs, rounded ray end position),
    summed over the enumerated (outcome, ray) pairs."""
    want = Counter()
    for t, ray, p in enumerate_spined_trees(law, alpha, depth):
        here = Counter(round(x, 9) for x in generation_positions(law, t, depth))
        want[(tuple(sorted(here.items())), round(ray_positions(law, t, ray)[-1], 9))] += p
    return want


@pytest.mark.parametrize("path", sorted(PATHS))
@pytest.mark.parametrize("name", ["coin_pair", "non_dyadic", "quad_or_twin"])
def test_spined_occupation_matches_enumerated_joint_law(name, path, monkeypatch):
    """Empirical frequencies of (occupied positions with their
    multiplicities, ray end position) of spined replicates sit inside
    4-sigma binomial bands around the size-biased probabilities of the
    exact enumeration, on either draw path: where the spine's brood joins
    the occupation, and which child carries the ray on, follow the law."""
    law, depth = {"coin_pair": (coin_pair_law(), 3), "non_dyadic": (NON_DYADIC, 3),
                  "quad_or_twin": (quad_or_twin_law(), 2)}[name]
    want = _spined_class_law(law, 1.0, depth)
    above, cell = PATHS[path]
    monkeypatch.setattr(brw_mod, "_MULTINOMIAL_ABOVE", above)
    monkeypatch.setattr(brw_mod, "_MULTINOMIAL_CELL", cell)
    n = 20_000
    seen = []

    def record(b, g):
        if g != depth:
            return
        ends = np.cumsum(b.rows)
        for lo, hi, spine in zip((ends - b.rows).tolist(), ends.tolist(), b.spine.tolist()):
            here = Counter()
            for x, m in zip(b.pos[lo:hi].tolist(), b.count[lo:hi].tolist()):
                here[round(x, 9)] += m
            seen.append((tuple(sorted(here.items())), round(spine, 9)))

    hook = partial(_spine_brood, law, _spine_tables(law, 1.0))
    brw_mod._grow_occupied(law, depth, CAPS, 4321, n, True, None, record, hook)
    assert len(seen) == n  # spined replicates never die out
    counts = Counter(seen)
    assert set(counts) <= set(want)
    for key, p in want.items():
        band = 4 * math.sqrt(p * (1 - p) / n)
        assert abs(counts[key] / n - p) < band, (key, counts[key] / n, p)


def test_spined_batch_records_chosen_generations(pair_law):
    full, full_weight = grow_spined_batch(pair_law, 1.0, 8, CAPS, 4, 30)
    some, some_weight = grow_spined_batch(pair_law, 1.0, 8, CAPS, 4, 30, (0, 5, 8))
    for name in ("population", "log_w", "ray_position"):
        assert np.array_equal(getattr(some, name), getattr(full, name)[:, [0, 5, 8]])
    assert np.array_equal(some_weight, full_weight[:, [0, 5, 8]])
    assert np.array_equal(some.max_position, full.max_position)
    assert (some_weight[:, 0] == 0.0).all()


def _reference_spine_brood(law, alpha, u_atom, u_child):
    """One size-biased brood per uniform pair, straight from the atoms:
    the atom by its biased mass ``p * theta / m``, then the child slot by
    its weight ``exp(-alpha x)`` within that atom."""
    m = tilted_mass(law, alpha)
    atoms = [a for a, atom in enumerate(law.atoms) if atom.count]
    biased = np.cumsum([law.atoms[a].probability * np.exp(-alpha * np.asarray(
        law.atoms[a].displacements)).sum() / m for a in atoms])
    biased[-1] = 1.0
    out = []
    for ua, uc in zip(u_atom.tolist(), u_child.tolist()):
        atom = atoms[min(int(np.searchsorted(biased, ua, side="right")), len(atoms) - 1)]
        w = np.exp(-alpha * np.asarray(law.atoms[atom].displacements))
        cum = np.cumsum(w) / float(w.sum())
        out.append((atom, min(int(np.searchsorted(cum, uc, side="right")), len(cum) - 1)))
    return out


@pytest.mark.parametrize("law, alpha", [
    (quad_or_twin_law(), 1.0), (quad_or_twin_law(), 5.0), (NON_DYADIC, 0.5),
    (FiniteLaw((Atom(0.2, (0.0, 0.5, 1.0)), Atom(0.5, ()), Atom(0.3, (2.0, -1.0)))), 0.8),
])
def test_spine_brood_matches_its_definition(law, alpha):
    u = replicate_rng(12, 0).random((2, 4000))
    atom, slot = _spine_brood(law, _spine_tables(law, alpha), u[0], u[1])
    assert list(zip(atom.tolist(), slot.tolist())) == _reference_spine_brood(law, alpha, *u)


def _reference_walk(law, alpha, depth, rng):
    """The spine walk drawn as two blocks of ``depth`` uniforms, one step
    at a time from the size-biased brood definition."""
    u_atom, u_child = rng.random(depth), rng.random(depth)
    steps = [law.atoms[a].displacements[j]
             for a, j in _reference_spine_brood(law, alpha, u_atom, u_child)]
    return np.concatenate([[0.0], np.cumsum(steps)])


@pytest.mark.parametrize("law, alpha", [
    (coin_pair_law(), 1.0), (quad_or_twin_law(), 5.0), (NON_DYADIC, 0.5),
])
def test_spine_walks_match_the_two_block_definition(law, alpha, monkeypatch):
    depth, reps = 37, 30
    for r in range(reps):
        walk = sample_spine_walk(law, alpha, depth, replicate_rng(5, r))
        assert np.array_equal(walk, _reference_walk(law, alpha, depth, replicate_rng(5, r)))
    ends = spine_walk_ends(law, alpha, depth, 5, reps)
    monkeypatch.setattr(spine_mod, "_WALK_UNIFORMS", 100)  # several blocks of walks
    blocks = spine_walk_ends(law, alpha, depth, 5, reps)
    for r in range(reps):
        assert ends[r] == blocks[r] == sample_spine_walk(law, alpha, depth, CounterStream(5, r))[-1]


def test_heavy_walks_stay_at_zero(heavy_law):
    ends = spine_walk_ends(heavy_law, 0.0, 9, 2, 5)
    assert not ends.any()
    assert not sample_spine_walk(heavy_law, 0.0, 9, replicate_rng(2, 0)).any()
