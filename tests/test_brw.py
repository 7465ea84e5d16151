"""Tree growth under the plain law, occupation-measure growth, and log-domain martingale
trajectories."""

import itertools
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import brwlab.brw as brw_mod
import brwlab.mc as mc_mod
import occupation_reference
from brwlab import oracle
from brwlab.cli import _dispatch
from brwlab import (
    Atom,
    DomainError,
    FiniteLaw,
    GrowthCaps,
    LogDivergentLaw,
    PopulationCapError,
    ResourceError,
    grow_occupation,
    grow_tree,
    martingale_trajectory,
    replicate_rng,
    tilted_mass,
    validate_law,
)
from brwlab.rng import block_keys, counter_words, replicate_keys, word_thresholds
from conftest import (
    binary_zero_law,
    coin_pair_law,
    generation_sizes,
    make_random_laws,
    quad_or_twin_law,
)
from occupation_reference import CounterStream

CAPS = GrowthCaps()
REPO = Path(__file__).resolve().parents[1]


def test_grow_tree_is_deterministic(pair_law):
    a = grow_tree(pair_law, 8, CAPS, replicate_rng(3, 0))
    b = grow_tree(pair_law, 8, CAPS, replicate_rng(3, 0))
    assert np.array_equal(a.parent, b.parent)
    assert np.array_equal(a.position, b.position)
    assert a.extinct_at == b.extinct_at


def test_node_invariants(pair_law):
    tree = grow_tree(pair_law, 7, CAPS, replicate_rng(11, 2))
    assert tree.parent[0] == -1 and tree.position[0] == 0.0 and tree.generation[0] == 0
    for i in range(1, len(tree)):
        parent = tree.parent[i]
        assert tree.generation[i] == tree.generation[parent] + 1
        assert tree.position[i] == pytest.approx(
            tree.position[parent] + tree.displacement[i], abs=1e-12
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
    with pytest.raises(DomainError, match="exceeds the depth limit"):
        grow_tree(binary_law, brw_mod._MAX_DEPTH + 1, CAPS, replicate_rng(0, 0))


def test_heavy_law_grows(heavy_law):
    tree = grow_tree(heavy_law, 3, CAPS, replicate_rng(2, 0))
    sizes = generation_sizes(tree)
    assert sizes[0] == 1 and sizes[1] >= 2
    assert np.all(tree.position == 0.0)


def test_log_sum_exp_basics():
    def one_run(values):
        return float(brw_mod._segment_log_sum_exp(np.array(values), np.array([len(values)]))[0])

    assert one_run([0.0, 0.0]) == pytest.approx(math.log(2))
    assert one_run([-math.inf, 0.0]) == pytest.approx(0.0)
    # immune to a huge common offset
    assert one_run([1000.0, 1000.0 + math.log(3)]) == pytest.approx(1000.0 + math.log(4))
    assert one_run([-math.inf, -math.inf]) == -math.inf
    # runs are reduced each on its own, an all -inf run among them
    values = np.array([0.0, 0.0, -math.inf, -math.inf, -math.inf, 1000.0, -math.inf, 5.0])
    got = brw_mod._segment_log_sum_exp(values, np.array([2, 3, 2, 1]))
    assert got[0] == pytest.approx(math.log(2))
    assert got[1] == -math.inf
    assert got[2] == 1000.0
    assert got[3] == 5.0


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


# a law past the few-atom cutover, and one whose cdf reaches 1 two atoms
# early, so that no plain word reaches its last two atoms
WIDE = FiniteLaw(tuple(Atom(1 / 40, (0.1 * (a % 5),) * (a % 3)) for a in range(40)))
EARLY_ONE = FiniteLaw((Atom(0.75, (0.0,)), Atom(0.25, (1.0, 1.0)), Atom(1e-17, (2.0,)),
                       Atom(1e-17, ())))


WORD_LAWS = {"coin_pair": coin_pair_law(), "quad_or_twin": quad_or_twin_law(),
             "non_dyadic": NON_DYADIC, "wide": WIDE, "early_one": EARLY_ONE,
             **{f"random{i}": law for i, law in enumerate(make_random_laws(5, 27))}}


@pytest.mark.parametrize("name", sorted(WORD_LAWS))
def test_word_counts_match_the_float_route(name):
    # every row's atom counts equal those of the float uniforms of the same
    # words, on counter words, on the words at every threshold and one
    # below it, and with spine particles given their own atoms
    law = validate_law(WORD_LAWS[name])
    atoms = len(law.atoms)
    thresholds = word_thresholds(law._tables.cum_p[:-1])
    assert (atoms > brw_mod._SCAN_ATOMS) == (name == "wide")
    assert (thresholds.size < atoms - 1) == (name == "early_one")
    edges = np.concatenate([thresholds, thresholds - np.uint64(1),
                            np.array([0, 2**64 - 1], dtype=np.uint64)])
    words = counter_words(block_keys(replicate_keys(6, np.arange(40)), 2), np.full(40, 100))
    rng = np.random.default_rng(atoms)
    for w in (edges, words, np.concatenate([words, edges])):
        w = rng.permutation(w)
        cut = np.sort(rng.choice(np.arange(1, w.size), size=w.size // 3, replace=False))
        count = np.diff(cut, prepend=0, append=w.size)
        start = np.cumsum(count) - count
        got = brw_mod._row_atoms(thresholds, atoms, w, start, count)
        assert np.array_equal(got, occupation_reference.float_row_atoms(law, w, count))
        # a spine particle heads some rows, with any atom of the law
        at = start[rng.random(count.size) < 0.5]
        biased = rng.integers(0, atoms, at.size)
        got = brw_mod._row_atoms(thresholds, atoms, w, start, count, at, biased)
        assert np.array_equal(got, occupation_reference.float_row_atoms(law, w, count, at, biased))
        assert np.array_equal(got.sum(axis=1), count)


# displacement sets of the merge test: a quarter grid, non-dyadic steps,
# negative steps, and steps where 1e-16 + 1 == 1, so that two rows of one
# replicate round onto one position
MERGE_DISPS = {
    "quarter": (-0.5, 0.25, 0.75, 2.0),
    "non_dyadic": (0.1, 0.2, 0.7),
    "negative": (-1.0, -0.3, 0.0, 0.6),
    "collision": (0.0, 1e-16, 1.0),
}


@st.composite
def frontiers(draw):
    """A batch's frontier, ``(rows, pos, kids, disp, over)``: replicates
    at positions reached in up to three steps, each with its sorted
    distinct positions and random children per (row, displacement), and
    some replicates marked capped."""
    disp = np.array(MERGE_DISPS[draw(st.sampled_from(sorted(MERGE_DISPS)))])
    level, pool = {0.0}, {0.0}
    for _ in range(3):
        level = {x + d for x in level for d in disp.tolist()}
        pool |= level
    pool = sorted(pool)
    reps = draw(st.integers(1, 5))
    pos = [sorted(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8, unique=True)))
           for _ in range(reps)]
    rows = np.array([len(p) for p in pos])
    width, total = disp.size, int(rows.sum())
    kids = np.array(draw(st.lists(st.lists(st.integers(0, 3), min_size=width, max_size=width),
                                  min_size=total, max_size=total)))
    over = np.array(draw(st.lists(st.booleans(), min_size=reps, max_size=reps)))
    return rows, np.concatenate(pos), kids.reshape(-1, width), disp, over


@settings(max_examples=300, deadline=None)
@given(frontiers())
@example((np.array([2]), np.array([0.0, 1e-16]), np.array([[1, 0, 1], [0, 0, 1]]),
          np.array([0.0, 1e-16, 1.0]), np.array([False])))
def test_grid_merge_matches_the_sort_merge(frontier):
    # the next frontier read off the position grid, rows, positions,
    # counts and totals, equals the one the engine once found by sorting,
    # where two rows round onto one position too
    rows, pos, kids, disp, over = frontier
    table = brw_mod._sorted_distinct(pos)
    columns = brw_mod._sorted_distinct(table[:, None] + disp)
    grid, totals = brw_mod._grid(rows, table, np.searchsorted(table, pos), kids, disp, columns)
    live = (totals > 0) & ~over
    n_rows, count, used, index = brw_mod._occupied(grid, columns, live)
    want = occupation_reference.sort_merge(rows, pos, kids, disp, over)
    assert totals.tolist() == want[0].tolist()
    assert n_rows.tolist() == want[1].tolist()
    assert used[index].tobytes() == want[2].tobytes()
    assert count.tolist() == want[3].tolist()
    assert used.tobytes() == np.unique(want[2]).tobytes()


# six displacements no two of which are rationally related, so that
# positions rarely meet and a batch's position table outgrows the budget
NON_LATTICE = FiniteLaw((Atom(0.3, ()), Atom(0.3, (0.0, math.sqrt(2))),
                         Atom(0.4, (math.sqrt(3) - 1, math.pi / 4, math.e / 3,
                                    math.sqrt(5) / 7))))

# (law, alpha, depth, max_nodes); depths reach frontiers past 10^4
# particles, caps of a few hundred nodes make replicates hit them
PARITY_CASES = {
    "coin_pair": (coin_pair_law(), 1.0, 10, 1_000_000),
    "quad_or_twin": (quad_or_twin_law(), 5.0, 9, 1_000_000),
    "binary": (binary_zero_law(), 0.7, 11, 1_000_000),
    "heavy_tail": (LogDivergentLaw(1.5, n_max=100), 0.0, 3, 1_000_000),
    "non_dyadic": (NON_DYADIC, 0.5, 14, 1_000_000),
    "non_lattice": (NON_LATTICE, 0.5, 8, 1_000_000),
    "cap_hit": (coin_pair_law(), 1.0, 10, 450),
}


def _tree_reference(law, alpha, depth, caps, seed, reps):
    """Per-replicate (Z_n, log W_n, capped generation or -1) from trees
    grown on the replicates' counter streams."""
    log_m = math.log(tilted_mass(law, alpha))
    out = []
    for r in range(reps):
        try:
            tree, capped_at = grow_tree(law, depth, caps, CounterStream(seed, r)), -1
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
            law, depth, caps, CounterStream(seed, r), alpha, log_m)
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
        return grow_occupation(law, depth, caps, seed, reps, alpha)

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
        return grow_occupation(law, depth, caps, 3, 24, alpha)

    pieces = batch()
    _occupation_reference(pieces, law, alpha, log_m, depth, caps, 3)
    monkeypatch.setattr(brw_mod, "_BATCH_PARTICLES", 1)
    alone = batch()
    for name in ("population", "log_w", "capped_at", "max_position"):
        assert np.array_equal(getattr(alone, name), getattr(pieces, name)), name


def test_batch_records_chosen_generations_and_counts_only(pair_law):
    full = grow_occupation(pair_law, 8, CAPS, 4, 30, 1.0)
    some = grow_occupation(pair_law, 8, CAPS, 4, 30, 1.0, generations=(0, 5, 8))
    assert np.array_equal(some.population, full.population[:, [0, 5, 8]])
    assert np.array_equal(some.log_w, full.log_w[:, [0, 5, 8]])
    counts = grow_occupation(pair_law, 8, CAPS, 4, 30)
    assert counts.log_w is None
    assert np.array_equal(counts.population, full.population)


def test_batch_stop_draws_the_next_uniform(pair_law, monkeypatch):
    monkeypatch.setattr(brw_mod, "_BATCH_PARTICLES", 7)  # several root batches
    grown = grow_occupation(pair_law, 12, CAPS, 8, 40, stop_above=5)
    assert grown.stops
    for r, (g, z, u) in grown.stops.items():
        stream = CounterStream(8, r)
        tree = grow_tree(pair_law, g, CAPS, stream)
        assert generation_sizes(tree)[-1] == z > 5
        assert max(generation_sizes(tree)[:-1]) <= 5
        assert stream.random() == u
        assert not grown.population[r, g + 1 :].any()
    for r in set(range(40)) - set(grown.stops):
        tree = grow_tree(pair_law, 12, CAPS, CounterStream(8, r))
        assert max(generation_sizes(tree)[:-1]) <= 5
        assert list(grown.population[r]) == generation_sizes(tree)


def test_one_root_batch_per_budget_of_replicates(pair_law, monkeypatch):
    # roots are bounded by the cell budget alone: 5,000 count-only
    # replicates are one root batch, whose keys come from one call
    calls = []
    keys = brw_mod.replicate_keys

    def counted(seed, ids):
        calls.append(len(ids))
        return keys(seed, ids)

    monkeypatch.setattr(brw_mod, "replicate_keys", counted)
    grow_occupation(pair_law, 3, CAPS, 8, 5000)
    assert calls == [5000]
    calls.clear()
    grow_occupation(pair_law, 3, CAPS, 8, 2 * brw_mod._BATCH_PARTICLES + 1)
    assert calls == [brw_mod._BATCH_PARTICLES, brw_mod._BATCH_PARTICLES, 1]


def test_stop_threshold_stays_below_the_multinomial_budget():
    # extinction runs stop replicates past _ANALYTIC_SWITCH particles; below
    # the budget they draw the uniforms grow_tree draws, so their values
    # stay those of the tree engine
    assert brw_mod._MULTINOMIAL_ABOVE >= mc_mod._ANALYTIC_SWITCH


def test_positions_past_float64_are_refused_before_growth():
    # 1e308 + 1e308 overflows, and inf - inf would be a NaN position; a run
    # that tracks positions refuses such a law, one that counts does not
    law = FiniteLaw((Atom(0.5, (1e308,)), Atom(0.5, (-1e308, 0.0))))
    for grow in (lambda: grow_tree(law, 3, CAPS, replicate_rng(1, 0)),
                 lambda: grow_occupation(law, 3, CAPS, 1, 5, 0.0)):
        with pytest.raises(ResourceError, match="float64"):
            grow()
    assert grow_occupation(law, 3, CAPS, 1, 5).population[:, -1].min() >= 1
    grown = grow_occupation(law, 1, CAPS, 1, 5, 0.0)  # one step stays finite
    assert np.isfinite(grown.log_w).all()


@pytest.mark.parametrize("case", ["stop", "positions", "non_lattice"])
def test_counter_calls_and_batches_keep_to_the_budget(case, pair_law, monkeypatch):
    # the budget bounds memory three times over: no counter call draws
    # more words than it, and no batch that grows a generation holds more
    # frontier rows or position grid cells than it, unless one replicate
    # does alone; a batch's table holds exactly its positions, halves too
    budget = 2**10
    monkeypatch.setattr(brw_mod, "_BATCH_PARTICLES", budget)
    calls, batches, splits = [], [], []
    words, keys_of_block, halves = brw_mod.counter_words, brw_mod.block_keys, brw_mod._Batch.halves

    def counted(keys, lengths):
        lengths = np.asarray(lengths)
        calls.append((int(lengths.sum()), int(np.count_nonzero(lengths))))
        return words(keys, lengths)

    def seen(keys, g):
        # block_keys is called at the top of each generation, where the
        # batch being grown is the caller's local ``b`` and the columns of
        # its grid are ``table``
        frame = sys._getframe(1).f_locals
        b = frame["b"]
        assert np.array_equal(b.table, np.unique(b.pos))
        batches.append((b.pos.size, b.ids.size, b.ids.size * frame["table"].size))
        return keys_of_block(keys, g)

    def split(b):
        parts = halves(b)
        assert all(np.array_equal(part.table, np.unique(part.pos)) for part in parts)
        splits.append((b.table.size, *(part.table.size for part in parts)))
        return parts

    monkeypatch.setattr(brw_mod, "counter_words", counted)
    monkeypatch.setattr(brw_mod, "block_keys", seen)
    monkeypatch.setattr(brw_mod._Batch, "halves", split)
    if case == "stop":
        grown = grow_occupation(pair_law, 30, CAPS, 5, 600, stop_above=256)
        assert grown.stops
    elif case == "positions":
        grown = grow_occupation(pair_law, 14, CAPS, 5, 600, alpha=1.0)
        assert (grown.population[:, -1] > brw_mod._MULTINOMIAL_ABOVE).any()
    else:
        grown = grow_occupation(NON_LATTICE, 8, CAPS, 5, 600, alpha=1.0)
        # the halves' tables shed positions that only the other half holds
        assert any(min(first, second) < whole for whole, first, second in splits)
        assert max(cells for _, reps, cells in batches if reps == 1) > budget
    assert max(total for total, _ in calls) > budget // 2
    assert all(total <= budget or blocks == 1 for total, blocks in calls)
    assert max(rows for rows, _, _ in batches) > budget // 2
    assert all(rows <= budget or reps == 1 for rows, reps, _ in batches)
    assert max(cells for _, _, cells in batches) > budget // 2
    assert all(cells <= budget or reps == 1 for _, reps, cells in batches)


def test_results_do_not_depend_on_the_budget(pair_law, monkeypatch, capsys):
    # the budget decides how a generation is cut into batches and counter
    # calls, and a replicate's numbers never depend on either; nor does the
    # refusal past 2^62, which replicate 0 reaches first at budgets 1 and
    # 64 and replicate 4 at the default
    cfg = mc_mod.McConfig(replicates=300, depth=30, master_seed=17)
    deep = ["mc", "--model", str(REPO / "models" / "coin_pair.json"), "--estimator",
            "triviality_scan", "--alpha", "1", "--depth-grid", "2,95", "--reps", "40",
            "--max-nodes", str(2**63 - 1), "--seed", "3"]
    found = []
    for budget in (1, 64, brw_mod._BATCH_PARTICLES):
        with monkeypatch.context() as patch:
            patch.setattr(brw_mod, "_BATCH_PARTICLES", budget)
            extinct = mc_mod.mc_extinction(pair_law, cfg).values.tolist()
            with pytest.raises(ResourceError) as refused:
                grow_occupation(pair_law, 95, GrowthCaps(max_nodes=2**63 - 1), 3, 40, 1.0)
            code = _dispatch(deep)
            stopped = [grow_occupation(pair_law, 12, CAPS, 8, 40, stop_above=5)]
            patch.setattr(brw_mod, "_BATCH_PARTICLES", 7)  # several root batches
            stopped.append(grow_occupation(pair_law, 12, CAPS, 8, 40, stop_above=5))
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("refused:") and "2^62" in err
        assert err.count("\n") == 1
        assert all(g.stops for g in stopped)
        found.append((extinct, str(refused.value), err,
                      [(g.stops, g.population.tolist(), g.capped_at.tolist()) for g in stopped]))
    assert found[0] == found[1] == found[2]


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

    brw_mod._grow_occupied(law, depth, CAPS, 4321, n, True, None, record)
    counts = Counter(seen.get(r, (0, ())) for r in range(n))
    assert set(counts) <= set(want)
    for key, p in want.items():
        band = 4 * math.sqrt(p * (1 - p) / n)
        assert abs(counts[key] / n - p) < band, (key, counts[key] / n, p)


def test_counts_past_2_62_are_refused_not_wrapped():
    law, caps = quad_or_twin_law(), GrowthCaps(max_nodes=2**63 - 1)
    with pytest.raises(ResourceError, match="2\\^62"):
        grow_occupation(law, 45, caps, 2, 16, 5.0)
    # a cap at 2^62 is reached first: every replicate is capped, none refused
    capped = grow_occupation(law, 45, GrowthCaps(max_nodes=2**62), 2, 16, 5.0)
    assert (capped.capped_at > 30).all()
    assert (capped.population >= 0).all()
    last = capped.population[np.arange(16), capped.capped_at - 1]
    assert (last > 2**55).all()
    # broods of 64 take Z_n from 2^60 to 2^66, past int64 itself
    wide = FiniteLaw((Atom(1.0, (0.0,) * 64),))
    with pytest.raises(ResourceError):
        grow_occupation(wide, 12, caps, 2, 2, 1.0)
    capped = grow_occupation(wide, 12, GrowthCaps(max_nodes=2**62), 2, 2, 1.0)
    assert capped.capped_at.tolist() == [11, 11]
    assert capped.population[:, 10].tolist() == [2**60, 2**60]
