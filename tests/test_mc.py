"""Seeded Monte Carlo harness: estimator correctness against exact
references, discard policy, determinism across worker counts, and the
triviality-scan verdicts."""

import math
from functools import partial

import numpy as np
import pytest

import brwlab.mc as mc_mod
import occupation_reference
from brwlab import (
    Atom,
    Classification,
    DomainError,
    ExcessiveDiscardError,
    FiniteLaw,
    GrowthCaps,
    LogDivergentLaw,
    McConfig,
    classify,
    extinction_probability,
    grow_tree,
    mc_extinction,
    mc_importance_identity,
    mc_mean_w,
    mc_spine_slope,
    mc_triviality_scan,
    parse_functional,
    pgf_eval,
    replicate_rng,
    tilted_mass,
)
from brwlab.oracle import enumerate_trees
from brwlab.spine import _spine_brood, _spine_tables
from conftest import coin_pair_law, quad_or_twin_law
from occupation_reference import CounterStream, functional_value, sample_spine_walk
from oracle_reference import generation_positions, w_value

# ---------------------------------------------------------------------------
# configuration contract
# ---------------------------------------------------------------------------


def test_config_rejects_degenerate_runs():
    with pytest.raises(DomainError):
        McConfig(replicates=1, depth=3, master_seed=0)
    with pytest.raises(DomainError):
        McConfig(replicates=10, depth=-1, master_seed=0)
    # the smallest valid run, with the default caps
    assert McConfig(2, 0, 0) == (2, 0, 0, GrowthCaps())


@pytest.mark.parametrize("replicates, depth", [(1, 0), (0, 3), (-2, 3), (2, -1), (10, -5)])
def test_config_refuses_each_degenerate_field(replicates, depth):
    for make in (lambda: McConfig(replicates, depth, 0),
                 lambda: McConfig(replicates=replicates, depth=depth, master_seed=0),
                 lambda: McConfig(2, 0, 0)._replace(replicates=replicates, depth=depth)):
        with pytest.raises(DomainError):
            make()


# ---------------------------------------------------------------------------
# martingale mean
# ---------------------------------------------------------------------------


def test_mean_w_pair_law(pair_law):
    cfg = McConfig(replicates=2000, depth=8, master_seed=11)
    s = mc_mean_w(pair_law, 1.0, cfg)
    assert s.reference == 1.0
    assert s.passed
    assert abs(s.estimate - 1.0) <= 4 * s.se
    assert s.n == 2000 and s.discarded == 0
    assert not s.unreliable


def test_mean_w_binary_is_exact(binary_law):
    cfg = McConfig(replicates=50, depth=6, master_seed=0)
    s = mc_mean_w(binary_law, 1.0, cfg)
    assert s.estimate == 1.0 and s.se == 0.0 and s.passed


def test_mean_w_flags_degenerate_regimes(heavy_law):
    cfg = McConfig(
        replicates=16, depth=2, master_seed=3, caps=GrowthCaps(max_nodes=3_000_000)
    )
    s = mc_mean_w(heavy_law, 0.0, cfg)
    assert s.unreliable
    assert "TRIVIAL_LLOGL" in s.note


def test_mean_w_se_shrinks_with_replicates(pair_law):
    small = mc_mean_w(pair_law, 1.0, McConfig(replicates=100, depth=6, master_seed=7))
    large = mc_mean_w(pair_law, 1.0, McConfig(replicates=1600, depth=6, master_seed=7))
    ratio = small.se / large.se
    assert 2.0 < ratio < 8.0  # ideal 4, allow sampling noise


def test_spine_slope_alpha_zero(pair_law):
    cfg = McConfig(replicates=200, depth=400, master_seed=3)
    s = mc_spine_slope(pair_law, 0.0, cfg)
    assert s.reference == pytest.approx(0.5)
    assert s.passed


def test_spine_slope_tilted(pair_law):
    cfg = McConfig(replicates=200, depth=800, master_seed=3)
    s = mc_spine_slope(pair_law, 1.0, cfg)
    assert s.reference == pytest.approx(0.26894142136999516, rel=1e-12)
    assert s.passed
    assert abs(s.estimate - s.reference) <= 4 * s.se


# ---------------------------------------------------------------------------
# extinction
# ---------------------------------------------------------------------------


def test_extinction_pair_law(pair_law):
    cfg = McConfig(replicates=4000, depth=30, master_seed=5)
    s = mc_extinction(pair_law, cfg)
    # reference is the depth-30 pgf iterate, already within 1e-12 of 1/4
    assert s.reference == pytest.approx(0.25, abs=1e-12)
    assert s.passed
    assert abs(s.estimate - s.reference) <= 4 * s.se


def test_extinction_reference_is_pgf_iterate(pair_law):
    cfg = McConfig(replicates=100, depth=4, master_seed=1)
    s = mc_extinction(pair_law, cfg)
    it = 0.0
    for _ in range(4):
        it = pgf_eval(pair_law, it)
    assert s.reference == pytest.approx(it, abs=1e-15)


def test_extinction_binary_is_zero(binary_law):
    s = mc_extinction(binary_law, McConfig(replicates=64, depth=10, master_seed=2))
    assert s.estimate == 0.0 and s.reference == 0.0 and s.passed


def test_extinction_critical_law(critical_law):
    assert extinction_probability(critical_law) == 1.0
    s = mc_extinction(critical_law, McConfig(replicates=3000, depth=40, master_seed=8))
    assert s.passed
    # at depth 40 the pgf iterate is still well below the limit 1
    assert 0.8 < s.reference < 1.0


def test_extinction_band_takes_the_exact_bernoulli_error(critical_law):
    # at depth 1000 with 100 replicates most runs keep no survivor, so the
    # sample standard error is 0; the band is four exact errors
    # sqrt(q_n (1 - q_n) / n) of the pgf reference wide, and se stays the
    # sample's
    for seed in range(40):
        s = mc_extinction(critical_law, McConfig(replicates=100, depth=1000, master_seed=seed))
        q = s.reference
        assert s.band_se == math.sqrt(q * (1 - q) / 100)
        assert s.se == float(np.std(s.values, ddof=1) / 10)
        if s.se == 0.0:
            assert s.passed, seed


# ---------------------------------------------------------------------------
# triviality scan
# ---------------------------------------------------------------------------


def test_scan_binary_is_stable(binary_law):
    cfg = McConfig(replicates=16, depth=0, master_seed=2)
    rep = mc_triviality_scan(binary_law, 1.0, (4, 8, 12), cfg)
    assert rep.verdict == "STABLE"
    assert rep.medians == (0.0, 0.0, 0.0)
    assert rep.survivors == (16, 16, 16)
    assert rep.fractions == (1.0, 1.0, 1.0)
    assert rep.agrees


def test_scan_quad_law_decays(quad_law):
    cfg = McConfig(
        replicates=48, depth=0, master_seed=2, caps=GrowthCaps(max_nodes=8_000_000)
    )
    rep = mc_triviality_scan(quad_law, 5.0, (2, 7, 12), cfg)
    assert rep.verdict == "DECAYING"
    assert rep.classification == "TRIVIAL_DRIFT"
    assert rep.agrees
    assert rep.medians[0] > rep.medians[-1]


def test_scan_pair_law_not_decaying(pair_law):
    cfg = McConfig(replicates=100, depth=0, master_seed=2)
    rep = mc_triviality_scan(pair_law, 1.0, (5, 10, 20), cfg)
    assert rep.verdict != "DECAYING"
    assert rep.agrees
    assert rep.n == 100
    assert all(0 < s <= 100 for s in rep.survivors)
    assert rep.fractions == tuple(s / 100 for s in rep.survivors)


@pytest.mark.parametrize("size", [1, 2, 3, 4, 7, 10, 501, 1000])
def test_median_is_numpys_median(size):
    rng = replicate_rng(5, size)
    for values in (rng.standard_normal(size) * 1e3, rng.integers(-3, 3, size).astype(float),
                   np.full(size, -2.5)):
        assert mc_mod._median(values) == float(np.median(values))


def test_scan_rejects_bad_grids(pair_law):
    cfg = McConfig(replicates=8, depth=0, master_seed=0)
    for grid in [(), (3, 2), (2, 2), (-1, 4)]:
        with pytest.raises(DomainError):
            mc_triviality_scan(pair_law, 1.0, grid, cfg)


# ---------------------------------------------------------------------------
# importance identity
# ---------------------------------------------------------------------------


def test_importance_identities(pair_law):
    cfg = McConfig(replicates=3000, depth=2, master_seed=9)
    for text, want in [("one", 0.768), ("indicator_z:4", 0.512), ("min_z:2", 1.536)]:
        s = mc_importance_identity(pair_law, 1.0, parse_functional(text), cfg)
        assert s.reference == pytest.approx(want, abs=1e-12)
        assert s.passed, (text, s.estimate, s.reference, s.se)


def test_importance_band_uses_the_exact_standard_error(pair_law):
    # F/W_n is right-skewed (skew 14.6 here), so a sample that misses
    # large values has a small sample standard error.  Seed 1835 is the
    # lowest master seed in 0-5,999 whose estimate sits below -4 sample
    # errors but within 4 exact errors of the reference: -4.08 and -2.80
    fn = parse_functional("min_z:2")
    cfg = McConfig(replicates=2000, depth=4, master_seed=1835)
    s = mc_importance_identity(pair_law, 1.0, fn, cfg)
    m = tilted_mass(pair_law, 1.0)
    ref = second = 0.0
    for t, p in enumerate_trees(pair_law, 4):
        w = w_value(pair_law, t, 1.0, 4, m)
        if w > 0:
            positions = generation_positions(pair_law, t, 4)
            f = functional_value(fn, len(positions), max(positions))
            ref += p * f
            second += p * f * f / w
    exact_se = math.sqrt((second - ref * ref) / cfg.replicates)
    assert s.reference == pytest.approx(ref, abs=1e-12)
    assert s.band_se == pytest.approx(exact_se, rel=1e-9)
    assert f"band se {exact_se:.3g} from the exact variance" in s.note
    assert abs(s.estimate - s.reference) > 4 * s.se
    assert s.passed and not s.unreliable


def _tuple_walk_references(law, alpha, log_m, fns, depth):
    """``(E[F; alive], sd of F/W_n)`` per functional, by walking every
    enumerated outcome's generation-``depth`` positions: the exact
    reference as it was computed before it read the class arrays."""
    terms = {fn.name: [] for fn in fns}
    squares = {fn.name: [] for fn in fns}
    for t, p in enumerate_trees(law, depth):
        positions = generation_positions(law, t, depth)
        if not positions:
            continue
        tilts = [-alpha * x for x in positions]
        top = max(tilts)
        log_w = top + math.log(math.fsum(math.exp(v - top) for v in tilts)) - depth * log_m
        for fn in fns:
            f = functional_value(fn, len(positions), max(positions))
            terms[fn.name].append(p * f)
            if f:
                squares[fn.name].append(p * f * f * mc_mod._safe_exp(-log_w))
    out = {}
    for fn in fns:
        ref = math.fsum(terms[fn.name])
        try:
            second = math.fsum(squares[fn.name])
        except OverflowError:
            second = math.inf
        out[fn.name] = (ref, math.sqrt(max(0.0, second - ref * ref)))
    return out


NON_DYADIC = FiniteLaw((Atom(0.3, ()), Atom(0.3, (0.1,)), Atom(0.4, (0.2, 0.7))))
NEGATIVE = FiniteLaw((Atom(0.25, ()), Atom(0.35, (-0.5,)), Atom(0.4, (0.3, -1.2))))


@pytest.mark.parametrize("law, depths", [
    (coin_pair_law(), 4), (quad_or_twin_law(), 2), (NON_DYADIC, 4), (NEGATIVE, 4),
], ids=["coin_pair", "quad_or_twin", "non_dyadic", "negative"])
def test_exact_reference_matches_the_outcome_walk(law, depths):
    # the class arrays add displacements leaf first, the walk root first,
    # so the largest position may differ in its last bit
    fns = [parse_functional(t) for t in
           ("one", "indicator_z:2", "min_z:2", "exp_neg_max:1", "exp_neg_max:0.3")]
    for alpha in (0.0, 1.0, -0.5, 5.0):
        log_m = classify(law, alpha).log_m
        for depth in range(1, depths + 1):
            want = _tuple_walk_references(law, alpha, log_m, fns, depth)
            for fn in fns:
                ref, sd = mc_mod._exact_reference(law, alpha, fn, depth)
                assert ref == pytest.approx(want[fn.name][0], rel=1e-15, abs=0)
                assert sd == pytest.approx(want[fn.name][1], rel=1e-12, abs=0)


def test_importance_binary_is_exact(binary_law):
    cfg = McConfig(replicates=32, depth=3, master_seed=1)
    s = mc_importance_identity(binary_law, 1.0, parse_functional("one"), cfg)
    assert s.estimate == 1.0 and s.reference == 1.0 and s.passed


def test_parse_functional_contract():
    assert parse_functional("one").kind == "one"
    assert parse_functional("indicator_z:4").param == 4
    assert parse_functional("min_z:2").kind == "min_z"
    assert parse_functional("exp_neg_max:0.5").param == 0.5
    for bad in ["", "bogus", "indicator_z", "indicator_z:x", "min_z:-1", "exp_neg_max:-2"]:
        with pytest.raises(DomainError):
            parse_functional(bad)


def test_functional_on_tree_and_outcome_agree(pair_law):
    # the batched values match the scalar reference on the last generation
    # of grown trees and of enumerated outcomes, extinct ones included
    fns = [parse_functional(t) for t in
           ("one", "indicator_z:2", "min_z:3", "exp_neg_max:1", "exp_neg_max:0.3")]
    stats = []
    for r in range(40):
        tree = grow_tree(pair_law, 3, GrowthCaps(), replicate_rng(4, r))
        idx = tree.generation_index[3]
        stats.append((idx.size, float(tree.position[idx].max()) if idx.size else None))
    for t, _ in enumerate_trees(pair_law, 3):
        positions = generation_positions(pair_law, t, 3)
        stats.append((len(positions), max(positions) if positions else None))
    assert {z == 0 for z, _ in stats} == {True, False}
    z = np.array([z for z, _ in stats])
    top = np.array([-math.inf if x is None else x for _, x in stats])
    for fn in fns:
        want = [functional_value(fn, z, x) if z else 0.0 for z, x in stats]
        assert mc_mod._functional_values(fn, z, top).tolist() == want, fn.name
    # by hand: generation 2 of this outcome sits at 0 and 1
    positions = generation_positions(pair_law, (1, ((1, (None, None)), (0, ()))), 2)
    assert functional_value(fns[2], len(positions), max(positions)) == 2.0
    assert functional_value(fns[3], len(positions), max(positions)) == pytest.approx(math.exp(-1.0))
    assert functional_value(fns[3], 0, None) == 0.0


# ---------------------------------------------------------------------------
# discard policy
# ---------------------------------------------------------------------------


def test_excessive_discards_raise(quad_law):
    # every replicate of the quad law blows a 10-node cap by depth 5
    cfg = McConfig(
        replicates=16, depth=5, master_seed=0, caps=GrowthCaps(max_nodes=10)
    )
    with pytest.raises(ExcessiveDiscardError):
        mc_mean_w(quad_law, 1.0, cfg)


def test_mean_w_with_discards_is_unreliable(pair_law):
    # a 900-node cap drops the two largest of 400 depth-10 trees (<= 1%),
    # which biases E[W] low even though the classification is NONTRIVIAL.
    # Seed 1 is the lowest master seed whose run discards exactly two
    cfg = McConfig(replicates=400, depth=10, master_seed=1, caps=GrowthCaps(max_nodes=900))
    s = mc_mean_w(pair_law, 1.0, cfg)
    assert s.discarded == 2 and s.n == 398
    assert s.unreliable
    assert "2 capped replicates discarded" in s.note
    assert len(s.kept) == 398 and len(s.values) == 398


def test_summary_records_values_when_asked(pair_law):
    cfg = McConfig(replicates=50, depth=3, master_seed=6)
    s = mc_mean_w(pair_law, 1.0, cfg)
    assert s.values.dtype == np.float64 and s.values.shape == (50,)
    assert s.kept.dtype == np.int64 and s.kept.tolist() == list(range(50))


# ---------------------------------------------------------------------------
# batched estimators against one tree or walk per replicate
# ---------------------------------------------------------------------------


def test_spine_slope_values_are_the_per_replicate_walks(quad_law):
    cfg = McConfig(replicates=60, depth=25, master_seed=11)
    s = mc_spine_slope(quad_law, 5.0, cfg)
    want = [float(sample_spine_walk(quad_law, 5.0, 25, CounterStream(11, r))[-1]) / 25
            for r in range(60)]
    assert s.values.tolist() == want
    assert s.kept.tolist() == list(range(60)) and s.discarded == 0


@pytest.mark.parametrize("text", ["one", "indicator_z:2", "min_z:2", "exp_neg_max:1"])
def test_importance_values_are_the_per_tree_values(pair_law, text):
    # depth 5 has too many outcomes for the exact reference, so the
    # reference is the plain-law Monte Carlo on replicate ids 40..79; both
    # samples equal their replicates grown alone by the occupation
    # reference, the size-biased one with the spine's broods
    fn, depth, reps, caps = parse_functional(text), 5, 40, GrowthCaps()
    s = mc_importance_identity(pair_law, 1.0, fn, McConfig(reps, depth, 13, caps))
    log_m = classify(pair_law, 1.0).log_m
    hook = partial(_spine_brood, pair_law, _spine_tables(pair_law, 1.0))
    sized = []
    for r in range(reps):
        population, log_w, _, last, _ = occupation_reference.grow_one(
            pair_law, depth, caps, CounterStream(13, r), 1.0, log_m, spine_brood=hook)
        f = functional_value(fn, population[depth], last[-1][0])
        sized.append(f * math.exp(-log_w[depth]))
    assert s.values.tolist() == sized
    # the plain reference grows occupation measures: a functional of Z_n
    # alone takes the tree's value, the maximum position its value in law
    plain = []
    for r in range(reps, 2 * reps):
        population, _, _, last, _ = occupation_reference.grow_one(
            pair_law, depth, caps, CounterStream(13, r), 1.0, log_m)
        z = population[depth]
        plain.append(functional_value(fn, z, last[-1][0]) if z else 0.0)
        if fn.kind != "exp_neg_max":
            tree = grow_tree(pair_law, depth, caps, CounterStream(13, r))
            alive = tree.generation_index[depth].size
            assert plain[-1] == (functional_value(fn, alive, None) if alive else 0.0)
    assert s.reference == float(np.mean(plain))
    assert not s.unreliable


def test_importance_with_discards_is_unreliable(pair_law):
    # a 350-node cap drops the largest of 400 depth-8 size-biased trees,
    # which biases F / W_n although the run stays under the 1% limit.
    # Seed 1 is the lowest master seed whose run discards exactly one
    # replicate, a size-biased one: replicate 302
    fn = parse_functional("min_z:2")
    cfg = McConfig(replicates=400, depth=8, master_seed=1, caps=GrowthCaps(max_nodes=350))
    s = mc_importance_identity(pair_law, 1.0, fn, cfg)
    assert s.discarded == 1 and s.n == 399 and 302 not in s.kept
    assert s.unreliable
    assert "1 capped replicates discarded (1 size-biased, 0 plain reference)" in s.note
    # seed 16, the lowest master seed whose run loses one replicate from
    # each sample
    s = mc_importance_identity(pair_law, 1.0, fn, McConfig(400, 8, 16, GrowthCaps(max_nodes=350)))
    assert s.unreliable and s.discarded == 2
    assert "2 capped replicates discarded (1 size-biased, 1 plain reference)" in s.note
