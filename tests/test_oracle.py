"""Exhaustive enumeration oracle: outcome counts, probabilities, the six
identity checks, the tuple walkers of the recursive reference, and
agreement between the sampler and the enumerator."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brwlab.oracle as oracle
from brwlab import (
    ENUM_CAP,
    Atom,
    DomainError,
    FiniteLaw,
    GrowthCaps,
    MassOverflowError,
    TooLargeError,
    check_inverse_martingale,
    check_martingale,
    check_spine_density,
    check_spine_step_mean,
    check_tree_density,
    check_unit_mean,
    count_outcomes,
    count_spined_outcomes,
    enumerate_trees,
    grow_spined_tree,
    grow_tree,
    replicate_rng,
    run_verify,
    tilted_mass,
)
from conftest import finite_laws, generation_sizes
from oracle_reference import (
    enumerate_spined_trees,
    generation_positions,
    iter_rays,
    outcome_probability,
    ray_positions,
    restrict,
    w_value,
)

# ---------------------------------------------------------------------------
# outcome counting
# ---------------------------------------------------------------------------


def test_outcome_counts_by_hand(pair_law, quad_law, binary_law):
    assert [count_outcomes(pair_law, d) for d in range(6)] == [
        1,
        2,
        5,
        26,
        677,
        458330,
    ]
    assert [count_outcomes(quad_law, d) for d in range(4)] == [1, 2, 20, 160400]
    assert [count_outcomes(binary_law, d) for d in range(4)] == [1, 1, 1, 1]


def test_spined_outcome_counts_by_hand(pair_law):
    assert [count_spined_outcomes(pair_law, d) for d in range(6)] == [
        1,
        2,
        8,
        80,
        4160,
        5632640,
    ]


def test_counts_clamp_instead_of_overflowing(pair_law):
    big = count_outcomes(pair_law, 40)
    assert big == 10**18


def test_enumerate_refuses_oversized_jobs(pair_law):
    with pytest.raises(TooLargeError) as info:
        list(enumerate_trees(pair_law, 9))
    assert info.value.estimate > info.value.cap == ENUM_CAP
    with pytest.raises(TooLargeError):
        list(enumerate_spined_trees(pair_law, 1.0, 9))
    with pytest.raises(TooLargeError):
        run_verify(pair_law, 1.0, 9)


_CHECKS = (run_verify, check_unit_mean, check_martingale, check_spine_density,
           check_tree_density, check_inverse_martingale, check_spine_step_mean)
_ENTRIES = {
    **{check.__name__: check for check in _CHECKS},
    "enumerate_trees": lambda law, alpha, depth: list(enumerate_trees(law, depth)),
}


@pytest.mark.parametrize("name", sorted(_ENTRIES))
def test_negative_depth_is_refused_everywhere(pair_law, name):
    with pytest.raises(DomainError, match="depth must be nonnegative"):
        _ENTRIES[name](pair_law, 1.0, -1)


@pytest.mark.parametrize("name", sorted(_ENTRIES))
def test_checks_read_the_cap_when_called(pair_law, name, monkeypatch):
    # 26 outcomes at depth 3
    monkeypatch.setattr(oracle, "ENUM_CAP", 10)
    with pytest.raises(TooLargeError) as info:
        _ENTRIES[name](pair_law, 1.0, 3)
    assert info.value.cap == 10


def test_run_verify_walks_the_top_pairs_once(pair_law, monkeypatch):
    # the top level holds the exponential share of the pairs: both pair
    # checks fold over one stream of its blocks
    depth, walks = 3, []
    blocks = oracle._Enumeration._ray_blocks

    def counted(self, k, lower):
        walks.append(k)
        return blocks(self, k, lower)

    monkeypatch.setattr(oracle._Enumeration, "_ray_blocks", counted)
    run_verify(pair_law, 1.0, depth)
    assert walks.count(depth) == 1


@pytest.mark.parametrize("check", _CHECKS, ids=lambda check: check.__name__)
def test_checks_refuse_an_overflowing_tilt_before_the_count(pair_law, check):
    with pytest.raises(MassOverflowError):
        check(pair_law, -1000.0, 9)


def test_unit_mean_refusal_reports_the_count_at_depth(pair_law):
    with pytest.raises(TooLargeError) as info:
        check_unit_mean(pair_law, 1.0, 9)
    assert info.value.estimate == count_outcomes(pair_law, 9)


@pytest.mark.parametrize(
    "check",
    [check_tree_density, check_inverse_martingale, check_unit_mean, check_martingale],
    ids=lambda check: check.__name__,
)
def test_class_checks_need_no_pair_count(binary_law, check):
    # one outcome, and 2^40 (outcome, ray) pairs that these checks never build
    assert check(binary_law, 1.0, 40).passed


# ---------------------------------------------------------------------------
# enumeration vs hand values
# ---------------------------------------------------------------------------


def test_depth_one_outcomes(pair_law):
    got = dict(enumerate_trees(pair_law, 1))
    assert got[(0, ())] == pytest.approx(0.2, abs=1e-15)
    assert got[(1, (None, None))] == pytest.approx(0.8, abs=1e-15)
    m = tilted_mass(pair_law, 1.0)
    assert w_value(pair_law, (1, (None, None)), 1.0, 1, m) == pytest.approx(1.25)
    assert w_value(pair_law, (0, ()), 1.0, 1, m) == 0.0


def test_depth_two_probabilities(pair_law):
    probs = sorted(p for _, p in enumerate_trees(pair_law, 2))
    assert probs == pytest.approx([0.032, 0.128, 0.128, 0.2, 0.512])


def test_outcome_probability_matches_enumeration(pair_law):
    for t, p in enumerate_trees(pair_law, 3):
        assert outcome_probability(pair_law, t) == pytest.approx(p, rel=1e-14)


def test_spined_depth_one_matches_step_law(pair_law):
    got = {(t, ray): p for t, ray, p in enumerate_spined_trees(pair_law, 1.0, 1)}
    e = math.exp(-1)
    assert got[((1, (None, None)), (0,))] == pytest.approx(1 / (1 + e), rel=1e-14)
    assert got[((1, (None, None)), (1,))] == pytest.approx(e / (1 + e), rel=1e-14)


def test_generation_positions_by_hand(pair_law):
    t = (1, ((1, (None, None)), (0, ())))
    assert generation_positions(pair_law, t, 0) == [0.0]
    assert generation_positions(pair_law, t, 1) == [0.0, 1.0]
    assert generation_positions(pair_law, t, 2) == [0.0, 1.0]


def test_restrict_truncates(pair_law):
    t = (1, ((1, (None, None)), (0, ())))
    assert restrict(t, 0) is None
    assert restrict(t, 1) == (1, (None, None))
    assert restrict(t, 2) == t


def test_iter_rays_and_positions(pair_law):
    t = (1, ((1, (None, None)), (1, (None, None))))
    rays = list(iter_rays(t))
    assert len(rays) == 4
    assert (0, 1) in rays
    assert ray_positions(pair_law, t, (0, 1)) == [0.0, 0.0, 1.0]
    dead = (1, ((0, ()), (0, ())))
    assert list(iter_rays(dead)) == []


# ---------------------------------------------------------------------------
# the identity checks
# ---------------------------------------------------------------------------


def test_run_verify_is_green_on_pair_law(pair_law):
    results = run_verify(pair_law, 1.0, 2)
    names = [r.check for r in results]
    assert names == [
        "spine_density",
        "tree_density",
        "unit_mean",
        "martingale",
        "inverse_martingale",
        "spine_step_mean",
    ]
    for r in results:
        assert r.passed, (r.check, r.max_discrepancy)
        assert r.max_discrepancy <= 1e-10


def test_checks_handle_negative_alpha(quad_law):
    for r in run_verify(quad_law, -0.5, 2):
        assert r.passed, (r.check, r.max_discrepancy)


def test_spined_checks_survive_underflowing_tilt_weights():
    # at alpha 746 exp(-alpha) underflows, so the one-child atom has
    # theta == 0 and no size-biased mass
    law = FiniteLaw((Atom(0.5, (0.0, 1.0)), Atom(0.5, (1.0,))))
    for check in (check_spine_density, check_spine_step_mean):
        assert check(law, 746.0, 2).passed


def test_inverse_martingale_handles_extinction(pair_law, binary_law):
    # survival-adjusted identity: exact even when a positive fraction of
    # trees dies, and the plain martingale identity on laws that cannot die
    assert check_inverse_martingale(pair_law, 1.0, 2).passed
    assert check_inverse_martingale(binary_law, 1.0, 2).passed


def test_unit_mean_every_level(pair_law):
    r = check_unit_mean(pair_law, 1.0, 3)
    assert r.passed and r.max_discrepancy <= 1e-12


def test_spine_step_mean_matches_drift(quad_law):
    # (0.1 + 0.2) - 0.1 != 0.2 in floating point: steps of the second law
    # must be read from the atoms, not from differences of positions
    tenths = FiniteLaw((Atom(0.3, ()), Atom(0.3, (0.1,)), Atom(0.4, (0.2, 0.7))))
    for law in (quad_law, tenths):
        r = check_spine_step_mean(law, 1.0, 2)
        assert r.passed, r.max_discrepancy


@given(finite_laws(max_atoms=3), st.sampled_from([0.0, 1.0, -0.5]))
@settings(max_examples=25, deadline=None)
def test_identity_suite_on_random_laws(law, alpha):
    for r in run_verify(law, alpha, 1):
        assert r.passed, (law, alpha, r.check, r.max_discrepancy)


def test_check_results_carry_context(pair_law):
    r = check_spine_density(pair_law, 1.0, 2)
    assert r.alpha == 1.0 and r.depth == 2 and r.outcomes == 8
    r2 = check_tree_density(pair_law, 1.0, 2)
    assert r2.outcomes == 5
    assert check_martingale(pair_law, 1.0, 2).passed


# ---------------------------------------------------------------------------
# sampler vs enumerator
# ---------------------------------------------------------------------------


def _outcome_of_depth2_tree(tree) -> tuple:
    """Identify which depth-2 shape a grown pair-law tree realized."""
    z1, z2 = generation_sizes(tree)[1], generation_sizes(tree)[2]
    if z1 == 0:
        return "dead0"
    if z2 == 0:
        return "dead1"
    if z2 == 4:
        return "both"
    first_child = tree.generation_index[1][0]
    kids_of_first = sum(
        1 for i in tree.generation_index[2] if tree.parent[i] == first_child
    )
    return "first" if kids_of_first == 2 else "second"


def test_sampler_frequencies_match_enumerator(pair_law):
    """Empirical depth-2 outcome frequencies sit inside 4-sigma binomial
    bands around the exactly enumerated probabilities."""
    want = {
        "dead0": 0.2,
        "dead1": 0.032,
        "both": 0.512,
        "first": 0.128,
        "second": 0.128,
    }
    n = 100_000
    caps = GrowthCaps()
    counts = Counter(
        _outcome_of_depth2_tree(grow_tree(pair_law, 2, caps, replicate_rng(123, r)))
        for r in range(n)
    )
    assert sum(counts.values()) == n
    for name, p in want.items():
        band = 4 * math.sqrt(p * (1 - p) / n)
        assert abs(counts[name] / n - p) < band, (name, counts[name] / n, p)


def _spined_pair_outcome(spined, depth: int) -> tuple:
    """Oracle outcome and ray slots of a grown pair-law (tree, ray) pair."""
    tree, ray = spined.tree, spined.ray

    def outcome(node, levels):
        if levels == 0:
            return None
        kids = np.flatnonzero(tree.parent == node)
        # pair law: atom 0 is childless, atom 1 has two children
        return (1 if kids.size else 0, tuple(outcome(k, levels - 1) for k in kids))

    # siblings get consecutive ids, so a slot is the offset from the first
    slots = tuple(
        int(ray[k] - np.flatnonzero(tree.parent == ray[k - 1])[0])
        for k in range(1, depth + 1)
    )
    return outcome(0, depth), slots


def test_spined_sampler_matches_enumerated_joint_law(pair_law):
    """Empirical depth-2 (outcome, ray) frequencies of the spined sampler
    sit inside 4-sigma binomial bands around the enumerated size-biased
    probabilities, which checks where the spine brood is attached and
    not only the ray marginal."""
    alpha, depth, n = 1.0, 2, 10_000
    want = {(t, ray): p for t, ray, p in enumerate_spined_trees(pair_law, alpha, depth)}
    caps = GrowthCaps()
    counts = Counter(
        _spined_pair_outcome(
            grow_spined_tree(pair_law, alpha, depth, caps, replicate_rng(321, r)), depth
        )
        for r in range(n)
    )
    assert set(counts) <= set(want)
    for key, p in want.items():
        band = 4 * math.sqrt(p * (1 - p) / n)
        assert abs(counts[key] / n - p) < band, (key, counts[key] / n, p)
