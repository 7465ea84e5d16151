"""Offspring laws: validation, serialization, tilted moments, the
classification ladder, size-biasing, and the spine step law."""

import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brwlab.brw as brw_mod
from brwlab import (
    Atom,
    BatchGrowth,
    CheckResult,
    Classification,
    DomainError,
    EmptyLawError,
    FiniteLaw,
    Functional,
    GrowthCaps,
    LogDivergentLaw,
    MartingaleTrajectory,
    MassOverflowError,
    McConfig,
    McSummary,
    NormalizationError,
    SpinedTree,
    TiltProfile,
    TrivialityReport,
    classify,
    extinction_probability,
    grow_occupation,
    law_from_json,
    law_to_json,
    llogl_bound_check,
    llogl_moment,
    pgf_eval,
    size_biased_law,
    spine_step_law,
    stable_sum,
    tilted_derivative,
    tilted_mass,
    validate_law,
)
from conftest import coin_pair_law, finite_laws, make_random_laws

# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_validate_accepts_standard_laws(binary_law, pair_law, quad_law, critical_law, heavy_law):
    for law in (binary_law, pair_law, quad_law, critical_law, heavy_law):
        assert validate_law(law) is law


def test_validate_rejects_empty_law():
    with pytest.raises(EmptyLawError):
        validate_law(FiniteLaw(()))


def test_validate_rejects_all_childless():
    with pytest.raises(EmptyLawError):
        validate_law(FiniteLaw((Atom(0.5, ()), Atom(0.5, ()))))


def test_validate_rejects_bad_normalization():
    with pytest.raises(NormalizationError):
        validate_law(FiniteLaw((Atom(0.5, (0.0,)),)))


def test_validate_rejects_out_of_range_probability():
    with pytest.raises(NormalizationError):
        validate_law(FiniteLaw((Atom(1.5, (0.0,)), Atom(-0.5, (0.0,)))))


def test_validate_rejects_nonfinite_displacement():
    with pytest.raises(DomainError):
        validate_law(FiniteLaw((Atom(1.0, (0.0, math.inf)),)))


def test_validate_rejects_unknown_object():
    with pytest.raises(DomainError):
        validate_law("not a law")  # type: ignore[arg-type]


def test_heavy_law_requires_tail_exponent_above_one():
    with pytest.raises(DomainError):
        validate_law(LogDivergentLaw(1.0))
    with pytest.raises(DomainError):
        validate_law(LogDivergentLaw(0.5))


def test_atom_count_property(pair_law):
    assert [a.count for a in pair_law.atoms] == [0, 2]


# raw arguments are normalised to float and tuple fields: equal records
# are equal lru_cache keys, and the reprs show the field types
@pytest.mark.parametrize("raw, normal", [
    (Atom(1, [0, 1]), Atom(1.0, (0.0, 1.0))),
    (FiniteLaw([Atom(1, [0, 1])]), FiniteLaw((Atom(1.0, (0.0, 1.0)),))),
    (LogDivergentLaw(3, 100.0), LogDivergentLaw(3.0, 100)),
], ids=["atom", "finite_law", "log_divergent_law"])
def test_law_records_normalise_their_fields(raw, normal):
    assert raw == normal and hash(raw) == hash(normal)
    assert repr(raw) == repr(normal)
    key = lru_cache(maxsize=None)(lambda record: object())
    assert key(raw) is key(normal)


def test_replace_normalises_like_the_constructor():
    atom = Atom(0.5, (0.0,))._replace(probability=1, displacements=[0, 1])
    assert repr(atom) == repr(Atom(1.0, (0.0, 1.0)))
    law = FiniteLaw((atom,))._replace(atoms=[atom])
    assert repr(law) == repr(FiniteLaw((atom,))) and law._tables.counts.tolist() == [2]
    assert repr(LogDivergentLaw(3.0)._replace(n_max=100.0)) == repr(LogDivergentLaw(3.0, 100))


@pytest.mark.parametrize("record", [
    Atom, FiniteLaw, LogDivergentLaw, TiltProfile, GrowthCaps,
    MartingaleTrajectory, BatchGrowth, McConfig, McSummary, TrivialityReport,
    Functional, CheckResult, SpinedTree,
], ids=lambda cls: cls.__name__)
def test_record_fields_are_read_only(record):
    instance = tuple.__new__(record, [None] * len(record._fields))
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(instance, name, 0)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_json_round_trip(pair_law, heavy_law, tmp_path):
    for law in (pair_law, heavy_law):
        assert law_from_json(law_to_json(law)) == law


def test_json_rejects_malformed_payloads():
    bad = [
        42,
        {"type": "bogus"},
        {"type": "finite"},
        {"type": "finite", "atoms": [{"p": "x", "x": []}]},
        {"type": "finite", "atoms": [{"p": 1.0}]},
        {"type": "log_divergent"},
    ]
    for payload in bad:
        with pytest.raises(DomainError):
            law_from_json(payload)


def test_json_heavy_tail_parameters_must_be_in_range():
    for a, n_max in [(1.5, bad) for bad in (None, "9", 2.5, 1e400, float("nan"), True, 3, 10**12)] + [
        (1.0889035741470033e40, 4),
        (1001.0, 100),
    ]:
        with pytest.raises(DomainError):
            validate_law(law_from_json({"type": "log_divergent", "a": a, "n_max": n_max}))
    assert law_from_json({"type": "log_divergent", "a": 1.5, "n_max": 1e6}).n_max == 10**6


# ---------------------------------------------------------------------------
# pgf and extinction
# ---------------------------------------------------------------------------


def test_pgf_values(pair_law):
    assert pgf_eval(pair_law, 0.0) == pytest.approx(0.2, abs=1e-15)
    assert pgf_eval(pair_law, 1.0) == pytest.approx(1.0, abs=1e-15)
    # 0.25 is the smallest fixed point of 0.2 + 0.8 s^2
    assert pgf_eval(pair_law, 0.25) == pytest.approx(0.25, abs=1e-15)


def test_extinction_probabilities(binary_law, pair_law, quad_law, critical_law, heavy_law):
    assert extinction_probability(binary_law) == 0.0
    assert extinction_probability(pair_law) == pytest.approx(0.25, abs=1e-12)
    assert extinction_probability(quad_law) == 0.0
    assert extinction_probability(critical_law) == 1.0
    assert extinction_probability(heavy_law) == 0.0


def test_extinction_subcritical_is_one():
    law = FiniteLaw((Atom(0.7, ()), Atom(0.3, (0.0, 1.0))))  # mean 0.6
    assert extinction_probability(law) == 1.0


@given(finite_laws())
@settings(max_examples=60, deadline=None)
def test_extinction_ignores_displacements(law):
    q = extinction_probability(law)
    shifted = FiniteLaw(
        tuple(
            Atom(a.probability, tuple(x + 0.37 for x in a.displacements))
            for a in law.atoms
        )
    )
    assert extinction_probability(shifted) == q
    # permuting displacement values within an atom also leaves q alone
    permuted = FiniteLaw(
        tuple(
            Atom(a.probability, tuple(reversed(a.displacements))) for a in law.atoms
        )
    )
    assert extinction_probability(permuted) == q


@given(finite_laws())
@settings(max_examples=60, deadline=None)
def test_extinction_is_pgf_fixed_point(law):
    q = extinction_probability(law)
    assert 0.0 <= q <= 1.0
    assert pgf_eval(law, q) == pytest.approx(q, abs=1e-9)


# ---------------------------------------------------------------------------
# tilted moments
# ---------------------------------------------------------------------------


def test_tilted_mass_hand_values(pair_law):
    assert tilted_mass(pair_law, 0.0) == pytest.approx(1.6, abs=1e-15)
    assert tilted_mass(pair_law, 1.0) == pytest.approx(0.8 * (1 + math.exp(-1)), rel=1e-15)
    assert tilted_derivative(pair_law, 0.0) == pytest.approx(-0.8, abs=1e-15)
    assert tilted_derivative(pair_law, 1.0) == pytest.approx(-0.8 * math.exp(-1), rel=1e-15)


@given(finite_laws(), st.floats(-1.5, 1.5, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_tilted_derivative_matches_finite_difference(law, alpha):
    h = 1e-6
    fd = (tilted_mass(law, alpha + h) - tilted_mass(law, alpha - h)) / (2 * h)
    assert tilted_derivative(law, alpha) == pytest.approx(fd, rel=1e-4, abs=1e-4)


def test_tilted_mass_overflow_raises():
    law = FiniteLaw((Atom(1.0, (-500.0, -500.0)),))
    with pytest.raises(MassOverflowError):
        tilted_mass(law, 2.0)


def test_llogl_moment_hand_value(pair_law):
    # theta(1) = 1 + e^{-1} on the pair atom, zero on the childless atom
    theta = 1 + math.exp(-1)
    want = 0.8 * theta * math.log(theta)
    assert llogl_moment(pair_law, 1.0) == pytest.approx(want, rel=1e-15)
    assert want == pytest.approx(0.34280337765027974, rel=1e-12)


@given(finite_laws(), st.floats(-2.0, 2.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_llogl_moment_finite_for_finite_laws(law, alpha):
    assert math.isfinite(llogl_moment(law, alpha))


def test_heavy_law_moments(heavy_law):
    # displacements all vanish: m(alpha) = E[L] for every alpha
    m0 = tilted_mass(heavy_law, 0.0)
    assert m0 == pytest.approx(tilted_mass(heavy_law, 1.0), rel=1e-12)
    assert m0 > 1.0
    assert tilted_derivative(heavy_law, 0.7) == 0.0
    # tail exponent 1.5: E[L log L] diverges
    assert math.isinf(llogl_moment(heavy_law, 0.0))
    # tail exponent 3: E[L log L] converges
    assert math.isfinite(llogl_moment(LogDivergentLaw(3.0), 0.0))


def test_heavy_law_tables_are_shared_and_read_only():
    # every CLI command builds its own law object; equal laws reuse one
    # set of series constants and one sampling table
    a, b = LogDivergentLaw(1.5, n_max=5000), LogDivergentLaw(1.5, n_max=5000)
    assert a is not b
    assert a._cdf is b._cdf
    assert a._exact is b._exact
    assert LogDivergentLaw(1.5, n_max=6000)._cdf is not a._cdf
    with pytest.raises(ValueError):
        a._cdf[0] = 0.5
    assert a._cdf[0] < 1.0 == a._cdf[-1]


# ---------------------------------------------------------------------------
# classification ladder
# ---------------------------------------------------------------------------


def test_classify_standard_laws(binary_law, pair_law, quad_law, critical_law, heavy_law):
    assert classify(binary_law, 1.0).classification is Classification.NONTRIVIAL
    assert classify(pair_law, 1.0).classification is Classification.NONTRIVIAL
    assert classify(quad_law, 5.0).classification is Classification.TRIVIAL_DRIFT
    assert classify(critical_law, 0.0).classification is Classification.NOT_SUPERCRITICAL
    assert classify(heavy_law, 0.0).classification is Classification.TRIVIAL_LLOGL


def test_classify_mass_infinite():
    law = FiniteLaw((Atom(1.0, (-500.0, -500.0)),))
    prof = classify(law, 2.0)
    assert prof.classification is Classification.MASS_INFINITE
    assert math.isinf(prof.m)


def test_classify_profile_hand_values(pair_law):
    prof = classify(pair_law, 1.0)
    assert prof.m == pytest.approx(1.0943035529371539, rel=1e-15)
    assert prof.drift == pytest.approx(0.26894142136999516, rel=1e-13)
    assert prof.gap == pytest.approx(prof.log_m + prof.alpha * prof.drift, rel=1e-13)
    assert prof.classification is Classification.NONTRIVIAL


def test_classify_boundary_band():
    # gap(alpha) of {0.5: (0,), 0.5: (1, 1)} crosses zero; bisect to the root
    law = FiniteLaw((Atom(0.5, (0.0,)), Atom(0.5, (1.0, 1.0))))
    lo, hi = 1.0, 2.0
    assert classify(law, lo).gap > 0 > classify(law, hi).gap
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if classify(law, mid).gap > 0:
            lo = mid
        else:
            hi = mid
    prof = classify(law, 0.5 * (lo + hi))
    assert abs(prof.gap) <= 1e-9
    assert prof.classification is Classification.TRIVIAL_DRIFT_BOUNDARY


def test_classify_is_deterministic(pair_law):
    a = classify(pair_law, 1.0)
    b = classify(pair_law, 1.0)
    assert a == b
    assert repr(a) == repr(b)


@given(finite_laws(), st.floats(-1.0, 1.0, allow_nan=False), st.floats(-1.0, 1.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_shift_covariance(law, alpha, c):
    shifted = FiniteLaw(
        tuple(
            Atom(a.probability, tuple(x + c for x in a.displacements))
            for a in law.atoms
        )
    )
    base = classify(law, alpha)
    moved = classify(shifted, alpha)
    scale = math.exp(-alpha * c)
    assert moved.m == pytest.approx(scale * base.m, rel=1e-9, abs=1e-12)
    assert moved.m_prime == pytest.approx(
        scale * (base.m_prime - c * base.m), rel=1e-9, abs=1e-9
    )
    assert moved.gap == pytest.approx(base.gap, rel=1e-9, abs=1e-9)
    assert moved.classification is base.classification


# ---------------------------------------------------------------------------
# size-biasing and the spine step law
# ---------------------------------------------------------------------------


def test_size_biased_law_hand_values(pair_law):
    biased = size_biased_law(pair_law, 1.0)
    # the childless atom has zero tilt weight and drops out entirely
    assert len(biased.atoms) == 1
    assert biased.atoms[0].displacements == (0.0, 1.0)
    assert biased.atoms[0].probability == pytest.approx(1.0, abs=1e-14)


def test_size_biased_law_mixed_example(quad_law):
    m = tilted_mass(quad_law, 1.0)
    biased = size_biased_law(quad_law, 1.0)
    theta_quad = 1 + 3 * math.exp(-1)
    assert biased.atoms[0].probability == pytest.approx(
        0.5 * theta_quad / m, rel=1e-14
    )
    assert stable_sum(a.probability for a in biased.atoms) == pytest.approx(
        1.0, abs=1e-12
    )


def test_spine_step_law_hand_values(pair_law):
    steps = spine_step_law(pair_law, 1.0)
    assert [x for x, _ in steps] == [0.0, 1.0]
    p0, p1 = (p for _, p in steps)
    assert p0 == pytest.approx(1 / (1 + math.exp(-1)), rel=1e-14)
    assert p1 == pytest.approx(math.exp(-1) / (1 + math.exp(-1)), rel=1e-14)


@given(finite_laws(), st.sampled_from([0.0, 1.0, -0.5]))
@settings(max_examples=80, deadline=None)
def test_spine_step_mean_is_drift(law, alpha):
    steps = spine_step_law(law, alpha)
    mass = stable_sum(p for _, p in steps)
    mean = stable_sum(x * p for x, p in steps)
    drift = -tilted_derivative(law, alpha) / tilted_mass(law, alpha)
    assert mass == pytest.approx(1.0, abs=1e-12)
    assert mean == pytest.approx(drift, abs=1e-12, rel=1e-12)


@given(finite_laws(), st.sampled_from([0.0, 1.0, -0.5]))
@settings(max_examples=80, deadline=None)
def test_size_biased_law_normalizes(law, alpha):
    biased = size_biased_law(law, alpha)
    assert stable_sum(a.probability for a in biased.atoms) == pytest.approx(
        1.0, abs=1e-12
    )
    assert all(a.count > 0 for a in biased.atoms)


# ---------------------------------------------------------------------------
# the L log L bound for bounded broods
# ---------------------------------------------------------------------------


def test_llogl_bound_hand_value(pair_law):
    lhs, rhs, holds = llogl_bound_check(pair_law, 1.0)
    assert holds
    assert lhs == pytest.approx(0.34280337765027974, rel=1e-12)
    assert lhs <= rhs + 1e-12


@given(finite_laws(nonnegative=True), st.floats(0.0, 2.0, allow_nan=False))
@settings(max_examples=80, deadline=None)
def test_llogl_bound_holds_for_nonnegative_displacements(law, alpha):
    # with x >= 0 and alpha >= 0 every tilt weight satisfies theta <= L,
    # so the bound is a theorem rather than a heuristic
    lhs, rhs, holds = llogl_bound_check(law, alpha)
    assert holds, (lhs, rhs)


@given(finite_laws())
@settings(max_examples=80, deadline=None)
def test_llogl_bound_holds_at_alpha_zero(law):
    lhs, rhs, holds = llogl_bound_check(law, 0.0)
    assert holds, (lhs, rhs)


@given(finite_laws(), st.floats(-2.5, 2.5, allow_nan=False))
@settings(max_examples=120, deadline=None)
def test_llogl_bound_holds_everywhere(law, alpha):
    # the convexity bound is a theorem for every finite law and tilt
    lhs, rhs, holds = llogl_bound_check(law, alpha)
    assert holds, (law, alpha, lhs, rhs)


def test_llogl_bound_equality_cases():
    # single-child laws tilted against one-signed displacements attain
    # equality; mixed signs stay strictly below
    law = FiniteLaw((Atom(0.5, (-1.0,)), Atom(0.5, (1.0,))))
    lhs, rhs, holds = llogl_bound_check(law, 1.0)
    assert holds and lhs == pytest.approx(rhs, rel=1e-14)
    assert lhs == pytest.approx(0.5 * math.e, rel=1e-14)
    lhs0, rhs0, holds0 = llogl_bound_check(FiniteLaw((Atom(1.0, (0.0, 0.0)),)), 0.0)
    assert holds0 and lhs0 == pytest.approx(rhs0, rel=1e-14) == pytest.approx(2 * math.log(2))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_atom_draws_match_atom_frequencies(pair_law):
    # uniforms become broods in brw._atoms, one per parent
    u = np.random.default_rng(123).random(20_000)
    hits = int((brw_mod._atoms(pair_law, u) == 0).sum())  # atom 0 is childless
    # binomial(20000, 0.2): 4 sigma is about 226
    assert abs(hits - 4000) < 4 * math.sqrt(20_000 * 0.2 * 0.8)


def test_heavy_atom_draws_count_broods(heavy_law):
    u = np.random.default_rng(5).random(2000)
    atoms = heavy_law._atoms(u)
    assert np.array_equal(brw_mod._atoms(heavy_law, u), atoms)
    assert brw_mod._brood_sizes(heavy_law, atoms).min() >= 2
    # every child is born at its parent's position
    grown = grow_occupation(heavy_law, 1, GrowthCaps(max_nodes=2**40), 5, 50, 0.0)
    assert (grown.population[:, 1] >= 2).all()
    assert not grown.max_position.any()


def test_random_law_generator_is_frozen():
    a = make_random_laws(5, seed=77)
    b = make_random_laws(5, seed=77)
    assert a == b
    assert coin_pair_law() == coin_pair_law()
