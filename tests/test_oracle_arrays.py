"""The array oracle against the recursive reference, its class order and
restriction map, its independence from the ``mu W`` shortcut, and the
log-domain ratios at an extreme tilt."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brwlab.oracle as oracle
import oracle_reference as ref
from brwlab import (
    Atom,
    FiniteLaw,
    TooLargeError,
    count_outcomes,
    count_spined_outcomes,
    enumerate_trees,
    load_law,
    run_verify,
)
from brwlab.cli import _dispatch
from conftest import binary_zero_law, coin_pair_law, finite_laws, quad_or_twin_law

REPO = Path(__file__).resolve().parents[1]
TENTHS = FiniteLaw((Atom(0.3, ()), Atom(0.3, (0.1,)), Atom(0.4, (0.2, 0.7))))
# exp(-746) underflows: the one-child atom's tilt weight, W and the
# size-biased mass all round to 0 on outcomes that survive
UNDERFLOW = FiniteLaw((Atom(0.5, (0.0, 1.0)), Atom(0.5, (1.0,))))
ALPHAS = (0.0, 1.0, -0.5, 5.0)
PARITY_PAIRS = 10**5


def _finite_models() -> list[tuple[str, FiniteLaw]]:
    laws = [(path.stem, load_law(path)) for path in sorted((REPO / "models").glob("*.json"))]
    return [(name, law) for name, law in laws if isinstance(law, FiniteLaw)] + [
        ("tenths", TENTHS)
    ]


PARITY_CASES = [
    (name, law, depth)
    for name, law in _finite_models()
    for depth in range(4)
    if count_spined_outcomes(law, depth) <= PARITY_PAIRS
]


def _assert_same(new, old):
    assert new.check == old.check
    assert new.outcomes == old.outcomes, new.check
    assert new.passed == old.passed, (new, old)
    assert abs(new.max_discrepancy - old.max_discrepancy) <= new.tolerance, (new, old)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize(
    "name,law,depth", PARITY_CASES, ids=[f"{n}-d{d}" for n, _, d in PARITY_CASES]
)
def test_run_verify_matches_recursive_reference(name, law, alpha, depth):
    new, old = run_verify(law, alpha, depth), ref.run_verify(law, alpha, depth)
    assert len(new) == len(old) == 6
    for a, b in zip(new, old):
        _assert_same(a, b)
        assert a.passed, a
    # each public check on its own enumeration, and spine levels one by one
    for name in ("unit_mean", "martingale", "spine_density", "tree_density",
                 "inverse_martingale", "spine_step_mean"):
        _assert_same(
            getattr(oracle, "check_" + name)(law, alpha, depth),
            getattr(ref, "check_" + name)(law, alpha, depth),
        )
    for k in range(depth):
        _assert_same(
            oracle.check_spine_step_mean(law, alpha, depth, k),
            ref.check_spine_step_mean(law, alpha, depth, k),
        )


@given(finite_laws(), st.integers(0, 2), st.sampled_from(ALPHAS))
@settings(max_examples=40, deadline=None)
def test_random_laws_match_recursive_reference(law, depth, alpha):
    for a, b in zip(run_verify(law, alpha, depth), ref.run_verify(law, alpha, depth)):
        _assert_same(a, b)


@pytest.mark.parametrize("name,law", _finite_models())
def test_class_arrays_follow_enumeration_order(name, law):
    depth = max(d for d in range(5) if count_outcomes(law, d) <= 1000)
    levels = oracle._Enumeration(law, 1.0, depth).levels
    outcomes = [[t for t, _ in enumerate_trees(law, n)] for n in range(depth + 1)]
    for n, lv in enumerate(levels):
        assert np.array_equal(lv.p, [p for _, p in enumerate_trees(law, n)])
        assert lv.z.tolist() == [len(ref.generation_positions(law, t, n)) for t in outcomes[n]]
        if n:
            index = {t: i for i, t in enumerate(outcomes[n - 1])}
            assert lv.up.tolist() == [index[ref.restrict(t, n - 1)] for t in outcomes[n]]


def test_blocked_pair_stream_matches_one_block(monkeypatch):
    cases = [(coin_pair_law(), 3), (quad_or_twin_law(), 2), (TENTHS, 3)]
    whole = [run_verify(law, 1.0, depth) for law, depth in cases]
    monkeypatch.setattr(oracle, "_PAIR_BLOCK", 7)
    for (law, depth), before in zip(cases, whole):
        for a, b in zip(run_verify(law, 1.0, depth), before):
            _assert_same(a, b)


def test_spine_density_refuses_more_pairs_than_the_cap():
    # one outcome but 2^40 (outcome, ray) pairs
    with pytest.raises(TooLargeError):
        oracle.check_spine_density(binary_zero_law(), 1.0, 40)


def test_spined_side_is_built_from_the_pick_factors(monkeypatch):
    """Swapping the two child-pick factors of coin_pair's asymmetric atom
    must break every check that reads the spined side pair by pair or
    class by class; a spined mass taken from ``P * W`` would not notice."""
    law = coin_pair_law()
    assert all(r.passed for r in run_verify(law, 1.0, 3))
    original = oracle._tilt_tables

    def swapped(law, alpha):
        tables = original(law, alpha)
        pick = list(tables.log_pick)
        pick[1] = pick[1][::-1]
        return tables._replace(log_pick=tuple(pick))

    monkeypatch.setattr(oracle, "_tilt_tables", swapped)
    failed = {r.check for r in run_verify(law, 1.0, 3) if not r.passed}
    assert {"spine_density", "tree_density", "spine_step_mean"} <= failed


def test_all_checks_hold_where_tilt_weights_underflow():
    results = run_verify(UNDERFLOW, 746.0, 2)
    for r in results:
        assert r.passed, r
    # every surviving outcome counts, also where R and W underflow to 0
    inverse = {r.check: r for r in results}["inverse_martingale"]
    assert inverse.outcomes == 3
    for name in ("unit_mean", "martingale", "spine_density", "tree_density",
                 "inverse_martingale", "spine_step_mean"):
        assert getattr(oracle, "check_" + name)(UNDERFLOW, 746.0, 2).passed, name


def test_verify_exits_zero_where_tilt_weights_underflow(tmp_path, capsys):
    model = tmp_path / "underflow.json"
    model.write_text(json.dumps({
        "type": "finite",
        "atoms": [{"p": 0.5, "x": [0.0, 1.0]}, {"p": 0.5, "x": [1.0]}],
    }))
    code = _dispatch(["verify", "--model", str(model), "--alpha", "746", "--depth", "2"])
    rows = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(rows) == 6 and all(r["pass"] for r in rows)
