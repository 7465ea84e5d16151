"""The heavy-tail law ``LogDivergentLaw`` without ``n_max``-sized tables.

Its constants come from a short head plus Euler-Maclaurin tails, and its
sampler keeps a head table and inverts uniforms past it through the
tail series.  These tests hold both to the full-horizon reference in
``heavy_tail_reference`` (the computation they replaced), to mpmath, and
to a memory bound.  They check that importing brwlab loads none of mpmath,
``numpy.random``, ``dataclasses`` and ``decimal``, and that heavy-tail
commands load no mpmath.  The last tests check that ``W_n`` and the spine
weight are normalised by the mean of the truncated law that is sampled.
"""

import decimal
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import heavy_tail_reference as ref
from brwlab import offspring
from brwlab import (DomainError, GrowthCaps, LogDivergentLaw, NoConvergenceError,
                    NormalizationError, classify, load_law)
from brwlab.cli import _dispatch
from brwlab.mc import McConfig, mc_importance_identity, parse_functional
from brwlab.offspring import (
    _HEAD,
    N_MAX_LIMIT,
    SERIES_TOL,
    _gamma_ratio,
    _heavy_sampler,
    _log_family_exact,
    _log_tail,
)
from brwlab.spine import _spine_tables

REPO = Path(__file__).resolve().parent.parent
CONSTANTS = ("normalizer", "mean", "llogl", "lump_mass", "truncated_mean")


def _within_ulps(x: float, y: float, ulps: int) -> bool:
    return x == y or abs(x - y) <= ulps * math.ulp(max(abs(x), abs(y)))


def _run_child(code: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=REPO, env={**os.environ, "PYTHONPATH": str(REPO / "src")})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_import_loads_neither_mpmath_nor_numpy_random():
    # nor dataclasses: records are NamedTuples, which generate no code;
    # nor decimal, which only a heavy-tail law's constants import
    code = ("import json, sys, brwlab, brwlab.cli; print(json.dumps([m for m in "
            "('mpmath', 'numpy.random', 'dataclasses', 'decimal') if m in sys.modules]))")
    assert json.loads(_run_child(code)) == []


def test_heavy_tail_commands_load_no_mpmath():
    # the tail integral is a decimal continued fraction: mpmath is for
    # the tests' references only
    heavy = ["--model", "models/heavy_tail.json", "--alpha", "0"]
    runs = [["classify", *heavy],
            ["spine", *heavy, "--depth", "1", "--reps", "5", "--seed", "1"],
            ["mc", "--estimator", "importance", "--functional", "one", *heavy, "--depth", "1",
             "--reps", "50", "--seed", "1"]]
    code = ("import json, sys\nfrom brwlab.cli import _dispatch\n"
            f"codes = [_dispatch(args) for args in {runs!r}]\n"
            "print(json.dumps([codes, [m for m in ('decimal', 'mpmath') if m in sys.modules]]))")
    assert json.loads(_run_child(code)) == [[0, 0, 0], ["decimal"]]


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


# n_max = 4097 is the last truncation summed term by term, 4098 the first
# that takes the tail difference
@pytest.mark.parametrize("n_max", [100, _HEAD + 1, _HEAD + 2, 10**6])
@pytest.mark.parametrize("a", [1.01, 1.5, 3.0, 10.0])
def test_constants_match_full_horizon_reference(a, n_max):
    exact, old = _log_family_exact(a, n_max), ref.exact_constants(a, n_max)
    for name in CONSTANTS:
        assert _within_ulps(getattr(exact, name), old[name], 4), name
    assert exact.tail_error_bound <= SERIES_TOL


def test_constants_at_n_max_limit_match_mpmath():
    # the full-horizon reference sums 10^7 floats for the truncated mean
    # here and lands 5 ulp from the 30-digit value, so this point is held
    # to mpmath instead
    a, n_max = 1.5, N_MAX_LIMIT
    exact = _log_family_exact(a, n_max)

    def f2(n):
        return 1 / (n**2 * mp.log(n) ** a)

    def f1(n):
        return 1 / (n * mp.log(n) ** a)

    with mp.workdps(30):
        c = 1 / (mp.fsum(f2(n) for n in range(2, _HEAD + 1)) + mp.sumem(f2, [_HEAD + 1, mp.inf]))
        lump = c * mp.sumem(f2, [n_max, mp.inf])
        lin = mp.fsum(f1(n) for n in range(2, _HEAD + 1)) + mp.sumem(f1, [_HEAD + 1, n_max - 1])
        want = {"normalizer": float(c), "lump_mass": float(lump),
                "truncated_mean": float(c * lin + n_max * lump)}
    for name, value in want.items():
        assert _within_ulps(getattr(exact, name), value, 4), name


# a from just above one to TAIL_EXPONENT_LIMIT, at a spacing that rounds
# every value to a double with a long decimal expansion
TAIL_INTEGRAL_EXPONENTS = (1.0 + np.geomspace(1e-7, 999.0, 24)).tolist()


@pytest.mark.parametrize("M", [4, _HEAD + 1, _HEAD + 2, N_MAX_LIMIT])
def test_tail_integral_is_the_30_digit_double(M, monkeypatch):
    # Gamma(1 - a, log M) in _tail_sq is the very double 30-digit mpmath
    # rounds to, so every constant stays bit for bit; the same continued
    # fraction in floats misses it at most points, by up to 1,300 ulp
    monkeypatch.setattr(offspring, "_em_tail", lambda p, b, M, integral: (integral, 0.0))
    for a in TAIL_INTEGRAL_EXPONENTS:
        with mp.workdps(30):
            want = float(mp.gammainc(1 - a, mp.log(M)))
        assert offspring._tail_sq(a, M)[0] == want, a


@pytest.mark.parametrize("a, n_max", [(1.5, 10**6), (1.0001, N_MAX_LIMIT), (1000.0, 4)])
def test_caller_decimal_context_changes_no_constant(a, n_max):
    _log_family_exact.cache_clear()
    want = _log_family_exact(a, n_max)
    _log_family_exact.cache_clear()
    try:
        with decimal.localcontext():
            decimal.getcontext().prec = 6
            decimal.getcontext().traps[decimal.Inexact] = True
            got = _log_family_exact(a, n_max)
    finally:
        _log_family_exact.cache_clear()
    for name in CONSTANTS:
        assert getattr(got, name) == getattr(want, name), name


@pytest.mark.parametrize("a", [1.0001, 1.5, 2.0, 3.0, 50.0, 1000.0])
def test_tail_error_bound_within_series_tol(a):
    for n_max in (4, 1000, 10**6, N_MAX_LIMIT):
        try:
            exact = _log_family_exact(a, n_max)
        except DomainError:
            # refused by the bound of the lump, which no head length changes
            assert ref.exact_constants(a, n_max)["tail_error_bound"] > SERIES_TOL
            continue
        assert exact.tail_error_bound <= SERIES_TOL


# ---------------------------------------------------------------------------
# float tail series
# ---------------------------------------------------------------------------

TAIL_EXPONENTS = [1.0001, 1.001, 1.01, 1.1, 1.5, 2.0, 3.0, 5.0, 10.0, 30.0, 100.0, 300.0, 1000.0]
TAIL_STARTS = np.unique(np.round(np.geomspace(4, N_MAX_LIMIT, 25)))


def test_gamma_continued_fraction_matches_mpmath():
    x = np.log(TAIL_STARTS)
    for a in TAIL_EXPONENTS:
        got = _gamma_ratio(1.0 - a, x)
        with mp.workdps(30):
            for xi, g in zip(x.tolist(), got.tolist()):
                X = mp.mpf(xi)
                want = mp.gammainc(1 - a, X) * mp.exp(X) * X ** (a - 1)
                assert abs(g - want) <= 1e-13 * want, (a, xi)


def test_continued_fraction_past_its_cap_raises():
    # a tolerance no step meets runs the loop to its cap, in floats and on
    # the decimals of _tail_sq
    with pytest.raises(NoConvergenceError):
        _gamma_ratio(-0.5, np.array([2.0, 3.0]), tol=0.0)
    D = decimal.Decimal
    with decimal.localcontext(decimal.Context(prec=40)), pytest.raises(NoConvergenceError):
        _gamma_ratio(D(-0.5), D(2), D(0), D("Infinity"))


def test_log_tail_matches_mpmath():
    for a in TAIL_EXPONENTS:
        for p in (1, 2):
            got, _ = _log_tail(p, a, TAIL_STARTS)
            with mp.workdps(30):
                for M, g in zip(TAIL_STARTS.tolist(), got.tolist()):
                    M = mp.mpf(M)
                    L = mp.log(M)
                    f = M**-p * L**-a
                    integral = L ** (1 - a) / (a - 1) if p == 1 else mp.gammainc(1 - a, L)
                    want = mp.log(integral + f / 2 + f * (p / M + a / (M * L)) / 12)
                    assert abs(g - want) <= 1e-13 * max(1, abs(want)), (a, p, float(M))


# ---------------------------------------------------------------------------
# sampler
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("size_biased", [False, True])
@pytest.mark.parametrize("n_max", [1 << 16, 1000])
@pytest.mark.parametrize("a", [1.5, 3.0])
def test_sampler_matches_full_table(a, n_max, size_biased):
    """The head table is the prefix of the full cumulative table bit for
    bit, and every uniform, densely past the head, draws the full table's
    atom, unless it lies within 1e-12 of one of that table's entries."""
    exact = _log_family_exact(a, n_max)
    full = ref.full_cdf(a, n_max, exact.normalizer, exact.truncated_mean if size_biased else None)
    head = _heavy_sampler(a, n_max, size_biased).cdf
    assert head.size == min(n_max - 1, _HEAD)
    assert np.array_equal(head[:-1], full[: head.size - 1]) and head[-1] == 1.0
    u = np.concatenate([np.linspace(0.0, 1.0, 20_000, endpoint=False),
                        np.linspace(head[-2], 1.0, 100_000, endpoint=False),
                        1.0 - 2.0**-53 * np.arange(1, 1000)])
    got = LogDivergentLaw(a, n_max)._atoms(u, size_biased)
    want = np.minimum(np.searchsorted(full, u, side="right"), full.size - 1)
    assert want.max() == n_max - 2 and np.count_nonzero(want >= head.size - 1) >= 100_000
    off = np.flatnonzero(got != want)
    edge = full[np.minimum(got[off], want[off])]
    assert np.all(np.abs(u[off] - edge) <= 1e-12), u[off][np.abs(u[off] - edge) > 1e-12]


# stated before measuring: the whole set-up of one heavy-tail law at
# n_max = 10^7 (constants, both samplers, spine tables and a few draws)
# allocates under 2 MB; its full tables took 80 MB each
SETUP_PEAK_BYTES = 2_000_000


def test_setup_allocates_nothing_n_max_sized():
    _log_family_exact(1.75, 5000)  # imports decimal outside the measurement
    for cached in (_log_family_exact, _heavy_sampler, _spine_tables):
        cached.cache_clear()
    law = LogDivergentLaw(1.5, N_MAX_LIMIT)
    u = np.array([0.5, 1.0 - 1e-6, 1.0 - 2.0**-53])
    tracemalloc.start()
    try:
        law._exact, law._cdf, _spine_tables(law, 0.0)
        plain, biased = law._atoms(u), law._atoms(u, size_biased=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert plain[-1] == biased[-1] == N_MAX_LIMIT - 2  # the lump
    assert peak < SETUP_PEAK_BYTES


# ---------------------------------------------------------------------------
# generating function of the sampled law
# ---------------------------------------------------------------------------

_PGF_ARGS = (0.1, 0.5, 0.9, 0.99, 1.0 - 1e-6, 1.0 - 1e-9, 1.0)


@pytest.mark.parametrize("a, n_max", [(1.5, 100), (1.5, 5000), (2.5, 100_000), (1.01, 1000)])
def test_pgf_describes_the_sampled_law(a, n_max):
    """Within its documented bound, ``pgf_eval`` is ``E[s^L]`` of the full
    truncated pmf, the lump at ``n_max`` included."""
    law = LogDivergentLaw(a, n_max)
    exact = law._exact
    pmf = np.diff(ref.full_cdf(a, n_max, exact.normalizer), prepend=0.0)
    n = np.arange(2, n_max + 1, dtype=np.float64)
    bound = exact.tail_error_bound + 2.0**-60 + n_max * np.finfo(np.float64).eps
    for s in _PGF_ARGS:
        want = math.fsum((pmf * s**n).tolist())
        assert abs(offspring.pgf_eval(law, s) - want) <= bound, s


# stated before measuring: at n_max = 10^7 one value near s = 1 (every
# atom summed) allocates under 1 MB; a sum over the whole horizon at once
# took 42 MB
PGF_PEAK_BYTES = 1_000_000


def test_pgf_allocates_nothing_n_max_sized():
    law = LogDivergentLaw(1.5, N_MAX_LIMIT)
    law._exact  # the constants are set-up, measured above
    tracemalloc.start()
    try:
        value = offspring.pgf_eval(law, 1.0 - 1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.99 < value < 1.0
    assert peak < PGF_PEAK_BYTES


# ---------------------------------------------------------------------------
# W_n normalised by the mean of the sampled, truncated law
# ---------------------------------------------------------------------------


def test_size_biased_inverse_weight_has_mean_one():
    # E_sized[1/W_1] = 1 exactly: W_1 = Z_1 / m and the spine brood is
    # n p_n / E[L], so it holds when m is the mean of the law sampled.
    # Enumerated over the 99 atoms of the truncated law at n_max = 100,
    # once from the brute-force pmf and once from the sampler's table
    law = LogDivergentLaw(1.5, 100)
    c = law._exact.normalizer
    n = np.arange(2, 101, dtype=np.float64)
    pmf = c / (n * n * np.log(n) ** 1.5)
    pmf[-1] = 1.0 - math.fsum(pmf[:-1].tolist())  # the lump at n_max
    sized = pmf * n / math.fsum((pmf * n).tolist())
    m = math.exp(classify(law, 0.0).log_m)
    # the series constants are good to SERIES_TOL
    assert abs(math.fsum((sized * m / n).tolist()) - 1.0) < SERIES_TOL
    tables = _spine_tables(law, 0.0)
    table = np.diff(tables.atom_cum, prepend=0.0)
    assert table.size == 99
    assert abs(math.fsum((table * math.exp(tables.log_m) / n).tolist()) - 1.0) < 1e-12
    # the classification still speaks of the ideal law: E[L log L] = inf
    assert math.isinf(classify(law, 0.0).llogl)
    assert classify(law, 0.0).classification.name == "TRIVIAL_LLOGL"


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_shipped_heavy_tail_passes_the_importance_identity(seed):
    # importance of F = 1 estimates E_sized[1/W_n] = 1 (the law never dies
    # out); normalised by the ideal mean it read 1.2^n and failed 9 of these
    # 12 runs.  1.5-3 s per seed
    law = load_law(str(REPO / "models" / "heavy_tail.json"))
    for depth, reps in ((1, 2000), (2, 500), (3, 200), (4, 60)):
        cfg = McConfig(reps, depth, seed, GrowthCaps(max_nodes=2**62))
        summary = mc_importance_identity(law, 0.0, parse_functional("one"), cfg)
        assert summary.passed and not summary.unreliable, (depth, summary.estimate)


ROUNDED_ABOVE_ONE = (14.692307692307692, 1000)  # head sum rounds one ulp above 1


def test_head_rounding_above_one_simulates(tmp_path):
    # the head of this law sums to 1 + 2^-52 in floats; that is within the
    # head's rounding bound, so the table is clamped at one and the law
    # samples rather than being refused
    a, n_max = ROUNDED_ABOVE_ONE
    sampler = _heavy_sampler(a, n_max, False)
    assert sampler.cdf.max() == 1.0
    model = tmp_path / "steep.json"
    model.write_text(json.dumps({"type": "log_divergent", "a": a, "n_max": n_max}))
    out = tmp_path / "runs.csv"
    assert _dispatch(["simulate", "--model", str(model), "--alpha", "0", "--depth", "4",
                      "--reps", "20", "--seed", "1", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 20 * 5


def test_refusal_above_the_rounding_bound_prints_a_plain_float(monkeypatch):
    # a normalizer 1e-9 too large carries the head 1e-9 above one, far past
    # the rounding bound: still refused, and the message shows a float,
    # not a numpy repr
    a, n_max = ROUNDED_ABOVE_ONE
    exact = _log_family_exact(a, n_max)
    inflated = exact._replace(normalizer=exact.normalizer * (1.0 + 1e-9))
    monkeypatch.setattr(offspring, "_log_family_exact", lambda *_: inflated)
    with pytest.raises(NormalizationError,
                       match=r"exceeds one by [0-9.]+e-[0-9]+; n_max too small$"):
        _heavy_sampler.__wrapped__(a, n_max, False)
