"""Monte Carlo estimators with exact references where one exists.

Seeding: replicate ``r`` always draws the counter stream of its key
``replicate_seed(master_seed, r)`` (see ``rng``), its multinomial blocks
included, so no estimator builds a numpy generator or imports
``numpy.random``; results are merged in replicate order, so estimates
are bit-identical for any worker count.
Replicates whose tree growth hits the node cap are discarded, and a run
refusing more than 1% of its replicates aborts with
``ExcessiveDiscardError`` rather than report a biased estimate.

Engines: every estimator runs on one thread.  ``mc_mean_w``,
``mc_triviality_scan`` and ``mc_extinction`` grow plain replicates as
occupation measures with ``brw.grow_occupation``, whose cost follows the
occupied positions rather than the particles; extinction counts
particles only and, stopping at ``_ANALYTIC_SWITCH`` particles, always
draws exactly what ``grow_tree`` would.  ``mc_importance_identity``
grows its size-biased sample with ``spine.grow_spined_batch``, the same
occupation engine plus one spine particle per replicate, each replicate
equal in law to one spined tree grown alone, and its plain-law
reference with ``grow_occupation``.  ``mc_spine_slope``
draws its walks with ``spine.spine_walk_ends``, each equal to one walk
drawn alone.

Agreement bands are four standard errors wide.  Where the reference is
exhaustive enumeration, the importance band takes its standard error
from the exact variance of ``F/W_n`` under the size-biased law,
``E[F^2/W_n; alive] - E[F; alive]^2``, enumerated with the reference.
``F/W_n`` is strongly right-skewed (skew 14.6 for coin_pair, ``min_z:2``,
depth 4), so its sample standard error is smallest exactly when the
large values are missed; the exact one does not depend on the sample.
The mean itself stays right-skewed: over master seeds 0-5,999 of that
run at 2,000 replicates, the exact band failed twice, both above the
reference, where four sample errors failed 3 times, all below.  The
extinction band takes the exact Bernoulli error ``sqrt(q_n (1 - q_n) /
n)`` of its pgf reference ``q_n``: where survival is rare, most samples
hold no survivor and their sample error is 0, which flagged 33 of 40
sound runs on critical_coin at depth 1000 with 100 replicates.  Every
other band uses the sample standard errors.  A failed band on a sound
implementation is an event of one run in thousands or rarer, so
``passed = False`` flags a probable defect; ``unreliable = True`` marks
runs whose estimand has heavy tails (the mean-of-W check outside the
nontrivial-limit regime), where the band is not meaningful, and
mean-of-W and importance runs that discarded any replicate: the
discarded trees are the largest ones, so the estimate is biased.
"""

import math
import sys
from typing import NamedTuple, Sequence

import numpy as np

# grow_tree, martingale_trajectory and grow_spined_tree are unused here but
# stay bound: perfbench/tracing.py patches them in this module
from .brw import (  # noqa: F401
    GrowthCaps,
    _check_growth,
    grow_occupation,
    grow_tree,
    martingale_trajectory,
)
from .errors import DomainError, ExcessiveDiscardError, MassOverflowError
from .offspring import (
    Classification,
    FiniteLaw,
    Law,
    _Normalised,
    classify,
    pgf_eval,
    tilted_derivative,
    tilted_mass,
    validate_law,
)
# enumerate_trees is unused here but stays bound: perfbench/tracing.py
# patches it in this module
from .oracle import (  # noqa: F401
    ENUM_CAP,
    _Enumeration,
    count_outcomes,
    enumerate_trees,
)
# replicate_rng is unused here but stays bound: perfbench/tracing.py
# patches it in this module
from .rng import replicate_rng  # noqa: F401
from .spine import grow_spined_batch, grow_spined_tree, spine_walk_ends  # noqa: F401

# population size at which survival is resolved analytically instead of
# by per-individual simulation (the remaining-survival law is exact)
_ANALYTIC_SWITCH = 256

_DISCARD_LIMIT = 0.01

_ORACLE_REF_CAP = 200_000


def _safe_exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return float("inf")


class _McConfigFields(NamedTuple):
    replicates: int
    depth: int
    master_seed: int
    caps: GrowthCaps


class McConfig(_Normalised, _McConfigFields):
    __slots__ = ()

    def __new__(cls, replicates: int, depth: int, master_seed: int,
                caps: GrowthCaps = GrowthCaps()):
        if replicates < 2:
            raise DomainError(
                f"replicates must be >= 2 (standard error undefined otherwise), "
                f"got {replicates}"
            )
        if depth < 0:
            raise DomainError(f"depth must be >= 0, got {depth}")
        return super().__new__(cls, replicates, depth, master_seed, caps)


class McSummary(NamedTuple):
    estimator: str
    estimate: float
    se: float
    n: int
    discarded: int
    master_seed: int
    reference: float | None
    passed: bool | None
    unreliable: bool = False
    note: str = ""
    kept: tuple[int, ...] = ()
    values: np.ndarray | None = None
    band_se: float | None = None  # standard error the band is 4 of


def _screen(cfg: McConfig, capped: np.ndarray) -> tuple[np.ndarray, int]:
    """Kept replicate ids and discarded count, given which replicates hit
    the node cap; too many discards abort the run."""
    discarded = int(np.count_nonzero(capped))
    if discarded > _DISCARD_LIMIT * cfg.replicates:
        raise ExcessiveDiscardError(discarded, cfg.replicates)
    return np.flatnonzero(~capped), discarded


def _mean_se(values: Sequence[float]) -> tuple[float, float, int]:
    arr = np.asarray(values, dtype=np.float64)
    n = arr.size
    if n == 0:
        raise DomainError("no replicates survived; nothing to estimate")
    est = float(np.mean(arr))
    se = float(np.std(arr, ddof=1) / math.sqrt(n)) if n > 1 else float("inf")
    return est, se, n


def _band(estimate: float, reference: float, se: float) -> bool:
    return abs(estimate - reference) <= 4.0 * se


def _summary(estimator, law_values, discarded, cfg, reference, kept, keep_values,
             unreliable=False, note="", se_extra=0.0, exact_se=None) -> McSummary:
    """Summary of ``law_values``; the band is four times ``exact_se`` or,
    without it, the sample standard error, each combined with
    ``se_extra`` (a Monte Carlo reference's)."""
    est, se, n = _mean_se(law_values)
    passed = band_se = None
    if reference is not None and math.isfinite(reference):
        band_se = math.hypot(se if exact_se is None else exact_se, se_extra)
        passed = _band(est, reference, band_se)
    return McSummary(
        estimator=estimator,
        estimate=est,
        se=se,
        n=n,
        discarded=discarded,
        master_seed=cfg.master_seed,
        reference=reference,
        passed=passed,
        unreliable=unreliable,
        note=note,
        kept=tuple(kept),
        values=np.asarray(law_values, dtype=np.float64) if keep_values else None,
        band_se=band_se,
    )


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


def mc_mean_w(law: Law, alpha: float, cfg: McConfig, keep_values: bool = False) -> McSummary:
    """Sample mean of ``W_depth``; reference ``E[W_n] = 1`` exactly.

    Discarded replicates are the largest trees, so any discard biases
    the estimate low and marks it unreliable."""
    law = validate_law(law)
    profile = classify(law, alpha)
    grown = grow_occupation(law, cfg.depth, cfg.caps, cfg.master_seed, cfg.replicates, alpha,
                            generations=(cfg.depth,))
    kept, discarded = _screen(cfg, grown.capped_at >= 0)
    values = [_safe_exp(x) for x in grown.log_w[kept, 0].tolist()]
    notes = []
    if profile.classification is not Classification.NONTRIVIAL:
        notes.append(
            f"classification {profile.classification.name}: W_n is heavy-tailed "
            "or degenerate here, the four-sigma band is not a reliable gate"
        )
    if discarded:
        notes.append(
            f"{discarded} capped replicates discarded: they are the largest "
            "trees, so the estimate is biased low"
        )
    return _summary("mean_w", values, discarded, cfg, 1.0, kept.tolist(), keep_values,
                    unreliable=bool(notes), note="; ".join(notes))


def mc_spine_slope(law: Law, alpha: float, cfg: McConfig, keep_values: bool = False) -> McSummary:
    """Mean of ``S(xi_depth)/depth`` over distinguished-ray walks; the
    reference is the drift ``-m'(alpha)/m(alpha)``."""
    law = validate_law(law)
    if cfg.depth < 1:
        raise DomainError("spine slope needs depth >= 1")
    # m(alpha) first, so an overflow is refused as every sampler refuses it
    m = tilted_mass(law, alpha)
    _check_growth(cfg.depth, cfg.caps)
    drift = -tilted_derivative(law, alpha) / m
    ends = spine_walk_ends(law, alpha, cfg.depth, cfg.master_seed, cfg.replicates)
    values = (ends / cfg.depth).tolist()
    return _summary("spine_slope", values, 0, cfg, drift, range(cfg.replicates),
                    keep_values)


def mc_extinction(law: Law, cfg: McConfig, keep_values: bool = False) -> McSummary:
    """Fraction of replicates extinct by ``depth``; reference is the exact
    ``depth``-fold pgf iterate at 0.

    Populations are simulated individual by individual only while small;
    past ``_ANALYTIC_SWITCH`` particles the remaining extinction event is
    drawn from its exact probability ``f^(remaining)(0)^Z``, which leaves
    the sampled law unchanged and bounds the cost per replicate.  The band
    is four exact Bernoulli errors of the reference wide; ``se`` is the
    sample's.
    """
    law = validate_law(law)
    # growth counts only and is never capped by nodes: at most
    # _ANALYTIC_SWITCH parents per generation draw broods
    uncapped = GrowthCaps(max_nodes=sys.maxsize, max_depth=cfg.caps.max_depth)
    _check_growth(cfg.depth, uncapped)
    f_iter = [0.0]
    for _ in range(cfg.depth):
        f_iter.append(pgf_eval(law, f_iter[-1]))

    grown = grow_occupation(law, cfg.depth, uncapped, cfg.master_seed, cfg.replicates,
                            generations=(cfg.depth,), stop_above=_ANALYTIC_SWITCH)
    extinct = grown.population[:, 0] == 0
    for r, (g, z, u) in grown.stops.items():
        extinct[r] = u < f_iter[cfg.depth - g] ** z
    values = extinct.astype(np.float64).tolist()
    q = f_iter[cfg.depth]
    return _summary("extinction", values, 0, cfg, q, range(cfg.replicates), keep_values,
                    exact_se=math.sqrt(q * (1.0 - q) / cfg.replicates))


# ---------------------------------------------------------------------------
# triviality scan
# ---------------------------------------------------------------------------

_STABLE_BAND = 0.5  # nats
_DECAY_DROP = 1.0  # nats
_DECAY_WIGGLE = 0.1  # nats of non-monotonicity tolerated


class TrivialityReport(NamedTuple):
    estimator: str
    alpha: float
    grid: tuple[int, ...]
    medians: tuple[float, ...]  # median log W among survivors, per depth
    means: tuple[float, ...]  # mean log W among survivors, per depth
    survivors: tuple[int, ...]
    fractions: tuple[float, ...]  # surviving fraction of kept replicates
    n: int
    discarded: int
    master_seed: int
    verdict: str
    classification: str
    agrees: bool
    values: np.ndarray | None = None  # (replicate, grid) log_w matrix
    kept: tuple[int, ...] = ()


def _median(values: np.ndarray) -> float:
    """``np.median`` of a non-empty array, exactly, without the import of
    ``numpy.ma`` that its first call costs."""
    s = np.sort(values)
    k = s.size // 2
    return float(s[k] if s.size % 2 else (s[k - 1] + s[k]) / 2)


def _scan_verdict(medians: Sequence[float]) -> str:
    if any(not math.isfinite(x) for x in medians):
        return "INCONCLUSIVE"
    if max(abs(x - medians[0]) for x in medians) <= _STABLE_BAND:
        return "STABLE"
    drops = all(
        medians[i + 1] <= medians[i] + _DECAY_WIGGLE for i in range(len(medians) - 1)
    )
    if drops and medians[0] - medians[-1] >= _DECAY_DROP:
        return "DECAYING"
    return "INCONCLUSIVE"


def mc_triviality_scan(
    law: Law,
    alpha: float,
    grid: Sequence[int],
    cfg: McConfig,
    keep_values: bool = False,
) -> TrivialityReport:
    """Survivor-median ``log W_n`` over a depth grid, with a coarse verdict.

    STABLE needs every survivor median within half a nat of the first;
    DECAYING needs a monotone drop of at least one nat end to end;
    everything else (including any grid depth with no survivors) is
    INCONCLUSIVE.  ``agrees`` records consistency with the analytic
    classification: a nontrivial limit must not look DECAYING, a trivial
    one must not look STABLE, and for other classifications any verdict
    is acceptable.
    """
    law = validate_law(law)
    grid = tuple(int(d) for d in grid)
    if not grid or any(d < 0 for d in grid) or tuple(sorted(set(grid))) != grid:
        raise DomainError("depth grid must be sorted, distinct, nonnegative")
    profile = classify(law, alpha)
    grown = grow_occupation(law, grid[-1], cfg.caps, cfg.master_seed, cfg.replicates, alpha,
                            generations=grid)
    kept, discarded = _screen(cfg, grown.capped_at >= 0)
    matrix = grown.log_w[kept]
    medians, means, survivors, fractions = [], [], [], []
    for j in range(len(grid)):
        col = matrix[:, j]
        alive = col[np.isfinite(col)]
        survivors.append(int(alive.size))
        fractions.append(alive.size / kept.size if kept.size else float("nan"))
        medians.append(_median(alive) if alive.size else float("nan"))
        means.append(float(np.mean(alive)) if alive.size else float("nan"))
    verdict = _scan_verdict(medians)
    cls = profile.classification
    if cls is Classification.NONTRIVIAL:
        agrees = verdict != "DECAYING"
    elif cls in (
        Classification.TRIVIAL_LLOGL,
        Classification.TRIVIAL_DRIFT,
        Classification.TRIVIAL_DRIFT_BOUNDARY,
    ):
        agrees = verdict != "STABLE"
    else:
        agrees = True
    return TrivialityReport(
        estimator="triviality_scan",
        alpha=float(alpha),
        grid=grid,
        medians=tuple(medians),
        means=tuple(means),
        survivors=tuple(survivors),
        fractions=tuple(fractions),
        n=int(kept.size),
        discarded=discarded,
        master_seed=cfg.master_seed,
        verdict=verdict,
        classification=cls.name,
        agrees=agrees,
        values=matrix if keep_values else None,
        kept=tuple(kept.tolist()),
    )


# ---------------------------------------------------------------------------
# importance identity
# ---------------------------------------------------------------------------


class Functional(NamedTuple):
    """Bounded tree statistic evaluated at the final generation."""

    name: str
    kind: str
    param: float = 0.0


def parse_functional(text: str) -> Functional:
    """Parse ``one``, ``indicator_z:K``, ``min_z:K`` or ``exp_neg_max:B``."""
    head, _, arg = text.partition(":")
    if head == "one":
        if arg:
            raise DomainError("functional 'one' takes no parameter")
        return Functional(text, "one")
    try:
        if head == "indicator_z":
            k = int(arg)
            if k < 0:
                raise ValueError
            return Functional(text, "indicator_z", float(k))
        if head == "min_z":
            k = int(arg)
            if k < 1:
                raise ValueError
            return Functional(text, "min_z", float(k))
        if head == "exp_neg_max":
            value = float(arg)
            if not math.isfinite(value) or value < 0:
                raise ValueError
            return Functional(text, "exp_neg_max", value)
    except ValueError:
        raise DomainError(f"bad functional parameter in {text!r}") from None
    raise DomainError(
        f"unknown functional {text!r}; expected one, indicator_z:K, min_z:K "
        "or exp_neg_max:B"
    )


def _exps(x: np.ndarray) -> np.ndarray:
    """``_safe_exp`` of each entry.  ``math.exp``, not ``np.exp``, which
    differs from it in the last bit on about 5% of inputs: every artifact
    that holds an importance value would move."""
    try:
        return np.array(list(map(math.exp, x.tolist())))
    except OverflowError:
        return np.array([_safe_exp(v) for v in x.tolist()])


def _functional_values(fn: Functional, z: np.ndarray, top: np.ndarray) -> np.ndarray:
    """``F`` at each ``(Z_n, largest position)`` pair, 0 wherever ``Z_n =
    0``: ``1``, ``1{Z_n = K}``, ``min(Z_n, K)`` or ``exp(-B * max)``, the
    last with ``math.exp``.  Where that overflows the statistic has no
    float value, and the run is refused."""
    if fn.kind == "exp_neg_max":
        with np.errstate(invalid="ignore"):
            args = (-fn.param * np.asarray(top, dtype=np.float64)).tolist()
        try:
            values = list(map(math.exp, args))
        except OverflowError:
            raise MassOverflowError(
                f"functional {fn.name}: exp(-B * max position) overflows a float"
            ) from None
        return np.where(z > 0, np.array(values), 0.0)
    k = int(fn.param)
    if fn.kind == "one":
        f = z > 0
    elif fn.kind == "indicator_z":
        f = (z == k) & (z > 0)
    else:
        f = np.minimum(z, k)
    return f.astype(np.float64)


def _exact_reference(law: FiniteLaw, alpha: float, fn: Functional,
                     depth: int) -> tuple[float, float]:
    """``E[F; alive]`` at ``depth`` and the standard deviation of ``F/W_n``
    under the size-biased law, ``sqrt(E[F^2/W_n; alive] - E[F; alive]^2)``,
    from the outcome classes of the exact enumeration at ``depth``."""
    e = _Enumeration(law, alpha, depth)
    level = e.levels[depth]
    alive = level.z > 0
    p, log_e = level.p[alive], level.log_e[alive]
    f = _functional_values(fn, level.z[alive], level.top[alive])
    ref = math.fsum((p * f).tolist())
    hit = f != 0
    with np.errstate(over="ignore"):
        squares = p[hit] * f[hit] * f[hit] * np.exp(depth * e.log_m - log_e[hit])
    try:
        second = math.fsum(squares.tolist())
    except OverflowError:
        second = math.inf
    return ref, math.sqrt(max(0.0, second - ref * ref))


def _importance_discards(sized: int, plain: int) -> list[str]:
    """The note on discarded replicates of an importance run, if any."""
    if not sized + plain:
        return []
    return [f"{sized + plain} capped replicates discarded ({sized} size-biased, {plain} "
            "plain reference): they are the largest trees, so the estimate is biased"]


def mc_importance_identity(
    law: Law,
    alpha: float,
    functional: Functional,
    cfg: McConfig,
    keep_values: bool = False,
) -> McSummary:
    """Sample ``E_sized[F(T)/W_n]`` and compare against its exact value.

    The change of measure charges only trees alive at generation ``n``,
    so the identity reads ``E_sized[F/W_n] = E_plain[F; Z_n > 0]``.  For
    the built-in functionals other than ``one`` (which all vanish on
    extinct trees) the right side is just ``E_plain[F]``; for ``one``
    the estimator recovers the survival probability to depth ``n``.

    The reference is exact (exhaustive enumeration) when the outcome
    count is small enough, and the band then uses the exact standard
    error of ``F/W_n``; otherwise a plain-law Monte Carlo using the
    replicate index range just above this run's (so the two samples never
    share a stream); the band then uses both standard errors.  Discarded
    replicates, in either sample, are the largest trees, so any discard
    marks the estimate unreliable.
    """
    law = validate_law(law)
    gens = (cfg.depth,)
    sized, _ = grow_spined_batch(law, alpha, cfg.depth, cfg.caps, cfg.master_seed,
                                 cfg.replicates, gens)
    kept, discarded = _screen(cfg, sized.capped_at >= 0)
    f = _functional_values(functional, sized.population[kept, -1], sized.max_position[kept])
    with np.errstate(invalid="ignore"):
        values = f * _exps(-sized.log_w[kept, 0])
    name = f"importance[{functional.name}]"

    exact_ref = isinstance(law, FiniteLaw) and count_outcomes(law, cfg.depth) <= min(
        _ORACLE_REF_CAP, ENUM_CAP
    )
    if exact_ref:
        ref, sd = _exact_reference(law, alpha, functional, cfg.depth)
        exact_se = sd / math.sqrt(len(values)) if math.isfinite(sd) else None
        band = "" if exact_se is None else f", band se {exact_se:.3g} from the exact variance"
        notes = [f"reference: exhaustive enumeration of E[F; alive]{band}",
                 *_importance_discards(discarded, 0)]
        return _summary(name, values, discarded, cfg, ref, kept.tolist(), keep_values,
                        unreliable=len(notes) > 1, note="; ".join(notes), exact_se=exact_se)

    plain = grow_occupation(law, cfg.depth, cfg.caps, cfg.master_seed, cfg.replicates, alpha,
                            gens, first_id=cfg.replicates)
    ref_kept, ref_discarded = _screen(cfg, plain.capped_at >= 0)
    ref, ref_se, _ = _mean_se(_functional_values(functional, plain.population[ref_kept, -1],
                                                 plain.max_position[ref_kept]))
    notes = [f"reference: plain-law Monte Carlo of E[F; alive], se {ref_se:.3g}",
             *_importance_discards(discarded, ref_discarded)]
    return _summary(
        name, values, discarded + ref_discarded, cfg, ref, kept.tolist(), keep_values,
        unreliable=len(notes) > 1, note="; ".join(notes), se_extra=ref_se,
    )
