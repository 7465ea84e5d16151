"""Offspring laws for branching random walk, with exact tilted functionals.

A law describes one reproduction event: a random finite tuple of child
displacements ``(x_1, ..., x_L)``.  Two families are supported.

``FiniteLaw``
    Finitely many atoms, each an explicit displacement tuple with a
    probability.  Everything about it is computed in closed form.

``LogDivergentLaw``
    ``P[L = n] = c_a / (n^2 (log n)^a)`` for ``n >= 2`` with all
    displacements zero.  Built as a stress family: its size-biased
    log-moment ``E[L log L]`` diverges exactly when ``a <= 2``, which is
    the textbook way to produce a degenerate martingale limit without
    touching the drift condition.  Normalizer and moments are computed by
    series summation with Euler-Maclaurin tail corrections whose error is
    bounded explicitly (far below 1e-9); sampling uses an inverse-CDF
    table truncated at ``n_max`` with the tail mass lumped into the last
    atom, while classification always uses the ideal untruncated law.

Sign convention
---------------
For a realization the tilt weight is ``theta(alpha) = sum_i exp(-alpha x_i)``
and the tilted mass is ``m(alpha) = E[theta(alpha)]``.  Throughout this
package ``tilted_derivative`` returns the analytic derivative

    m'(alpha) = d m / d alpha = -E[ sum_i x_i exp(-alpha x_i) ].

Some treatments write the expectation on the right as the definition of
``m'`` and silently drop the minus sign; with that reading the spine
drift formula comes out negated.  Everything downstream here (the drift
``-m'(alpha)/m(alpha)``, the drift gap, the classification) assumes the
derivative convention above, so compare carefully against hand notes.

Classification
--------------
The additive martingale ``W_n(alpha)`` has a nondegenerate limit exactly
when the law is supercritical, ``m(alpha)`` is finite,
``E[theta log+ theta]`` is finite, and the drift gap

    gap(alpha) = log m(alpha) - alpha * m'(alpha) / m(alpha)

is strictly positive.  ``classify`` evaluates the four conditions in a
fixed order and reports the first failure; gaps within 1e-9 of zero are
reported as boundary cases rather than resolved by noise.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import Iterable, Union

import mpmath as mp
import numpy as np

from .errors import (
    DomainError,
    EmptyLawError,
    MassOverflowError,
    NoConvergenceError,
    NormalizationError,
    SubcriticalFamilyError,
    ZeroMassError,
)

PROB_TOL = 1e-12
BOUNDARY_TOL = 1e-9
SERIES_TOL = 1e-9
FIXED_POINT_TOL = 1e-14
MAX_FIXED_POINT_ITER = 100_000
N_MAX_LIMIT = 10_000_000  # heavy-tail truncation; the sampling table holds n_max floats
# past about 1900, (log 2)^-a overflows; long before that the law is binary
# to double precision and the tail integral takes mpmath half a second
TAIL_EXPONENT_LIMIT = 1000.0

_SERIES_HORIZON = 1 << 20


def stable_sum(values: Iterable[float]) -> float:
    """Sum in nondecreasing magnitude order (deterministic, low cancellation)."""
    total = 0.0
    for v in sorted(values, key=abs):
        total += v
    return total


# ---------------------------------------------------------------------------
# law types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Atom:
    """One reproduction outcome: a probability and a displacement tuple."""

    probability: float
    displacements: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "probability", float(self.probability))
        object.__setattr__(
            self, "displacements", tuple(float(x) for x in self.displacements)
        )

    @property
    def count(self) -> int:
        return len(self.displacements)


@dataclass(frozen=True)
class FiniteLaw:
    atoms: tuple[Atom, ...]

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(self.atoms))

    @cached_property
    def _tables(self) -> "_FiniteTables":
        cum = np.cumsum([a.probability for a in self.atoms])
        counts = np.array([a.count for a in self.atoms], dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(np.int64)
        flat = np.array(
            [x for a in self.atoms for x in a.displacements], dtype=np.float64
        )
        return _FiniteTables(cum, counts, offsets, flat)


@dataclass(frozen=True)
class _FiniteTables:
    cum_p: np.ndarray
    counts: np.ndarray
    offsets: np.ndarray
    flat_disp: np.ndarray


@dataclass(frozen=True)
class LogDivergentLaw:
    """Heavy-tail offspring counts ``P[L=n] = c_a / (n^2 (log n)^a)``, n >= 2."""

    tail_exponent: float
    n_max: int = 1_000_000

    def __post_init__(self):
        object.__setattr__(self, "tail_exponent", float(self.tail_exponent))
        object.__setattr__(self, "n_max", int(self.n_max))

    # both are shared by every law with the same (tail_exponent, n_max)
    @property
    def _exact(self) -> "_LogFamilyExact":
        return _log_family_exact(self.tail_exponent, self.n_max)

    @property
    def _cdf(self) -> np.ndarray:
        return _log_family_cdf(self.tail_exponent, self.n_max)


Law = Union[FiniteLaw, LogDivergentLaw]


# ---------------------------------------------------------------------------
# heavy-tail series with Euler-Maclaurin tail corrections
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _LogFamilyExact:
    normalizer: float  # c_a
    mean: float  # ideal E[L]
    llogl: float  # ideal E[L log L]; inf when a <= 2
    lump_mass: float  # P[L = n_max] under the truncated law
    truncated_mean: float
    tail_error_bound: float


def _em_tail(p: int, b: float, M: int, integral: float) -> tuple[float, float]:
    """Euler-Maclaurin sum of ``n^-p (log n)^-b`` over n >= M.

    Returns (tail, error bound).  The bound is the magnitude of the first
    omitted correction term; the integrand's derivatives are monotone at
    these horizons, so it dominates the remainder.
    """
    lm = math.log(M)
    f = M ** (-p) * lm ** (-b)
    fp = -f * (p / M + b / (M * lm))
    f3 = f * (p * (p + 1) * (p + 2) / M**3) * (1.0 + 3.0 * b / lm)
    return integral + f / 2.0 - fp / 12.0, abs(f3) / 720.0 * 4.0


def _tail_sq(a: float, M: int) -> tuple[float, float]:
    """Tail of the normalizer series ``sum 1/(n^2 (log n)^a)`` from M."""
    with mp.workdps(30):
        integral = float(mp.gammainc(1 - a, mp.log(M)))
    return _em_tail(2, a, M, integral)


def _tail_lin(b: float, M: int) -> tuple[float, float]:
    """Tail of ``sum 1/(n (log n)^b)`` from M, for b > 1 (closed-form integral)."""
    integral = math.log(M) ** (1.0 - b) / (b - 1.0)
    return _em_tail(1, b, M, integral)


def _head(p: int, b: float, lo: int, hi: int) -> float:
    """``sum_{n=lo}^{hi} n^-p (log n)^-b`` by vectorized summation."""
    n = np.arange(lo, hi + 1, dtype=np.float64)
    return float(np.sum(n ** (-p) * np.log(n) ** (-b)))


@lru_cache(maxsize=128)
def _log_family_exact(a: float, n_max: int) -> _LogFamilyExact:
    if not 1.0 < a <= TAIL_EXPONENT_LIMIT:
        raise DomainError(
            f"tail_exponent must lie in (1, {TAIL_EXPONENT_LIMIT:g}], got {a!r}"
        )
    if not 4 <= n_max <= N_MAX_LIMIT:
        raise DomainError(f"n_max must lie in [4, {N_MAX_LIMIT}], got {n_max}")
    N = _SERIES_HORIZON
    tz, ez = _tail_sq(a, N + 1)
    z = _head(2, a, 2, N) + tz
    c = 1.0 / z
    tm, em = _tail_lin(a, N + 1)
    mean = c * (_head(1, a, 2, N) + tm)
    if a > 2.0:
        tl, el = _tail_lin(a - 1.0, N + 1)
        llogl = c * (_head(1, a - 1.0, 2, N) + tl)
    else:
        llogl, el = math.inf, 0.0
    # truncated law: mass at n >= n_max lumped into the n_max atom
    t_lump, e_lump = _tail_sq(a, n_max)
    lump = c * t_lump
    trunc_mean = c * _head(1, a, 2, n_max - 1) + n_max * lump
    err = c * (ez + em + el) + abs(mean) * c * ez + n_max * c * e_lump
    if err > SERIES_TOL:
        raise DomainError(
            f"series tail error bound {err!r} exceeds {SERIES_TOL} for a={a}"
        )
    return _LogFamilyExact(c, mean, llogl, lump, trunc_mean, err)


# a table holds n_max floats (80 MB at N_MAX_LIMIT), so few are kept
@lru_cache(maxsize=4)
def _log_family_cdf(a: float, n_max: int) -> np.ndarray:
    """Read-only sampling table over ``2..n_max``, the ideal tail lumped
    into ``n_max``."""
    c = _log_family_exact(a, n_max).normalizer
    n = np.arange(2, n_max, dtype=np.float64)
    probs = c / (n * n * np.log(n) ** a)
    lump = 1.0 - probs.sum()
    cdf = np.empty(n_max - 1)
    np.cumsum(probs, out=cdf[:-1])
    cdf[-1] = 1.0
    if lump < 0:
        raise NormalizationError(
            f"truncated table mass exceeds one by {-lump!r}; n_max too small"
        )
    cdf.flags.writeable = False
    return cdf


# ---------------------------------------------------------------------------
# validation and model files
# ---------------------------------------------------------------------------


def validate_law(law: Law) -> Law:
    """Check a law against its contract and return it.

    Finite laws must have at least one atom, per-atom probabilities in
    (0, 1] with finite displacements, probabilities summing to one within
    1e-12, and at least one atom with offspring.  Heavy-tail laws trigger
    their series computations and must be supercritical.
    """
    if isinstance(law, FiniteLaw):
        if not law.atoms:
            raise EmptyLawError("law has no atoms")
        total = stable_sum(a.probability for a in law.atoms)
        for i, atom in enumerate(law.atoms):
            p = atom.probability
            if not math.isfinite(p) or not 0.0 < p <= 1.0:
                raise NormalizationError(
                    f"atom {i}: probability must lie in (0, 1], got {p!r}"
                )
            for j, x in enumerate(atom.displacements):
                if not math.isfinite(x):
                    raise DomainError(
                        f"atom {i}: displacement {j} is not finite ({x!r})"
                    )
        if abs(total - 1.0) > PROB_TOL:
            raise NormalizationError(
                f"atom probabilities sum to {total!r}, expected 1 within {PROB_TOL}"
            )
        if all(a.count == 0 for a in law.atoms):
            raise EmptyLawError(
                "every atom is childless, the population dies at generation 1 "
                "and all tilted masses vanish"
            )
        return law
    if isinstance(law, LogDivergentLaw):
        exact = law._exact
        if exact.mean <= 1.0:
            raise SubcriticalFamilyError(
                f"mean offspring {exact.mean!r} does not exceed 1"
            )
        return law
    raise DomainError(f"unsupported law object {law!r}")


def law_from_json(obj: dict) -> Law:
    """Build a law from its JSON object form (not yet validated)."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise DomainError("model must be an object with a 'type' field")
    kind = obj["type"]
    if kind == "finite":
        atoms = obj.get("atoms")
        if not isinstance(atoms, list):
            raise DomainError("finite model needs an 'atoms' array")
        parsed = []
        for i, entry in enumerate(atoms):
            try:
                p = float(entry["p"])
                xs = tuple(float(x) for x in entry["x"])
            except (KeyError, TypeError, ValueError) as exc:
                raise DomainError(f"atom {i}: malformed entry ({exc})")
            parsed.append(Atom(p, xs))
        return FiniteLaw(tuple(parsed))
    if kind == "log_divergent":
        try:
            a = float(obj["a"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"log_divergent model needs numeric 'a' ({exc})")
        n_max = obj.get("n_max", 1_000_000)
        if isinstance(n_max, float) and n_max.is_integer():
            n_max = int(n_max)
        if isinstance(n_max, bool) or not isinstance(n_max, int):
            raise DomainError(f"log_divergent model needs an integer 'n_max', got {n_max!r}")
        return LogDivergentLaw(a, n_max)
    raise DomainError(f"unknown model type {kind!r}")


def law_to_json(law: Law) -> dict:
    if isinstance(law, FiniteLaw):
        return {
            "type": "finite",
            "atoms": [
                {"p": a.probability, "x": list(a.displacements)} for a in law.atoms
            ],
        }
    return {"type": "log_divergent", "a": law.tail_exponent, "n_max": law.n_max}


def load_law(path: str) -> Law:
    """Read and validate a model file."""
    with open(path) as fh:
        obj = json.load(fh)
    return validate_law(law_from_json(obj))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def sample_realization(law: Law, rng: np.random.Generator) -> np.ndarray:
    """Draw one reproduction event; consumes exactly one uniform.

    Returns the displacement array of the brood (possibly empty).  Finite
    laws invert the cumulative atom probabilities; the heavy-tail family
    inverts its truncated count table and returns that many zeros.
    """
    u = rng.random()
    if isinstance(law, FiniteLaw):
        t = law._tables
        i = min(int(np.searchsorted(t.cum_p, u, side="right")), len(law.atoms) - 1)
        return np.array(law.atoms[i].displacements, dtype=np.float64)
    cdf = law._cdf
    i = min(int(np.searchsorted(cdf, u, side="right")), len(cdf) - 1)
    return np.zeros(i + 2)


# ---------------------------------------------------------------------------
# generating function and extinction
# ---------------------------------------------------------------------------


def pgf_eval(law: Law, s: float) -> float:
    """Offspring-count generating function ``E[s^L]`` on [0, 1].

    For the heavy-tail family the value is the truncated ideal series
    plus a tail correction ``s^(N+1) * tail(N+1)``; the correction is
    exact at s = 1, monotone in s, and its error is below 2e-12 for
    s <= 1 - 1e-5 and below 5e-8 on the remaining sliver.
    """
    if not 0.0 <= s <= 1.0:
        raise DomainError(f"generating function argument must lie in [0, 1], got {s!r}")
    if isinstance(law, FiniteLaw):
        return stable_sum(a.probability * s**a.count for a in law.atoms)
    if s == 0.0:
        return 0.0
    a, c = law.tail_exponent, law._exact.normalizer
    N = _SERIES_HORIZON
    n = np.arange(2, N + 1, dtype=np.float64)
    head = float(np.sum(np.exp(n * math.log(s)) / (n * n * np.log(n) ** a)))
    tail, _ = _tail_sq(a, N + 1)
    return c * (head + math.exp((N + 1) * math.log(s)) * tail)


def extinction_probability(law: Law) -> float:
    """Smallest fixed point of the offspring generating function.

    Depends only on the atom counts.  Critical and subcritical laws die
    out almost surely, so the answer is exactly one whenever the mean
    offspring is at most one; otherwise monotone iteration from zero
    converges geometrically and stops when steps fall below 1e-14.
    """
    law = validate_law(law)
    if tilted_mass(law, 0.0) <= 1.0:
        return 1.0
    s = 0.0
    for _ in range(MAX_FIXED_POINT_ITER):
        s_next = pgf_eval(law, s)
        if abs(s_next - s) < FIXED_POINT_TOL:
            return s_next
        s = s_next
    raise NoConvergenceError(s, MAX_FIXED_POINT_ITER)


# ---------------------------------------------------------------------------
# tilted functionals
# ---------------------------------------------------------------------------


def _tilt_weight(atom: Atom, alpha: float) -> float:
    """``theta(alpha) = sum_i exp(-alpha x_i)`` for one atom."""
    try:
        terms = [math.exp(-alpha * x) for x in atom.displacements]
    except OverflowError:
        raise MassOverflowError(
            f"exp(-alpha*x) overflowed for alpha={alpha!r} on {atom.displacements!r}"
        )
    return stable_sum(terms)


def tilted_mass(law: Law, alpha: float) -> float:
    """``m(alpha) = E[sum_i exp(-alpha x_i)]``.

    Raises ``DomainError`` for a non-finite ``alpha``, ``MassOverflowError``
    when the sum overflows and ``ZeroMassError`` when it underflows to 0.
    """
    if not math.isfinite(alpha):
        raise DomainError(f"alpha must be finite, got {alpha!r}")
    if isinstance(law, LogDivergentLaw):
        return law._exact.mean  # all displacements are zero
    total = stable_sum(a.probability * _tilt_weight(a, alpha) for a in law.atoms)
    if math.isinf(total):
        raise MassOverflowError(f"tilted mass overflowed at alpha={alpha!r}")
    if total == 0.0:
        raise ZeroMassError(f"tilted mass underflowed to 0 at alpha={alpha!r}")
    return total


def tilted_derivative(law: Law, alpha: float) -> float:
    """Analytic derivative ``m'(alpha) = -E[sum_i x_i exp(-alpha x_i)]``.

    See the module docstring for the sign convention.
    """
    if isinstance(law, LogDivergentLaw):
        return 0.0
    try:
        inner = [
            stable_sum(x * math.exp(-alpha * x) for x in a.displacements)
            for a in law.atoms
        ]
    except OverflowError:
        raise MassOverflowError(f"tilted derivative overflowed at alpha={alpha!r}")
    total = -stable_sum(a.probability * v for a, v in zip(law.atoms, inner))
    if math.isinf(total):
        raise MassOverflowError(f"tilted derivative overflowed at alpha={alpha!r}")
    return total


def llogl_moment(law: Law, alpha: float) -> float:
    """``E[theta log+ theta]``; ``inf`` when the series diverges."""
    if isinstance(law, LogDivergentLaw):
        return law._exact.llogl  # theta == L at every alpha
    terms = []
    for a in law.atoms:
        theta = _tilt_weight(a, alpha)
        terms.append(a.probability * theta * math.log(theta) if theta > 1.0 else 0.0)
    return stable_sum(terms)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


class Classification(Enum):
    NONTRIVIAL = "NONTRIVIAL"
    TRIVIAL_LLOGL = "TRIVIAL_LLOGL"
    TRIVIAL_DRIFT = "TRIVIAL_DRIFT"
    TRIVIAL_DRIFT_BOUNDARY = "TRIVIAL_DRIFT_BOUNDARY"
    NOT_SUPERCRITICAL = "NOT_SUPERCRITICAL"
    MASS_INFINITE = "MASS_INFINITE"


@dataclass(frozen=True)
class TiltProfile:
    """Everything ``classify`` knows about one (law, alpha) pair."""

    alpha: float
    m: float
    m_prime: float
    drift: float
    log_m: float
    llogl: float
    gap: float
    classification: Classification
    reason: str


def classify(law: Law, alpha: float) -> TiltProfile:
    """Decide whether the additive martingale limit is degenerate.

    Conditions are checked in a fixed order: supercriticality, finite
    tilted mass, finite ``theta log+ theta`` moment, then the drift gap,
    with gaps inside the 1e-9 boundary band reported as such.
    """
    law = validate_law(law)
    m0 = tilted_mass(law, 0.0)
    try:
        m = tilted_mass(law, alpha)
        m_prime = tilted_derivative(law, alpha)
        overflow = False
    except MassOverflowError:
        m, m_prime, overflow = math.inf, math.nan, True
    if overflow:
        drift = log_m = gap = llogl = math.nan
        log_m = math.inf
    else:
        drift = -m_prime / m
        log_m = math.log(m)
        llogl = llogl_moment(law, alpha)
        gap = log_m - alpha * m_prime / m

    if m0 <= 1.0:
        cls = Classification.NOT_SUPERCRITICAL
        reason = f"mean offspring {m0!r} does not exceed 1, extinction is certain"
    elif overflow:
        cls = Classification.MASS_INFINITE
        reason = f"tilted mass is not finite at alpha={alpha!r}"
    elif math.isinf(llogl):
        cls = Classification.TRIVIAL_LLOGL
        reason = "E[theta log+ theta] diverges, the limit vanishes"
    elif abs(gap) <= BOUNDARY_TOL:
        cls = Classification.TRIVIAL_DRIFT_BOUNDARY
        reason = (
            f"drift gap {gap!r} is inside the +/-{BOUNDARY_TOL} boundary band; "
            "treat as the critical-tilt case"
        )
    elif gap < -BOUNDARY_TOL:
        cls = Classification.TRIVIAL_DRIFT
        reason = f"drift gap {gap!r} is negative, the limit vanishes"
    else:
        cls = Classification.NONTRIVIAL
        reason = (
            f"supercritical, llogl finite, drift gap {gap!r} positive: "
            "the martingale limit is nondegenerate"
        )
    return TiltProfile(alpha, m, m_prime, drift, log_m, llogl, gap, cls, reason)


# ---------------------------------------------------------------------------
# size-biasing and the spine step law
# ---------------------------------------------------------------------------


def size_biased_law(law: FiniteLaw, alpha: float) -> FiniteLaw:
    """Reweight atoms by their tilt weight: ``p_hat = p * theta / m``.

    Childless atoms have zero tilt weight and drop out, so the result
    always reproduces.
    """
    if not isinstance(law, FiniteLaw):
        raise DomainError("size-biasing is defined for finite laws only")
    law = validate_law(law)
    m = tilted_mass(law, alpha)
    atoms = tuple(
        Atom(a.probability * _tilt_weight(a, alpha) / m, a.displacements)
        for a in law.atoms
        if a.count > 0
    )
    return validate_law(FiniteLaw(atoms))


def spine_step_law(law: FiniteLaw, alpha: float) -> list[tuple[float, float]]:
    """Marginal law of one spine displacement, as (value, probability) pairs.

    ``P[X = x] = E[ sum_{i: x_i = x} exp(-alpha x) ] / m(alpha)``; the
    mean is the spine drift ``-m'(alpha)/m(alpha)``.  Pairs are sorted by
    displacement value.
    """
    if not isinstance(law, FiniteLaw):
        raise DomainError("the spine step law is defined for finite laws only")
    law = validate_law(law)
    m = tilted_mass(law, alpha)
    buckets: dict[float, list[float]] = {}
    for a in law.atoms:
        for x in a.displacements:
            buckets.setdefault(x, []).append(a.probability * math.exp(-alpha * x))
    return [(x, stable_sum(buckets[x]) / m) for x in sorted(buckets)]


def llogl_bound_check(law: FiniteLaw, alpha: float) -> tuple[float, float, bool]:
    """Closed-form upper bound on ``E[theta log+ theta]`` for bounded broods.

    Pointwise, ``log+ theta <= log+(theta/L) + log+ L`` (subadditivity of
    ``log+``), and Jensen applied to the convex map ``x -> x log+ x`` over
    the ``L`` children gives ``theta log+(theta/L) <= sum_i
    max(-alpha x_i, 0) e^{-alpha x_i}``.  Hence

        lhs = E[theta log+ theta]
        rhs = E[sum_i max(-alpha x_i, 0) e^{-alpha x_i}]
              + log(max brood size) * m(alpha)

    holds for every finite law and every alpha, with equality for
    single-child laws whose displacements are never tilted upward.  The
    check makes the moment condition automatic for bounded broods;
    ``holds`` allows 1e-12 slack.
    """
    if not isinstance(law, FiniteLaw):
        raise DomainError("the bound applies to finite laws only")
    law = validate_law(law)
    lhs = llogl_moment(law, alpha)
    max_count = max(a.count for a in law.atoms if a.count > 0)
    try:
        upward = stable_sum(
            a.probability * max(-alpha * x, 0.0) * math.exp(-alpha * x)
            for a in law.atoms
            for x in a.displacements
        )
    except OverflowError:
        raise MassOverflowError(
            f"exp(-alpha*x) overflowed for alpha={alpha!r} in the bound check"
        )
    rhs = upward + math.log(max_count) * tilted_mass(law, alpha)
    # single-child laws attain exact equality, so the slack must absorb
    # rounding at the magnitude of rhs (relative above 1, absolute below)
    return lhs, rhs, lhs <= rhs + 1e-12 * max(1.0, abs(rhs))
