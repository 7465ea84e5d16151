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
    summing a short head with Euler-Maclaurin tail corrections whose
    error is bounded explicitly (far below 1e-9).  Sampling inverts the
    law truncated at ``n_max``, the tail mass lumped into the last atom:
    a table over the head, and the tail series past it, so that nothing
    grows with ``n_max``.  The tilted mass is the mean of that truncated
    law, the law that is sampled, so it normalises ``W_n`` and the spine
    weight, and ``pgf_eval`` is its generating function; the ``L log L``
    moment, and so the classification, is the ideal untruncated law's.

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

import json
import math
from enum import Enum
from functools import cached_property, lru_cache
from typing import Iterable, NamedTuple, Union

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
N_MAX_LIMIT = 10_000_000  # heavy-tail truncation; no table or set-up cost grows with it
# past about 1900, (log 2)^-a overflows; long before that the law is binary
# to double precision and no uniform reaches past the head table.  The
# tail integral sets no limit: at a = 1000 its continued fraction takes
# 17-41 steps and 0.1-0.2 ms, against up to 328 steps and 1.3 ms near a = 1
TAIL_EXPONENT_LIMIT = 1000.0

# heavy-tail atoms n <= _HEAD are summed term by term and tabulated; past
# them every series and cdf is an Euler-Maclaurin tail
_HEAD = 1 << 12
# pgf_eval stops summing once s^n < 2^-60
_PGF_CUTOFF = -60 * math.log(2.0)


def stable_sum(values: Iterable[float]) -> float:
    """Sum in nondecreasing magnitude order (deterministic, low cancellation)."""
    total = 0.0
    for v in sorted(values, key=abs):
        total += v
    return total


# ---------------------------------------------------------------------------
# law types
# ---------------------------------------------------------------------------


# Records are NamedTuples, which generate no code at import.  A record
# whose fields are normalised or checked is a NamedTuple base plus a
# subclass whose __new__ does it.


class _Normalised:
    """First base of such a subclass: ``_make``, and so ``_replace``, go
    through its ``__new__`` too."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _AtomFields(NamedTuple):
    probability: float
    displacements: tuple[float, ...]


class Atom(_Normalised, _AtomFields):
    """One reproduction outcome: a probability and a displacement tuple."""

    __slots__ = ()

    def __new__(cls, probability: float, displacements: Iterable[float]):
        return super().__new__(cls, float(probability), tuple(float(x) for x in displacements))

    @property
    def count(self) -> int:
        return len(self.displacements)


class _FiniteLawFields(NamedTuple):
    atoms: tuple[Atom, ...]


class FiniteLaw(_Normalised, _FiniteLawFields):
    # no __slots__: the instance __dict__ holds the cached _tables

    def __new__(cls, atoms: Iterable[Atom]):
        return super().__new__(cls, tuple(atoms))

    @cached_property
    def _tables(self) -> "_FiniteTables":
        cum = np.cumsum([a.probability for a in self.atoms])
        counts = np.array([a.count for a in self.atoms], dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(np.int64)
        flat = np.array(
            [x for a in self.atoms for x in a.displacements], dtype=np.float64
        )
        return _FiniteTables(cum, counts, offsets, flat)


class _FiniteTables(NamedTuple):
    cum_p: np.ndarray
    counts: np.ndarray
    offsets: np.ndarray
    flat_disp: np.ndarray


class _LogDivergentLawFields(NamedTuple):
    tail_exponent: float
    n_max: int


class LogDivergentLaw(_Normalised, _LogDivergentLawFields):
    """Heavy-tail offspring counts ``P[L=n] = c_a / (n^2 (log n)^a)``, n >= 2."""

    __slots__ = ()

    def __new__(cls, tail_exponent: float, n_max: int = 1_000_000):
        return super().__new__(cls, float(tail_exponent), int(n_max))

    # all are shared by every law with the same (tail_exponent, n_max)
    @property
    def _exact(self) -> "_LogFamilyExact":
        return _log_family_exact(self.tail_exponent, self.n_max)

    @property
    def _cdf(self) -> np.ndarray:
        """Read-only head table of the count law (see ``_HeavySampler``)."""
        return _heavy_sampler(self.tail_exponent, self.n_max, False).cdf

    def _atoms(self, u: np.ndarray, size_biased: bool = False) -> np.ndarray:
        """Atom index (brood size minus 2) of each uniform, by inversion of
        the count law, or of its size-biased law ``n p_n / E[L]``."""
        return _heavy_sampler(self.tail_exponent, self.n_max, size_biased).atoms(u)


Law = Union[FiniteLaw, LogDivergentLaw]


# ---------------------------------------------------------------------------
# heavy-tail series with Euler-Maclaurin tail corrections
# ---------------------------------------------------------------------------


class _LogFamilyExact(NamedTuple):
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
    """Tail of the normalizer series ``sum 1/(n^2 (log n)^a)`` from M.

    Its integral ``Gamma(1-a, log M)`` is ``_gamma_ratio`` run on 40-digit
    decimals, which rounds to the double a 30-digit reference gives.  The
    context is a fresh one, so the caller's precision and traps change
    nothing.
    """
    import decimal  # about 1 ms to import, and only heavy-tail laws need it

    with decimal.localcontext(decimal.Context(prec=40)):
        x = decimal.Decimal(M).ln()
        s = 1 - decimal.Decimal(a)
        h = _gamma_ratio(s, x, decimal.Decimal("1e-36"), decimal.Decimal("Infinity"))
        integral = float((s * x.ln() - x).exp() * h)
    return _em_tail(2, a, M, integral)


def _tail_lin(b: float, M: int) -> tuple[float, float]:
    """Tail of ``sum 1/(n (log n)^b)`` from M, for b > 1 (closed-form integral)."""
    integral = math.log(M) ** (1.0 - b) / (b - 1.0)
    return _em_tail(1, b, M, integral)


def _lin_between(b: float, lo: int, hi: int) -> tuple[float, float]:
    """``sum 1/(n (log n)^b)`` over lo <= n < hi, for b > 1: the difference
    of two Euler-Maclaurin tails, its integrals subtracted through
    ``expm1`` so that nothing cancels as b approaches 1."""
    llo, lhi = math.log(math.log(lo)), math.log(math.log(hi))
    integral = math.exp((1.0 - b) * lhi) * math.expm1((1.0 - b) * (llo - lhi)) / (b - 1.0)
    t_lo, e_lo = _em_tail(1, b, lo, 0.0)
    t_hi, e_hi = _em_tail(1, b, hi, 0.0)
    return integral + t_lo - t_hi, e_lo + e_hi


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
    K = _HEAD
    tz, ez = _tail_sq(a, K + 1)
    z = _head(2, a, 2, K) + tz
    c = 1.0 / z
    head_lin = _head(1, a, 2, K)
    tm, em = _tail_lin(a, K + 1)
    mean = c * (head_lin + tm)
    if a > 2.0:
        tl, el = _tail_lin(a - 1.0, K + 1)
        llogl = c * (_head(1, a - 1.0, 2, K) + tl)
    else:
        llogl, el = math.inf, 0.0
    # truncated law: mass at n >= n_max lumped into the n_max atom
    t_lump, e_lump = _tail_sq(a, n_max)
    lump = c * t_lump
    if n_max <= K + 1:
        trunc_lin, e_cut = _head(1, a, 2, n_max - 1), 0.0
    else:
        t_cut, e_cut = _lin_between(a, K + 1, n_max)
        trunc_lin = head_lin + t_cut
    trunc_mean = c * trunc_lin + n_max * lump
    err = c * (ez + em + el + e_cut) + abs(mean) * c * ez + n_max * c * e_lump
    if err > SERIES_TOL:
        raise DomainError(
            f"series tail error bound {err!r} exceeds {SERIES_TOL} for a={a}"
        )
    return _LogFamilyExact(c, mean, llogl, lump, trunc_mean, err)


def _gamma_ratio(s, x, tol=1e-15, inf=math.inf):
    """``Gamma(s, x) e^x x^-s`` for s <= 0 and x >= 1: Legendre's continued
    fraction by the modified Lentz method (Press et al., *Numerical
    Recipes*, 3rd ed., section 6.2), whose denominators stay positive for
    these arguments.  Elementwise on a float array ``x``; ``_tail_sq``
    runs it on ``decimal`` scalars, with its own ``tol`` and ``inf``."""
    den = x + 1 - s
    d = 1 / den
    h, c = d, inf
    for i in range(1, 1000):
        an = -i * (i - s)
        den = den + 2
        d = 1 / (an * d + den)
        c = den + an / c
        delta = d * c
        h = h * delta
        if np.all(abs(delta - 1) < tol):
            return h
    raise NoConvergenceError(float(np.asarray(h, float).max()), 1000)


def _log_tail(p: int, b: float, M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``log F`` and ``B``, elementwise, where ``F(M)`` is the Euler-Maclaurin
    sum of ``n^-p (log n)^-b`` over n >= M in floats, for p = 1 or 2.

    With ``x = log M``, ``F = x^-b e^-(p-1)x B``: the integral is
    ``x^(1-b) / (b-1)`` for p = 1 and ``Gamma(1-b, x)`` for p = 2, and
    ``d log F / d x = -1/B`` up to the derivatives of the correction terms.
    The log form neither overflows nor underflows over the law's domain.
    """
    x = np.log(M)
    e = 1.0 / M
    integral = x / (b - 1.0) if p == 1 else x * _gamma_ratio(1.0 - b, x)
    B = integral + e * (0.5 + (p + b / x) * e / 12.0)
    return np.log(B) - b * np.log(x) - (p - 1) * x, B


def _invert_tail(p: int, b: float, y: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Smallest n in [lo, hi) with ``F(n + 1) < y`` (``F`` as in ``_log_tail``),
    or ``hi`` where there is none.

    Newton's method on ``log F(e^x) = log y``, from ``x = log lo`` or, for
    p = 1, from the root of the integral alone: ``log F`` is convex and
    decreasing in x, and both starts lie left of the root, so the
    iterates climb to it.  The slope leaves out the correction terms,
    which are ``O(1/M)`` of it, so near the root each step cuts the error
    by a factor of about M.  Once a step falls below 1e-10 x, the floor
    of ``e^x`` is the answer, except for uniforms within rounding of a
    cdf boundary.
    """
    log_y = np.log(y)
    x_lo, x_hi = math.log(lo), math.log(hi + 1)
    if p == 1:
        log_x = (log_y + math.log(b - 1.0)) / (1.0 - b)
        x = np.clip(np.exp(np.minimum(log_x, math.log(x_hi))), x_lo, x_hi)
    else:
        x = np.full(y.shape, x_lo)
    for _ in range(100):
        log_f, B = _log_tail(p, b, np.exp(x))
        moved = np.clip(x + (log_f - log_y) * B, x_lo, x_hi)
        done = np.all(np.abs(moved - x) <= 1e-10 * x)
        x = moved
        if done:
            break
    return np.clip(np.floor(np.exp(x)), lo, hi).astype(np.int64)


class _HeavySampler(NamedTuple):
    """Inverse-CDF sampler of a heavy-tail count law with ``O(_HEAD)`` state.

    ``cdf[i]`` is ``P[L <= i + 2]`` for the atoms ``n = 2..first - 1``,
    computed as one cumulative sum (the head of the full table, bit for
    bit); its last entry is 1.0 and stands for ``n >= first``.  Past the
    head the law's tail is ``P[L > n] = (F(n + 1) - shift) / scale`` for
    ``n < n_max``, with ``F`` the float series tail of ``_log_tail`` of
    order ``p``, and ``_invert_tail`` solves it for a uniform past the
    head.  When ``first == n_max`` the table is the whole law.
    """

    cdf: np.ndarray
    first: int
    n_max: int
    p: int
    b: float
    scale: float
    shift: float

    def atoms(self, u: np.ndarray) -> np.ndarray:
        i = np.minimum(np.searchsorted(self.cdf, u, side="right"), self.cdf.size - 1)
        if self.first < self.n_max:
            tail = i == self.cdf.size - 1
            if tail.any():
                # 1 - u is exact: the head holds more than half the mass
                y = (1.0 - u[tail]) * self.scale + self.shift
                i[tail] = _invert_tail(self.p, self.b, y, self.first, self.n_max) - 2
        return i


@lru_cache(maxsize=128)
def _heavy_sampler(a: float, n_max: int, size_biased: bool) -> _HeavySampler:
    """The sampler of the count law (``P[L > n] = c T2(n + 1)``) or of the
    size-biased law (``P[L > n] = (c (T1(n + 1) - T1(n_max)) + n_max lump)
    / truncated_mean``), where ``Tp`` sums ``n^-p (log n)^-a``."""
    exact = _log_family_exact(a, n_max)
    c = exact.normalizer
    first = min(n_max, _HEAD + 1)
    n = np.arange(2, first, dtype=np.float64)
    probs = c / (n * n * np.log(n) ** a)
    if size_biased:
        probs = probs * n / exact.truncated_mean
    cdf = np.empty(first - 1)
    np.cumsum(probs, out=cdf[:-1])
    # The head of a normalized law sums below one, but its float sum can
    # round above.  In ulps of 1.0 that rounding is at most a + 3 per term
    # (log, whose error the power scales by a, the power, the product, the
    # quotient), as much again for c plus 14 for its pairwise sum and
    # reciprocal, and one per term of the running sum.  An excess within
    # that bound means a tail below it: the table is clamped at one, so
    # the tail takes no mass, as ``brw._atoms`` gives a finite law's last
    # atom the rounding excess.
    excess = float(cdf[-2]) - 1.0
    bound = (probs.size + 2.0 * a + 20.0) * np.finfo(np.float64).eps
    if not size_biased and excess > bound:
        raise NormalizationError(
            f"truncated table mass exceeds one by {excess!r}; n_max too small"
        )
    np.minimum(cdf, 1.0, out=cdf)
    cdf[-1] = 1.0
    cdf.flags.writeable = False
    if size_biased:
        log_cut, _ = _log_tail(1, a, np.array([float(n_max)]))
        shift = math.exp(float(log_cut[0])) - n_max * exact.lump_mass / c
        return _HeavySampler(cdf, first, n_max, 1, a, exact.truncated_mean / c, shift)
    return _HeavySampler(cdf, first, n_max, 2, a, 1.0 / c, 0.0)


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
# generating function and extinction
# ---------------------------------------------------------------------------


def pgf_eval(law: Law, s: float) -> float:
    """Offspring-count generating function ``E[s^L]`` on [0, 1].

    For the heavy-tail family it is the generating function of the law
    that is sampled, truncated at ``n_max``: the atoms ``n < n_max`` are
    summed in blocks of ``_HEAD`` terms until ``s^n`` falls below
    ``2^-60``, and the lump adds ``lump_mass * s^n_max``.  Memory stays
    ``O(_HEAD)``.  The error is at most the law's ``tail_error_bound``
    (the error of its constants, below 1e-9), plus ``2^-60`` for the terms
    left out, plus about one ulp per term summed.
    """
    if not 0.0 <= s <= 1.0:
        raise DomainError(f"generating function argument must lie in [0, 1], got {s!r}")
    if isinstance(law, FiniteLaw):
        return stable_sum(a.probability * s**a.count for a in law.atoms)
    if s == 0.0:
        return 0.0
    a, log_s, head = law.tail_exponent, math.log(s), 0.0
    for lo in range(2, law.n_max, _HEAD):
        if lo * log_s < _PGF_CUTOFF:
            break
        n = np.arange(lo, min(lo + _HEAD, law.n_max), dtype=np.float64)
        head += float(np.sum(np.exp(n * log_s) / (n * n * np.log(n) ** a)))
    exact = law._exact
    return exact.normalizer * head + exact.lump_mass * math.exp(law.n_max * log_s)


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
        # all displacements are zero; the mean of the truncated law that
        # is sampled, which normalises W_n and the spine weight
        return law._exact.truncated_mean
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


class TiltProfile(NamedTuple):
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
