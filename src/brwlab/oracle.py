"""Exact verification of the change-of-measure identities by exhaustive
enumeration.

Outcomes are canonical nested tuples.  A depth-``n`` outcome is ``None``
when ``n == 0`` (the node's brood is past the horizon) and otherwise
``(atom_index, children)`` with one depth-``(n-1)`` outcome per child,
children kept in birth order.  Distinguishable ordered children mean no
quotient by tree isomorphism is taken.  A ray is a tuple of child slots
of length ``depth``; extinct outcomes have no rays.  The public
enumerators (``enumerate_trees``, ``enumerate_spined_trees``,
``iter_rays``, ``w_value``, ...) walk these tuples one at a time.

The six identity checks never build a tuple.  Level ``k`` holds the
depth-``k`` outcomes as classes in ``enumerate_trees`` order: atom index
ascending, then child combinations lexicographic, so the class of
``(a, (c_1, ..., c_L))`` sits at the atom's offset plus the mixed-radix
number ``c_1 ... c_L`` in base ``N_{k-1}``.  Every per-class quantity of
level ``k`` is a numpy gather or product over those child indices of
level ``k-1``: the plain probability ``P``, the generation size ``Z``,
``log E`` with ``E = sum exp(-alpha S)`` over generation ``k`` (so
``W_k = exp(log E - k log m)``), the probability ``Q`` of the last
generation given the first ``k-1``, and the restriction map to level
``k-1`` (the same mixed-radix arithmetic applied to the children's
restrictions).

The size-biased side is built factor by factor, never from ``P * W``:
a spined brood contributes the biased atom mass ``p_a theta_a / m`` and
the child-pick factor ``exp(-alpha x_slot) / theta_a``, and every
off-ray child its plain probability.  Per class this gives the
ray-summed spined mass ``R = biased_a sum_j pick_aj R(c_j)
prod_{l != j} P(c_l)``; per (outcome, ray) pair it gives the pair
probability.  Both are carried as logarithms, with ``log pick = -alpha x
- log theta``, so ratios such as ``R / W`` stay exact when ``theta``,
``E`` or ``R`` underflow at an extreme ``alpha``.  Top-level pairs are
streamed in blocks of at most ``_PAIR_BLOCK``: each carries its outcome
class, log probability, end position and a link to the pair one level
down, which yields its step displacement per level.  The pairs of the
lower levels are materialized.

Enumeration is doubly exponential in depth, so every entry point first
counts outcomes exactly (integers, clamped at 10^18 for reporting) and
refuses with ``TooLargeError`` beyond ``ENUM_CAP``; identity checks use
tolerance 1e-10 (probability products amplify rounding) while plain
mass sums use 1e-12.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple

import numpy as np

from .errors import DomainError, TooLargeError
from .offspring import (
    FiniteLaw,
    classify,
    spine_step_law,
    tilted_mass,
    validate_law,
)

ENUM_CAP = 10_000_000
COUNT_CLAMP = 10**18
IDENTITY_TOL = 1e-10
MASS_TOL = 1e-12

# (outcome, ray) pairs per streamed block of the top level
_PAIR_BLOCK = 1 << 16

Outcome = object  # None | tuple[int, tuple[Outcome, ...]]
Ray = tuple  # tuple[int, ...], one child slot per generation


# ---------------------------------------------------------------------------
# outcome counting and preflight refusal
# ---------------------------------------------------------------------------


def count_outcomes(law: FiniteLaw, depth: int) -> int:
    """Exact number of depth-``depth`` outcomes, clamped at 10^18."""
    n = 1
    for _ in range(depth):
        n = min(sum(n**atom.count for atom in law.atoms), COUNT_CLAMP)
    return n


def count_spined_outcomes(law: FiniteLaw, depth: int) -> int:
    """Exact number of (outcome, ray) pairs, clamped at 10^18."""
    n, r = 1, 1
    for _ in range(depth):
        r_next = sum(
            atom.count * r * n ** (atom.count - 1)
            for atom in law.atoms
            if atom.count >= 1
        )
        n = min(sum(n**atom.count for atom in law.atoms), COUNT_CLAMP)
        r = min(r_next, COUNT_CLAMP)
    return r


def _require_finite(law) -> FiniteLaw:
    law = validate_law(law)
    if not isinstance(law, FiniteLaw):
        raise DomainError("exhaustive enumeration requires a finite law")
    return law


def _preflight(count: int, cap: int) -> None:
    if count > cap:
        raise TooLargeError(count, cap)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def _memo_levels(
    law: FiniteLaw, top: int
) -> tuple[list[list[Outcome]], list[list[float]]]:
    """Materialized outcome lists and aligned probabilities for depths < top."""
    levels: list[list[Outcome]] = [[None]]
    probs: list[list[float]] = [[1.0]]
    for _ in range(top - 1):
        prev, prevp = levels[-1], probs[-1]
        lvl: list[Outcome] = []
        lp: list[float] = []
        for a, atom in enumerate(law.atoms):
            for combo in itertools.product(range(len(prev)), repeat=atom.count):
                p = atom.probability
                for i in combo:
                    p *= prevp[i]
                lvl.append((a, tuple(prev[i] for i in combo)))
                lp.append(p)
        levels.append(lvl)
        probs.append(lp)
    return levels, probs


def enumerate_trees(
    law: FiniteLaw, depth: int, cap: int = ENUM_CAP
) -> Iterator[tuple[Outcome, float]]:
    """Every depth-``depth`` outcome exactly once, with its probability.

    Deterministic order: atom index ascending at each node, child
    combinations lexicographic.  Levels below the top are materialized
    (monotone outcome counts keep them under the cap whenever the top
    level is); the top level streams.
    """
    law = _require_finite(law)
    _preflight(count_outcomes(law, depth), cap)
    if depth == 0:
        yield None, 1.0
        return
    levels, probs = _memo_levels(law, depth)
    prev, prevp = levels[-1], probs[-1]
    for a, atom in enumerate(law.atoms):
        for combo in itertools.product(range(len(prev)), repeat=atom.count):
            p = atom.probability
            for i in combo:
                p *= prevp[i]
            yield (a, tuple(prev[i] for i in combo)), p


def iter_rays(t: Outcome) -> Iterator[Ray]:
    """Root-to-horizon slot paths; extinct outcomes yield nothing."""
    if t is None:
        yield ()
        return
    _, children = t
    for j, child in enumerate(children):
        for rest in iter_rays(child):
            yield (j,) + rest


@dataclass(frozen=True)
class _TiltTables:
    """The two factors a spined brood contributes, per atom and slot, as logs."""

    log_biased: tuple[float, ...]  # size-biased atom mass log(p theta / m)
    log_pick: tuple[tuple[float, ...], ...]  # child choice -alpha x - log theta


def _tilt_tables(law: FiniteLaw, alpha: float) -> _TiltTables:
    log_m = math.log(tilted_mass(law, alpha))
    log_biased, log_pick = [], []
    for atom in law.atoms:
        log_w = [-alpha * x for x in atom.displacements]
        # finite even where every exp(-alpha x) underflows; -inf for a
        # childless atom, which has no size-biased mass
        log_theta = float(np.logaddexp.reduce(log_w))
        log_biased.append(math.log(atom.probability) + log_theta - log_m)
        log_pick.append(tuple(w - log_theta for w in log_w))
    return _TiltTables(tuple(log_biased), tuple(log_pick))


def outcome_probability(law: FiniteLaw, t: Outcome) -> float:
    """Plain-law probability of one outcome."""
    if t is None:
        return 1.0
    a, children = t
    p = law.atoms[a].probability
    for child in children:
        p *= outcome_probability(law, child)
    return p


def _spined_probability(
    law: FiniteLaw, tables: _TiltTables, t: Outcome, ray: Ray
) -> float:
    if t is None:
        return 1.0
    a, children = t
    slot = ray[0]
    p = math.exp(tables.log_biased[a] + tables.log_pick[a][slot])
    for j, child in enumerate(children):
        if j == slot:
            p *= _spined_probability(law, tables, child, ray[1:])
        else:
            p *= outcome_probability(law, child)
    return p


def enumerate_spined_trees(
    law: FiniteLaw, alpha: float, depth: int, cap: int = ENUM_CAP
) -> Iterator[tuple[Outcome, Ray, float]]:
    """Every (outcome, ray) pair with its size-biased probability."""
    law = _require_finite(law)
    _preflight(count_spined_outcomes(law, depth), cap)
    tables = _tilt_tables(law, float(alpha))
    for t, _ in enumerate_trees(law, depth, cap):
        for ray in iter_rays(t):
            yield t, ray, _spined_probability(law, tables, t, ray)


# ---------------------------------------------------------------------------
# outcome walkers
# ---------------------------------------------------------------------------


def generation_positions(law: FiniteLaw, t: Outcome, n: int) -> list[float]:
    """Positions of generation-``n`` nodes in birth order."""
    out: list[float] = []

    def walk(node: Outcome, level: int, pos: float) -> None:
        if level == n:
            out.append(pos)
            return
        if node is None:
            return
        a, children = node
        disp = law.atoms[a].displacements
        for j, child in enumerate(children):
            walk(child, level + 1, pos + disp[j])

    walk(t, 0, 0.0)
    return out


def w_value(law: FiniteLaw, t: Outcome, alpha: float, n: int, m: float) -> float:
    """Additive martingale value ``W_n`` of one outcome; 0 when extinct."""
    positions = generation_positions(law, t, n)
    return math.fsum(math.exp(-alpha * s) for s in positions) / m**n


def restrict(t: Outcome, n: int) -> Outcome:
    """Depth-``n`` restriction: drop everything below generation ``n``."""
    if n == 0 or t is None:
        return None
    a, children = t
    return (a, tuple(restrict(child, n - 1) for child in children))


def ray_positions(law: FiniteLaw, t: Outcome, ray: Ray) -> list[float]:
    """Positions ``S(xi_0), ..., S(xi_len(ray))`` along one ray."""
    out = [0.0]
    node = t
    for slot in ray:
        a, children = node
        out.append(out[-1] + law.atoms[a].displacements[slot])
        node = children[slot]
    return out


# ---------------------------------------------------------------------------
# per-level outcome-class arrays
# ---------------------------------------------------------------------------


def _digits(index: np.ndarray, base: int, width: int) -> list[np.ndarray]:
    """Mixed-radix digits of ``index``, most significant first."""
    return [(index // base ** (width - 1 - i)) % base for i in range(width)]


def _radix(digits: list[np.ndarray], base: int) -> np.ndarray | int:
    """Inverse of ``_digits``."""
    return functools.reduce(lambda acc, d: acc * base + d, digits, 0)


def _log_sum(terms: list[np.ndarray]) -> np.ndarray | float:
    """Elementwise ``log sum exp`` over equal-length arrays; ``-inf`` if none."""
    return functools.reduce(np.logaddexp, terms, -np.inf)


class _Level(NamedTuple):
    """Depth-``k`` outcome classes, one entry per class in enumeration order."""

    p: np.ndarray  # plain probability
    log_p: np.ndarray
    z: np.ndarray  # generation-k size
    log_e: np.ndarray  # log sum exp(-alpha S) over generation k; -inf if extinct
    log_r: np.ndarray  # log ray-summed spined mass; -inf if extinct
    q: np.ndarray  # probability of generation k given generations < k
    up: np.ndarray  # restriction to depth k-1, as a level-(k-1) class index
    top: np.ndarray  # largest generation-k position; -inf if extinct

    @property
    def size(self) -> int:
        return self.p.size


def _root_level() -> _Level:
    zero = np.zeros(1, dtype=np.int64)
    return _Level(np.ones(1), np.zeros(1), np.ones(1, np.int64), np.zeros(1),
                  np.zeros(1), np.ones(1), zero, np.zeros(1))


def _next_level(
    law: FiniteLaw, alpha: float, tables: _TiltTables, prev: _Level, below: int
) -> _Level:
    """Level ``k`` from level ``k-1`` (``prev``); ``below`` is the class
    count of level ``k-2``, or 0 when ``k == 1``."""
    n = prev.size
    total = sum(n**atom.count for atom in law.atoms)
    level = _Level(*(np.empty(total, dtype=f.dtype) for f in prev))
    lo = up_offset = 0
    for a, atom in enumerate(law.atoms):
        width, size = atom.count, n**atom.count
        p, log_p, z, log_e, log_r, q, up, top = (f[lo : lo + size] for f in level)
        lo += size
        kids = _digits(np.arange(size, dtype=np.int64), n, width)
        # the same left-to-right product as enumerate_trees
        p[:] = atom.probability
        log_p[:] = math.log(atom.probability)
        z[:] = 0
        for c in kids:
            p *= prev.p[c]
            log_p += prev.log_p[c]
            z += prev.z[c]
        log_e[:] = _log_sum(
            [-alpha * x + prev.log_e[c] for x, c in zip(atom.displacements, kids)]
        )
        top[:] = functools.reduce(
            np.maximum, [x + prev.top[c] for x, c in zip(atom.displacements, kids)], -np.inf
        )
        # one term per spine slot j: pick_j R(c_j) prod_{l != j} P(c_l)
        slots = []
        for j, c in enumerate(kids):
            term = tables.log_pick[a][j] + prev.log_r[c]
            for i, off in enumerate(kids):
                if i != j:
                    term = term + prev.log_p[off]
            slots.append(term)
        log_r[:] = tables.log_biased[a] + _log_sum(slots)
        if below == 0:
            q[:] = atom.probability
            up[:] = 0
        else:
            q[:] = 1.0
            for c in kids:
                q *= prev.q[c]
            up[:] = up_offset + _radix([prev.up[c] for c in kids], below)
            up_offset += below**width
    return level


class _Rays(NamedTuple):
    """(outcome, ray) pairs of one level, or a block of them."""

    cls: np.ndarray  # outcome class
    log_q: np.ndarray  # log size-biased pair probability
    end: np.ndarray  # ray end position S(xi_k)
    step: np.ndarray  # displacement code of the first step
    rest: np.ndarray  # pair one level down that the ray continues as


def _root_rays() -> _Rays:
    zero = np.zeros(1, dtype=np.int64)
    return _Rays(zero, np.zeros(1), np.zeros(1), zero, zero)


class _Enumeration:
    """Class levels ``0..depth`` of one (law, alpha, depth), shared by the
    checks; the pair levels are built on first use."""

    def __init__(self, law: FiniteLaw, alpha: float, depth: int):
        self.law, self.alpha, self.depth = law, float(alpha), depth
        self.log_m = math.log(tilted_mass(law, self.alpha))
        self.tables = _tilt_tables(law, self.alpha)
        levels = [_root_level()]
        for k in range(1, depth + 1):
            below = levels[k - 2].size if k >= 2 else 0
            levels.append(_next_level(law, self.alpha, self.tables, levels[-1], below))
        self.levels = levels
        values = sorted({x for atom in law.atoms for x in atom.displacements})
        index = {x: i for i, x in enumerate(values)}
        self.step_values = values
        self.step_codes = [[index[x] for x in atom.displacements] for atom in law.atoms]

    def w(self, k: int) -> np.ndarray:
        return np.exp(self.levels[k].log_e - k * self.log_m)

    def rw_ratio(self, k: int) -> np.ndarray:
        """``R / W`` per class of level ``k``, from the logs of both; NaN
        on extinct classes, where both are 0."""
        lv = self.levels[k]
        with np.errstate(invalid="ignore"):
            return np.exp(lv.log_r - (lv.log_e - k * self.log_m))

    def _ray_blocks(self, k: int, lower: _Rays) -> Iterator[_Rays]:
        """Pairs of level ``k >= 1`` in blocks of at most ``_PAIR_BLOCK``,
        from the pairs ``lower`` of level ``k-1``."""
        below = self.levels[k - 1]
        n, pairs = below.size, lower.cls.size
        tables, offset = self.tables, 0
        for a, atom in enumerate(self.law.atoms):
            width = atom.count
            for j, x in enumerate(atom.displacements):
                total = n ** (width - 1) * pairs
                head = tables.log_biased[a] + tables.log_pick[a][j]
                for lo in range(0, total, _PAIR_BLOCK):
                    i = np.arange(lo, min(lo + _PAIR_BLOCK, total), dtype=np.int64)
                    rest = i % pairs
                    others = _digits(i // pairs, n, width - 1)
                    log_q = head + lower.log_q[rest]
                    for c in others:
                        log_q = log_q + below.log_p[c]
                    kids = others[:j] + [lower.cls[rest]] + others[j:]
                    yield _Rays(
                        offset + _radix(kids, n),
                        log_q,
                        x + lower.end[rest],
                        np.full(i.size, self.step_codes[a][j], dtype=np.int64),
                        rest,
                    )
            offset += n**width

    @cached_property
    def rays(self) -> list[_Rays]:
        """Materialized pair levels ``0..depth-1``."""
        rays = [_root_rays()]
        for k in range(1, self.depth):
            blocks = self._ray_blocks(k, rays[-1])
            rays.append(_Rays(*(np.concatenate(col) for col in zip(*blocks))))
        return rays

    def top_rays(self) -> Iterator[_Rays]:
        if self.depth == 0:
            yield _root_rays()
            return
        yield from self._ray_blocks(self.depth, self.rays[-1])

    def steps(self, block: _Rays) -> Iterator[np.ndarray]:
        """Step displacement codes of a top-level block, level 0 first."""
        if self.depth == 0:
            return
        yield block.step
        idx = block.rest
        for k in range(self.depth - 1, 0, -1):
            yield self.rays[k].step[idx]
            idx = self.rays[k].rest[idx]


def _max_abs(diff: np.ndarray) -> float:
    return float(np.max(np.abs(diff)))


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    check: str
    alpha: float
    depth: int
    max_discrepancy: float
    outcomes: int
    tolerance: float
    passed: bool


def _result(check, alpha, depth, disc, outcomes, tol) -> CheckResult:
    return CheckResult(check, float(alpha), depth, disc, outcomes, tol, disc <= tol)


def _unit_mean(e: _Enumeration) -> CheckResult:
    disc, outcomes = 0.0, 0
    for n, lv in enumerate(e.levels):
        outcomes += lv.size
        # numpy's pairwise sums: error O(log N) ulps, far inside MASS_TOL
        mean, mass = float(np.sum(lv.p * e.w(n))), float(np.sum(lv.p))
        disc = max(disc, abs(mean - 1.0), abs(mass - 1.0))
    return _result("unit_mean", e.alpha, e.depth, disc, outcomes, MASS_TOL)


def _martingale(e: _Enumeration) -> CheckResult:
    disc, outcomes = 0.0, 0
    for n in range(e.depth):
        lv, nxt = e.levels[n], e.levels[n + 1]
        outcomes += lv.size
        lhs = np.bincount(nxt.up, weights=nxt.q * e.w(n + 1), minlength=lv.size)
        disc = max(disc, _max_abs(lhs - e.w(n)))
    return _result("martingale", e.alpha, e.depth, disc, outcomes, IDENTITY_TOL)


def _spine_density(e: _Enumeration) -> CheckResult:
    top = e.levels[e.depth]
    disc, outcomes, masses = 0.0, 0, []
    for block in e.top_rays():
        outcomes += block.cls.size
        lhs = np.exp(block.log_q)
        rhs = np.exp(
            top.log_p[block.cls] - e.alpha * block.end - e.depth * e.log_m
        )
        disc = max(disc, _max_abs(lhs - rhs))
        masses.append(float(lhs.sum()))
    mass_gap = abs(math.fsum(masses) - 1.0)
    disc = max(disc, mass_gap)  # mass held to the tighter 1e-12 below
    passed = disc <= IDENTITY_TOL and mass_gap <= MASS_TOL
    return CheckResult(
        "spine_density", e.alpha, e.depth, disc, outcomes, IDENTITY_TOL, passed
    )


def _tree_density(e: _Enumeration) -> CheckResult:
    top = e.levels[e.depth]
    disc = _max_abs(np.exp(top.log_r) - top.p * e.w(e.depth))
    return _result("tree_density", e.alpha, e.depth, disc, top.size, IDENTITY_TOL)


def _inverse_martingale(e: _Enumeration) -> CheckResult:
    p_childless = math.fsum(a.probability for a in e.law.atoms if a.count == 0)
    disc, outcomes = 0.0, 0
    for n in range(e.depth):
        lv, nxt = e.levels[n], e.levels[n + 1]
        # extinct outcomes carry no size-biased mass and no 1/W
        live = nxt.z > 0
        lhs = np.bincount(
            nxt.up[live], weights=e.rw_ratio(n + 1)[live], minlength=lv.size
        )
        alive = lv.z > 0
        outcomes += int(alive.sum())
        rhs = e.rw_ratio(n) * (1.0 - p_childless**lv.z)
        disc = max(disc, _max_abs(lhs[alive] - rhs[alive]))
    return _result("inverse_martingale", e.alpha, e.depth, disc, outcomes, IDENTITY_TOL)


def _spine_step_mean(e: _Enumeration, k: int | None) -> CheckResult:
    levels = range(e.depth) if k is None else [k]
    drift = classify(e.law, e.alpha).drift
    expected = dict(spine_step_law(e.law, e.alpha))
    values = e.step_values
    # one per-value mass vector per block and level, added exactly across blocks
    parts: dict[int, list[np.ndarray]] = {j: [] for j in levels}
    outcomes = 0
    for block in e.top_rays():
        outcomes += block.cls.size
        q = np.exp(block.log_q)
        for j, codes in enumerate(e.steps(block)):
            if j in parts:
                parts[j].append(np.bincount(codes, weights=q, minlength=len(values)))
    disc = 0.0
    for j in levels:
        masses = [math.fsum(col) for col in zip(*parts[j])]
        mean = math.fsum(x * q for x, q in zip(values, masses))
        disc = max(disc, abs(mean - drift))
        for x, q in zip(values, masses):
            disc = max(disc, abs(q - expected.get(x, 0.0)))
    return _result("spine_step_mean", e.alpha, e.depth, disc, outcomes, IDENTITY_TOL)


def check_unit_mean(
    law: FiniteLaw, alpha: float, depth: int, cap: int = ENUM_CAP
) -> CheckResult:
    """``E[W_n] = 1`` for every ``n <= depth``; also total plain mass 1."""
    law = _require_finite(law)
    tilted_mass(law, alpha)
    for n in range(depth + 1):
        _preflight(count_outcomes(law, n), cap)
    return _unit_mean(_Enumeration(law, alpha, depth))


def check_martingale(
    law: FiniteLaw, alpha: float, depth: int, cap: int = ENUM_CAP
) -> CheckResult:
    """``E[W_{n+1} | first n generations] = W_n`` for every outcome, n < depth.

    The left side sums ``Q W_{n+1}`` over the depth-``(n+1)`` classes
    that restrict to each depth-``n`` class.
    """
    law = _require_finite(law)
    _preflight(count_outcomes(law, depth), cap)
    return _martingale(_Enumeration(law, alpha, depth))


def check_spine_density(
    law: FiniteLaw, alpha: float, depth: int, cap: int = ENUM_CAP
) -> CheckResult:
    """Size-biased pair probability equals plain probability times
    ``exp(-alpha S(xi_n)) / m^n``; total size-biased mass is 1."""
    law = _require_finite(law)
    tilted_mass(law, alpha)
    _preflight(count_outcomes(law, depth), cap)
    # pairs can outnumber outcomes by far: binary at depth 40 has 1 and 2^40
    _preflight(count_spined_outcomes(law, depth), cap)
    return _spine_density(_Enumeration(law, alpha, depth))


def check_tree_density(
    law: FiniteLaw, alpha: float, depth: int, cap: int = ENUM_CAP
) -> CheckResult:
    """Ray-marginal of the size-biased pair law equals ``mu(t) W_n(t)``
    outcome by outcome (both sides 0 on extinct outcomes)."""
    law = _require_finite(law)
    _preflight(count_spined_outcomes(law, depth), cap)
    _preflight(count_outcomes(law, depth), cap)
    return _tree_density(_Enumeration(law, alpha, depth))


def check_inverse_martingale(
    law: FiniteLaw, alpha: float, depth: int, cap: int = ENUM_CAP
) -> CheckResult:
    """``1/W`` one-step decay under the ray-marginalized size-biased law.

    ``1/W_n`` is a supermartingale there, with exact conditional decay
    ``E[1/W_{n+1} | first n generations] = P[generation n+1 nonempty] / W_n``
    (the probability that some generation-``n`` node reproduces, i.e.
    ``1 - P[L=0]^{Z_n}``); it is a martingale exactly when the law has
    no childless atom.  For each ``n < depth`` and each depth-``n``
    outcome with ``Z_n > 0``, summing ``R(t')/W_{n+1}(t')`` over the
    surviving depth-``(n+1)`` outcomes ``t'`` restricting to ``t`` must
    give ``R(t) (1 - P[L=0]^{Z_n(t)}) / W_n(t)``, where ``R`` is the
    ray-summed spined mass (never the ``mu W`` shortcut being verified
    elsewhere) and each ``R / W`` is taken from logarithms, so it stays
    exact when both underflow.
    """
    law = _require_finite(law)
    _preflight(count_spined_outcomes(law, depth), cap)
    _preflight(count_outcomes(law, depth), cap)
    return _inverse_martingale(_Enumeration(law, alpha, depth))


def check_spine_step_mean(
    law: FiniteLaw,
    alpha: float,
    depth: int,
    k: int | None = None,
    cap: int = ENUM_CAP,
) -> CheckResult:
    """Ray step ``X(xi_{k+1})`` has mean ``-m'(alpha)/m(alpha)`` and marginal
    law ``spine_step_law`` at every level ``k < depth`` (or one given ``k``).

    Steps are keyed by the displacement itself: differences of float
    positions split one displacement value across several keys.
    """
    law = _require_finite(law)
    if k is not None and not 0 <= k < depth:
        raise DomainError(f"spine level {k} outside 0..{depth - 1}")
    _preflight(count_spined_outcomes(law, depth), cap)
    _preflight(count_outcomes(law, depth), cap)
    return _spine_step_mean(_Enumeration(law, alpha, depth), k)


def run_verify(
    law: FiniteLaw, alpha: float, depth: int, cap: int = ENUM_CAP
) -> list[CheckResult]:
    """All six exact identity checks, fixed order, on one shared enumeration."""
    law = _require_finite(law)
    tilted_mass(law, alpha)
    _preflight(count_outcomes(law, depth), cap)
    _preflight(count_spined_outcomes(law, depth), cap)
    e = _Enumeration(law, alpha, depth)
    return [
        _spine_density(e),
        _tree_density(e),
        _unit_mean(e),
        _martingale(e),
        _inverse_martingale(e),
        _spine_step_mean(e, None),
    ]
