"""Recursive reference for the six exact identity checks.

These are the nested-tuple check bodies the array oracle in
``brwlab.oracle`` replaced, kept verbatim so the parity tests can hold
the new ``run_verify`` to them.  Every outcome is visited as a tuple and
every spined probability is rebuilt by recursion, so they cost tens of
microseconds per outcome: use them only on small inputs.  Outcomes are
the nested tuples of ``brwlab.oracle.enumerate_trees``; a ray is a tuple
of child slots, one per generation, and extinct outcomes have none.
They share with ``brwlab.oracle`` only ``enumerate_trees``, the outcome
counts, the caps and the tolerances.  The tuple walkers (``iter_rays``,
``outcome_probability``, ``generation_positions``, ``w_value``,
``restrict``, ``ray_positions``) live here, and so do the tilt tables
and the spined recursion, in the linear domain.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

from brwlab import classify, spine_step_law, tilted_mass
from brwlab.errors import DomainError
from brwlab.offspring import FiniteLaw
from brwlab.oracle import (
    ENUM_CAP,
    IDENTITY_TOL,
    MASS_TOL,
    CheckResult,
    Outcome,
    _preflight,
    _require_finite,
    count_outcomes,
    count_spined_outcomes,
    enumerate_trees,
)

Ray = tuple  # tuple[int, ...], one child slot per generation


def iter_rays(t: Outcome) -> Iterator[Ray]:
    """Root-to-horizon slot paths; extinct outcomes yield nothing."""
    if t is None:
        yield ()
        return
    _, children = t
    for j, child in enumerate(children):
        for rest in iter_rays(child):
            yield (j,) + rest


def outcome_probability(law: FiniteLaw, t: Outcome) -> float:
    """Plain-law probability of one outcome."""
    if t is None:
        return 1.0
    a, children = t
    p = law.atoms[a].probability
    for child in children:
        p *= outcome_probability(law, child)
    return p


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


@dataclass(frozen=True)
class _TiltTables:
    """The two factors a spined brood contributes, per atom and slot."""

    biased: tuple[float, ...]  # size-biased atom probability p * theta / m
    pick: tuple[tuple[float, ...], ...]  # child choice exp(-alpha x) / theta


def _tilt_tables(law: FiniteLaw, alpha: float) -> _TiltTables:
    m = tilted_mass(law, alpha)
    biased, pick = [], []
    for atom in law.atoms:
        weights = [math.exp(-alpha * x) for x in atom.displacements]
        theta = math.fsum(weights)
        biased.append(atom.probability * theta / m)
        # theta == 0 when every weight underflows; the atom then has no
        # size-biased mass and its child choice is never made
        pick.append(tuple(w / theta if theta else 0.0 for w in weights))
    return _TiltTables(tuple(biased), tuple(pick))


def _spined_probability(
    law: FiniteLaw, tables: _TiltTables, t: Outcome, ray: Ray
) -> float:
    if t is None:
        return 1.0
    a, children = t
    slot = ray[0]
    p = tables.biased[a] * tables.pick[a][slot]
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


def _result(check, alpha, depth, disc, outcomes, tol) -> CheckResult:
    return CheckResult(check, float(alpha), depth, disc, outcomes, tol, disc <= tol)


def check_unit_mean(
    law: FiniteLaw, alpha: float, depth: int, cap: int = ENUM_CAP
) -> CheckResult:
    """``E[W_n] = 1`` for every ``n <= depth``; also total plain mass 1."""
    law = _require_finite(law)
    m = tilted_mass(law, alpha)
    disc, outcomes = 0.0, 0
    for n in range(depth + 1):
        mean_terms, mass_terms = [], []
        for t, p in enumerate_trees(law, n, cap):
            outcomes += 1
            mass_terms.append(p)
            mean_terms.append(p * w_value(law, t, alpha, n, m))
        disc = max(disc, abs(math.fsum(mean_terms) - 1.0))
        disc = max(disc, abs(math.fsum(mass_terms) - 1.0))
    return _result("unit_mean", alpha, depth, disc, outcomes, MASS_TOL)


def _extensions(law: FiniteLaw, t: Outcome) -> Iterator[tuple[Outcome, float]]:
    """One-generation extensions of an outcome with conditional probability."""
    if t is None:
        for a, atom in enumerate(law.atoms):
            yield (a, (None,) * atom.count), atom.probability
        return
    a, children = t
    if not children:
        yield t, 1.0
        return
    pools = [list(_extensions(law, child)) for child in children]
    for combo in itertools.product(*pools):
        p = 1.0
        for _, q in combo:
            p *= q
        yield (a, tuple(ext for ext, _ in combo)), p


def check_martingale(
    law: FiniteLaw, alpha: float, depth: int, cap: int = ENUM_CAP
) -> CheckResult:
    """``E[W_{n+1} | first n generations] = W_n`` for every outcome, n < depth."""
    law = _require_finite(law)
    _preflight(count_outcomes(law, depth), cap)
    m = tilted_mass(law, alpha)
    disc, outcomes = 0.0, 0
    for n in range(depth):
        for t, _ in enumerate_trees(law, n, cap):
            outcomes += 1
            terms = [
                q * w_value(law, ext, alpha, n + 1, m)
                for ext, q in _extensions(law, t)
            ]
            disc = max(disc, abs(math.fsum(terms) - w_value(law, t, alpha, n, m)))
    return _result("martingale", alpha, depth, disc, outcomes, IDENTITY_TOL)


def check_spine_density(
    law: FiniteLaw, alpha: float, depth: int, cap: int = ENUM_CAP
) -> CheckResult:
    """Size-biased pair probability equals plain probability times
    ``exp(-alpha S(xi_n)) / m^n``; total size-biased mass is 1."""
    law = _require_finite(law)
    m = tilted_mass(law, alpha)
    tables = _tilt_tables(law, float(alpha))
    disc, outcomes = 0.0, 0
    mass_terms = []
    for t, p in enumerate_trees(law, depth, cap):
        for ray in iter_rays(t):
            outcomes += 1
            lhs = _spined_probability(law, tables, t, ray)
            s_end = ray_positions(law, t, ray)[-1]
            rhs = p * math.exp(-alpha * s_end) / m**depth
            disc = max(disc, abs(lhs - rhs))
            mass_terms.append(lhs)
    mass_gap = abs(math.fsum(mass_terms) - 1.0)
    disc = max(disc, mass_gap)  # mass held to the tighter 1e-12 below
    passed = disc <= IDENTITY_TOL and mass_gap <= MASS_TOL
    return CheckResult(
        "spine_density", float(alpha), depth, disc, outcomes, IDENTITY_TOL, passed
    )


def check_tree_density(
    law: FiniteLaw, alpha: float, depth: int, cap: int = ENUM_CAP
) -> CheckResult:
    """Ray-marginal of the size-biased pair law equals ``mu(t) W_n(t)``
    outcome by outcome (both sides 0 on extinct outcomes)."""
    law = _require_finite(law)
    _preflight(count_spined_outcomes(law, depth), cap)
    m = tilted_mass(law, alpha)
    tables = _tilt_tables(law, float(alpha))
    disc, outcomes = 0.0, 0
    for t, p in enumerate_trees(law, depth, cap):
        outcomes += 1
        ray_mass = math.fsum(
            _spined_probability(law, tables, t, ray) for ray in iter_rays(t)
        )
        disc = max(disc, abs(ray_mass - p * w_value(law, t, alpha, depth, m)))
    return _result("tree_density", alpha, depth, disc, outcomes, IDENTITY_TOL)


def check_inverse_martingale(
    law: FiniteLaw, alpha: float, depth: int, cap: int = ENUM_CAP
) -> CheckResult:
    """``1/W`` one-step decay under the ray-marginalized size-biased law.

    ``1/W_n`` is a supermartingale there, with exact conditional decay
    ``E[1/W_{n+1} | first n generations] = P[generation n+1 nonempty] / W_n``
    (the probability that some generation-``n`` node reproduces, i.e.
    ``1 - P[L=0]^{Z_n}``); it is a martingale exactly when the law has
    no childless atom.  For each ``n < depth`` and each depth-``n``
    outcome with positive size-biased mass, summing ``mass(t')/W_{n+1}``
    over the depth-``(n+1)`` outcomes ``t'`` restricting to ``t`` must
    give ``mass(t) (1 - P[L=0]^{Z_n(t)}) / W_n(t)``, where both masses
    are ray sums of the spined construction (never the ``mu W`` shortcut
    being verified elsewhere).
    """
    law = _require_finite(law)
    _preflight(count_spined_outcomes(law, depth), cap)
    m = tilted_mass(law, alpha)
    tables = _tilt_tables(law, float(alpha))
    p_childless = math.fsum(a.probability for a in law.atoms if a.count == 0)

    def biased_mass(t: Outcome) -> float:
        return math.fsum(
            _spined_probability(law, tables, t, ray) for ray in iter_rays(t)
        )

    disc, outcomes = 0.0, 0
    for n in range(depth):
        acc: dict = {}
        for t_next, _ in enumerate_trees(law, n + 1, cap):
            mass = biased_mass(t_next)
            if mass == 0.0:
                continue
            key = restrict(t_next, n)
            w = w_value(law, t_next, alpha, n + 1, m)
            acc.setdefault(key, []).append(mass / w)
        for t, _ in enumerate_trees(law, n, cap):
            mass = biased_mass(t)
            if mass == 0.0:
                continue
            outcomes += 1
            z = len(generation_positions(law, t, n))
            survive = 1.0 - p_childless**z
            lhs = math.fsum(acc.get(t, []))
            rhs = mass * survive / w_value(law, t, alpha, n, m)
            disc = max(disc, abs(lhs - rhs))
    return _result("inverse_martingale", alpha, depth, disc, outcomes, IDENTITY_TOL)


def check_spine_step_mean(
    law: FiniteLaw,
    alpha: float,
    depth: int,
    k: int | None = None,
    cap: int = ENUM_CAP,
) -> CheckResult:
    """Ray step ``X(xi_{k+1})`` has mean ``-m'(alpha)/m(alpha)`` and marginal
    law ``spine_step_law`` at every level ``k < depth`` (or one given ``k``)."""
    law = _require_finite(law)
    if k is not None and not 0 <= k < depth:
        raise DomainError(f"spine level {k} outside 0..{depth - 1}")
    levels = range(depth) if k is None else [k]
    drift = classify(law, alpha).drift
    expected = dict(spine_step_law(law, alpha))
    marginals: dict[int, dict[float, list[float]]] = {j: {} for j in levels}
    outcomes = 0
    for t, ray, p in enumerate_spined_trees(law, alpha, depth, cap):
        outcomes += 1
        # key each step by the displacement itself: differences of float
        # positions split one displacement value across several keys
        node = t
        for j, slot in enumerate(ray):
            a, children = node
            if j in marginals:
                step = law.atoms[a].displacements[slot]
                marginals[j].setdefault(step, []).append(p)
            node = children[slot]
    disc = 0.0
    for j in levels:
        masses = {x: math.fsum(terms) for x, terms in marginals[j].items()}
        mean = math.fsum(x * q for x, q in masses.items())
        disc = max(disc, abs(mean - drift))
        for x in set(expected) | set(masses):
            disc = max(disc, abs(masses.get(x, 0.0) - expected.get(x, 0.0)))
    return _result("spine_step_mean", alpha, depth, disc, outcomes, IDENTITY_TOL)


_CHECKS = (
    check_spine_density,
    check_tree_density,
    check_unit_mean,
    check_martingale,
    check_inverse_martingale,
    check_spine_step_mean,
)


def run_verify(
    law: FiniteLaw, alpha: float, depth: int, cap: int = ENUM_CAP
) -> list[CheckResult]:
    """All six exact identity checks, fixed order."""
    return [chk(law, alpha, depth, cap=cap) for chk in _CHECKS]
