"""Spined trees: genealogies grown under the size-biased measure.

The size-biased measure reweights each brood by its tilt weight
``theta = sum_i exp(-alpha x_i)`` divided by the tilted mass ``m(alpha)``
and singles out one child of the reweighted brood, chosen with
probability proportional to ``exp(-alpha x_i)``.  Repeating along the
distinguished line (the ray) and growing all other subtrees under the
plain law yields a tree plus ray whose joint density against the plain
law, evaluated at generation ``n``, is ``exp(-alpha S(xi_n)) / m^n``
where ``S(xi_n)`` is the ray position.

``grow_spined_tree`` runs the plain generation loop of ``brw``, so the
whole tree grows breadth first.  Random number order (fixed, so a seed
pins the outcome): each generation first draws the plain block of one
uniform per frontier particle, then one uniform for the spine
particle's size-biased atom and one for its child choice.  The spine
particle's plain uniform is drawn and ignored.

``sample_spine_walk`` draws only the ray positions (no tree) using two
uniform blocks of length ``depth``; its step law is ``spine_step_law``
from the offspring module and its mean step is the drift
``-m'(alpha)/m(alpha)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .brw import GrowthCaps, LabelledTree, _grow
from .errors import DomainError, LevelOutOfRangeError, PopulationCapError
from .offspring import (
    FiniteLaw,
    Law,
    LogDivergentLaw,
    tilted_mass,
    validate_law,
)


@dataclass(frozen=True)
class _SpineTables:
    """Sampling tables for one (law, alpha) pair.

    ``atom_cum`` runs over atoms with at least one child (childless
    atoms have zero size-biased mass); ``atom_ids`` maps back to the
    original atom index.  ``child_cum[a]`` is the within-brood cdf of
    the distinguished-child choice for table row ``a``.
    """

    atom_cum: np.ndarray
    atom_ids: np.ndarray
    child_cum: tuple[np.ndarray, ...]
    child_disp: tuple[np.ndarray, ...]
    log_m: float


@lru_cache(maxsize=128)
def _spine_tables(law: Law, alpha: float) -> _SpineTables:
    m = tilted_mass(law, alpha)
    if isinstance(law, FiniteLaw):
        rows = []
        for a, atom in enumerate(law.atoms):
            if atom.count == 0:
                continue
            w = np.exp(-alpha * np.asarray(atom.displacements))
            theta = float(w.sum())
            rows.append((a, atom.probability * theta / m, np.cumsum(w) / theta, w))
        atom_ids = np.array([r[0] for r in rows], dtype=np.int64)
        atom_cum = np.cumsum([r[1] for r in rows])
        child_cum = tuple(r[2] for r in rows)
        child_disp = tuple(np.asarray(law.atoms[r[0]].displacements) for r in rows)
    else:
        # heavy-tail family: displacements are all zero, so the biased
        # count law is n p_n / mean and the child choice is uniform
        cdf = law._cdf
        probs = np.diff(np.concatenate([[0.0], cdf]))
        counts = np.arange(2, law.n_max + 1, dtype=np.float64)
        biased = probs * counts
        atom_cum = np.cumsum(biased / biased.sum())
        atom_ids = np.arange(len(cdf), dtype=np.int64)
        child_cum = ()
        child_disp = ()
    atom_cum[-1] = 1.0
    return _SpineTables(atom_cum, atom_ids, child_cum, child_disp, math.log(m))


def _pick(cum: np.ndarray, u: float) -> int:
    return min(int(np.searchsorted(cum, u, side="right")), len(cum) - 1)


@dataclass
class SpinedTree:
    """A tree with a distinguished ray of node ids, one per generation.

    ``spine_log_weight[k]`` is ``-alpha * S(xi_k) - k * log m``, the log
    density of the size-biased (tree, ray) pair against the plain law
    restricted to generation ``k``.
    """

    tree: LabelledTree
    ray: np.ndarray
    spine_log_weight: np.ndarray
    alpha: float
    log_m: float


def rn_log_weight(spined: SpinedTree, k: int) -> float:
    """Log change-of-measure weight along the ray at generation ``k``."""
    if not 0 <= k <= spined.tree.depth_grown:
        raise LevelOutOfRangeError(
            f"generation {k} outside grown range 0..{spined.tree.depth_grown}"
        )
    return float(spined.spine_log_weight[k])


def spine_positions(spined: SpinedTree) -> np.ndarray:
    """Ray positions ``S(xi_0), ..., S(xi_depth)``."""
    return spined.tree.position[spined.ray]


def _spine_brood(
    law: Law, tables: _SpineTables, rng: np.random.Generator
) -> tuple[int, int]:
    """Atom index of one size-biased brood and the chosen child's slot."""
    u_atom = rng.random()
    u_child = rng.random()
    row = _pick(tables.atom_cum, u_atom)
    atom = int(tables.atom_ids[row])
    if isinstance(law, FiniteLaw):
        return atom, _pick(tables.child_cum[row], u_child)
    count = atom + 2
    return atom, min(int(u_child * count), count - 1)


def grow_spined_tree(
    law: Law, alpha: float, depth: int, caps: GrowthCaps, rng: np.random.Generator
) -> SpinedTree:
    """Grow a (tree, ray) pair of ``depth`` generations under the
    size-biased measure.

    Raises ``PopulationCapError`` (with ``partial=None``; a half-built
    spined tree has no consistent reading) when the node budget runs
    out, and ``DomainError`` for a bad depth.  The law must have at
    least one atom with children, which ``validate_law`` guarantees.
    """
    law = validate_law(law)
    tables = _spine_tables(law, float(alpha))
    try:
        tree, ray = _grow(law, depth, caps, rng, lambda r: _spine_brood(law, tables, r))
    except PopulationCapError as e:
        raise PopulationCapError(None, e.generation, e.cap) from None
    log_weight = -alpha * tree.position[ray] - np.arange(depth + 1) * tables.log_m
    log_weight[0] = 0.0
    return SpinedTree(
        tree=tree,
        ray=ray,
        spine_log_weight=log_weight,
        alpha=float(alpha),
        log_m=tables.log_m,
    )


def sample_spine_walk(
    law: Law, alpha: float, depth: int, rng: np.random.Generator
) -> np.ndarray:
    """Positions ``S(xi_0..depth)`` of the ray alone, no tree.

    The steps are drawn independently (the ray position is a random walk
    with the spine step law), two uniform blocks of length ``depth``.
    """
    law = validate_law(law)
    if depth < 0:
        raise DomainError(f"depth must be nonnegative, got {depth}")
    tables = _spine_tables(law, float(alpha))
    u_atom = rng.random(depth)
    u_child = rng.random(depth)
    rows = np.minimum(
        np.searchsorted(tables.atom_cum, u_atom, side="right"),
        len(tables.atom_cum) - 1,
    )
    steps = np.zeros(depth)
    if isinstance(law, FiniteLaw):
        for r in range(len(tables.atom_cum)):
            mask = rows == r
            if not mask.any():
                continue
            cum = tables.child_cum[r]
            j = np.minimum(
                np.searchsorted(cum, u_child[mask], side="right"), len(cum) - 1
            )
            steps[mask] = tables.child_disp[r][j]
    out = np.empty(depth + 1)
    out[0] = 0.0
    np.cumsum(steps, out=out[1:])
    return out
