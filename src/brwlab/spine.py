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
pins the outcome): each generation draws one block of ``Z_n + 2``
uniforms.  The first ``Z_n`` are the plain draws, one per frontier
particle; the last two give the spine particle's size-biased atom and
its child choice.  The spine particle's plain uniform is drawn and
ignored.  ``grow_spined_batch`` grows many spined replicates at once as
occupation measures plus one spine particle each, on
``brw.grow_occupation``: generation ``g`` takes block ``g`` of the
replicate's counter stream (see ``rng``), with the particles taken
position by position and the spine first in its position, or a
multinomial over the other particles and the block's first two
uniforms.  Each replicate therefore equals a spined tree in law, not bit
for bit.
Uniforms become spine broods in one place, ``_spine_brood``, for trees
and batches alike.

``spine_walk_ends`` draws only the ray positions (no tree) of many
walks at once and keeps their endpoints.  Walk ``r`` takes ``2 * depth``
uniforms from block 0 of its counter stream, the blocks of many walks in
one call: the first half picks the atoms, the second half the children.
Its step law is ``spine_step_law`` from the offspring module and its
mean step is the drift ``-m'(alpha)/m(alpha)``.  Both batched functions
take the run's seed; replicate ``r`` draws the counter stream keyed
``rng.replicate_keys(seed, r)``.
"""

import math
from functools import lru_cache, partial
from typing import NamedTuple, Sequence

import numpy as np

from .brw import (
    _BATCH_REPLICATES,
    BatchGrowth,
    GrowthCaps,
    LabelledTree,
    _check_positions,
    _grow,
    grow_occupation,
)
from .errors import DomainError, PopulationCapError
from .offspring import (
    FiniteLaw,
    Law,
    LogDivergentLaw,
    _heavy_sampler,
    tilted_mass,
    validate_law,
)
from .rng import block_keys, counter_uniforms, replicate_keys


class _SpineTables(NamedTuple):
    """Sampling tables for one (law, alpha) pair.

    ``atom_cum`` runs over atoms with at least one child (childless
    atoms have zero size-biased mass); ``atom_ids`` maps back to the
    original atom index.  Finite laws also get one row per atom, padded
    to the widest brood: ``child_disp[a]`` holds the displacements, and
    ``child_cum[a]`` the within-brood cdf of the distinguished-child
    choice without its last entry, padded with ``inf``, so that the
    chosen slot is the number of entries at or below a uniform.  For a
    heavy-tail law ``atom_cum`` is the head table of its size-biased
    count law, which ``LogDivergentLaw._atoms`` inverts, and the other
    arrays are empty.
    """

    atom_cum: np.ndarray
    atom_ids: np.ndarray
    child_cum: np.ndarray
    child_disp: np.ndarray
    log_m: float


@lru_cache(maxsize=128)
def _spine_tables(law: Law, alpha: float) -> _SpineTables:
    m = tilted_mass(law, alpha)
    if isinstance(law, FiniteLaw):
        width = max(atom.count for atom in law.atoms)
        child_cum = np.full((len(law.atoms), width - 1), np.inf)
        child_disp = np.zeros((len(law.atoms), width))
        atom_ids, biased = [], []
        for a, atom in enumerate(law.atoms):
            if atom.count == 0:
                continue
            w = np.exp(-alpha * np.asarray(atom.displacements))
            theta = float(w.sum())
            atom_ids.append(a)
            biased.append(atom.probability * theta / m)
            child_cum[a, : atom.count - 1] = (np.cumsum(w) / theta)[:-1]
            child_disp[a, : atom.count] = atom.displacements
        atom_ids = np.array(atom_ids, dtype=np.int64)
        atom_cum = np.cumsum(biased)
        atom_cum[-1] = 1.0
    else:
        # heavy-tail family: displacements are all zero, so the biased
        # count law is n p_n / mean and the child choice is uniform
        atom_cum = _heavy_sampler(law.tail_exponent, law.n_max, True).cdf
        atom_ids = child_cum = child_disp = np.empty((0, 0))
    return _SpineTables(atom_cum, atom_ids, child_cum, child_disp, math.log(m))


def _spine_brood(
    law: Law, tables: _SpineTables, u_atom: np.ndarray, u_child: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Atom index of each size-biased brood and its chosen child's slot,
    one ``(u_atom, u_child)`` pair each, for arrays of any shape."""
    if isinstance(law, LogDivergentLaw):
        atom = law._atoms(u_atom, size_biased=True)
        count = atom + 2
        return atom, np.minimum((u_child * count).astype(np.int64), count - 1)
    row = np.searchsorted(tables.atom_cum, u_atom, side="right")
    atom = tables.atom_ids[np.minimum(row, tables.atom_cum.size - 1)]
    slot = np.zeros(atom.shape, dtype=np.int64)
    for column in tables.child_cum.T:
        slot += column[atom] <= u_child
    return atom, slot


def _spine_log_weight(
    ray_position: np.ndarray, alpha: float, log_m: float, generations: np.ndarray
) -> np.ndarray:
    """``-alpha * S(xi_k) - k * log m`` for ray positions at generations ``k``."""
    log_weight = -alpha * ray_position - generations * log_m
    log_weight[..., generations == 0] = 0.0
    return log_weight


class SpinedTree(NamedTuple):
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


def grow_spined_tree(
    law: Law, alpha: float, depth: int, caps: GrowthCaps, rng: "np.random.Generator"
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
        tree, ray = _grow(law, depth, caps, rng, partial(_spine_brood, law, tables))
    except PopulationCapError as e:
        raise PopulationCapError(None, e.generation, e.cap) from None
    log_weight = _spine_log_weight(
        tree.position[ray], alpha, tables.log_m, np.arange(depth + 1)
    )
    return SpinedTree(
        tree=tree,
        ray=ray,
        spine_log_weight=log_weight,
        alpha=float(alpha),
        log_m=tables.log_m,
    )


def grow_spined_batch(
    law: Law,
    alpha: float,
    depth: int,
    caps: GrowthCaps,
    seed: int,
    replicates: int,
    generations: Sequence[int] | None = None,
) -> tuple[BatchGrowth, np.ndarray]:
    """Grow spined replicates ``0..replicates-1`` together on
    ``brw.grow_occupation``; also return ``spine_log_weight`` per replicate
    and recorded generation.

    Replicate ``r`` draws the counter stream keyed
    ``rng.replicate_keys(seed, r)`` and has the law of
    ``grow_spined_tree`` followed by ``martingale_trajectory(..., log
    m)``: the same ``Z_n``, ``log W_n``, ray positions and largest
    last-generation position in law, and a replicate that hits the node
    cap reports the generation of its cap in ``capped_at``.
    """
    law = validate_law(law)
    tables = _spine_tables(law, float(alpha))
    grown = grow_occupation(
        law, depth, caps, seed, replicates, alpha, generations,
        spine_brood=partial(_spine_brood, law, tables),
    )
    gens = np.array(grown.generations, dtype=np.int64)
    return grown, _spine_log_weight(grown.ray_position, alpha, tables.log_m, gens)


def _walk(law: Law, tables: _SpineTables, u: np.ndarray) -> np.ndarray:
    """Ray positions from rows of ``2 * depth`` uniforms, one walk per row."""
    depth = u.shape[-1] // 2
    out = np.zeros(u.shape[:-1] + (depth + 1,))
    if isinstance(law, FiniteLaw):
        atom, slot = _spine_brood(law, tables, u[..., :depth], u[..., depth:])
        np.cumsum(tables.child_disp[atom, slot], axis=-1, out=out[..., 1:])
    return out


# spine_walk_ends draws walks in blocks of about this many uniforms, and of
# at most brw._BATCH_REPLICATES walks
_WALK_UNIFORMS = 1 << 16


def spine_walk_ends(
    law: Law,
    alpha: float,
    depth: int,
    seed: int,
    replicates: int,
) -> np.ndarray:
    """``S(xi_depth)`` of walks ``0..replicates-1``.  Walk ``r`` draws
    the first ``2 * depth`` uniforms of block 0 of the counter stream keyed
    ``rng.replicate_keys(seed, r)``; its steps are independent draws of
    the spine step law, so it ends where the ray of a spined tree ends, in
    law."""
    law = validate_law(law)
    if depth < 0:
        raise DomainError(f"depth must be nonnegative, got {depth}")
    tables = _spine_tables(law, float(alpha))
    _check_positions(law, depth)
    rows = max(1, min(_BATCH_REPLICATES, _WALK_UNIFORMS // max(1, 2 * depth)))
    ends = np.empty(replicates)
    for lo in range(0, replicates, rows):
        hi = min(lo + rows, replicates)
        keys = block_keys(replicate_keys(seed, np.arange(lo, hi)), 0)
        u = counter_uniforms(keys, np.full(hi - lo, 2 * depth)).reshape(hi - lo, 2 * depth)
        ends[lo:hi] = _walk(law, tables, u)[:, -1]
    return ends
