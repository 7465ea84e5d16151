"""Growth of branching random walk genealogies and their weighted sums.

Trees are stored arena style: parallel arrays indexed by node id, plus an
index of node ids per generation.  Growth is breadth first, one
generation at a time; each generation consumes exactly one block of
uniforms from the generator, so a ``(law, depth, caps, seed)`` tuple
reproduces the same tree bit for bit.  Trees are plain data and are
never mutated after growth; share them freely across threads.

The same generation loop grows size-biased trees (see ``spine``): one
frontier particle per generation, the spine particle, takes its brood
from a size-biased draw made after the plain block and picks the next
spine particle among its children.  Everything else grows under the
plain law, so spined growth needs no engine of its own.

The additive martingale along a grown tree is

    W_n = sum over generation-n nodes of exp(-alpha * S) / m(alpha)^n,

computed in log space with max subtraction (``log_w``); empty
generations give ``-inf``, and trajectories keep running past extinction
so downstream consumers see explicit zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, PopulationCapError
from .offspring import FiniteLaw, Law, LogDivergentLaw, validate_law

_NEG_INF = float("-inf")


@dataclass(frozen=True)
class GrowthCaps:
    """Hard resource limits for tree growth."""

    max_nodes: int = 1_000_000
    max_depth: int = 100_000


@dataclass(frozen=True)
class NodeRecord:
    """One particle: parent id (None for the root), displacement from the
    parent (None for the root), absolute position, and generation."""

    parent: int | None
    displacement: float | None
    position: float
    generation: int


@dataclass
class LabelledTree:
    """Arena of particles grown to ``depth_grown`` generations.

    ``generation_index[n]`` lists the node ids of generation ``n`` in
    birth order; it has exactly ``depth_grown + 1`` entries, with empty
    arrays from ``extinct_at`` onward when the population died early.
    """

    parent: np.ndarray
    displacement: np.ndarray
    position: np.ndarray
    generation: np.ndarray
    generation_index: list[np.ndarray] = field(repr=False)
    depth_grown: int = 0
    extinct_at: int | None = None

    def __len__(self) -> int:
        return len(self.parent)

    def node(self, i: int) -> NodeRecord:
        p = int(self.parent[i])
        return NodeRecord(
            parent=None if p < 0 else p,
            displacement=None if p < 0 else float(self.displacement[i]),
            position=float(self.position[i]),
            generation=int(self.generation[i]),
        )


def generation_sizes(tree: LabelledTree) -> list[int]:
    """Population per generation, zeros after extinction."""
    return [int(idx.size) for idx in tree.generation_index]


# ---------------------------------------------------------------------------
# growth engine
# ---------------------------------------------------------------------------


def _brood_sizes(law: Law, ai: np.ndarray) -> np.ndarray:
    """Brood size of each atom index (heavy tail: index ``i`` has ``i + 2``)."""
    if isinstance(law, FiniteLaw):
        return law._tables.counts[ai]
    return (ai + 2).astype(np.int64)


def _draw_offspring(
    law: Law, z: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Atom/count choices for ``z`` parents; one uniform block of length z."""
    u = rng.random(z)
    if isinstance(law, FiniteLaw):
        ai = np.minimum(
            np.searchsorted(law._tables.cum_p, u, side="right"), len(law.atoms) - 1
        ).astype(np.int64)
    else:
        cdf = law._cdf
        ai = np.minimum(np.searchsorted(cdf, u, side="right"), len(cdf) - 1)
    return ai, _brood_sizes(law, ai)


def _offspring_displacements(
    law: Law, ai: np.ndarray, counts: np.ndarray, total: int
) -> np.ndarray:
    """Child displacements in birth order (parents in order, atom order within)."""
    if total == 0:
        return np.empty(0)
    if isinstance(law, LogDivergentLaw):
        return np.zeros(total)
    t = law._tables
    first_slot = np.cumsum(counts) - counts
    return t.flat_disp[np.repeat(t.offsets[ai] - first_slot, counts) + np.arange(total)]


def _assemble_tree(
    parent_chunks: list[np.ndarray],
    disp_chunks: list[np.ndarray],
    pos_chunks: list[np.ndarray],
    generation_index: list[np.ndarray],
    depth_grown: int,
    extinct_at: int | None,
) -> LabelledTree:
    parent = np.concatenate(parent_chunks).astype(np.int64)
    generation = np.empty(len(parent), dtype=np.int64)
    for n, idx in enumerate(generation_index):
        generation[idx] = n
    return LabelledTree(
        parent=parent,
        displacement=np.concatenate(disp_chunks),
        position=np.concatenate(pos_chunks),
        generation=generation,
        generation_index=generation_index,
        depth_grown=depth_grown,
        extinct_at=extinct_at,
    )


def _grow(
    law: Law,
    depth: int,
    caps: GrowthCaps,
    rng: np.random.Generator,
    spine_brood: Callable[[np.random.Generator], tuple[int, int]] | None = None,
) -> tuple[LabelledTree, np.ndarray | None]:
    """The generation loop behind ``grow_tree`` and ``grow_spined_tree``.

    Returns the tree and, when ``spine_brood`` is given, the ray: node
    ids of the spine particle per generation.  ``spine_brood(rng)`` gives
    the spine particle's size-biased atom index and the slot of the
    child that carries the spine on; it is called once per generation,
    after the plain uniform block, and its atom overrides the plain draw
    for the spine particle.  ``law`` must already be validated.
    """
    if depth < 0:
        raise DomainError(f"depth must be nonnegative, got {depth}")
    if depth > caps.max_depth:
        raise DomainError(f"depth {depth} exceeds caps.max_depth {caps.max_depth}")
    if caps.max_nodes < 1:
        raise DomainError("caps.max_nodes must allow at least the root")

    parent_chunks = [np.array([-1], dtype=np.int64)]
    disp_chunks = [np.array([math.nan])]
    pos_chunks = [np.array([0.0])]
    generation_index = [np.arange(1, dtype=np.int64)]
    frontier_idx = generation_index[0]
    frontier_pos = pos_chunks[0]
    node_count = 1
    extinct_at: int | None = None
    ray = None if spine_brood is None else np.zeros(depth + 1, dtype=np.int64)
    spine = 0  # frontier offset of the spine particle

    for g in range(depth):
        z = frontier_idx.size
        if z == 0:
            generation_index.append(np.empty(0, dtype=np.int64))
            continue
        ai, counts = _draw_offspring(law, z, rng)
        if spine_brood is not None:
            atom, slot = spine_brood(rng)
            ai[spine] = atom
            counts = _brood_sizes(law, ai)
        total = int(counts.sum())
        if node_count + total > caps.max_nodes:
            partial = _assemble_tree(
                parent_chunks, disp_chunks, pos_chunks, generation_index, g, None
            )
            raise PopulationCapError(partial, g + 1, caps.max_nodes)
        disp = _offspring_displacements(law, ai, counts, total)
        pos = np.repeat(frontier_pos, counts) + disp
        idx = np.arange(node_count, node_count + total, dtype=np.int64)
        parent_chunks.append(np.repeat(frontier_idx, counts))
        disp_chunks.append(disp)
        pos_chunks.append(pos)
        generation_index.append(idx)
        if spine_brood is not None:
            spine = int(counts[:spine].sum()) + slot
            ray[g + 1] = node_count + spine
        node_count += total
        if total == 0 and extinct_at is None:
            extinct_at = g + 1
        frontier_idx, frontier_pos = idx, pos

    tree = _assemble_tree(
        parent_chunks, disp_chunks, pos_chunks, generation_index, depth, extinct_at
    )
    return tree, ray


def grow_tree(
    law: Law, depth: int, caps: GrowthCaps, rng: np.random.Generator
) -> LabelledTree:
    """Grow a tree to ``depth`` generations under the given law.

    Raises ``PopulationCapError`` carrying the partial tree (complete
    through the last finished generation) if ``caps.max_nodes`` would be
    exceeded.
    """
    return _grow(validate_law(law), depth, caps, rng)[0]


# ---------------------------------------------------------------------------
# martingale trajectory
# ---------------------------------------------------------------------------


def log_sum_exp(values: np.ndarray) -> float:
    """log(sum(exp(values))) with max subtraction; -inf on empty input."""
    if values.size == 0:
        return _NEG_INF
    peak = float(np.max(values))
    if math.isinf(peak) and peak < 0:
        return _NEG_INF
    return peak + math.log(float(np.sum(np.exp(values - peak))))


@dataclass(frozen=True)
class MartingaleTrajectory:
    """Per-generation population and log martingale value for one tree."""

    alpha: float
    log_m: float
    log_w: np.ndarray
    population: np.ndarray


def martingale_trajectory(
    tree: LabelledTree, alpha: float, log_m: float
) -> MartingaleTrajectory:
    """``log W_n`` for every grown generation; ``-inf`` where extinct."""
    depth = tree.depth_grown
    log_w = np.empty(depth + 1)
    population = np.empty(depth + 1, dtype=np.int64)
    for n, idx in enumerate(tree.generation_index):
        population[n] = idx.size
        if idx.size == 0:
            log_w[n] = _NEG_INF
        else:
            log_w[n] = log_sum_exp(-alpha * tree.position[idx]) - n * log_m
    return MartingaleTrajectory(alpha, log_m, log_w, population)
