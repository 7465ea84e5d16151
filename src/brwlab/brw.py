"""Growth of branching random walk genealogies and their weighted sums.

Trees are stored arena style: parallel arrays indexed by node id, plus an
index of node ids per generation.  Growth is breadth first, one
generation at a time; each non-empty generation consumes exactly one
block of ``Z_n`` uniforms from the generator, so a ``(law, depth, caps,
seed)`` tuple reproduces the same tree bit for bit.  Trees are plain
data and are never mutated after growth; share them freely across
threads.

The same generation loop grows size-biased trees (see ``spine``): one
frontier particle per generation, the spine particle, takes its brood
from a size-biased draw, made from two uniforms drawn after the plain
block, and picks the next spine particle among its children.
Everything else grows under the plain law, so spined growth needs no
engine of its own.

``grow_occupation`` grows many replicates at once for statistics that
need only ``Z_n``, ``W_n``, the ray and the last generation's largest
position.  It keeps per replicate its occupied positions with their
int64 particle counts, merged by exact float equality, and advances a
batch of replicates one generation at a time, each replicate drawing
from its own generator; a replicate's results never depend on which
batch it ran in.  A batch's generators are built in one call,
``rng_for(ids)``, which returns them in order of the replicate ids (see
``rng.replicate_rngs``).  Particles at one position are exchangeable,
so one draw of atom counts per occupied position gives the law of the
tree's positions (Athreya and Ney 1972; Biggins 1977).  While ``Z_n`` is
small a replicate draws the ``random(Z_n)`` block ``grow_tree`` draws,
which keeps its ``Z_n`` equal to the tree's; past ``_MULTINOMIAL_ABOVE``
it draws one ``multinomial`` over the atoms, so its cost follows the
occupied positions, not the particles.  No count may pass ``2^62``.

Spined replicates grow on the same engine, given the ``spine_brood``
hook that ``spine`` supplies.  Each keeps the position of its spine
particle, which is counted in the row at that position, its home row.
Under the size-biased law only the spine's brood is size-biased (Lyons,
Pemantle and Peres 1995), so each generation the hook's brood stands in
for the plain brood of one particle of the home row, and the ray moves
to the chosen child.  The replicates equal ``grow_spined_tree`` in law,
not bit for bit.  Uniforms become broods in one place, ``_atoms``, for
trees and batches alike, and spine broods in one place, the hook.

A batch whose next generation passes ``_BATCH_PARTICLES`` uniforms plus
frontier rows splits in two; beyond that size one replicate's arrays
amortise numpy's per-call cost on their own.  Peak memory is therefore a
few such budgets plus one replicate's frontier, less than its grown tree
would hold.

The additive martingale along a grown tree is

    W_n = sum over generation-n nodes of exp(-alpha * S) / m(alpha)^n,

computed in log space with max subtraction (``log_w``) by one segmented
reduction, over the generations of a tree or over the replicates of a
batch, where an occupied position contributes ``-alpha * S +
log(count)``.  Empty generations give ``-inf``, and trajectories keep
running past extinction so downstream consumers see explicit zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, PopulationCapError, ResourceError
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


# up to this many atoms, counting the cdf entries at or below each uniform
# beats a binary search: 1.8 ns per uniform for 2 atoms and 13 ns for 16,
# against 23-46 ns for np.searchsorted (2-core Xeon, numpy 2.4)
_SCAN_ATOMS = 32


def _atoms(law: Law, u: np.ndarray) -> np.ndarray:
    """Atom index per parent, one uniform each: the number of cdf entries
    at or below it, the last atom taking any rounding excess.

    The one place where uniforms become broods: tree growth feeds it one
    replicate's block, batched growth the blocks of many replicates
    concatenated."""
    cdf = law._tables.cum_p if isinstance(law, FiniteLaw) else law._cdf
    if cdf.size > _SCAN_ATOMS:
        return np.minimum(np.searchsorted(cdf, u, side="right"), cdf.size - 1).astype(np.int64)
    ai = np.zeros(u.shape, dtype=np.int64)
    for c in cdf[:-1].tolist():
        ai += u >= c
    return ai


def _broods(law: Law, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Atom index and brood size per parent, one uniform each."""
    ai = _atoms(law, u)
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


def _check_growth(depth: int, caps: GrowthCaps) -> None:
    if depth < 0:
        raise DomainError(f"depth must be nonnegative, got {depth}")
    if depth > caps.max_depth:
        raise DomainError(f"depth {depth} exceeds caps.max_depth {caps.max_depth}")
    if caps.max_nodes < 1:
        raise DomainError("caps.max_nodes must allow at least the root")


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


# spine_brood(u_atom, u_child) -> (atom index, child slot), one pair per
# spine particle; ``spine`` builds it from the size-biased tables
SpineBrood = Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]


def _grow(
    law: Law,
    depth: int,
    caps: GrowthCaps,
    rng: np.random.Generator,
    spine_brood: SpineBrood | None = None,
) -> tuple[LabelledTree, np.ndarray | None]:
    """The generation loop behind ``grow_tree`` and ``grow_spined_tree``.

    Returns the tree and, when ``spine_brood`` is given, the ray: node
    ids of the spine particle per generation.  Spined growth draws one
    block of ``Z_n + 2`` uniforms per generation; ``spine_brood`` turns
    the last two into the spine particle's size-biased atom index and
    the slot of the child that carries the spine on, and that atom
    overrides the plain draw for the spine particle.  ``law`` must
    already be validated.
    """
    _check_growth(depth, caps)
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
        if spine_brood is None:
            ai, counts = _broods(law, rng.random(z))
        else:
            u = rng.random(z + 2)
            ai, counts = _broods(law, u[:z])
            atom, slot = spine_brood(u[z : z + 1], u[z + 1 :])
            ai[spine] = atom[0]
            counts[spine] = _brood_sizes(law, atom)[0]
        total = int(counts.sum())
        if node_count + total > caps.max_nodes:
            grown = _assemble_tree(
                parent_chunks, disp_chunks, pos_chunks, generation_index, g, None
            )
            raise PopulationCapError(grown, g + 1, caps.max_nodes)
        disp = _offspring_displacements(law, ai, counts, total)
        pos = np.repeat(frontier_pos, counts) + disp
        idx = np.arange(node_count, node_count + total, dtype=np.int64)
        parent_chunks.append(np.repeat(frontier_idx, counts))
        disp_chunks.append(disp)
        pos_chunks.append(pos)
        generation_index.append(idx)
        if spine_brood is not None:
            spine = int(counts[:spine].sum()) + int(slot[0])
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


def _segment_log_sum_exp(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """``log_sum_exp`` of each consecutive run of ``values``; the runs have
    the given sizes, all positive.  A run's result depends on its own
    values only, so trees and batches of trees agree bit for bit."""
    starts = np.cumsum(sizes) - sizes
    peak = np.maximum.reduceat(values, starts)
    with np.errstate(invalid="ignore"):
        total = np.add.reduceat(np.exp(values - np.repeat(peak, sizes)), starts)
        out = peak + np.log(total)
    return np.where(peak == _NEG_INF, _NEG_INF, out)


def log_sum_exp(values: np.ndarray) -> float:
    """log(sum(exp(values))) with max subtraction; -inf on empty input."""
    if values.size == 0:
        return _NEG_INF
    return float(_segment_log_sum_exp(values, np.array([values.size]))[0])


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
    population = np.array(generation_sizes(tree), dtype=np.int64)
    log_w = np.full(population.size, _NEG_INF)
    alive = np.flatnonzero(population)
    if alive.size:
        order = np.concatenate(tree.generation_index)
        lse = _segment_log_sum_exp(-alpha * tree.position[order], population[alive])
        log_w[alive] = lse - alive * log_m
    return MartingaleTrajectory(alpha, log_m, log_w, population)


# ---------------------------------------------------------------------------
# batched growth
# ---------------------------------------------------------------------------

# A batch whose next generation would draw more than _BATCH_PARTICLES
# uniforms, or hold more frontier rows, splits in two; past that size one
# replicate's arrays already amortise numpy's per-call cost.  A run
# starts batches of at most _BATCH_REPLICATES roots, which bounds the
# generators alive at once (about 1 kB each).
_BATCH_PARTICLES = 1 << 16
_BATCH_REPLICATES = 4096

# An occupation replicate-generation draws its broods with one multinomial
# call once Z_n passes _MULTINOMIAL_ABOVE plus _MULTINOMIAL_CELL per
# (position, atom) cell, and one uniform per particle below; see
# grow_occupation.  _MULTINOMIAL_ABOVE is at least mc's _ANALYTIC_SWITCH.
_MULTINOMIAL_ABOVE = 512
_MULTINOMIAL_CELL = 4

# no particle count, Z_n or node total may pass 2^62 (int64 holds 2^63 - 1)
_COUNT_LIMIT = 1 << 62


@dataclass(frozen=True)
class BatchGrowth:
    """What ``grow_occupation`` keeps of each replicate, rows in replicate
    order.

    ``population[r, j]`` and ``log_w[r, j]`` are ``Z_n`` and ``log W_n``
    of replicate ``r`` at generation ``n = generations[j]``; past the last
    generation a replicate completed they read 0 and ``-inf``.
    ``capped_at[r]`` is the generation whose growth would have passed
    ``caps.max_nodes`` tree nodes (-1 for none), the ``generation`` of the
    ``PopulationCapError`` that ``grow_tree`` would raise.  ``stops[r] =
    (g, Z_g, u)`` for a replicate that stopped at generation ``g`` with
    more than ``stop_above`` particles; ``u`` is the next uniform of its
    stream.  Given ``alpha``, ``max_position[r]`` is the largest position
    at generation ``depth`` (``-inf`` when there is none), and for spined
    growth ``ray_position[r, j]`` is the spine particle's position at
    generation ``generations[j]``.
    """

    generations: tuple[int, ...]
    population: np.ndarray
    log_w: np.ndarray | None
    capped_at: np.ndarray
    stops: dict[int, tuple[int, int, float]]
    max_position: np.ndarray | None = None
    ray_position: np.ndarray | None = None


@dataclass(frozen=True)
class _Batch:
    """Live replicates of a batch, in replicate order: ``z`` particles,
    ``nodes`` tree nodes so far and ``rows`` frontier rows each.  A row is
    one occupied position with its particle count, laid out replicate by
    replicate, positions ascending within a replicate.  Spined batches also
    keep each replicate's spine position, which is the position of exactly
    one of its rows, the spine's home row."""

    ids: np.ndarray
    rngs: list[np.random.Generator]
    z: np.ndarray
    nodes: np.ndarray
    rows: np.ndarray
    pos: np.ndarray
    count: np.ndarray
    spine: np.ndarray | None = None

    def take(self, keep: np.ndarray) -> "_Batch":
        row = np.repeat(keep, self.rows)
        spine = None if self.spine is None else self.spine[keep]
        rngs = [rng for rng, k in zip(self.rngs, keep.tolist()) if k]
        return _Batch(self.ids[keep], rngs, self.z[keep], self.nodes[keep], self.rows[keep],
                      self.pos[row], self.count[row], spine)

    def halves(self) -> tuple["_Batch", "_Batch"]:
        first = np.arange(self.ids.size) < self.ids.size // 2
        return self.take(first), self.take(~first)


def grow_occupation(
    law: Law,
    depth: int,
    caps: GrowthCaps,
    rng_for: Callable[[np.ndarray], list[np.random.Generator]],
    replicates: int,
    alpha: float | None = None,
    log_m: float = 0.0,
    generations: Sequence[int] | None = None,
    stop_above: int | None = None,
    spine_brood: SpineBrood | None = None,
) -> BatchGrowth:
    """Grow replicates ``0..replicates-1`` to ``depth`` as occupation
    measures and keep their generation sizes and, given ``alpha``,
    ``log W_n`` and the largest last-generation position.

    A replicate's frontier is its occupied positions with their particle
    counts, positions merged by exact float equality, so the cost of a
    generation follows the occupied positions, not the particles.  Each
    non-empty generation replicate ``r`` makes one call on its generator,
    which ``rng_for(ids)`` returns, in order of ``ids``, once per batch.
    With ``Z_n`` up to ``_MULTINOMIAL_ABOVE + _MULTINOMIAL_CELL * pairs *
    atoms`` (always, for heavy tails) it draws ``random(Z_n)``, the block
    ``grow_tree`` draws, one uniform per particle with the particles taken
    position by position; past it, ``multinomial(counts, p)`` gives the
    atom counts at every position at once.  Particles at one position are
    exchangeable, so either draw gives the law of the tree's positions.
    While a replicate draws uniforms its ``Z_n`` and cap generation equal
    those of ``grow_tree`` on the same stream bit for bit (a sum of broods
    does not depend on which particle drew which uniform); its positions,
    and so ``log W_n``, are equal in law only.

    With ``spine_brood`` (see ``SpineBrood``) the replicates grow under
    the size-biased law, as ``grow_spined_tree`` grows them, and
    ``ray_position`` is recorded.  The spine particle is the first
    particle of its home row; its brood comes from ``spine_brood``
    instead of the plain law, and the ray moves to the chosen child.  On the uniform path a replicate draws
    ``random(Z_n + 2)``, the spined tree's block: the spine's plain
    uniform is drawn and ignored, and the last two go to ``spine_brood``.
    On the multinomial path it draws ``multinomial`` over the counts
    without the spine, then ``random(2)``.  Only the spine's brood is
    size-biased under that law (Lyons, Pemantle and Peres 1995), so the
    replicates equal spined trees in law, not bit for bit.

    ``caps.max_nodes`` still counts tree nodes, ``sum Z_k`` over
    ``k <= n``.  A replicate whose node total would pass ``2^62``, with
    the cap above that, raises ``ResourceError``: no count is ever
    wrapped.  With ``stop_above``, a replicate holding more particles at
    the start of a generation stops there and draws one more uniform
    instead (see ``BatchGrowth.stops``).  A replicate's numbers never
    depend on the other replicates of its batch.
    """
    law = validate_law(law)
    _check_growth(depth, caps)
    gens = tuple(range(depth + 1)) if generations is None else tuple(generations)
    column = np.full(depth + 1, -1, dtype=np.int64)
    column[list(gens)] = np.arange(len(gens))
    population = np.zeros((replicates, len(gens)), dtype=np.int64)
    log_w = max_position = ray_position = None
    if alpha is not None:
        log_w = np.full((replicates, len(gens)), _NEG_INF)
        max_position = np.full(replicates, _NEG_INF)
    if spine_brood is not None:
        ray_position = np.full((replicates, len(gens)), math.nan)

    def record(b: _Batch, n: int) -> None:
        if b.ids.size == 0:
            return
        if n == depth and max_position is not None:
            max_position[b.ids] = b.pos[np.cumsum(b.rows) - 1]
        j = column[n]
        if j < 0:
            return
        population[b.ids, j] = b.z
        if log_w is not None:
            lse = _segment_log_sum_exp(-alpha * b.pos + np.log(b.count), b.rows)
            log_w[b.ids, j] = lse - n * log_m
        if ray_position is not None:
            ray_position[b.ids, j] = b.spine

    capped_at, stops = _grow_occupied(law, depth, caps, rng_for, replicates,
                                      alpha is not None or spine_brood is not None,
                                      stop_above, record, spine_brood)
    return BatchGrowth(gens, population, log_w, capped_at, stops, max_position, ray_position)


def _grow_occupied(
    law: Law,
    depth: int,
    caps: GrowthCaps,
    rng_for: Callable[[np.ndarray], list[np.random.Generator]],
    replicates: int,
    positions: bool,
    stop_above: int | None,
    record: Callable[[_Batch, int], None],
    spine_brood: SpineBrood | None = None,
) -> tuple[np.ndarray, dict[int, tuple[int, int, float]]]:
    """The engine behind ``grow_occupation``: hand every generation of
    every batch to ``record`` and return ``capped_at`` and ``stops``.
    Without ``positions`` all particles stay at 0.  ``law`` must already
    be validated.

    Batches of at most ``_BATCH_REPLICATES`` roots grow depth first;
    ``rng_for`` is called once per batch, and a batch whose next
    generation passes ``_BATCH_PARTICLES`` uniforms or rows splits in two
    first."""
    capped_at = np.full(replicates, -1, dtype=np.int64)
    stops: dict[int, tuple[int, int, float]] = {}
    heavy = isinstance(law, LogDivergentLaw)
    spined = spine_brood is not None
    limit = min(caps.max_nodes, _COUNT_LIMIT)
    disp = np.zeros(1)
    if not heavy:
        t = law._tables
        atoms = t.counts.size
        sizes = t.counts.tolist()
        p = np.diff(np.minimum(t.cum_p, 1.0), prepend=0.0)
        if positions:
            # mult[a, d]: children of atom a at displacement disp[d]; sorted
            # in Python, as np.unique would load numpy.ma
            disp = np.array(sorted(set(t.flat_disp.tolist())))
            mult = np.zeros((atoms, disp.size), dtype=np.int64)
            np.add.at(mult, (np.repeat(np.arange(atoms), t.counts),
                             np.searchsorted(disp, t.flat_disp)), 1)

    def multinomial(b: _Batch) -> np.ndarray:
        """Which replicates of ``b`` draw their next broods by multinomial."""
        if heavy:
            return np.zeros(b.ids.size, dtype=bool)
        return b.z > _MULTINOMIAL_ABOVE + _MULTINOMIAL_CELL * atoms * b.rows

    def children(b: _Batch, g: int) -> _Batch:
        """Generation ``g + 1`` of ``b``, recorded; replicates that stop,
        hit the cap or die out are dropped."""
        if stop_above is not None and (b.z > stop_above).any():
            over = b.z > stop_above
            for i in np.flatnonzero(over):
                stops[int(b.ids[i])] = (g, int(b.z[i]), b.rngs[i].random())
            b = b.take(~over)
            if b.ids.size == 0:
                return b
        first = np.cumsum(b.rows) - b.rows
        multi = multinomial(b)
        drawn = np.repeat(~multi, b.rows)  # rows whose particles draw uniforms
        others = b.count  # per row, the particles a multinomial draws for
        if spined:
            # home[i]: the one row of replicate i at its spine's position
            home = np.flatnonzero(b.pos == np.repeat(b.spine, b.rows))
            others = b.count.copy()
            others[home] -= 1
            atom, slot = np.zeros((2, b.ids.size), dtype=np.int64)
        # kids[row, d]: children at position pos[row] + disp[d]; with one
        # displacement a replicate has one row, and its Z_{n+1} says it all
        totals = np.zeros(b.ids.size, dtype=np.int64)
        kids = None if disp.size == 1 else np.zeros((b.pos.size, disp.size), dtype=np.int64)
        extra = 2 if spined else 0
        blocks = [rng.random(z + extra) for rng, z, m in zip(b.rngs, b.z.tolist(), multi.tolist())
                  if not m]
        if blocks:
            u = np.concatenate(blocks)
            count = b.count[drawn]
            start = np.cumsum(count) - count
            if spined:
                end = np.cumsum(b.z[~multi] + 2)
                atom[~multi], slot[~multi] = spine_brood(u[end - 2], u[end - 1])
                plain = np.ones(u.size, dtype=bool)
                plain[end - 2] = plain[end - 1] = False
                u = u[plain]
            ai = _atoms(law, u)
            if spined:
                # the spine is the first particle of its home row: its
                # size-biased atom overrides the plain one
                ai[start[(np.cumsum(drawn) - 1)[home[~multi]]]] = atom[~multi]
            if kids is None:
                totals[~multi] = np.add.reduceat(_brood_sizes(law, ai), start)
            else:
                cell = np.repeat(np.arange(0, count.size * atoms, atoms), count) + ai
                per_atom = np.bincount(cell, minlength=count.size * atoms)
                kids[drawn] = per_atom.reshape(-1, atoms) @ mult
                totals = np.add.reduceat(kids.sum(axis=1), first)
        room = limit - b.nodes
        over = totals > room
        for i in np.flatnonzero(multi).tolist():
            at = slice(first[i], first[i] + b.rows[i])
            per_atom = b.rngs[i].multinomial(others[at], p)
            if spined:
                u = b.rngs[i].random(2)  # then the spine's atom and child
                atom[i : i + 1], slot[i : i + 1] = spine_brood(u[:1], u[1:])
                per_atom[home[i] - first[i], atom[i]] += 1
            # Z_{n+1} in Python integers, so a count past int64 cannot wrap
            total = sum(int(n) * size for n, size in zip(per_atom.sum(axis=0).tolist(), sizes))
            over[i] = total > room[i]
            if not over[i]:
                totals[i] = total
                if kids is not None:
                    kids[at] = per_atom @ mult
        if over.any():
            if caps.max_nodes > _COUNT_LIMIT:
                r = int(b.ids[np.argmax(over)])
                raise ResourceError(
                    f"replicate {r} would pass 2^62 tree nodes growing generation {g + 1}; "
                    "counts that large are not represented, lower the depth"
                )
            capped_at[b.ids[over]] = g + 1
            if kids is not None:
                kids[np.repeat(over, b.rows)] = 0
        live = (totals > 0) & ~over
        z = totals[live]
        if kids is None:
            rows, pos, count = np.ones(z.size, dtype=np.int64), b.pos[live] + disp[0], z
        else:
            owner = np.repeat(np.arange(b.ids.size), b.rows * disp.size)
            pos = (b.pos[:, None] + disp).ravel()
            count = kids.ravel()
            keep = count > 0
            owner, pos, count = owner[keep], pos[keep], count[keep]
            # by replicate, then position: a radix sort on the replicate
            # index, which a batch keeps below 2^15
            order = np.argsort(pos)
            order = order[np.argsort(owner[order].astype(np.int16), kind="stable")]
            owner, pos, count = owner[order], pos[order], count[order]
            new = np.ones(pos.size, dtype=bool)
            new[1:] = (owner[1:] != owner[:-1]) | (pos[1:] != pos[:-1])
            at = np.flatnonzero(new)
            owner, pos, count = owner[at], pos[at], np.add.reduceat(count, at)
            rows = np.bincount(owner, minlength=b.ids.size)[live]
        spine = None
        if spined:
            # the ray moves by the chosen child's displacement, the same
            # float its row was placed at
            step = 0.0 if heavy else t.flat_disp[t.offsets[atom] + slot]
            spine = (b.spine + step)[live]
        rngs = [rng for rng, k in zip(b.rngs, live.tolist()) if k]
        nb = _Batch(b.ids[live], rngs, z, b.nodes[live] + z, rows, pos, count, spine)
        record(nb, g + 1)
        return nb

    for lo in range(0, replicates, _BATCH_REPLICATES):
        ids = np.arange(lo, min(lo + _BATCH_REPLICATES, replicates))
        ones = np.ones(ids.size, dtype=np.int64)
        root = _Batch(ids, rng_for(ids), ones, ones, ones, np.zeros(ids.size), ones,
                      np.zeros(ids.size) if spined else None)
        record(root, 0)
        pending = [(0, root)]
        while pending:
            g, b = pending.pop()
            if g == depth or b.ids.size == 0:
                continue
            load = int(np.where(multinomial(b), b.rows, b.z).sum())
            if b.ids.size > 1 and load > _BATCH_PARTICLES:
                first, second = b.halves()
                pending += [(g, second), (g, first)]
            else:
                pending.append((g + 1, children(b, g)))
    return capped_at, stops
