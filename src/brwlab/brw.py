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
batch of replicates one generation at a time.  Generation ``g`` of
replicate ``r`` draws from block ``g`` of the counter stream keyed
``rng.replicate_keys(seed, r)`` (see ``rng``), a function of the run's
seed and ``r`` alone, so a replicate's results never depend on which
batch it ran in.  Particles
at one position are exchangeable, so one draw of atom counts per
occupied position gives the law of the tree's positions (Athreya and
Ney 1972; Biggins 1977).  While ``Z_n`` is small a replicate draws
``Z_n`` uniforms, one per particle, as ``grow_tree`` does, and the
blocks of consecutive replicates come from one ``rng.counter_words``
call per chunk (see below); past ``_MULTINOMIAL_ABOVE`` it draws one
``multinomial`` over the atoms per occupied position, a chain of
counter-stream binomials on sub-blocks of its block
(``rng.counter_multinomials``), so its cost follows the occupied
positions, not the particles, and the rows of a whole batch are drawn
together.  No count may pass ``2^62``.

Spined replicates grow on the same engine, given the ``spine_brood``
hook that ``spine`` supplies.  Each keeps the position of its spine
particle, which is counted in the row at that position, its home row.
Under the size-biased law only the spine's brood is size-biased (Lyons,
Pemantle and Peres 1995), so each generation the hook's brood stands in
for the plain brood of one particle of the home row, and the ray moves
to the chosen child.  The hook runs once per chunk, on the last two
uniforms of each of its replicates' blocks.  The replicates equal
``grow_spined_tree`` in law, not bit for bit.

Tree growth turns uniforms into atoms in ``_atoms``.  Batched growth of
a finite law never forms a plain uniform: a particle's uniform ``(w >>
11) * 2^-53`` reaches a cdf entry ``c`` exactly when its 64-bit counter
word ``w`` reaches ``ceil(c * 2^53) << 11`` (``rng.word_thresholds``), so
``_row_atoms`` counts each row's atoms with one compare and one
``reduceat`` per threshold, and every particle takes the atom its uniform
would.  Heavy-tail laws invert the uniforms of their words.  Spine
broods come from the hook alone, on the only two words of a block that
become uniforms.

A batch keeps the sorted table of its distinct positions, and each row
its index into it.  A generation scatters the children of its rows onto
a grid of one cell per replicate and position of the next table, the
distinct sums of an entry and a displacement, and reads the next
frontier off the nonzero cells, replicate by replicate and positions
ascending, with no sort over the rows.  One budget, ``_BATCH_PARTICLES``,
bounds memory.  A run starts batches of at most that many replicates, as
many as a grid of one cell per replicate allows, and a batch whose next
grid would hold more cells splits in two, each half keeping the table
entries its rows use; the grid bounds the rows it leaves, too.  A
generation draws its uniforms in chunks of consecutive replicates, each
of at most the budget unless one replicate's block passes it alone, and
reduces each chunk at once to the children of its rows, so the batch's
arrays are sized by its rows and grid and only a chunk holds one entry
per particle.  Beyond that size one replicate's arrays amortise numpy's
per-call cost on their own.
Peak memory is therefore a few such budgets plus one replicate's
frontier, grid or block, less than its grown tree would hold.

The additive martingale along a grown tree is

    W_n = sum over generation-n nodes of exp(-alpha * S) / m(alpha)^n,

computed in log space with max subtraction (``log_w``) by one segmented
reduction, over the generations of a tree or over the replicates of a
batch, where an occupied position contributes ``-alpha * S +
log(count)``.  Empty generations give ``-inf``, and trajectories keep
running past extinction so downstream consumers see explicit zeros.
"""

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import DomainError, PopulationCapError, ResourceError
from .offspring import FiniteLaw, Law, LogDivergentLaw, tilted_mass, validate_law
from .rng import (
    block_keys,
    counter_multinomials,
    counter_uniforms,
    counter_words,
    replicate_keys,
    unit,
    word_thresholds,
)

_NEG_INF = float("-inf")

# deepest generation any growth or walk may be asked for
_MAX_DEPTH = 100_000


class GrowthCaps(NamedTuple):
    """Hard resource limits for tree growth."""

    max_nodes: int = 1_000_000


class LabelledTree:
    """Arena of particles grown to ``depth_grown`` generations.

    ``generation_index[n]`` lists the node ids of generation ``n`` in
    birth order; it has exactly ``depth_grown + 1`` entries, with empty
    arrays from ``extinct_at`` onward when the population died early.
    Not a NamedTuple: its length is its node count.
    """

    def __init__(
        self,
        parent: np.ndarray,
        displacement: np.ndarray,
        position: np.ndarray,
        generation: np.ndarray,
        generation_index: list[np.ndarray],
        depth_grown: int = 0,
        extinct_at: int | None = None,
    ):
        self.parent = parent
        self.displacement = displacement
        self.position = position
        self.generation = generation
        self.generation_index = generation_index
        self.depth_grown = depth_grown
        self.extinct_at = extinct_at

    def __len__(self) -> int:
        return len(self.parent)


# ---------------------------------------------------------------------------
# growth engine
# ---------------------------------------------------------------------------


def _brood_sizes(law: Law, ai: np.ndarray) -> np.ndarray:
    """Brood size of each atom index (heavy tail: index ``i`` has ``i + 2``)."""
    if isinstance(law, FiniteLaw):
        return law._tables.counts[ai]
    return (ai + 2).astype(np.int64)


# up to this many atoms, counting the cdf entries reached beats a binary
# search.  Batched growth counts a chunk's words per row and threshold, one
# compare and one reduceat each: about 1.4 ns per word plus 15 ns per row
# per threshold, against 35-60 ns per word for np.searchsorted and a
# per-row bincount.  They break even at 12 atoms with 4 words per row, 32
# with 32 and 40 with 320; the Monte Carlo runs hold 2 to 44 words per row.
# Tree growth counts uniforms, 13 ns each for 16 atoms against 23-46 ns
# for np.searchsorted (2-core Xeon, numpy 2.4).
_SCAN_ATOMS = 16


def _atoms(law: Law, u: np.ndarray) -> np.ndarray:
    """Atom index per parent, one uniform each: the number of cdf entries
    at or below it, the last atom taking any rounding excess.  Tree growth
    feeds it one replicate's block; batched growth compares counter words
    with exact thresholds instead (``_grow_occupied``)."""
    if isinstance(law, LogDivergentLaw):
        return law._atoms(u)
    cdf = law._tables.cum_p
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
    if depth > _MAX_DEPTH:
        raise DomainError(f"depth {depth} exceeds the depth limit {_MAX_DEPTH}")
    if caps.max_nodes < 1:
        raise DomainError("caps.max_nodes must allow at least the root")


def _check_positions(law: Law, depth: int) -> None:
    """Refuse a run whose positions, sums of ``depth`` displacements, could
    leave the float64 range, where ``inf - inf`` would write NaN: when
    ``depth * max|x|``, with ``depth * 2^-52`` of room for rounding, does
    not stay finite."""
    if isinstance(law, FiniteLaw) and law._tables.flat_disp.size:
        top = float(np.abs(law._tables.flat_disp).max())
        if not math.isfinite(depth * top * (1.0 + depth * 2.0**-52)):
            raise ResourceError(
                f"positions could leave the float64 range: {depth} generations of "
                f"displacements up to {top:g} in size; lower the depth"
            )


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
    rng: "np.random.Generator",  # quoted: np.random loads on first touch
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
    _check_positions(law, depth)
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
    law: Law, depth: int, caps: GrowthCaps, rng: "np.random.Generator"
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
    """``log(sum(exp(values)))``, with max subtraction, of each consecutive
    run of ``values``; the runs have the given sizes, all positive.  A
    run's result depends on its own values only, so trees and batches of
    trees agree bit for bit."""
    starts = np.cumsum(sizes) - sizes
    peak = np.maximum.reduceat(values, starts)
    with np.errstate(invalid="ignore"):
        total = np.add.reduceat(np.exp(values - np.repeat(peak, sizes)), starts)
        out = peak + np.log(total)
    return np.where(peak == _NEG_INF, _NEG_INF, out)


class MartingaleTrajectory(NamedTuple):
    """Per-generation population and log martingale value for one tree."""

    alpha: float
    log_m: float
    log_w: np.ndarray
    population: np.ndarray


def martingale_trajectory(
    tree: LabelledTree, alpha: float, log_m: float
) -> MartingaleTrajectory:
    """``log W_n`` for every grown generation; ``-inf`` where extinct."""
    population = np.array([idx.size for idx in tree.generation_index], dtype=np.int64)
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

# A run starts batches of at most _BATCH_PARTICLES roots, a batch whose
# next position grid would hold more than _BATCH_PARTICLES cells splits in
# two, and a generation draws its uniforms in chunks of consecutive
# replicates of at most _BATCH_PARTICLES each (one replicate past it is a
# chunk of its own); past that size one replicate's arrays already amortise
# numpy's per-call cost.  A grid holds at least one cell per replicate, so
# the one budget also bounds the keys and per-replicate arrays a run holds
# at once, whatever its replicate count.
_BATCH_PARTICLES = 1 << 15

# An occupation replicate-generation draws its broods with one multinomial
# call once Z_n passes _MULTINOMIAL_ABOVE plus _MULTINOMIAL_CELL per
# (position, atom) cell, and one uniform per particle below; see
# grow_occupation.  _MULTINOMIAL_ABOVE is at least mc's _ANALYTIC_SWITCH.
_MULTINOMIAL_ABOVE = 512
_MULTINOMIAL_CELL = 4

# no particle count, Z_n or node total may pass 2^62 (int64 holds 2^63 - 1)
_COUNT_LIMIT = 1 << 62


def _chunks(lengths: np.ndarray) -> list[tuple[int, int]]:
    """Runs ``lo:hi`` of consecutive entries of ``lengths`` that cover every
    positive entry, each starting at a positive entry and summing to at
    most ``_BATCH_PARTICLES`` unless it is one entry; greedy, so a run
    takes as many entries as fit."""
    ends = np.cumsum(lengths)
    spans, done = [], 0
    while ends.size and done < ends[-1]:
        lo = int(np.searchsorted(ends, done, side="right"))
        hi = max(lo + 1, int(np.searchsorted(ends, done + _BATCH_PARTICLES, side="right")))
        spans.append((lo, hi))
        done = int(ends[hi - 1])
    return spans


def _row_atoms(
    thresholds: np.ndarray,
    atoms: int,
    w: np.ndarray,
    start: np.ndarray,
    count: np.ndarray,
    at: np.ndarray | None = None,
    biased: np.ndarray | None = None,
) -> np.ndarray:
    """Atom counts, one row of ``atoms`` each, of rows whose particles hold
    the words ``w``: row ``i`` the ``count[i] > 0`` words from ``start[i]``
    on.  A word's atom index is the number of ``thresholds`` it reaches
    (``rng.word_thresholds`` of the law's cdf), except that the particles
    at ``at`` take the atoms ``biased``."""
    if atoms > _SCAN_ATOMS:
        ai = np.searchsorted(thresholds, w, side="right")
        if at is not None:
            ai[at] = biased
        cell = np.repeat(np.arange(0, count.size * atoms, atoms), count) + ai
        return np.bincount(cell, minlength=count.size * atoms).reshape(-1, atoms)
    # reached[j]: a row's particles whose atom index is at least j; no word
    # reaches an atom past the thresholds, but a biased particle may
    reached = np.zeros((atoms + 1, count.size), dtype=np.int64)
    reached[0] = count
    for j in range(1, atoms):
        reach = w >= thresholds[j - 1] if j <= thresholds.size else np.zeros(w.size, dtype=bool)
        if at is not None:
            reach[at] = biased >= j
        np.add.reduceat(reach, start, dtype=np.int64, out=reached[j])
    return (reached[:-1] - reached[1:]).T


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values of a float array, ascending, by float equality
    (``np.unique`` would load ``numpy.ma``)."""
    v = np.sort(values, axis=None)
    new = np.ones(v.size, dtype=bool)
    new[1:] = v[1:] != v[:-1]
    return v[new]


def _used(table: np.ndarray, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The entries of ``table`` that ``index`` points at, in order, and
    ``index`` into them."""
    used = np.zeros(table.size, dtype=bool)
    used[index] = True
    return table[used], (np.cumsum(used) - 1)[index]


def _grid(
    rows: np.ndarray,
    table: np.ndarray,
    index: np.ndarray,
    kids: np.ndarray,
    disp: np.ndarray,
    columns: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Children of a batch merged by position, and each replicate's total.

    The replicates hold ``rows`` rows each, and the row at ``table[index[k]]``
    has ``kids[k, d]`` children at that position plus ``disp[d]``, one of
    the sorted ``columns``.  The grid holds one cell per replicate and
    column, replicate by replicate: the replicate's children there."""
    width = columns.size
    step = np.searchsorted(columns, table[:, None] + disp)
    first = np.arange(0, rows.size * width, width)
    cell = np.repeat(first, rows)
    grid = np.zeros(rows.size * width, dtype=np.int64)
    for d, column in enumerate(step.T):
        # add.at, not +=: float addition can round two rows onto one column
        np.add.at(grid, cell + column[index], kids[:, d])
    return grid, np.add.reduceat(grid, first)


def _occupied(
    grid: np.ndarray, columns: np.ndarray, live: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The frontier of the ``live`` replicates of a ``_grid`` over
    ``columns``, whose other cells it zeroes: their rows each, then per
    row, replicate by replicate and positions ascending, its particle
    count, and the columns cut to the positions in use with each row's
    index into them."""
    grid.reshape(live.size, columns.size)[~live] = 0
    first = np.arange(0, grid.size, columns.size)
    occupied = grid != 0
    flat = np.flatnonzero(occupied)
    rows = np.add.reduceat(occupied, first, dtype=np.int64)
    table, index = _used(columns, flat - np.repeat(first, rows))
    return rows[live], grid[flat], table, index


class BatchGrowth(NamedTuple):
    """What ``grow_occupation`` keeps of each replicate, rows in replicate
    order.

    ``population[r, j]`` and ``log_w[r, j]`` are ``Z_n`` and ``log W_n``
    of replicate ``r`` at generation ``n = generations[j]``; past the last
    generation a replicate completed they read 0 and ``-inf``.
    ``capped_at[r]`` is the generation whose growth would have passed
    ``caps.max_nodes`` tree nodes (-1 for none), the ``generation`` of the
    ``PopulationCapError`` that ``grow_tree`` would raise.  ``stops[r] =
    (g, Z_g, u)`` for a replicate that stopped at generation ``g`` with
    more than ``stop_above`` particles; ``u`` is the first uniform of its
    block ``g``, the uniform ``grow_tree`` would draw next.  Given
    ``alpha``, ``max_position[r]`` is the largest position at generation
    ``depth`` (``-inf`` when there is none), and for spined growth
    ``ray_position[r, j]`` is the spine particle's position at generation
    ``generations[j]``.
    """

    generations: tuple[int, ...]
    population: np.ndarray
    log_w: np.ndarray | None
    capped_at: np.ndarray
    stops: dict[int, tuple[int, int, float]]
    max_position: np.ndarray | None = None
    ray_position: np.ndarray | None = None


class _Batch(NamedTuple):
    """Live replicates of a batch, in replicate order: ``z`` particles,
    ``nodes`` tree nodes so far and ``rows`` frontier rows each.  A row is
    one occupied position with its particle count, laid out replicate by
    replicate, positions ascending within a replicate.  ``table`` holds the
    batch's distinct positions, ascending, and ``index`` each row's entry
    in it; ``pos`` gathers the rows' positions.  Spined batches also
    keep each replicate's spine position, which is the position of exactly
    one of its rows, the spine's home row."""

    ids: np.ndarray
    keys: np.ndarray  # uint64 counter-stream keys, rng.replicate_keys
    z: np.ndarray
    nodes: np.ndarray
    rows: np.ndarray
    count: np.ndarray
    table: np.ndarray
    index: np.ndarray
    spine: np.ndarray | None = None

    @property
    def pos(self) -> np.ndarray:
        return self.table[self.index]

    def take(self, keep: np.ndarray) -> "_Batch":
        row = np.repeat(keep, self.rows)
        table, index = _used(self.table, self.index[row])
        spine = None if self.spine is None else self.spine[keep]
        return _Batch(self.ids[keep], self.keys[keep], self.z[keep], self.nodes[keep],
                      self.rows[keep], self.count[row], table, index, spine)

    def halves(self) -> tuple["_Batch", "_Batch"]:
        first = np.arange(self.ids.size) < self.ids.size // 2
        return self.take(first), self.take(~first)


def grow_occupation(
    law: Law,
    depth: int,
    caps: GrowthCaps,
    seed: int,
    replicates: int,
    alpha: float | None = None,
    generations: Sequence[int] | None = None,
    stop_above: int | None = None,
    spine_brood: SpineBrood | None = None,
    first_id: int = 0,
) -> BatchGrowth:
    """Grow replicates ``0..replicates-1`` to ``depth`` as occupation
    measures and keep their generation sizes and, given ``alpha``,
    ``log W_n`` and the largest last-generation position.  ``W_n`` is
    normalised by ``m(alpha)^n`` from ``tilted_mass``, which refuses a
    mass that overflows or vanishes (``MassOverflowError``,
    ``ZeroMassError``) before anything grows.

    A replicate's frontier is its occupied positions with their particle
    counts, positions merged by exact float equality, so the cost of a
    generation follows the occupied positions, not the particles.  A batch,
    at most ``_BATCH_PARTICLES`` replicates at the root, merges its
    children on a grid of one cell per replicate and distinct position of
    the batch's next generation, splitting in two before the grid would
    pass ``_BATCH_PARTICLES`` cells.
    Replicate ``r`` draws the counter stream keyed
    ``rng.replicate_keys(seed, first_id + r)`` (a batch's keys come from
    one call), and in each non-empty generation ``g`` its block ``g``.
    With ``Z_n`` up to ``_MULTINOMIAL_ABOVE + _MULTINOMIAL_CELL * pairs *
    atoms`` (always, for heavy tails) it takes the block's first ``Z_n``
    uniforms, one per particle with the particles taken position by
    position; past it, ``multinomial(counts, p)`` as conditional binomials
    on sub-blocks of the block (``rng.counter_multinomials``) gives the
    atom counts at every position at once.
    Particles at one position are exchangeable, so either draw gives the
    law of the tree's positions.  While a replicate draws uniforms its
    ``Z_n`` and cap generation equal those of ``grow_tree`` on a generator
    whose ``g``-th ``random(n)`` call returns block ``g``, bit for bit (a
    sum of broods does not depend on which particle drew which uniform);
    its positions, and so ``log W_n``, are equal in law only.

    With ``spine_brood`` (see ``SpineBrood``) the replicates grow under
    the size-biased law, as ``grow_spined_tree`` grows them, and
    ``ray_position`` is recorded.  The spine particle is the first
    particle of its home row; its brood comes from ``spine_brood``
    instead of the plain law, and the ray moves to the chosen child.  On
    the uniform path a replicate takes ``Z_n + 2`` uniforms, the spined
    tree's block: the spine's plain uniform is drawn and ignored, and the
    last two go to ``spine_brood``.  On the multinomial path it draws
    ``multinomial`` over the counts without the spine, and the spine's
    brood takes the first two uniforms of the block.  Only the spine's
    brood is size-biased under that law (Lyons, Pemantle and Peres 1995),
    so the replicates equal spined trees in law, not bit for bit.

    ``caps.max_nodes`` still counts tree nodes, ``sum Z_k`` over
    ``k <= n``.  A replicate whose node total would pass ``2^62``, with
    the cap above that, raises ``ResourceError``: no count is ever
    wrapped.  With ``stop_above``, a replicate holding more particles at
    the start of a generation stops there and draws one more uniform
    instead (see ``BatchGrowth.stops``).  A replicate's numbers never
    depend on the other replicates of its batch.
    """
    law = validate_law(law)
    log_m = None if alpha is None else math.log(tilted_mass(law, alpha))
    _check_growth(depth, caps)
    if alpha is not None or spine_brood is not None:
        _check_positions(law, depth)
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
            max_position[b.ids] = b.table[b.index[np.cumsum(b.rows) - 1]]
        j = column[n]
        if j < 0:
            return
        population[b.ids, j] = b.z
        if log_w is not None:
            lse = _segment_log_sum_exp(-alpha * b.pos + np.log(b.count), b.rows)
            log_w[b.ids, j] = lse - n * log_m
        if ray_position is not None:
            ray_position[b.ids, j] = b.spine

    capped_at, stops = _grow_occupied(law, depth, caps, seed, replicates,
                                      alpha is not None or spine_brood is not None,
                                      stop_above, record, spine_brood, first_id)
    return BatchGrowth(gens, population, log_w, capped_at, stops, max_position, ray_position)


def _grow_occupied(
    law: Law,
    depth: int,
    caps: GrowthCaps,
    seed: int,
    replicates: int,
    positions: bool,
    stop_above: int | None,
    record: Callable[[_Batch, int], None],
    spine_brood: SpineBrood | None = None,
    first_id: int = 0,
) -> tuple[np.ndarray, dict[int, tuple[int, int, float]]]:
    """The engine behind ``grow_occupation``: hand every generation of
    every batch to ``record`` and return ``capped_at`` and ``stops``.
    Without ``positions`` all particles stay at 0.  ``law`` must already
    be validated.

    Batches of at most ``_BATCH_PARTICLES`` roots grow depth first;
    their keys are derived once per root batch, and a batch whose next
    ``_grid`` would hold more than ``_BATCH_PARTICLES`` cells splits in two
    first: the budget bounds a generation's arrays through its grid and
    rows, save the uniforms, which come in ``_chunks`` of at most the
    budget."""
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
        # a word reaches thresholds[j] exactly when its uniform reaches
        # cum_p[j]; its atom index is the number of thresholds it reaches
        thresholds = word_thresholds(t.cum_p[:-1])
        # mult[a, d]: children of atom a at displacement disp[d]
        mult = t.counts[:, None]
        if positions:
            disp = _sorted_distinct(t.flat_disp)
            mult = np.zeros((atoms, disp.size), dtype=np.int64)
            np.add.at(mult, (np.repeat(np.arange(atoms), t.counts),
                             np.searchsorted(disp, t.flat_disp)), 1)

    def multinomial(b: _Batch) -> np.ndarray:
        """Which replicates of ``b`` draw their next broods by multinomial."""
        if heavy:
            return np.zeros(b.ids.size, dtype=bool)
        return b.z > _MULTINOMIAL_ABOVE + _MULTINOMIAL_CELL * atoms * b.rows

    def children(b: _Batch, g: int, table: np.ndarray) -> _Batch:
        """Generation ``g + 1`` of ``b``, whose positions are among the
        sorted ``table``, recorded; replicates that stop, hit the cap or
        die out are dropped."""
        if stop_above is not None and (b.z > stop_above).any():
            over = b.z > stop_above
            u = counter_uniforms(block_keys(b.keys[over], g), np.ones(over.sum(), dtype=np.int64))
            for r, z, ui in zip(b.ids[over].tolist(), b.z[over].tolist(), u.tolist()):
                stops[r] = (g, z, ui)
            b = b.take(~over)
            if b.ids.size == 0:
                return b
        edge = np.append(0, np.cumsum(b.rows))  # replicates lo..hi own rows edge[lo]:edge[hi]
        multi = multinomial(b)
        keys = block_keys(b.keys, g)
        drawn = np.repeat(~multi, b.rows)  # rows whose particles draw uniforms
        others = b.count  # per row, the particles a multinomial draws for
        # a replicate's block: Z_n uniforms on the uniform path, none on the
        # multinomial path, and two more for a spine
        lengths = np.where(multi, 0, b.z)
        if spined:
            lengths += 2
            # home[i]: the one row of replicate i at its spine's position
            home = np.flatnonzero(b.pos == np.repeat(b.spine, b.rows))
            others = b.count.copy()
            others[home] -= 1
            atom = np.zeros(b.ids.size, dtype=np.int64)
            slot = np.zeros(b.ids.size, dtype=np.int64)
        # kids[row, d]: children at position pos[row] + disp[d]; with one
        # displacement a replicate has one row, and its Z_{n+1} says it all
        kids = np.zeros((b.count.size, disp.size), dtype=np.int64)
        for lo, hi in _chunks(lengths):
            # one counter call per chunk of consecutive replicates, reduced
            # at once to the children of its rows
            w = counter_words(keys[lo:hi], lengths[lo:hi])
            if spined:
                end = np.cumsum(lengths[lo:hi])
                atom[lo:hi], slot[lo:hi] = spine_brood(unit(w[end - 2]), unit(w[end - 1]))
                plain = np.ones(w.size, dtype=bool)
                plain[end - 2] = plain[end - 1] = False
                w = w[plain]
            if w.size == 0:
                continue
            rows = slice(edge[lo], edge[hi])
            mine = drawn[rows]
            count = b.count[rows][mine]
            start = np.cumsum(count) - count
            at = biased = None
            if spined:
                # the spine is the first particle of its home row: its
                # size-biased atom overrides the plain one
                own = ~multi[lo:hi]
                biased = atom[lo:hi][own]
                at = start[(np.cumsum(mine) - 1)[home[lo:hi][own] - edge[lo]]]
            if heavy:
                ai = law._atoms(unit(w))
                if spined:
                    ai[at] = biased
                broods = np.add.reduceat(ai + 2, start)[:, None]
            else:
                broods = _row_atoms(thresholds, atoms, w, start, count, at, biased) @ mult
            if mine.all():
                kids[rows] = broods
            else:
                kids[rows][mine] = broods
        many = np.flatnonzero(multi)
        room = limit - b.nodes
        if many.size:
            # one multinomial per replicate over its rows, drawn from its block
            n_rows = b.rows[many]
            draws = counter_multinomials(keys[many], others[~drawn], n_rows, p)
            per_atom = np.add.reduceat(draws, np.cumsum(n_rows) - n_rows)
            if spined:
                # the spine's brood, drawn above, joins its home row
                per_atom[np.arange(many.size), atom[many]] += 1
            # Z_{n+1} in Python integers, so a count past int64 cannot wrap
            total = [sum(n * size for n, size in zip(row, sizes)) for row in per_atom.tolist()]
            fits = np.array([z <= r for z, r in zip(total, room[many].tolist())])
            kept = np.repeat(fits, n_rows)
            kids[np.flatnonzero(np.repeat(multi, b.rows))[kept]] = draws[kept] @ mult
            if spined:
                kids[home[many[fits]]] += mult[atom[many[fits]]]
        if disp.size == 1:
            totals = kids[:, 0]  # one row per replicate
        else:
            grid, totals = _grid(b.rows, b.table, b.index, kids, disp, table)
        over = totals > room
        if many.size:
            over[many] = ~fits
        if over.any():
            if caps.max_nodes > _COUNT_LIMIT:
                # which replicate passes first depends on the batch order,
                # so the message names none
                raise ResourceError(
                    "a replicate would pass 2^62 tree nodes; "
                    "counts that large are not represented, lower the depth"
                )
            capped_at[b.ids[over]] = g + 1
        live = (totals > 0) & ~over
        z = totals[live]
        if disp.size == 1:
            # one row per replicate, at the table's one position
            rows, count = np.ones(z.size, dtype=np.int64), z
            index = np.zeros(z.size, dtype=np.int64)
        else:
            rows, count, table, index = _occupied(grid, table, live)
        spine = None
        if spined:
            # the ray moves by the chosen child's displacement, the same
            # float its row was placed at
            step = 0.0 if heavy else t.flat_disp[t.offsets[atom] + slot]
            spine = (b.spine + step)[live]
        nb = _Batch(b.ids[live], b.keys[live], z, b.nodes[live] + z, rows, count, table, index,
                    spine)
        record(nb, g + 1)
        return nb

    for lo in range(0, replicates, _BATCH_PARTICLES):
        ids = np.arange(lo, min(lo + _BATCH_PARTICLES, replicates))
        ones = np.ones(ids.size, dtype=np.int64)
        root = _Batch(ids, replicate_keys(seed, ids + first_id), ones, ones, ones, ones,
                      np.zeros(1), np.zeros(ids.size, dtype=np.int64),
                      np.zeros(ids.size) if spined else None)
        record(root, 0)
        pending = [(0, root)]
        while pending:
            g, b = pending.pop()
            if g == depth or b.ids.size == 0:
                continue
            table = _sorted_distinct(b.table[:, None] + disp)
            if b.ids.size > 1 and b.ids.size * table.size > _BATCH_PARTICLES:
                first, second = b.halves()
                pending += [(g, second), (g, first)]
            else:
                pending.append((g + 1, children(b, g, table)))
    return capped_at, stops
