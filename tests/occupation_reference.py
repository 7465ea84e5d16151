"""One replicate of ``brw.grow_occupation``, grown alone, one particle at a time.

A frozen, slow reading of the occupation engine's draw order, kept for
the parity tests: a replicate's frontier is a dict from position to
particle count, walked in ascending position order.  Each non-empty
generation ``g`` reads block ``g`` of the replicate's counter stream
(``CounterStream``): its first ``Z_n`` uniforms, one per particle, while
``Z_n`` is at most ``_MULTINOMIAL_ABOVE + _MULTINOMIAL_CELL * pairs *
atoms`` (always, for heavy tails), and one ``multinomial(counts, p)``
over the atoms past it (``CounterStream.multinomial``): the engine's
chain of conditional binomials, drawn here one binomial at a time.
``rng.binomials`` is a pure function of its sub-block key, count and
probability, so the parity holds entry by entry.  A spined replicate
(``spine_brood`` given) takes two more uniforms for the spine
particle's size-biased brood, as ``grow_spined_tree`` does: the last two
of ``Z_n + 2``, or the block's first two after a multinomial.  The
budgets are read from ``brwlab.brw`` at call time, so a test that
patches them patches both sides.

``float_row_atoms`` is the float route by which the engine once counted
a chunk's atoms per row, kept as the reference of its word route, and
``sort_merge`` the sort by which it once merged a generation's children
by replicate and position, kept as the reference of its position grid.  Two
scalar readings of the batched statistics ride along:
``functional_value`` evaluates a functional of one replicate, and
``sample_spine_walk`` draws one spine walk from a generator.
"""

from __future__ import annotations

import functools
import math

import numpy as np

import brwlab.brw as brw
import heavy_tail_reference
from brwlab import FiniteLaw, GrowthCaps, validate_law
from brwlab.rng import binomials, block_keys, counter_uniforms, replicate_seed, splitmix64, unit
from brwlab.spine import _spine_tables, _walk

_MASK = (1 << 64) - 1
_BLOCK_MULT = 0xD1B54A32D192ED03


class CounterStream:
    """Replicate ``r`` of master seed ``seed`` read as a generator: the
    ``g``-th ``random(n)`` call returns the first ``n`` uniforms of its
    counter block ``g``, and a ``random()`` call the first one alone.  A
    tree grown on it draws block ``g`` at generation ``g``, as the batched
    engines do."""

    def __init__(self, seed: int, r: int):
        self.key = np.array([replicate_seed(seed, r)], dtype=np.uint64)
        self.calls = 0

    def block(self, g: int, n: int) -> np.ndarray:
        """The first ``n`` uniforms of block ``g``."""
        return counter_uniforms(block_keys(self.key, g), [n])

    def multinomial(self, g: int, counts: list[int], p: list[float]) -> list[list[int]]:
        """``multinomial(n, p)`` of each count of block ``g``, one
        binomial at a time: cell ``c`` of row ``j`` is ``binomials`` of the
        count left, at ``p[c]`` over the mass left, on sub-block ``j *
        len(p) + c``, whose key is computed here by the scalar definition;
        the last cell takes the rest."""
        block = int(block_keys(self.key, g)[0])
        draws = []
        for j, n in enumerate(counts):
            row, rest = [], 1.0
            for c, pc in enumerate(p[:-1]):
                sub = splitmix64(block ^ (((j * len(p) + c + 1) * _BLOCK_MULT) & _MASK))
                k = int(binomials(np.array([sub], dtype=np.uint64), [n],
                                  pc / rest if rest > 0 else 1.0)[0])
                row.append(k)
                n -= k
                rest -= pc
            draws.append([*row, n])
        return draws

    def random(self, n: int | None = None):
        u = self.block(self.calls, 1 if n is None else n)
        self.calls += 1
        return float(u[0]) if n is None else u


@functools.lru_cache(maxsize=8)
def _heavy_cdf(law) -> np.ndarray:
    """The whole cumulative table of a heavy-tail law (small ``n_max`` only)."""
    return heavy_tail_reference.full_cdf(law.tail_exponent, law.n_max, law._exact.normalizer)


def _atom(law, u: float) -> int:
    cdf = law._tables.cum_p if isinstance(law, FiniteLaw) else _heavy_cdf(law)
    return min(int(np.searchsorted(cdf, u, side="right")), len(cdf) - 1)


def _brood(law, a: int) -> tuple[float, ...]:
    if isinstance(law, FiniteLaw):
        return law.atoms[a].displacements
    return (0.0,) * (a + 2)


def float_row_atoms(law, words: np.ndarray, count: np.ndarray, at=None, biased=None):
    """Atom counts per row by the float route: ``brw._atoms`` on each
    word's uniform, the particles at ``at`` given the atoms ``biased``,
    then one ``bincount`` over (row, atom) cells.  Row ``i`` holds the
    next ``count[i]`` words."""
    ai = brw._atoms(law, unit(words))
    if at is not None:
        ai[at] = biased
    atoms = law._tables.counts.size
    cell = np.repeat(np.arange(count.size) * atoms, count) + ai
    return np.bincount(cell, minlength=count.size * atoms).reshape(-1, atoms)


def sort_merge(rows, pos, kids, disp, over):
    """``(totals, rows, positions, counts)`` of the next frontier of a
    batch, by sorting: the replicates hold ``rows`` rows each, row ``k``
    at ``pos[k]`` with ``kids[k, d]`` children at ``pos[k] + disp[d]``.
    ``totals`` holds every replicate's children; the frontier drops the
    replicates with none and those marked ``over``.  Every (row,
    displacement) pair with children is sorted by replicate, then
    position, with a radix pass on the replicate index as int16, and
    equal neighbours are summed."""
    first = np.cumsum(rows) - rows
    totals = np.add.reduceat(kids.sum(axis=1), first)
    kids = np.where(np.repeat(over, rows)[:, None], 0, kids)
    live = (totals > 0) & ~over
    owner = np.repeat(np.arange(rows.size), rows * disp.size)
    pos = (pos[:, None] + disp).ravel()
    count = kids.ravel()
    keep = count > 0
    owner, pos, count = owner[keep], pos[keep], count[keep]
    order = np.argsort(pos)
    order = order[np.argsort(owner[order].astype(np.int16), kind="stable")]
    owner, pos, count = owner[order], pos[order], count[order]
    new = np.ones(pos.size, dtype=bool)
    new[1:] = (owner[1:] != owner[:-1]) | (pos[1:] != pos[:-1])
    at = np.flatnonzero(new)
    owner, pos, count = owner[at], pos[at], np.add.reduceat(count, at)
    return totals, np.bincount(owner, minlength=rows.size)[live], pos, count


def grow_one(law, depth: int, caps: GrowthCaps, stream: CounterStream, alpha: float,
             log_m: float, spine_brood=None):
    """``(Z_n list, log W_n list, capped generation or -1, last-generation
    occupation as a sorted list of (position, count), ray positions)`` of
    one replicate.  The lists stop at the last generation grown; a capped
    replicate ends with the generation before its cap.

    With ``spine_brood`` the replicate is spined: the spine particle is
    the first particle of the row at its position, and its brood comes
    from ``spine_brood`` with the last two of ``Z_n + 2`` uniforms (its own
    plain uniform is drawn and ignored), or with the block's first two
    after a multinomial over the other particles.  Without it the ray
    list holds the root alone."""
    frontier = {0.0: 1}
    population, log_w, ray = [1], [0.0], [0.0]
    nodes = 1
    for g in range(depth):
        z = sum(frontier.values())
        if z == 0:
            population.append(0)
            log_w.append(-math.inf)
            continue
        pairs = sorted(frontier.items())
        finite = isinstance(law, FiniteLaw)
        atoms = len(law.atoms) if finite else 0
        spine = ray[-1]
        children: dict[float, int] = {}

        def add(x, a, k):
            for d in _brood(law, a):
                children[x + d] = children.get(x + d, 0) + k

        if finite and z > brw._MULTINOMIAL_ABOVE + brw._MULTINOMIAL_CELL * len(pairs) * atoms:
            p = np.diff(np.minimum(law._tables.cum_p, 1.0), prepend=0.0)
            others = [c - (spine_brood is not None and x == spine) for x, c in pairs]
            draws = stream.multinomial(g, others, p.tolist())
            for (x, _), row in zip(pairs, draws):
                for a, k in enumerate(row):
                    add(x, a, k)
            if spine_brood is not None:
                u_spine = stream.block(g, 2)
        else:
            u = stream.block(g, z if spine_brood is None else z + 2)
            plain = iter(u[:z].tolist())
            for x, c in pairs:
                for i in range(c):
                    a = _atom(law, next(plain))
                    if spine_brood is None or x != spine or i:
                        add(x, a, 1)
            u_spine = u[z:]
        if spine_brood is not None:
            atom, slot = spine_brood(u_spine[:1], u_spine[1:])
            add(spine, int(atom[0]), 1)
            step = _brood(law, int(atom[0]))[int(slot[0])]
        children = {x: c for x, c in children.items() if c}
        total = sum(children.values())
        if nodes + total > caps.max_nodes:
            return population, log_w, g + 1, sorted(frontier.items()), ray
        nodes += total
        frontier = children
        population.append(total)
        if spine_brood is not None:
            ray.append(spine + step)
        if total:
            pos, count = zip(*sorted(frontier.items()))
            values = -alpha * np.array(pos) + np.log(np.array(count, dtype=np.int64))
            lse = brw._segment_log_sum_exp(values, np.array([len(pos)]))[0]
            log_w.append(float(lse - (g + 1) * log_m))
        else:
            log_w.append(-math.inf)
    return population, log_w, -1, sorted(frontier.items()), ray


def functional_value(fn, z: int, max_position: float | None) -> float:
    """``F`` of one replicate with ``Z_n = z`` and largest position
    ``max_position`` (``None`` when extinct), the batched
    ``mc._functional_values`` one value at a time."""
    if fn.kind == "one":
        return 1.0
    if fn.kind == "indicator_z":
        return 1.0 if z == int(fn.param) else 0.0
    if fn.kind == "min_z":
        return float(min(z, int(fn.param)))
    # exp_neg_max: an extinct generation has no maximum; use 0 (the
    # functional's infimum) so the statistic stays bounded and defined
    if max_position is None:
        return 0.0
    return math.exp(-fn.param * max_position)


def sample_spine_walk(law, alpha: float, depth: int, rng) -> np.ndarray:
    """Positions ``S(xi_0..depth)`` of the ray alone, no tree, from one
    ``rng.random(2 * depth)`` block: the first half picks the atoms, the
    second half the children.  ``spine.spine_walk_ends`` draws each of its
    walks the same way from the walk's counter block 0."""
    law = validate_law(law)
    return _walk(law, _spine_tables(law, float(alpha)), rng.random(2 * depth))
