"""One replicate of ``brw.grow_occupation``, grown alone, one particle at a time.

A frozen, slow reading of the occupation engine's draw order, kept for
the parity tests: a replicate's frontier is a dict from position to
particle count, walked in ascending position order.  Each non-empty
generation makes one call on the replicate's generator: ``random(Z_n)``,
one uniform per particle, while ``Z_n`` is at most
``_MULTINOMIAL_ABOVE + _MULTINOMIAL_CELL * pairs * atoms`` (always, for
heavy tails), and one ``multinomial(counts, p)`` over the atoms past it.
A spined replicate (``spine_brood`` given) draws two more uniforms for
the spine particle's size-biased brood, as ``grow_spined_tree`` does.
The budgets are read from ``brwlab.brw`` at call time, so a test that
patches them patches both sides.
"""

from __future__ import annotations

import math

import numpy as np

import brwlab.brw as brw
from brwlab import FiniteLaw, GrowthCaps


def _atom(law, u: float) -> int:
    if isinstance(law, FiniteLaw):
        cdf = law._tables.cum_p
    else:
        cdf = law._cdf
    return min(int(np.searchsorted(cdf, u, side="right")), len(cdf) - 1)


def _brood(law, a: int) -> tuple[float, ...]:
    if isinstance(law, FiniteLaw):
        return law.atoms[a].displacements
    return (0.0,) * (a + 2)


def grow_one(law, depth: int, caps: GrowthCaps, rng, alpha: float, log_m: float,
             spine_brood=None):
    """``(Z_n list, log W_n list, capped generation or -1, last-generation
    occupation as a sorted list of (position, count), ray positions)`` of
    one replicate.  The lists stop at the last generation grown; a capped
    replicate ends with the generation before its cap.

    With ``spine_brood`` the replicate is spined: the spine particle is
    the first particle of the row at its position, and its brood comes
    from ``spine_brood`` with the last two uniforms of a ``random(Z_n +
    2)`` block (its own plain uniform is drawn and ignored), or with
    ``random(2)`` after a multinomial over the other particles.  Without
    it the ray list holds the root alone."""
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
            draws = rng.multinomial(others, p)
            for (x, _), row in zip(pairs, draws.tolist()):
                for a, k in enumerate(row):
                    add(x, a, k)
            if spine_brood is not None:
                u_spine = rng.random(2)
        else:
            u = rng.random(z if spine_brood is None else z + 2)
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
