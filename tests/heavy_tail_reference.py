"""Full-horizon reference for the heavy-tail law ``LogDivergentLaw``.

``exact_constants`` is the series computation ``brwlab.offspring`` used
before it summed a short head: every series is summed term by term to
``2^20`` and closed with an Euler-Maclaurin tail from ``2^20 + 1``, and
the truncated mean is summed term by term to ``n_max - 1``.  It is kept
verbatim, so the tests can hold the short-head constants to it.
``full_cdf`` builds the whole ``n_max``-entry inverse-CDF table of the
law (or of its size-biased law) by one cumulative sum, the way the
sampler did before it kept only a head table: it costs ``O(n_max)``
time and memory, so use it on small ``n_max`` only.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

HORIZON = 1 << 20


def _em_tail(p: int, b: float, M: int, integral: float) -> tuple[float, float]:
    lm = math.log(M)
    f = M ** (-p) * lm ** (-b)
    fp = -f * (p / M + b / (M * lm))
    f3 = f * (p * (p + 1) * (p + 2) / M**3) * (1.0 + 3.0 * b / lm)
    return integral + f / 2.0 - fp / 12.0, abs(f3) / 720.0 * 4.0


def _tail_sq(a: float, M: int) -> tuple[float, float]:
    with mp.workdps(30):
        integral = float(mp.gammainc(1 - a, mp.log(M)))
    return _em_tail(2, a, M, integral)


def _tail_lin(b: float, M: int) -> tuple[float, float]:
    integral = math.log(M) ** (1.0 - b) / (b - 1.0)
    return _em_tail(1, b, M, integral)


def _head(p: int, b: float, lo: int, hi: int) -> float:
    n = np.arange(lo, hi + 1, dtype=np.float64)
    return float(np.sum(n ** (-p) * np.log(n) ** (-b)))


def exact_constants(a: float, n_max: int) -> dict[str, float]:
    """``normalizer``, ``mean``, ``llogl``, ``lump_mass``, ``truncated_mean``
    and ``tail_error_bound`` with the ``2^20`` horizon."""
    N = HORIZON
    tz, ez = _tail_sq(a, N + 1)
    z = _head(2, a, 2, N) + tz
    c = 1.0 / z
    tm, em = _tail_lin(a, N + 1)
    mean = c * (_head(1, a, 2, N) + tm)
    if a > 2.0:
        tl, el = _tail_lin(a - 1.0, N + 1)
        llogl = c * (_head(1, a - 1.0, 2, N) + tl)
    else:
        llogl, el = math.inf, 0.0
    t_lump, e_lump = _tail_sq(a, n_max)
    lump = c * t_lump
    trunc_mean = c * _head(1, a, 2, n_max - 1) + n_max * lump
    err = c * (ez + em + el) + abs(mean) * c * ez + n_max * c * e_lump
    return {"normalizer": c, "mean": mean, "llogl": llogl, "lump_mass": lump,
            "truncated_mean": trunc_mean, "tail_error_bound": err}


def full_cdf(a: float, n_max: int, c: float, truncated_mean: float | None = None) -> np.ndarray:
    """``P[L <= n]`` for ``n = 2..n_max``, the last entry 1.0, with the
    normalizer ``c``; given ``truncated_mean``, the size-biased law
    ``n p_n / truncated_mean`` instead.  Each term is the sampler's own
    expression, so the head of this table is the sampler's table bit for
    bit."""
    n = np.arange(2, n_max, dtype=np.float64)
    probs = c / (n * n * np.log(n) ** a)
    if truncated_mean is not None:
        probs = probs * n / truncated_mean
    cdf = np.empty(n_max - 1)
    np.cumsum(probs, out=cdf[:-1])
    cdf[-1] = 1.0
    return cdf
