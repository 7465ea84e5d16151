"""Shared fixtures and law generators for the test suite.

The named laws below are the standard exercise set used throughout the
tests:

* ``binary_law``    -- deterministic pair at displacement zero; W_n = 1.
* ``pair_law``      -- {0.2: (), 0.8: (0, 1)}; supercritical with
  extinction probability exactly 1/4 (root of 0.2 + 0.8 q^2 = q).
* ``quad_law``      -- {0.5: (0, 1, 1, 1), 0.5: (1, 1)}; never extinct,
  drift-trivial at large alpha.
* ``critical_law``  -- {0.5: (), 0.5: (0, 0)}; mean offspring exactly 1.
* ``heavy_law``     -- counts only, P[L = n] proportional to
  1/(n^2 log^1.5 n); finite mean, infinite L log L moment.

``make_random_laws`` freezes a reproducible random family of small finite
laws (integer-weight probabilities so normalization is exact to float
rounding, brood sizes at most three, displacements in [-2, 2]).  The
acceptance suite and several property tests share it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from brwlab import Atom, FiniteLaw, LogDivergentLaw, ValidationError, validate_law

MAX_BROOD = 3
DISP_LO, DISP_HI = -2.0, 2.0


def binary_zero_law() -> FiniteLaw:
    return FiniteLaw((Atom(1.0, (0.0, 0.0)),))


def coin_pair_law() -> FiniteLaw:
    return FiniteLaw((Atom(0.2, ()), Atom(0.8, (0.0, 1.0))))


def quad_or_twin_law() -> FiniteLaw:
    return FiniteLaw((Atom(0.5, (0.0, 1.0, 1.0, 1.0)), Atom(0.5, (1.0, 1.0))))


def critical_coin_law() -> FiniteLaw:
    return FiniteLaw((Atom(0.5, ()), Atom(0.5, (0.0, 0.0))))


@pytest.fixture
def binary_law() -> FiniteLaw:
    return binary_zero_law()


@pytest.fixture
def pair_law() -> FiniteLaw:
    return coin_pair_law()


@pytest.fixture
def quad_law() -> FiniteLaw:
    return quad_or_twin_law()


@pytest.fixture
def critical_law() -> FiniteLaw:
    return critical_coin_law()


@pytest.fixture
def heavy_law() -> LogDivergentLaw:
    return LogDivergentLaw(1.5)


def make_random_laws(
    count: int,
    seed: int,
    *,
    max_atoms: int = 4,
    max_brood: int = MAX_BROOD,
    disp_lo: float = DISP_LO,
    disp_hi: float = DISP_HI,
) -> list[FiniteLaw]:
    """A frozen family of valid small finite laws.

    Probabilities are integer weights over their sum, so they normalize
    exactly up to float rounding; every law keeps at least one atom with
    offspring (laws that fail validation are redrawn).
    """
    rng = np.random.default_rng(seed)
    laws: list[FiniteLaw] = []
    while len(laws) < count:
        n_atoms = int(rng.integers(1, max_atoms + 1))
        weights = rng.integers(1, 10, size=n_atoms)
        total = int(weights.sum())
        atoms = []
        for w in weights:
            brood = int(rng.integers(0, max_brood + 1))
            xs = tuple(float(x) for x in rng.uniform(disp_lo, disp_hi, size=brood))
            atoms.append(Atom(int(w) / total, xs))
        law = FiniteLaw(tuple(atoms))
        try:
            validate_law(law)
        except ValidationError:
            continue
        laws.append(law)
    return laws


@st.composite
def finite_laws(
    draw,
    max_atoms: int = 4,
    max_brood: int = MAX_BROOD,
    disp_lo: float = DISP_LO,
    disp_hi: float = DISP_HI,
    nonnegative: bool = False,
):
    """Hypothesis strategy for valid finite laws.

    Integer weights keep the probability vector normalized to within a few
    ulps.  At least one atom is forced to reproduce so the law passes
    validation.  ``nonnegative=True`` restricts displacements to
    [max(0, disp_lo), disp_hi].
    """
    lo = max(0.0, disp_lo) if nonnegative else disp_lo
    n_atoms = draw(st.integers(1, max_atoms))
    weights = draw(
        st.lists(st.integers(1, 9), min_size=n_atoms, max_size=n_atoms)
    )
    total = sum(weights)
    broods = draw(
        st.lists(st.integers(0, max_brood), min_size=n_atoms, max_size=n_atoms)
    )
    if all(b == 0 for b in broods):
        idx = draw(st.integers(0, n_atoms - 1))
        broods[idx] = draw(st.integers(1, max_brood))
    atoms = []
    for w, brood in zip(weights, broods):
        xs = draw(
            st.lists(
                st.floats(lo, disp_hi, allow_nan=False, allow_infinity=False),
                min_size=brood,
                max_size=brood,
            )
        )
        atoms.append(Atom(w / total, tuple(xs)))
    return validate_law(FiniteLaw(tuple(atoms)))


def generation_sizes(tree) -> list[int]:
    """Population per generation of a grown ``LabelledTree``, zeros after
    extinction."""
    return [int(idx.size) for idx in tree.generation_index]
