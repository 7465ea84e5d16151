"""Branching random walk laboratory.

Classify the almost-sure limit of the additive martingale
``W_n(alpha) = sum_{|sigma|=n} exp(-alpha S(sigma)) / m(alpha)^n``
for finitely supported (and one heavy-tailed) offspring laws, and
verify the size-biasing / spinal change-of-measure identities both
exactly (exhaustive enumeration at small depth) and statistically
(seeded Monte Carlo at scale).
"""

from .brw import (
    BatchGrowth,
    GrowthCaps,
    LabelledTree,
    MartingaleTrajectory,
    grow_occupation,
    grow_tree,
    martingale_trajectory,
)
from .errors import (
    BrwError,
    DomainError,
    EmptyLawError,
    ExcessiveDiscardError,
    MassOverflowError,
    NoConvergenceError,
    NormalizationError,
    PopulationCapError,
    ResourceError,
    SubcriticalFamilyError,
    TooLargeError,
    ValidationError,
    ZeroMassError,
)
from .mc import (
    Functional,
    McConfig,
    McSummary,
    TrivialityReport,
    mc_extinction,
    mc_importance_identity,
    mc_mean_w,
    mc_spine_slope,
    mc_triviality_scan,
    parse_functional,
)
from .offspring import (
    Atom,
    Classification,
    FiniteLaw,
    Law,
    LogDivergentLaw,
    TiltProfile,
    classify,
    extinction_probability,
    law_from_json,
    law_to_json,
    llogl_bound_check,
    llogl_moment,
    load_law,
    pgf_eval,
    size_biased_law,
    spine_step_law,
    stable_sum,
    tilted_derivative,
    tilted_mass,
    validate_law,
)
from .oracle import (
    ENUM_CAP,
    CheckResult,
    check_inverse_martingale,
    check_martingale,
    check_spine_density,
    check_spine_step_mean,
    check_tree_density,
    check_unit_mean,
    count_outcomes,
    count_spined_outcomes,
    enumerate_trees,
    run_verify,
)
from .rng import (
    block_keys,
    counter_uniforms,
    replicate_keys,
    replicate_rng,
    replicate_seed,
    splitmix64,
)
from .spine import (
    SpinedTree,
    grow_spined_batch,
    grow_spined_tree,
    spine_walk_ends,
)

__version__ = "0.1.0"
