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
    NodeRecord,
    generation_sizes,
    grow_occupation,
    grow_tree,
    log_sum_exp,
    martingale_trajectory,
)
from .errors import (
    BrwError,
    DomainError,
    EmptyLawError,
    ExcessiveDiscardError,
    LevelOutOfRangeError,
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
    functional_on_outcome,
    functional_on_tree,
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
    sample_realization,
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
    enumerate_spined_trees,
    enumerate_trees,
    generation_positions,
    iter_rays,
    outcome_probability,
    ray_positions,
    restrict,
    run_verify,
    w_value,
)
from .rng import replicate_rng, replicate_rngs, replicate_seed, splitmix64
from .spine import (
    SpinedTree,
    grow_spined_batch,
    grow_spined_tree,
    rn_log_weight,
    sample_spine_walk,
    spine_positions,
    spine_walk_ends,
)

__version__ = "0.1.0"
