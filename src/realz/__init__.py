"""Realizability of prescribed correlation data by finite point processes.

Given a finite site set with occupancy limits and a prescribed pair of
correlation tables (per-site densities and factorial pair moments), this
package decides whether some probability distribution on admissible
occupancy vectors reproduces them, returning either an explicit realizing
distribution or a replayable quadratic certificate of impossibility.  It
also ships the classical closed-form necessary conditions, minimal
third-moment computation, and symmetry-reduced checks on discrete toruses.
"""

from .conditions import (
    ConditionReport,
    ConditionVerdict,
    check_gap,
    check_mean_bounds,
    check_upper,
    check_variance,
    mean_and_variance,
    run_battery,
)
from .core import (
    Configuration,
    CorrelationPair,
    Distribution,
    Domain,
    QuadraticPolynomial,
    RealizationResult,
    correlations_of,
    eval_quadratic,
    factorial_power2,
    h_moment,
    is_admissible,
    pairing,
)
from .enumeration import (
    RangeSet,
    enumerate_configurations,
    max_occupancy,
    range_of,
)
from .errors import (
    CapacityError,
    DimensionError,
    IterationLimitError,
    RationalInputError,
    RealizabilityError,
    UnboundedObjectiveError,
    UnboundedSiteError,
    ValidationError,
)
from .generators import (
    bernoulli_product,
    hardcore_gibbs,
    truncated_poisson_product,
    two_atom_family,
)
from .solver import (
    LinearProgramResult,
    RestrictedCubic,
    SolverOptions,
    ThirdMomentResult,
    check_realizability,
    lp_feasibility,
    minimal_third_moment,
    normalize_certificate,
    verify_certificate,
)
from .stationary import (
    FiniteGroup,
    ReducedPairCorrelation,
    check_realizability_stationary,
    expand_pair_correlation,
    is_stationary,
    reduce_pair_correlation,
    symmetrize,
    torus_domain,
    translation_group,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "ConditionReport",
    "ConditionVerdict",
    "Configuration",
    "CorrelationPair",
    "DimensionError",
    "Distribution",
    "Domain",
    "FiniteGroup",
    "IterationLimitError",
    "LinearProgramResult",
    "QuadraticPolynomial",
    "RangeSet",
    "RationalInputError",
    "RealizabilityError",
    "RealizationResult",
    "ReducedPairCorrelation",
    "RestrictedCubic",
    "SolverOptions",
    "ThirdMomentResult",
    "UnboundedObjectiveError",
    "UnboundedSiteError",
    "ValidationError",
    "bernoulli_product",
    "check_gap",
    "check_mean_bounds",
    "check_realizability",
    "check_realizability_stationary",
    "check_upper",
    "check_variance",
    "correlations_of",
    "enumerate_configurations",
    "eval_quadratic",
    "expand_pair_correlation",
    "factorial_power2",
    "h_moment",
    "hardcore_gibbs",
    "is_admissible",
    "is_stationary",
    "lp_feasibility",
    "max_occupancy",
    "mean_and_variance",
    "minimal_third_moment",
    "normalize_certificate",
    "pairing",
    "range_of",
    "reduce_pair_correlation",
    "run_battery",
    "symmetrize",
    "torus_domain",
    "translation_group",
    "truncated_poisson_product",
    "two_atom_family",
    "verify_certificate",
]
