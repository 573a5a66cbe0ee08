"""Age-of-information scheduling against an adversarial jammer.

A base station serves N users over unreliable channels while a jammer with
a limited time budget blocks transmissions to keep information stale.  This
package computes exact finite-horizon expected ages, long-horizon closed
forms, both players' best responses, and equilibrium diagnostics for the
resulting zero-sum game, with and without sub-carrier diversity.
"""

from .age_asymptotic import (
    ASYMPTOTIC_REGIME_MIN,
    AsymptoticValidityWarning,
    blocked_user_age,
    diversity_user_ages,
    follower_aware_payoff,
    reduced_payoff_for_split,
    unblocked_user_age,
)
from .age_exact import (
    AgeSeries,
    expected_age_trajectory,
    expected_age_trajectory_diversity,
)
from .best_response import (
    AdversaryResponse,
    adversary_best_response,
    adversary_oracle,
    counter_block_policy,
    numeric_simplex_minimizer,
    oracle_plan_count,
    ordered_kkt_solver,
)
from .equilibrium import (
    DeviationWitness,
    EquilibriumReport,
    TraceStep,
    best_response_dynamics,
    diversity_nash_point,
    is_nash_no_diversity,
    stackelberg_equilibrium,
    verify_diversity_nash,
)
from .errors import (
    AoijamError,
    CertificateError,
    ConvergenceFailureError,
    DimensionMismatchError,
    IndexOutOfRangeError,
    InstanceTooLargeError,
    InsufficientRunsError,
    InvalidAlphaError,
    NoDiversityError,
    NonPositiveEntryError,
    NotNormalizedError,
    ScenarioParseError,
    ScenarioValidationError,
)
from .model import (
    BlockingPlan,
    SchedulingPolicy,
    SubcarrierPolicy,
    SystemConfig,
    blocking_feasible,
    empty_plan,
    make_middle_block,
    make_uniform_subcarrier_block,
    middle_window,
    uniform_policy,
    uniform_subcarrier_policy,
    validate_policy,
    validate_subcarrier_policy,
)
from .montecarlo import (
    SimResult,
    estimate_average_age,
)

__version__ = "0.1.0"

__all__ = [
    "ASYMPTOTIC_REGIME_MIN",
    "AdversaryResponse",
    "AgeSeries",
    "AoijamError",
    "AsymptoticValidityWarning",
    "BlockingPlan",
    "CertificateError",
    "ConvergenceFailureError",
    "DeviationWitness",
    "DimensionMismatchError",
    "EquilibriumReport",
    "IndexOutOfRangeError",
    "InstanceTooLargeError",
    "InsufficientRunsError",
    "InvalidAlphaError",
    "NoDiversityError",
    "NonPositiveEntryError",
    "NotNormalizedError",
    "ScenarioParseError",
    "ScenarioValidationError",
    "SchedulingPolicy",
    "SimResult",
    "SubcarrierPolicy",
    "SystemConfig",
    "TraceStep",
    "adversary_best_response",
    "adversary_oracle",
    "best_response_dynamics",
    "blocked_user_age",
    "blocking_feasible",
    "counter_block_policy",
    "diversity_nash_point",
    "diversity_user_ages",
    "empty_plan",
    "estimate_average_age",
    "expected_age_trajectory",
    "expected_age_trajectory_diversity",
    "follower_aware_payoff",
    "is_nash_no_diversity",
    "make_middle_block",
    "make_uniform_subcarrier_block",
    "middle_window",
    "numeric_simplex_minimizer",
    "oracle_plan_count",
    "ordered_kkt_solver",
    "reduced_payoff_for_split",
    "stackelberg_equilibrium",
    "unblocked_user_age",
    "uniform_policy",
    "uniform_subcarrier_policy",
    "validate_policy",
    "validate_subcarrier_policy",
    "verify_diversity_nash",
]
