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
    ReducedGamePayoff,
    blocked_user_age,
    diversity_system_age,
    diversity_user_ages,
    reduced_objective,
    reduced_payoff_for_split,
    split_objective,
    system_age_no_diversity,
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
    bs_best_response_single_block,
    numeric_simplex_minimizer,
    oracle_plan_count,
    ordered_kkt_solver,
    project_decreasing_sum_one,
    project_simplex,
)
from .equilibrium import (
    DeviationWitness,
    EquilibriumReport,
    TraceStep,
    best_response_dynamics,
    diversity_nash_point,
    follower_aware_payoff,
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
    NonPositiveProbabilityError,
    NonPositiveWeightError,
    NotNormalizedError,
    ScenarioParseError,
    ScenarioValidationError,
    TargetOutOfRangeError,
)
from .model import (
    BlockingPlan,
    BudgetSplit,
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
    mix_seed,
    simulate_run,
)

__version__ = "0.1.0"

# The CLI's names load on first access (PEP 562), so that
# `python -m aoijam.cli` does not find aoijam.cli already imported by this
# package, which makes runpy warn on every run.
_CLI_NAMES = frozenset({
    "ScenarioConfig",
    "main",
    "parse_scenario",
    "run_scenario",
    "scenario_from_dict",
    "scenario_to_dict",
})


def __getattr__(name):
    if name in _CLI_NAMES:
        from . import cli
        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ASYMPTOTIC_REGIME_MIN",
    "AdversaryResponse",
    "AgeSeries",
    "AoijamError",
    "AsymptoticValidityWarning",
    "BlockingPlan",
    "BudgetSplit",
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
    "NonPositiveProbabilityError",
    "NonPositiveWeightError",
    "NotNormalizedError",
    "ReducedGamePayoff",
    "ScenarioConfig",
    "ScenarioParseError",
    "ScenarioValidationError",
    "SchedulingPolicy",
    "SimResult",
    "SubcarrierPolicy",
    "SystemConfig",
    "TargetOutOfRangeError",
    "TraceStep",
    "adversary_best_response",
    "adversary_oracle",
    "best_response_dynamics",
    "blocked_user_age",
    "blocking_feasible",
    "bs_best_response_single_block",
    "diversity_nash_point",
    "diversity_system_age",
    "diversity_user_ages",
    "empty_plan",
    "estimate_average_age",
    "expected_age_trajectory",
    "expected_age_trajectory_diversity",
    "follower_aware_payoff",
    "is_nash_no_diversity",
    "main",
    "make_middle_block",
    "make_uniform_subcarrier_block",
    "middle_window",
    "mix_seed",
    "numeric_simplex_minimizer",
    "oracle_plan_count",
    "ordered_kkt_solver",
    "parse_scenario",
    "project_decreasing_sum_one",
    "project_simplex",
    "reduced_objective",
    "reduced_payoff_for_split",
    "run_scenario",
    "scenario_from_dict",
    "scenario_to_dict",
    "simulate_run",
    "split_objective",
    "stackelberg_equilibrium",
    "system_age_no_diversity",
    "unblocked_user_age",
    "uniform_policy",
    "uniform_subcarrier_policy",
    "validate_policy",
    "validate_subcarrier_policy",
    "verify_diversity_nash",
]
