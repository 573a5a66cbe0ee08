"""Equilibrium analysis for the jamming game.

Without sub-carrier diversity the game has no Nash equilibrium: the
adversary's best response chases the least-scheduled user while the base
station's best response protects whoever is being chased, so composing the
two best-response maps cycles forever.  best_response_dynamics exhibits that
cycle; is_nash_no_diversity witness-checks any candidate pair.  Committing
first rescues the base station: stackelberg_equilibrium returns the uniform
leader policy with a sampled-dominance certificate.  With diversity, uniform
everything is a genuine Nash point, verified against sampled deviations on
both sides.
"""

from dataclasses import dataclass, field

import numpy as np

from .age_asymptotic import (
    diversity_system_age,
    reduced_objective,
    reduced_payoff_for_split,
)
from .age_exact import expected_age_trajectory_diversity
from .best_response import counter_block_policy, numeric_simplex_minimizer
from .errors import CertificateError, InsufficientRunsError, NoDiversityError
from .model import (
    BlockingPlan,
    SchedulingPolicy,
    SubcarrierPolicy,
    SystemConfig,
    check_profile,
    make_middle_block,
    make_uniform_subcarrier_block,
    middle_window,
    uniform_policy,
    uniform_subcarrier_policy,
    validate_policy,
    validate_subcarrier_policy,
)

IMPROVEMENT_TOL = 1e-9  # strict-improvement threshold for witnesses

# Structured adversary deviation families sampled by verify_diversity_nash;
# a middle window centres on the T - 1 live slots, middle_window(T - 1, B).
ADV_DEVIATION_FAMILIES = (
    "window-shift",  # consecutive uniform-blocking window at another offset
    "vertex-split",  # whole budget on one sub-carrier, consecutive window
    "two-window",  # budget split across two disjoint windows
    "nonuniform-split",  # skewed per-sub-carrier probabilities, middle window
    "sub-budget",  # shorter middle window (unspent budget)
)


@dataclass(frozen=True)
class DeviationWitness:
    """A unilateral deviation that strictly improves the deviating player."""

    player: str  # "base-station" | "adversary"
    strategy: object  # the deviating policy or plan
    payoff_before: float
    payoff_after: float
    description: str = ""


@dataclass(frozen=True)
class TraceStep:
    """One round of best-response dynamics: the policy the base station
    played, the user the adversary then blocked, and the payoff realized."""

    iteration: int
    policy: SchedulingPolicy
    blocked_user: int
    payoff: float


@dataclass(frozen=True)
class EquilibriumReport:
    """Outcome of an equilibrium check or construction.

    holds is None when the question is not a yes/no check (dynamics traces);
    when holds is False, witness carries a strictly improving deviation.
    """

    kind: str  # "nash-check" | "stackelberg" | "diversity-nash" | "br-dynamics"
    holds: bool | None
    payoff: float | None = None
    witness: DeviationWitness | None = None
    trace: tuple = field(default=())

    def __post_init__(self):
        if (self.holds is False and self.kind != "br-dynamics"
                and self.witness is None):
            raise CertificateError(
                f"failed {self.kind} check must carry a witness")


# ===========================================================================
#  Follower-aware payoff
# ===========================================================================


def follower_aware_payoff(policy: SchedulingPolicy, alpha: float,
                          T: int) -> float:
    """Leader's payoff when the adversary best-responds: the worst single
    middle-blocked target."""
    return max(reduced_objective(policy, b, alpha, T) for b in range(policy.n))


# ===========================================================================
#  Nash check and dynamics (no diversity)
# ===========================================================================


def is_nash_no_diversity(policy: SchedulingPolicy, plan: BlockingPlan,
                         config: SystemConfig) -> EquilibriumReport:
    """Witness-check a candidate (policy, plan) pair under the reduced payoff.

    Adversary deviations tried: a single-user middle-block plan on every
    user, most promising targets (ascending scheduling probability) first.
    Base-station deviation tried: the exact best response to the plan's
    per-user shares of the horizon.  Plans are priced through those shares
    (reduced_payoff_for_split), so a feasible plan spending its budget
    off-center is treated as its same-share middle placement.
    """
    check_profile(policy, None, plan, config)
    T = config.horizon_T
    shares = plan.block_prob.sum(axis=1) / T
    current = reduced_payoff_for_split(policy, shares, T)

    # adversary side: does any middle-block target strictly raise the payoff?
    for target in sorted(range(policy.n), key=lambda i: (policy.probs[i], i)):
        candidate = make_middle_block(config, target)
        value = reduced_payoff_for_split(
            policy, candidate.block_prob.sum(axis=1) / T, T)
        if value > current + IMPROVEMENT_TOL:
            return EquilibriumReport(
                kind="nash-check", holds=False, payoff=current,
                witness=DeviationWitness(
                    player="adversary", strategy=candidate,
                    payoff_before=current, payoff_after=value,
                    description=f"middle-block user {target}"))

    # base-station side: exact best response to the plan's shares
    best = numeric_simplex_minimizer(1.0 + shares)
    improved = reduced_payoff_for_split(best, shares, T)
    if improved < current - IMPROVEMENT_TOL:
        return EquilibriumReport(
            kind="nash-check", holds=False, payoff=current,
            witness=DeviationWitness(
                player="base-station", strategy=best,
                payoff_before=current, payoff_after=improved,
                description="best-response scheduling policy"))

    return EquilibriumReport(kind="nash-check", holds=True, payoff=current)


def best_response_dynamics(N: int, alpha: float, T: int,
                           max_iter: int) -> EquilibriumReport:
    """Alternate the two best-response maps from a uniform start.

    Each step records the base station's current policy, the user the
    adversary blocks in response, and the reduced payoff.  holds reports
    whether any step was a simultaneous fixed point of both maps; the
    no-equilibrium phenomenon is precisely that it never is, with the
    blocked target changing every single iteration.
    """
    if max_iter < 2:
        raise InsufficientRunsError(f"max_iter must be >= 2, got {max_iter}")
    policy = uniform_policy(N)
    steps = []
    for it in range(max_iter):
        target = int(np.argmin(policy.probs))
        payoff = reduced_objective(policy, target, alpha, T)
        steps.append(TraceStep(it, policy, target, payoff))
        policy = counter_block_policy(N, alpha, target)

    fixed = any(
        a.blocked_user == b.blocked_user
        and float(np.max(np.abs(a.policy.probs - b.policy.probs))) <= 1e-12
        for a, b in zip(steps, steps[1:]))
    return EquilibriumReport(kind="br-dynamics", holds=fixed,
                             payoff=steps[-1].payoff, trace=tuple(steps))


# ===========================================================================
#  Stackelberg (leader commits, no diversity)
# ===========================================================================


def _certification_policies(N: int, samples: int, seed: int):
    """Simplex grid plus random ordered policies, deterministic in seed."""
    rng = np.random.default_rng(seed)
    grid = max(2, samples // 4)
    out = []
    if N == 2:
        for x in np.linspace(0.02, 0.98, grid):
            out.append(validate_policy([x, 1 - x]))
    else:
        for _ in range(grid):
            p = np.clip(rng.dirichlet(np.ones(N)), 1e-6, None)
            out.append(validate_policy(p / p.sum()))
    while len(out) < samples:
        p = np.clip(rng.dirichlet(np.ones(N)), 1e-6, None)
        p = np.sort(p)[::-1]  # ordered policy, largest first
        out.append(validate_policy(p / p.sum()))
    return out[:samples]


def stackelberg_equilibrium(N: int, alpha: float, T: int, target: int = 0,
                            certify_samples: int = 200, seed: int = 0):
    """Uniform leader policy, middle-block follower plan, leader payoff.

    At uniform scheduling every blocking target ties, so `target` only picks
    which tied follower response to materialize.  Before returning, the
    leader payoff is checked against `certify_samples` alternative policies,
    each priced at the follower's best response; uniform must weakly win.
    """
    config = SystemConfig(horizon_T=T, num_users=N, alpha=alpha)
    leader = uniform_policy(N)
    payoff = reduced_objective(leader, target, alpha, T)
    plan = make_middle_block(config, target)
    for rival in _certification_policies(N, certify_samples, seed):
        rival_payoff = follower_aware_payoff(rival, alpha, T)
        if payoff > rival_payoff + IMPROVEMENT_TOL:
            raise CertificateError(
                f"sampled policy {rival.probs} gives the leader "
                f"{rival_payoff!r}, below the uniform leader's {payoff!r}")
    return leader, plan, payoff


# ===========================================================================
#  Diversity model: Nash point and verification
# ===========================================================================


def diversity_nash_point(N: int, N_sub: int, alpha: float, T: int):
    """The mutual-best-response point: uniform p, uniform q, uniform
    sub-carrier blocking of the middle window."""
    if N_sub < 2:
        raise NoDiversityError(f"N_sub = {N_sub} must be >= 2")
    config = SystemConfig(horizon_T=T, num_users=N, alpha=alpha,
                          num_subcarriers=N_sub)
    return (uniform_policy(N), uniform_subcarrier_policy(N_sub),
            make_uniform_subcarrier_block(config))


def _sample_bs_deviations(N, N_sub, bs_samples, rng):
    """Perturbed (p, q) pairs: broad Dirichlet draws and local wiggles."""
    pairs = [(uniform_policy(N), uniform_subcarrier_policy(N_sub))]
    while len(pairs) < bs_samples:
        if rng.random() < 0.5:
            p = np.clip(rng.dirichlet(np.ones(N)), 1e-9, None)
        else:
            p = np.clip(1.0 / N + rng.normal(0, 0.05, N), 1e-9, None)
        q = rng.dirichlet(np.ones(N_sub))
        pairs.append((validate_policy(p / p.sum()),
                      validate_subcarrier_policy(q)))
    return pairs


def _sample_adv_deviations(config: SystemConfig, adv_samples, rng):
    """Feasible plans from the structured deviation families."""
    n_sub, horizon, budget = (config.num_subcarriers, config.horizon_T,
                              config.budget_B)
    plans = []
    while len(plans) < adv_samples:
        family = ADV_DEVIATION_FAMILIES[len(plans) % len(ADV_DEVIATION_FAMILIES)]
        m = np.zeros((n_sub, horizon))
        if budget == 0:
            plans.append(BlockingPlan(m))
            continue
        if family == "window-shift":
            start = int(rng.integers(0, horizon - budget + 1))
            m[:, start:start + budget] = 1.0 / n_sub
        elif family == "vertex-split":
            j = int(rng.integers(n_sub))
            start = int(rng.integers(0, horizon - budget + 1))
            m[j, start:start + budget] = 1.0
        elif family == "two-window":
            # each window fits its half of the horizon: [0, T//2), [T//2, T)
            first = budget if budget == 1 else int(rng.integers(
                max(1, budget - (horizon + 1) // 2),
                min(budget - 1, horizon // 2) + 1))
            second = budget - first
            s1 = int(rng.integers(0, max(1, horizon // 2 - first)))
            s2 = int(rng.integers(horizon // 2, horizon - second + 1))
            m[:, s1:s1 + first] = 1.0 / n_sub
            if second:
                m[:, s2:s2 + second] = 1.0 / n_sub
        elif family == "nonuniform-split":
            start, stop = middle_window(horizon - 1, budget)
            weightings = rng.dirichlet(np.ones(n_sub))
            m[:, start:stop] = weightings[:, None]
        else:  # sub-budget
            short = int(rng.integers(0, budget))
            start, _ = middle_window(horizon - 1, short)
            m[:, start:start + short] = 1.0 / n_sub
        plans.append(BlockingPlan(m))
    return plans


def verify_diversity_nash(point, config: SystemConfig, bs_samples: int,
                          adv_samples: int, seed: int = 0) -> EquilibriumReport:
    """Sampled unilateral-deviation check of a diversity-model candidate point.

    Base-station side: `bs_samples` perturbed (p, q) pairs, priced by the
    large-horizon diversity age (q never matters there, which the sampling
    exercises rather than assumes); uniform p is always among the samples so
    a non-uniform candidate cannot pass by luck.  Adversary side:
    `adv_samples` feasible plans drawn from ADV_DEVIATION_FAMILIES, priced by
    the exact finite-horizon recursion at the candidate's (p, q).
    """
    policy, subpolicy, plan = point
    check_profile(policy, subpolicy, plan, config)
    rng = np.random.default_rng(seed)
    alpha, n_sub = config.alpha, config.num_subcarriers

    current_asym = diversity_system_age(policy, alpha, n_sub)
    for p_dev, q_dev in _sample_bs_deviations(
            policy.n, n_sub, bs_samples, rng):
        value = diversity_system_age(p_dev, alpha, n_sub)
        if value < current_asym - IMPROVEMENT_TOL:
            return EquilibriumReport(
                kind="diversity-nash", holds=False, payoff=current_asym,
                witness=DeviationWitness(
                    player="base-station", strategy=(p_dev, q_dev),
                    payoff_before=current_asym, payoff_after=value,
                    description="scheduling deviation lowers system age"))

    current_exact = expected_age_trajectory_diversity(
        policy, subpolicy, plan, config).system_avg
    for candidate in _sample_adv_deviations(config, adv_samples, rng):
        value = expected_age_trajectory_diversity(
            policy, subpolicy, candidate, config).system_avg
        if value > current_exact + IMPROVEMENT_TOL:
            return EquilibriumReport(
                kind="diversity-nash", holds=False, payoff=current_exact,
                witness=DeviationWitness(
                    player="adversary", strategy=candidate,
                    payoff_before=current_exact, payoff_after=value,
                    description="blocking deviation raises system age"))

    return EquilibriumReport(kind="diversity-nash", holds=True,
                             payoff=current_asym)
