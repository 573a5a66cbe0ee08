"""Equilibrium analysis for the jamming game.

Without sub-carrier diversity the game has no Nash equilibrium: the
adversary's best response chases the least-scheduled user while the base
station's best response protects whoever is being chased, so composing the
two best-response maps cycles forever.  best_response_dynamics exhibits that
cycle and is_nash_no_diversity witness-checks any candidate pair, both with
best_response's one reply per player.  Committing first rescues the base
station: stackelberg_equilibrium returns the uniform leader policy with a
sampled-dominance certificate.  With diversity, uniform everything is a
genuine Nash point, verified against sampled deviations on both sides.  A
game is a SystemConfig; prices read its share B/T.
"""

from dataclasses import dataclass, field

import numpy as np

from .age_asymptotic import (
    _diversity_ages,
    _follower_aware_payoffs,
    _middle_block_payoff,
    reduced_payoff_for_split,
)
from .age_exact import (
    _screen_margin,
    _window_screen,
    expected_age_trajectory_diversity,
)
from .best_response import (
    _plan_reply,
    adversary_best_response,
    counter_block_policy,
)
from .errors import (
    CertificateError,
    DimensionMismatchError,
    InvalidAlphaError,
    NonPositiveEntryError,
    NotNormalizedError,
)
from .model import (
    SUM_ACCEPT_TOL,
    BlockingPlan,
    SchedulingPolicy,
    SystemConfig,
    _check_count,
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

    For dynamics, holds says whether any step was a simultaneous fixed
    point; a failed check carries a strictly improving witness whose
    payoff_before is the report's payoff.
    """

    kind: str  # "nash-check" | "diversity-nash" | "br-dynamics"
    holds: bool | None
    payoff: float | None = None
    witness: DeviationWitness | None = None
    trace: tuple = field(default=())

    def __post_init__(self):
        if (self.holds is False and self.kind != "br-dynamics"
                and self.witness is None):
            raise CertificateError(
                f"failed {self.kind} check must carry a witness")


def _refuted(kind: str, current: float, player: str, strategy, value: float,
             description: str) -> EquilibriumReport:
    """A failed `kind` report; its witness moves the payoff current -> value."""
    return EquilibriumReport(
        kind=kind, holds=False, payoff=current,
        witness=DeviationWitness(player, strategy, current, value, description))


# ===========================================================================
#  Nash check and dynamics (no diversity)
# ===========================================================================


def is_nash_no_diversity(policy: SchedulingPolicy, plan: BlockingPlan,
                         config: SystemConfig) -> EquilibriumReport:
    """Witness-check a candidate (policy, plan) pair under the system age.

    The deviations tried are the players' replies: adversary_best_response
    and the base station's reply to the plan's per-user shares of the
    horizon.  Plans are priced through those shares
    (reduced_payoff_for_split), so a feasible plan spending its budget
    off-center is treated as its same-share middle placement.
    """
    check_profile(policy, None, plan, config)
    T = config.horizon_T
    current = reduced_payoff_for_split(
        policy, plan.block_prob.sum(axis=1) / T, T)

    adv = adversary_best_response(policy, config)
    if adv.payoff > current + IMPROVEMENT_TOL:
        return _refuted("nash-check", current, "adversary", adv.plan,
                        adv.payoff, f"middle-block user {adv.target}")

    best, improved = _plan_reply(plan, config)
    if improved < current - IMPROVEMENT_TOL:
        return _refuted("nash-check", current, "base-station", best, improved,
                        "best-response scheduling policy")

    return EquilibriumReport(kind="nash-check", holds=True, payoff=current)


def best_response_dynamics(config: SystemConfig,
                           max_iter: int) -> EquilibriumReport:
    """Alternate the two best-response maps from a uniform start.

    Each step records the base station's policy (counter_block_policy after
    the start), the user adversary_best_response blocks, and the system
    age.  holds reports whether any step was a simultaneous fixed point
    of both maps; the no-equilibrium phenomenon is precisely that it never
    is once B > 0, with the blocked target changing every single iteration.
    max_iter is an integer >= 2.
    """
    _check_count("max_iter", max_iter, 2)
    start = uniform_policy(config.num_users)  # its reply checks the model
    # a step depends only on the previous step's target (None at the
    # uniform start), so each distinct step is built once
    step_after = {}
    previous, steps = None, []
    for it in range(max_iter):
        if previous not in step_after:
            policy = (start if previous is None
                      else counter_block_policy(config, previous))
            reply = adversary_best_response(policy, config)
            step_after[previous] = (policy, reply.target, reply.payoff)
        policy, target, payoff = step_after[previous]
        steps.append(TraceStep(it, policy, target, payoff))
        previous = target

    fixed = any(
        a.blocked_user == b.blocked_user
        and float(np.max(np.abs(a.policy.probs - b.policy.probs))) <= 1e-12
        for a, b in zip(steps, steps[1:]))
    return EquilibriumReport(kind="br-dynamics", holds=fixed,
                             payoff=steps[-1].payoff, trace=tuple(steps))


# ===========================================================================
#  Stackelberg (leader commits, no diversity)
# ===========================================================================


def _certification_policies(N: int, samples: int, seed: int) -> np.ndarray:
    """Simplex grid plus random policies, deterministic in seed.

    One rival per row of a (samples, N) matrix: max(2, samples // 4) grid
    rows (a linspace of p_0 for N = 2, Dirichlet draws otherwise), then
    Dirichlet draws, cut to `samples` rows.  Every row is clipped at 1e-6
    and divided by its sum.  The rows keep their drawn order of users: the
    follower-aware payoff is symmetric in the users, so a sort would move a
    price by rounding only.
    """
    rng = np.random.default_rng(seed)
    grid = max(2, samples // 4)
    if N == 2:
        x = np.linspace(0.02, 0.98, grid)
        head = np.column_stack((x, 1 - x))
    else:
        head = rng.dirichlet(np.ones(N), size=grid)
    tail = rng.dirichlet(np.ones(N), size=max(samples - grid, 0))
    rows = np.clip(np.concatenate((head, tail))[:samples], 1e-6, None)
    return rows / rows.sum(axis=1, keepdims=True)


def stackelberg_equilibrium(config: SystemConfig, target: int = 0,
                            certify_samples: int = 200, seed: int = 0):
    """Uniform leader policy, middle-block follower plan, leader payoff.

    At uniform scheduling every blocking target ties, so `target` only picks
    which tied follower response to materialize.  Before returning, the
    leader payoff is checked against `certify_samples` (an integer >= 1)
    alternative policies, each priced at the follower's best response;
    uniform must weakly win.  The first rival that beats it by more than
    IMPROVEMENT_TOL raises CertificateError.
    """
    _check_count("certify_samples", certify_samples, 1)
    N, share, T = config.num_users, config.blocked_share, config.horizon_T
    leader = uniform_policy(N)
    check_profile(leader, None, None, config)
    plan = make_middle_block(config, target)
    payoff = _middle_block_payoff(leader.probs.tolist(), target, share, T)
    rivals = _certification_policies(N, certify_samples, seed)
    rival_payoffs = _follower_aware_payoffs(rivals, share, T)
    beaten = payoff > rival_payoffs + IMPROVEMENT_TOL
    if beaten.any():
        i = int(np.argmax(beaten))
        raise CertificateError(
            f"sampled policy {rivals[i]} gives the leader "
            f"{float(rival_payoffs[i])!r}, below the uniform leader's "
            f"{payoff!r}")
    return leader, plan, payoff


# ===========================================================================
#  Diversity model: Nash point and verification
# ===========================================================================


def diversity_nash_point(config: SystemConfig):
    """The mutual-best-response point: uniform p, uniform q, uniform
    sub-carrier blocking of the middle window.  A no-diversity config
    raises NoDiversityError."""
    plan = make_uniform_subcarrier_block(config)
    return (uniform_policy(config.num_users),
            uniform_subcarrier_policy(config.num_subcarriers), plan)


def _sample_bs_deviations(N, N_sub, bs_samples, rng):
    """Perturbed (p, q) pairs as two matrices, one pair per row: uniform
    first, then broad Dirichlet draws or local wiggles of p, each with a
    Dirichlet q.  The audit prices the p rows as they are; only a witness's
    row goes through validate_policy and validate_subcarrier_policy.

    The bs_samples - 1 drawn rows take four array calls, in this order: a
    coin per row (below 0.5 picks the broad row), every broad row, every
    wiggle 1/N + N(0, 0.05), every q.  The chosen p is clipped at 1e-9 and
    divided by its row sum."""
    n = bs_samples - 1
    broad = rng.random(n) < 0.5
    dirichlet = rng.dirichlet(np.ones(N), size=n)
    wiggle = 1.0 / N + rng.normal(0, 0.05, (n, N))
    p = np.clip(np.where(broad[:, None], dirichlet, wiggle), 1e-9, None)
    p_rows, q_rows = np.empty((bs_samples, N)), np.empty((bs_samples, N_sub))
    p_rows[0], q_rows[0] = 1.0 / N, 1.0 / N_sub
    p_rows[1:] = p / p.sum(axis=1, keepdims=True)
    q_rows[1:] = rng.dirichlet(np.ones(N_sub), size=n)
    return p_rows, q_rows


def _sample_adv_deviations(config: SystemConfig, adv_samples, rng):
    """Plans from the structured deviation families, sample k from family
    k % 5, drawn into a window table (adv_samples, owner, start, stop,
    weights) (see age_exact._window_runs) and checked by _check_windows.
    With a budget, three array calls draw every sample, integers as
    rng.integers(low, high) does: one integer per sample within its
    family's bounds (window-shift's offset, vertex-split's offset * N_sub +
    channel, two-window's first length, sub-budget's length; nonuniform-
    split's range holds 0 alone); every two-window first start in [0,
    T//2), then every second start in [T//2, T); standard exponentials,
    each nonuniform-split row divided by its sum (Dirichlet(1) weights).
    """
    n_sub, horizon, budget = (config.num_subcarriers, config.horizon_T,
                              config.budget_B)
    cycle, half = len(ADV_DEVIATION_FAMILIES), horizon // 2
    k = np.arange(adv_samples if budget else 0)  # no budget, no draw
    _, vertex, two, skew, short = (np.s_[f::cycle] for f in range(cycle))
    # a two-window first window leaves the second room in the other half
    low = 1 if budget == 1 else max(1, budget - (horizon + 1) // 2)
    high = 2 if budget == 1 else min(budget - 1, half) + 1
    fit = horizon - budget + 1  # the offsets of a B-slot window
    at = rng.integers(np.array((fit, fit * n_sub, high - low, 1,
                                budget))[k % cycle])
    at[vertex], channel = np.divmod(at[vertex], n_sub)
    at[two] += low
    length = np.full(k.size, budget)
    length[two], length[short] = at[two], at[short]
    # s1 in [0, max(1, T//2 - first)), s2 - T//2 in [0, T - T//2 - second]
    at[two], s2 = rng.integers(np.array((np.maximum(1, half - length[two]),
                                         length[two] + (fit - half))))
    skewed = rng.standard_exponential((k[skew].size, n_sub))
    at[skew] = middle_window(horizon - 1, budget)[0]
    at[short] = middle_window(horizon - 1, length[short])[0]
    # each sample's first row follows the second windows before it
    paired = k[two] if budget > 1 else k[:0]
    row = k + np.searchsorted(paired, k)
    tail = row[paired] + 1
    owner = np.empty(k.size + tail.size, dtype=int)
    start, stop = np.empty_like(owner), np.empty_like(owner)
    owner[row], start[row], stop[row] = k, at, at + length
    owner[tail], start[tail] = paired, s2[:tail.size] + half
    stop[tail] = start[tail] + budget - length[two][:tail.size]
    # a row stays uniform unless its family draws its weights
    weights = np.full((owner.size, n_sub), 1.0 / n_sub)
    weights[row[vertex]] = channel[:, None] == np.arange(n_sub)
    weights[row[skew]] = skewed / skewed.sum(axis=1, keepdims=True)
    table = (adv_samples, owner, start, stop, weights)
    _check_windows(table, config)
    return table


def _check_windows(table, config: SystemConfig) -> None:
    """Raise for a sample of a window table (see age_exact._window_runs)
    whose plan BlockingPlan or blocking_feasible would reject, with the
    error they raise: windows out of slot order, overlapping or leaving the
    horizon (DimensionMismatchError), weights not finite or outside [0, 1],
    with no slack (NonPositiveEntryError), a per-slot mass above 1
    (NotNormalizedError), or more than budget_B blocked slots in all
    (InvalidAlphaError).  A misplaced window is named, the first in table
    order; every check reads the table's columns at once."""
    _, owner, start, stop, weights = table
    free = np.zeros_like(start)  # where each window's sample is free from
    follows = owner[1:] == owner[:-1]
    free[1:][follows] = stop[:-1][follows]
    misplaced = ~((free <= start) & (start <= stop)
                  & (stop <= config.horizon_T))
    if misplaced.any():
        i = int(np.argmax(misplaced))
        raise DimensionMismatchError(
            f"window [{start[i]}, {stop[i]}) overlaps another or leaves "
            f"the {config.horizon_T} slots")
    if not ((weights >= 0.0) & (weights <= 1.0)).all():  # NaN fails too
        raise NonPositiveEntryError("block probabilities must lie in [0, 1]")
    mass = weights.sum(axis=1)
    if (mass > 1.0 + SUM_ACCEPT_TOL).any():
        raise NotNormalizedError(
            "per-slot blocking mass exceeds 1 (the adversary blocks at most "
            "one channel per slot)")
    spent = np.bincount(owner, weights=(stop - start) * mass)
    if (spent > config.budget_B + SUM_ACCEPT_TOL).any():
        raise InvalidAlphaError("blocking plan exceeds the adversary's budget")


def _window_plan(table, k: int, config: SystemConfig) -> BlockingPlan:
    """The dense plan of sample k of a window table: weights[i, j] on
    sub-carrier j in slots start[i]+1..stop[i] of each of its windows i
    (the rows where owner is k), 0 elsewhere."""
    _, owner, start, stop, weights = table
    m = np.zeros((config.num_subcarriers, config.horizon_T))
    lo, hi = np.searchsorted(owner, (k, k + 1)).tolist()
    for i in range(lo, hi):
        m[:, start[i]:stop[i]] = weights[i, :, None]
    return BlockingPlan._adopt(m)


def verify_diversity_nash(point, config: SystemConfig, bs_samples: int,
                          adv_samples: int, seed: int = 0) -> EquilibriumReport:
    """Sampled unilateral-deviation check of a diversity-model candidate point.

    Base-station side: `bs_samples` perturbed (p, q) pairs, uniform first so
    a non-uniform candidate cannot pass by luck, each sampled p priced once,
    as drawn, by the large-horizon diversity age (q never matters there).
    Uniform p minimizes that age, sum_i c/p_i, so the base-station witness
    can only be the first pair, (uniform p, uniform q); the other rows
    confirm, and never refute, a candidate.  Only the witness is re-priced:
    its payoff_after is the age of the validated policy it reports.
    Adversary side:
    `adv_samples` feasible plans from ADV_DEVIATION_FAMILIES, priced by the
    exact recursion at the candidate's (p, q).  Both counts are integers >= 1.

    Adversary samples are drawn into one window table, flat columns of their
    windows with no plan or delivery matrix, which the sampler checks and
    the screen and the dense re-price read.  Three array calls draw them all
    (_sample_adv_deviations): per-sample integers, the two-window starts,
    the nonuniform-split exponentials.  The table gives every (sample,
    distinct p_i) row its runs, under the evaluator's interception rule, so
    each slot reads the evaluator's survival s bit for bit.  Every sample is
    first screened (_window_screen): each run's exit age and age sum come
    from its closed form (_run_kernel), for all samples at once, each run is
    certified in [1, t] at its first and last ages, and no age is written.
    The screened value and the dense price approximate the same exact mean,
    each with the rounding of the recursion (at most 2u per step, u =
    2**-53), the kernel's per-run error and the sums'; _screen_margin, 4*(3T
    + N + 6)*u times the screened value, is twice their first-order
    distance.  Only a sample that screens within that margin of current +
    IMPROVEMENT_TOL, or above it, can price above it.  Those samples alone,
    in sample order, become a BlockingPlan and are priced densely by
    expected_age_trajectory_diversity, whose [1, t] certificate covers them;
    a densely priced sample farther from its screened value than the margin
    raises CertificateError.  The first sample whose dense price is above
    the candidate by more than IMPROVEMENT_TOL is the witness, the one that
    pricing every sample densely finds.  The payoff is the large-horizon
    age, or the exact age beside an adversary witness.
    """
    _check_count("bs_samples", bs_samples, 1)
    _check_count("adv_samples", adv_samples, 1)
    policy, subpolicy, plan = point
    check_profile(policy, subpolicy, plan, config)
    rng = np.random.default_rng(seed)
    share, n_sub = config.blocked_share, config.num_subcarriers

    current_asym = float(_diversity_ages(policy.probs, share, n_sub).mean())
    p_rows, q_rows = _sample_bs_deviations(policy.n, n_sub, bs_samples, rng)
    values = _diversity_ages(p_rows, share, n_sub).mean(axis=1)
    better = values < current_asym - IMPROVEMENT_TOL
    if better.any():
        i = int(np.argmax(better))
        p_dev = validate_policy(p_rows[i])
        return _refuted(
            "diversity-nash", current_asym, "base-station",
            (p_dev, validate_subcarrier_policy(q_rows[i])),
            float(_diversity_ages(p_dev.probs, share, n_sub).mean()),
            "scheduling deviation lowers system age")

    current_exact = expected_age_trajectory_diversity(
        policy, subpolicy, plan, config).system_avg
    table = _sample_adv_deviations(config, adv_samples, rng)
    horizon, threshold = config.horizon_T, current_exact + IMPROVEMENT_TOL
    screened = _window_screen(policy, subpolicy, table, horizon)
    margin = _screen_margin(screened, horizon, policy.n)
    # only these samples can price above the threshold
    near = np.flatnonzero(screened >= threshold - margin).tolist()
    for k in near:
        candidate = _window_plan(table, k, config)
        value = expected_age_trajectory_diversity(
            policy, subpolicy, candidate, config).system_avg
        if abs(value - screened[k]) > margin[k]:
            raise CertificateError(
                f"adversary sample {k} priced {value!r} densely but "
                f"screened at {float(screened[k])!r}, farther apart than "
                f"the rounding margin {float(margin[k])!r}")
        if value > threshold:
            return _refuted("diversity-nash", current_exact, "adversary",
                            candidate, value,
                            "blocking deviation raises system age")

    return EquilibriumReport(kind="diversity-nash", holds=True,
                             payoff=current_asym)
