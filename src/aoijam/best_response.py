"""Best responses for both players.

Base-station side: minimizing sum w_i/p_i over the probability simplex has
the closed form p_i proportional to sqrt(w_i); blocking inflates the blocked
user's weight to 1+alpha.  A projected-gradient routine (Barzilai-Borwein
steps, Armijo backtracking, exact simplex projection) recomputes the optimum
numerically so the closed form is never trusted on its own.

Adversary side: the structured response concentrates the whole budget on the
most starved user in one consecutive middle window; an exhaustive oracle
enumerates every per-slot action sequence on small instances and certifies
how far that structure is from the true finite-horizon optimum.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .age_asymptotic import AsymptoticValidityWarning, reduced_objective
from .age_exact import expected_age_trajectory
from .errors import (
    CertificateError,
    ConvergenceFailureError,
    InstanceTooLargeError,
    InvalidAlphaError,
    NonPositiveWeightError,
)
from .model import (
    BlockingPlan,
    SchedulingPolicy,
    SystemConfig,
    check_profile,
    empty_plan,
    make_middle_block,
    validate_policy,
)

DESCENT_TOL = 1e-10  # gradient-mapping norm at termination
DESCENT_MAX_ITER = 100_000
CLOSED_FORM_AGREEMENT = 1e-8
ORACLE_MAX_PLANS = 10_000_000


@dataclass(frozen=True)
class AdversaryResponse:
    """A blocking plan the adversary picked, with the payoff it achieves.

    method is "structured" (single middle-block window, asymptotic payoff) or
    "exhaustive" (oracle search, exact finite-horizon payoff).  For the
    oracle, tied_plans lists every maximizer within relative 1e-12 of the
    best, lexicographically smallest first.
    """

    plan: BlockingPlan
    payoff: float
    method: str
    target: int | None = None
    tied_plans: tuple = ()


# ===========================================================================
#  Simplex machinery
# ===========================================================================


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum x = 1} (sort-based, exact)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    idx = np.arange(1, v.size + 1)
    rho = np.nonzero(u * idx > (css - 1.0))[0][-1]
    theta = (css[rho] - 1.0) / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def _bb_projected_descent(fun, grad, x0):
    """Minimize fun over the probability simplex by projected gradient descent.

    Barzilai-Borwein step lengths with Armijo backtracking; stops when the
    gradient-mapping norm ||x - P(x - t*g)|| / t falls below DESCENT_TOL.
    fun must return +inf outside its domain so backtracking cannot leave it.
    """
    x = np.asarray(x0, dtype=float)
    fx = fun(x)
    g = grad(x)
    step = 1.0
    prev_x = prev_g = None
    for _ in range(DESCENT_MAX_ITER):
        if prev_x is not None:
            s = x - prev_x
            y = g - prev_g
            sy = float(s @ y)
            step = float(s @ s) / sy if sy > 1e-30 else 1.0
            step = min(max(step, 1e-12), 1e12)
        while True:
            x_new = project_simplex(x - step * g)
            f_new = fun(x_new)
            if f_new <= fx - 1e-4 * float(g @ (x - x_new)) or step < 1e-16:
                break
            step *= 0.5
        gap = float(np.linalg.norm(x - x_new)) / step
        prev_x, prev_g = x, g
        x, fx = x_new, f_new
        if gap <= DESCENT_TOL:
            return x
        g = grad(x)
    raise ConvergenceFailureError(
        f"projected descent still above tolerance after {DESCENT_MAX_ITER} "
        "iterations")


def _inverse_weight_objective(weights: np.ndarray):
    def fun(p):
        if p.min() <= 0.0:
            return np.inf
        return float(np.sum(weights / p))

    def grad(p):
        return -weights / (p * p)

    return fun, grad


# ===========================================================================
#  Base-station best responses
# ===========================================================================


def bs_best_response_single_block(N: int, alpha: float) -> SchedulingPolicy:
    """Scheduling policy minimizing system age when user 0 is middle-blocked.

    The blocked user (listed first; permute for other targets) receives
    sqrt(1+alpha)/(N-1+sqrt(1+alpha)), everyone else 1/(N-1+sqrt(1+alpha)).
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if not 0.0 < alpha < 1.0:
        raise InvalidAlphaError(f"alpha must lie in (0, 1), got {alpha}")
    root = math.sqrt(1.0 + alpha)
    denom = N - 1 + root
    p = np.full(N, 1.0 / denom)
    p[0] = root / denom
    return validate_policy(p)


def counter_block_policy(N: int, alpha: float,
                         target: int) -> SchedulingPolicy:
    """bs_best_response_single_block with the blocked user moved to `target`,
    the others in order; the permuted vector is validated again."""
    base = bs_best_response_single_block(N, alpha).probs
    probs = np.empty(N)
    probs[target] = base[0]
    probs[np.arange(N) != target] = base[1:]
    return validate_policy(probs)


def numeric_simplex_minimizer(weights) -> SchedulingPolicy:
    """Minimize sum w_i/p_i over the simplex by projected descent.

    Returns the descent iterate, cross-checked against the closed form
    p_i = sqrt(w_i)/sum_j sqrt(w_j) to 1e-8; disagreement raises
    ConvergenceFailure rather than silently preferring either route.
    """
    w = np.asarray(weights, dtype=float).ravel()
    if w.size == 0 or np.any(w <= 0.0):
        raise NonPositiveWeightError("weights must be strictly positive")
    fun, grad = _inverse_weight_objective(w)
    numeric = _bb_projected_descent(fun, grad, np.full(w.size, 1.0 / w.size))
    closed = np.sqrt(w) / np.sqrt(w).sum()
    drift = float(np.max(np.abs(numeric - closed)))
    if drift > CLOSED_FORM_AGREEMENT:
        raise ConvergenceFailureError(
            f"descent and closed form disagree by {drift:.3e}")
    return validate_policy(numeric)


def ordered_kkt_solver(N: int, alpha: float) -> SchedulingPolicy:
    """Numerically solve the leader's problem with an explicit ordering cone.

    Minimizes 1/p_1 + ... + 1/p_{N-1} + (1+alpha)/p_N subject to the simplex
    and p_1 >= ... >= p_N (the blocked user is, without loss of generality,
    the least-scheduled one).  The optimum is uniform; this routine exists to
    certify that instead of assuming it.

    The ordered set is the image of the simplex under p = A e, with
    A[k, j] = 1/(j+1) for j >= k in 0-based indices (so e_k is (k+1) times
    the drop from p_k to the next entry), and the descent runs on e with the
    simplex projection, then returns A e.
    """
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    if not 0.0 < alpha < 1.0:
        raise InvalidAlphaError(f"alpha must lie in (0, 1), got {alpha}")
    w = np.ones(N)
    w[-1] = 1.0 + alpha
    fun, grad = _inverse_weight_objective(w)
    A = np.triu(np.broadcast_to(1.0 / np.arange(1, N + 1), (N, N)))
    # e0 ~ (1, ..., N) maps to the strictly decreasing p0 ~ (N, ..., 1), so
    # the ordering constraint is genuinely explored
    e0 = np.arange(1, N + 1, dtype=float)
    e0 /= e0.sum()
    e = _bb_projected_descent(lambda x: fun(A @ x),
                              lambda x: A.T @ grad(A @ x), e0)
    return validate_policy(A @ e)


# ===========================================================================
#  Adversary best responses
# ===========================================================================


def adversary_best_response(policy: SchedulingPolicy,
                            config: SystemConfig) -> AdversaryResponse:
    """Structured response: one middle window on the least-scheduled user.

    Payoff is the reduced large-horizon objective; ties in argmin p break to
    the lowest index.
    """
    check_profile(policy, None, empty_plan(config), config)
    target = int(np.argmin(policy.probs))
    plan = make_middle_block(config, target)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AsymptoticValidityWarning)
        payoff = reduced_objective(policy, target, config.alpha,
                                   config.horizon_T).value
    return AdversaryResponse(plan=plan, payoff=payoff, method="structured",
                             target=target)


def oracle_plan_count(N: int, T: int, B: int) -> int:
    """Number of per-slot action sequences with at most B blocked slots."""
    return sum(math.comb(T, k) * N**k for k in range(min(B, T) + 1))


def adversary_oracle(policy: SchedulingPolicy,
                     config: SystemConfig) -> AdversaryResponse:
    """Exhaustively search every feasible deterministic plan on a small instance.

    Per-slot actions are {idle, block user 0, ..., block user N-1} with at
    most budget_B blocked slots; the returned plan maximizes the exact
    finite-horizon system average age.  Enumeration is lexicographic
    (idle < block 0 < block 1 < ..., slot by slot), the reported plan is the
    lexicographically smallest maximizer, and every tie within relative 1e-12
    rides along in tied_plans.  More than ORACLE_MAX_PLANS candidate plans
    raise InstanceTooLargeError.
    """
    check_profile(policy, None, empty_plan(config), config)
    n, horizon, budget = policy.n, config.horizon_T, config.budget_B
    count = oracle_plan_count(n, horizon, budget)
    if count > ORACLE_MAX_PLANS:
        raise InstanceTooLargeError(
            f"{count} candidate plans exceed the cap of {ORACLE_MAX_PLANS}")

    probs = policy.probs.tolist()
    best_value = -np.inf
    best_actions: list | None = None
    ties: list[tuple] = []

    actions = [0] * horizon  # 0 = idle, 1+i = block user i
    ages = [1.0] * n  # running expected ages along the current prefix
    age_sums = [0.0] * n

    def recurse(t: int, used: int):
        nonlocal best_value, best_actions, ties
        if t == horizon:
            value = math.fsum(age_sums) / (n * horizon)
            if value > best_value * (1 + 1e-12):
                best_value = value
                best_actions = actions.copy()
                ties = [tuple(actions)]
            elif value >= best_value * (1 - 1e-12):
                ties.append(tuple(actions))
            return
        saved = ages.copy()
        for act in range(0, n + 1):
            if act > 0 and used == budget:
                break
            actions[t] = act
            for i in range(n):
                s = 0.0 if act == i + 1 else probs[i]
                age_sums[i] += ages[i]
                ages[i] = ages[i] * (1.0 - s) + 1.0
            recurse(t + 1, used + (1 if act > 0 else 0))
            for i in range(n):
                ages[i] = saved[i]
                age_sums[i] -= saved[i]
        actions[t] = 0

    recurse(0, 0)
    assert best_actions is not None

    def to_plan(acts) -> BlockingPlan:
        m = np.zeros((n, horizon))
        for t, act in enumerate(acts):
            if act > 0:
                m[act - 1, t] = 1.0
        return BlockingPlan("deterministic", m)

    best_plan = to_plan(best_actions)
    # re-evaluate through the public trajectory path as a consistency check
    check = expected_age_trajectory(policy, best_plan, config).system_avg
    if abs(check - best_value) > 1e-9 * max(1.0, abs(best_value)):
        raise CertificateError(
            f"oracle payoff {best_value!r} does not match its plan's exact "
            f"age {check!r}")
    return AdversaryResponse(
        plan=best_plan, payoff=best_value, method="exhaustive",
        tied_plans=tuple(to_plan(a) for a in ties))
