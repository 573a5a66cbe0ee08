"""Best responses for both players.

Base-station side: minimizing sum w_i/p_i over the probability simplex has
the closed form p_i proportional to sqrt(w_i); blocking inflates the blocked
user's weight to 1+alpha.  A bisection on the KKT level recomputes the
optimum by a second route, so the closed form is never trusted on its own,
and the leader's order-constrained problem pools adjacent violators of the
order before taking the same closed form.

Adversary side: the structured response concentrates the whole budget on the
most starved user in one consecutive middle window; an exhaustive oracle
enumerates every per-slot action sequence on small instances and certifies
how far that structure is from the true finite-horizon optimum.  The oracle
expands its search tree level by level in numpy, one subtree of at most
ORACLE_CHUNK_PLANS plans at a time, so its memory is bounded by the chunk,
not the plan count; each plan's payoff is its own slot-ordered age sum,
math.fsum over users.
"""

import math
from dataclasses import dataclass

import numpy as np

from .age_asymptotic import reduced_objective
from .age_exact import expected_age_trajectory
from .errors import (
    CertificateError,
    ConvergenceFailureError,
    DimensionMismatchError,
    IndexOutOfRangeError,
    InstanceTooLargeError,
    InvalidAlphaError,
    NonPositiveEntryError,
)
from .model import (
    BlockingPlan,
    SchedulingPolicy,
    SystemConfig,
    check_profile,
    make_middle_block,
    validate_policy,
)

CLOSED_FORM_AGREEMENT = 1e-8
ORACLE_MAX_PLANS = 10_000_000
ORACLE_CHUNK_PLANS = 2**15  # leaves the oracle expands at once
ORACLE_TIE_REL = 1e-12  # oracle maximizers within this relative gap tie


@dataclass(frozen=True)
class AdversaryResponse:
    """A blocking plan the adversary picked, with the payoff it achieves.

    The structured reply sets target, its blocked user (asymptotic payoff).
    The oracle's payoff is exact; its tied_actions is a (ties, T) integer
    array, one row per maximizer within relative 1e-12 of the best, smallest
    first, whose entry t is 0 for idle, 1+i for blocking user i in slot t+1.
    """

    plan: BlockingPlan
    payoff: float
    target: int | None = None
    tied_actions: np.ndarray | None = None


# ===========================================================================
#  Base-station best responses
# ===========================================================================


def bs_best_response_single_block(N: int, alpha: float) -> SchedulingPolicy:
    """Scheduling policy minimizing system age when user 0 is middle-blocked.

    The blocked user (listed first; permute for other targets) receives
    sqrt(1+alpha)/(N-1+sqrt(1+alpha)), everyone else 1/(N-1+sqrt(1+alpha)).
    """
    if N < 1:
        raise DimensionMismatchError(f"N must be >= 1, got {N}")
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
    the others in order; the permuted vector is validated again.  A target
    outside 0..N-1 raises IndexOutOfRangeError."""
    base = bs_best_response_single_block(N, alpha).probs
    if not 0 <= target < N:
        raise IndexOutOfRangeError(f"target {target} outside 0..{N - 1}")
    probs = np.empty(N)
    probs[target] = base[0]
    probs[np.arange(N) != target] = base[1:]
    return validate_policy(probs)


def numeric_simplex_minimizer(weights) -> SchedulingPolicy:
    """Minimize sum w_i/p_i over the simplex: p_i = sqrt(w_i)/sum_j sqrt(w_j).

    The closed form is checked by a second route, a bisection on the KKT
    level lam with sum_i sqrt(u_i/lam) = 1 for u = w/max(w), so p_i =
    sqrt(u_i/lam).  As sum_i sqrt(u_i) lies in [1, N], lam lies in
    [1, N^2], whatever the scale of w; the bisection halves that bracket
    until its midpoint equals an endpoint.  Routes more than
    CLOSED_FORM_AGREEMENT apart raise ConvergenceFailureError.  Weights
    other than a 1-D array raise DimensionMismatchError; an empty array or
    an entry that is not a finite number > 0 raises NonPositiveEntryError.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1:
        raise DimensionMismatchError(
            f"weights must be 1-D, got shape {w.shape}")
    if w.size == 0:
        raise NonPositiveEntryError("weights must be strictly positive")
    bad = ~(w > 0.0) | np.isinf(w)
    if bad.any():
        i = int(np.argmax(bad))
        raise NonPositiveEntryError(
            f"w[{i}] = {w[i]} must be a finite number > 0")
    closed = np.sqrt(w) / np.sqrt(w).sum()
    u = w / w.max()
    lo, hi = 1.0, float(w.size) ** 2
    lam = (lo + hi) / 2
    while lo < lam < hi:
        if np.sqrt(u / lam).sum() > 1.0:
            lo = lam
        else:
            hi = lam
        lam = (lo + hi) / 2
    drift = float(np.max(np.abs(np.sqrt(u / lam) - closed)))
    if drift > CLOSED_FORM_AGREEMENT:
        raise ConvergenceFailureError(
            f"the closed form and its bisection disagree by {drift:.3e}")
    return validate_policy(closed)


def ordered_kkt_solver(N: int, alpha: float) -> SchedulingPolicy:
    """Solve the leader's problem under an explicit ordering constraint.

    Minimizes 1/p_1 + ... + 1/p_{N-1} + (1+alpha)/p_N subject to the simplex
    and p_1 >= ... >= p_N (the blocked user is, without loss of generality,
    the least-scheduled one).  The optimum is uniform; this routine exists to
    certify that instead of assuming it.

    The free minimizer p ~ sqrt(w) has the order of w, so the ordered one
    pools adjacent violators of the non-increasing order on w: each pooled
    block shares one p, the minimizer for its mean weight.  The result is
    numeric_simplex_minimizer of the pooled weights.
    """
    if N < 2:
        raise DimensionMismatchError(f"N must be >= 2, got {N}")
    if not 0.0 < alpha < 1.0:
        raise InvalidAlphaError(f"alpha must lie in (0, 1), got {alpha}")
    w = np.ones(N)
    w[-1] = 1.0 + alpha
    blocks = []  # [weight total, size] of each pooled block, in order
    for x in w:
        blocks.append([x, 1])
        while len(blocks) > 1 and (blocks[-2][0] / blocks[-2][1]
                                   < blocks[-1][0] / blocks[-1][1]):
            total, size = blocks.pop()
            blocks[-1][0] += total
            blocks[-1][1] += size
    pooled = np.concatenate([np.full(size, total / size)
                             for total, size in blocks])
    return numeric_simplex_minimizer(pooled)


# ===========================================================================
#  Adversary best responses
# ===========================================================================


def adversary_best_response(policy: SchedulingPolicy,
                            config: SystemConfig) -> AdversaryResponse:
    """Structured response: one middle window on the least-scheduled user.

    Payoff is the reduced large-horizon objective; ties in argmin p break to
    the lowest index.
    """
    check_profile(policy, None, None, config)
    target = int(np.argmin(policy.probs))
    plan = make_middle_block(config, target)
    payoff = reduced_objective(policy, target, config.alpha, config.horizon_T)
    return AdversaryResponse(plan=plan, payoff=payoff, target=target)


def oracle_plan_count(N: int, T: int, B: int) -> int:
    """Number of per-slot action sequences with at most B blocked slots."""
    return sum(math.comb(T, k) * N**k for k in range(min(B, T) + 1))


def _subtree_plans(n: int, slots: int, budget: int) -> np.ndarray:
    """table[r, b] = oracle_plan_count(n, r, b) for r <= slots, b <= budget:
    with r slots and b blocks left, the plans start idle or block one of n
    users, so table[r, b] = 1 + n * (table[0, b-1] + ... + table[r-1, b-1])."""
    table = np.ones((slots + 1, budget + 1), dtype=np.int64)
    for b in range(1, budget + 1):
        table[1:, b] += n * table[:-1, b - 1].cumsum()
    return table


def _expand(ages, sums, left, factors):
    """Every child of every node, parents in order and each parent's
    children in action order: idle, then block user 0 .. N-1 while the
    node has budget left.  Returns (parent, action, ages, sums, left)."""
    counts = np.where(left > 0, factors.shape[0], 1)
    parent = np.arange(left.size).repeat(counts)
    ends = counts.cumsum()
    action = np.arange(ends[-1]) - (ends - counts).repeat(counts)
    sums = (sums + ages).repeat(counts, axis=0)
    ages = ages.repeat(counts, axis=0) * factors.take(action, axis=0) + 1.0
    return parent, action, ages, sums, left.repeat(counts) - (action > 0)


def adversary_oracle(policy: SchedulingPolicy,
                     config: SystemConfig) -> AdversaryResponse:
    """Exhaustively search every feasible deterministic plan on a small instance.

    Per-slot actions are {idle, block user 0, ..., block user N-1} with at
    most budget_B blocked slots; the returned plan maximizes the exact
    finite-horizon system average age.  Enumeration is lexicographic
    (idle < block 0 < block 1 < ..., slot by slot), the reported plan is the
    lexicographically smallest maximizer, and every tie within relative 1e-12
    is a row of tied_actions.  More than ORACLE_MAX_PLANS candidate plans
    raise InstanceTooLargeError.

    A plan's payoff is its own slot-ordered sum: per user, starting from
    age 1, each slot adds the running expected age to the user's age sum and
    then sets age = age*(1 - s) + 1.0 (s = 0 on a blocked slot, p_i
    otherwise); the payoff is math.fsum of the N age sums over N*T.

    Slot prefixes are branched one node at a time, in order, until a node
    has at most ORACLE_CHUNK_PLANS plans below it.  That subtree is then
    expanded level by level in numpy: a frontier holds the nodes' running
    ages and age sums (rows x N) and budget left, and each level keeps one
    (parent, action) pair of arrays, so only candidate leaves get their
    action rows rebuilt.  Memory stays O(ORACLE_CHUNK_PLANS * (N + T))
    whatever the plan count.

    The sequential rule (reset when value > best*(1+1e-12), otherwise join
    the ties when value >= best*(1-1e-12)) runs, in order, only on the
    leaves whose np.sum over users is within relative 4e-12 + 4*N*eps of
    the largest such sum so far, this leaf included.  Any other leaf x
    follows a leaf w with value(w) > value(x)/(1-4e-12): the N*eps terms
    cover np.sum's rounding against fsum's and the division by N*T.  When w
    was met, best became value(w) or already exceeded value(w)/(1+1e-12),
    and best never falls; values are positive, so at x,
    value(x) < best*(1-1e-12) with room for the rounding of the products,
    and x neither resets nor joins the ties.  A leaf that changes nothing
    can be dropped, so the rule ends with the same best and the same ties
    on the kept leaves as on all of them.
    """
    check_profile(policy, None, None, config)
    n, horizon, budget = policy.n, config.horizon_T, config.budget_B
    count = oracle_plan_count(n, horizon, budget)
    if count > ORACLE_MAX_PLANS:
        raise InstanceTooLargeError(
            f"{count} candidate plans exceed the cap of {ORACLE_MAX_PLANS}")

    subtree = _subtree_plans(n, horizon, budget)
    # factors[a, i] = 1 - s for user i under action a (0 = idle, 1+j = block j)
    factors = np.tile(1.0 - policy.probs, (n + 1, 1))
    factors[np.arange(1, n + 1), np.arange(n)] = 1.0
    keep = 1.0 - 4 * ORACLE_TIE_REL - 4 * n * np.finfo(float).eps
    scale = n * horizon
    best_value = -math.inf
    ties: list[np.ndarray] = []  # action rows of the tied leaves, by chunk
    record = -math.inf

    # a node at slot t: its ages, sums and budget left as one-row arrays,
    # and its trail, the linked list (parent, action, trail above) of the
    # levels leading to it
    stack = [(0, np.ones((1, n)), np.zeros((1, n)), np.array([budget]), None)]
    while stack:
        t, ages, sums, left, trail = stack.pop()
        if subtree[horizon - t, left[0]] > ORACLE_CHUNK_PLANS:
            parent, action, ages, sums, left = _expand(ages, sums, left,
                                                       factors)
            for k in reversed(range(left.size)):
                stack.append((t + 1, ages[k:k + 1], sums[k:k + 1],
                              left[k:k + 1],
                              (parent[k:k + 1], action[k:k + 1], trail)))
            continue

        for _ in range(t, horizon):
            parent, action, ages, sums, left = _expand(ages, sums, left,
                                                       factors)
            trail = (parent, action, trail)
        approx = sums.sum(axis=1)
        running = np.maximum.accumulate(approx)
        np.maximum(running, record, out=running)
        record = running[-1]
        rows = np.flatnonzero(approx >= running * keep)
        values = [math.fsum(row) / scale for row in sums[rows].tolist()]
        acts = np.empty((rows.size, horizon), dtype=np.intp)
        level = horizon
        while trail is not None:
            parent, action, trail = trail
            level -= 1
            acts[:, level] = action[rows]
            rows = parent[rows]
        chosen = []
        for k, value in enumerate(values):
            if value > best_value * (1 + ORACLE_TIE_REL):
                best_value = value
                ties.clear()
                chosen = [k]
            elif value >= best_value * (1 - ORACLE_TIE_REL):
                chosen.append(k)
        ties.append(acts[chosen])

    tied_actions = np.concatenate(ties)
    tied_actions.setflags(write=False)
    m = np.zeros((n + 1, horizon))  # row 0 collects the idle slots
    m[tied_actions[0], np.arange(horizon)] = 1.0
    best_plan = BlockingPlan(m[1:])
    # re-evaluate through the public trajectory path as a consistency check
    check = expected_age_trajectory(policy, best_plan, config).system_avg
    if abs(check - best_value) > 1e-9 * max(1.0, abs(best_value)):
        raise CertificateError(
            f"oracle payoff {best_value!r} does not match its plan's exact "
            f"age {check!r}")
    return AdversaryResponse(plan=best_plan, payoff=best_value,
                             tied_actions=tied_actions)
