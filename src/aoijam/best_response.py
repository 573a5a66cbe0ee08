"""Best responses for both players, in the game a SystemConfig describes.

Base-station side: minimizing sum w_i/p_i over the probability simplex has
the closed form p_i proportional to sqrt(w_i), written once, in
numeric_simplex_minimizer, beside a KKT bisection that recomputes it by a
second route; blocking inflates a user's weight to 1 + its share of the
horizon.  counter_block_policy (1+B/T on a middle-blocked user) and
_plan_reply (any plan's shares) call it, and so does the leader's
order-constrained problem after pooling adjacent violators of the order.

Adversary side: the structured response, adversary_best_response, puts the
whole budget on the most starved user in one consecutive middle window; an
exhaustive oracle searches every per-slot action sequence on small instances
and certifies how far that structure is from the true finite-horizon
optimum.  Without diversity a user's age sum depends only on the slots where
that user is blocked, so the oracle prices each set of at most B slots once
per user, in one pass over the slots, and searches joint plans over those
tables with a bound that splits the budget across users; each plan's payoff
is still its own slot-ordered age sum, math.fsum over users, and only the
tied plans become T-wide action rows.
"""

import math
from dataclasses import dataclass

import numpy as np

from .age_asymptotic import _middle_block_payoff, reduced_payoff_for_split
from .age_exact import expected_age_trajectory
from .errors import (
    CertificateError,
    ConvergenceFailureError,
    DimensionMismatchError,
    InstanceTooLargeError,
    NonPositiveEntryError,
)
from .model import (
    BlockingPlan,
    SchedulingPolicy,
    SystemConfig,
    _check_target,
    check_profile,
    make_middle_block,
    uniform_policy,
    validate_policy,
)

CLOSED_FORM_AGREEMENT = 1e-8
# the KKT bisection stops once 1/sqrt(lo) - 1/sqrt(hi) is this small
BISECTION_STOP = 1e-10
ORACLE_MAX_PLANS = 10_000_000
ORACLE_TIE_REL = 1e-12  # oracle maximizers within this relative gap tie
ORACLE_WINDOW = 1e-9  # first search: this far, relative, below a known plan


@dataclass(frozen=True)
class AdversaryResponse:
    """A blocking plan the adversary picked, with the system age it achieves:
    large-horizon for the structured reply, which sets target, its blocked
    user; exact for the oracle, whose tied_actions is a (ties, T) integer
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


def counter_block_policy(config: SystemConfig,
                         target: int) -> SchedulingPolicy:
    """Scheduling policy minimizing system age when user `target` is
    middle-blocked: numeric_simplex_minimizer of weight 1+a on the target and
    1 elsewhere, a = blocked_share.  A diversity config raises
    DimensionMismatchError, as no diversity plan middle-blocks a user; a
    target that is not an integer in 0..N-1 raises IndexOutOfRangeError."""
    N = config.num_users
    check_profile(uniform_policy(N), None, None, config)
    _check_target(target, N)
    weights = np.ones(N)
    weights[target] = 1.0 + config.blocked_share
    return numeric_simplex_minimizer(weights)


def numeric_simplex_minimizer(weights) -> SchedulingPolicy:
    """Minimize sum w_i/p_i over the simplex: p_i = sqrt(w_i)/sum_j sqrt(w_j).

    That closed form, sqrt(w) over its math.fsum, is normalized twice by
    validate_policy, as a once-normalized vector's fsum need not be 1 and
    dynamics.csv pins the bits.  It is checked by a second route, a
    bisection on the KKT level lam with sum_i sqrt(u_i/lam) = 1 for
    u = w/max(w), so p_i = sqrt(u_i/lam).  As sum_i sqrt(u_i) lies in
    [1, N], lam lies in [1, N^2], whatever the scale of w; the bisection
    halves that bracket until 1/sqrt(lo) - 1/sqrt(hi) <= BISECTION_STOP
    (1e-10): 24 to 32 rounds for weights in [1, 2] at N from 2 to 500, at
    most about 51 when one weight dwarfs the rest.  As every u_i <= 1,
    sqrt(u_i/lam) then lies within 1e-10 of the root's p_i for every lam in
    the bracket.  Routes more than CLOSED_FORM_AGREEMENT apart raise
    ConvergenceFailureError, so a closed form more than 1e-8 + 1e-10 off
    the root always does.  Weights other than a 1-D array raise
    DimensionMismatchError; an empty array or an entry that is not a finite
    number > 0 raises NonPositiveEntryError.
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
    closed = np.sqrt(w) / math.fsum(np.sqrt(w).tolist())
    u = w / w.max()
    lo, hi = 1.0, float(w.size) ** 2
    while 1.0 / math.sqrt(lo) - 1.0 / math.sqrt(hi) > BISECTION_STOP:
        lam = (lo + hi) / 2
        if np.sqrt(u / lam).sum() > 1.0:
            lo = lam
        else:
            hi = lam
    lam = (lo + hi) / 2
    drift = float(np.max(np.abs(np.sqrt(u / lam) - closed)))
    if drift > CLOSED_FORM_AGREEMENT:
        raise ConvergenceFailureError(
            f"the closed form and its bisection disagree by {drift:.3e}")
    return validate_policy(validate_policy(closed).probs)


def _plan_reply(plan: BlockingPlan, config: SystemConfig) -> tuple:
    """The base station's reply to a plan's per-user shares of the horizon,
    and the system age it gets at those shares."""
    shares = plan.block_prob.sum(axis=1) / config.horizon_T
    reply = numeric_simplex_minimizer(1.0 + shares)
    return reply, reduced_payoff_for_split(reply, shares, config.horizon_T)


def ordered_kkt_solver(config: SystemConfig) -> SchedulingPolicy:
    """Solve the leader's problem under an explicit ordering constraint.

    Minimizes 1/p_1 + ... + 1/p_{N-1} + (1+a)/p_N, a = blocked_share, subject
    to the simplex and p_1 >= ... >= p_N (the blocked user is, without loss
    of generality, the least-scheduled one).  The optimum is uniform; this
    routine exists to certify that instead of assuming it.  A diversity
    config or N < 2 raises DimensionMismatchError.

    The free minimizer p ~ sqrt(w) has the order of w, so the ordered one
    pools adjacent violators of the non-increasing order on w: each pooled
    block shares one p, the minimizer for its mean weight.  The result is
    numeric_simplex_minimizer of the pooled weights.
    """
    N = config.num_users
    check_profile(uniform_policy(N), None, None, config)
    if N < 2:
        raise DimensionMismatchError(f"N must be >= 2, got {N}")
    w = np.ones(N)
    w[-1] = 1.0 + config.blocked_share
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
    """The adversary's reply: one middle window on the least-scheduled user.

    Payoff is the large-horizon system age at the plan's shares (B/T on the
    target); ties in argmin p break to the lowest index.
    """
    check_profile(policy, None, None, config)
    target = int(np.argmin(policy.probs))
    payoff = _middle_block_payoff(policy.probs.tolist(), target,
                                  config.blocked_share, config.horizon_T)
    return AdversaryResponse(make_middle_block(config, target), payoff, target)


def oracle_plan_count(N: int, T: int, B: int) -> int:
    """Number of per-slot action sequences with at most B blocked slots."""
    return sum(math.comb(T, k) * N**k for k in range(min(B, T) + 1))


def _blocked_set_sums(probs: np.ndarray, horizon: int,
                      width: int) -> tuple[np.ndarray, list]:
    """User i's slot-ordered age sum for every set of at most `width` of the
    slots 0 .. horizon-1, taken as the slots where i is blocked.

    Returns (sums, starts): columns starts[k] .. starts[k+1]-1 of the
    (users, sets) array `sums` are the C(T, k) sets of k slots in colex
    order (by last slot, then by the rest), the order _set_slots decodes.
    From age 1, each slot adds the age to the sum, then sets
    age = age*(1 - s) + 1.0 (s = 0 on a blocked slot, p_i otherwise), the
    float operations of i's exact recursion.

    The sets are built slot by slot.  Before slot t the live sets are those
    below t, the first C(t, k) of each size.  At t each live set of fewer
    than `width` slots is born again as the next set one size up, itself
    with t: it takes the set's sum and the blocked update, age + 1.0, while
    the live sets take the idle one.  A slot costs a few numpy calls per
    size and work on the sets up to its largest live one: all sets of the
    smaller sizes, then the live sets of the largest.  Memory: the sums
    and the running ages, 16 bytes per set and user, and nothing T sets
    wide.
    """
    starts = [0]
    for k in range(width + 1):
        starts.append(starts[-1] + math.comb(horizon, k))
    # (sets, users) while built, so that a set's users sit side by side
    ages = np.ones((starts[-1], probs.size))
    sums = np.zeros_like(ages)
    idle = (1.0 - probs).tolist()
    live = [1] + [0] * width  # live[k]: the sets of k slots below t
    for t in range(horizon):
        # the live sets lie below `end`, with gaps of unborn sets in the
        # smaller sizes: these age in vain, and their birth overwrites them
        top = min(t, width)
        end = starts[top] + live[top]
        sums[:end] += ages[:end]
        late = []  # births below `end` take their ages after the idle rule
        for k in range(min(t + 1, width) - 1, -1, -1):
            old = slice(starts[k], starts[k] + live[k])
            new = slice(starts[k + 1] + live[k + 1],
                        starts[k + 1] + live[k + 1] + live[k])
            sums[new] = sums[old]
            if k + 1 < top:
                late.append((new, ages[old] + 1.0))
            elif t + 1 < horizon:  # no slot reads the ages after the last
                np.add(ages[old], 1.0, out=ages[new])
            live[k + 1] += live[k]
        if t + 1 < horizon:
            for i, factor in enumerate(idle):  # one strided column a user
                ages[:end, i] *= factor
            ages[:end] += 1.0
            for new, blocked in late:
                ages[new] = blocked
    del ages  # before the copy, so that two tables are the peak
    return np.ascontiguousarray(sums.T), starts


def _set_slots(ids: np.ndarray, size: np.ndarray, starts: np.ndarray,
               combs: np.ndarray) -> np.ndarray:
    """The slots of the sets `ids` of _blocked_set_sums, sorted by their
    sizes `size`: one row per set in increasing order, padded with -1 to
    the widest size (int16 while T < 2**15).  combs[j-1, s] = C(s, j).

    A set of k slots s_1 < ... < s_k is the (sum_j C(s_j, j))-th of its
    size in colex order, so s_k is the largest s with C(s, k) <= that
    rank, and so on down.
    """
    width, horizon = combs.shape[0], combs.shape[1] - 1
    rank = ids - starts[size]
    slots = np.full((ids.size, width), -1,
                    dtype=np.int16 if horizon < 2**15 else np.int32)
    cut = np.searchsorted(size, np.arange(1, width + 1)).tolist()
    for j in range(width, 0, -1):  # the sets of j slots or more
        left = rank[cut[j - 1]:]
        slot = np.searchsorted(combs[j - 1, 1:], left, side="right")
        slots[cut[j - 1]:, j - 1] = slot
        left -= combs[j - 1, slot]
    return slots


def _joint_plans(sums, starts, horizon, reach, most, budget, floor):
    """Every joint plan the budget bound keeps: (ids, slots), one row per
    plan.  Row j blocks user i on set ids[j, i] of _blocked_set_sums, whose
    slots, padded with -1, are slots[j, i*W:(i+1)*W] for W = min(B, T); a
    plan's sets are disjoint and hold at most `budget` slots in all.

    most[i][k] bounds what the other users add around a set of k slots for
    user i, and reach[i][b] what users i .. N-1 add with b slots.  A set of
    k slots is a candidate for user i when its sum reaches floor -
    most[i][k], and user 0's candidates start the partial plans.  Users
    1 .. N-1 follow in order: a partial plan takes, of user i's candidates
    of each size sorted by sum, the prefix whose partial sum + own sum +
    reach[i + 1] with the slots left reaches `floor`, less those that share
    a slot with it.  Only candidates are decoded into slots.
    """
    width = len(starts) - 2
    combs = np.ones((width + 1, horizon + 1), dtype=np.int64)
    for j in range(1, width + 1):  # C(s, j) = C(0, j-1) + ... + C(s-1, j-1)
        combs[j, 0] = 0
        combs[j - 1, :-1].cumsum(out=combs[j, 1:])
    combs = combs[1:]
    count = np.diff(starts)
    picks = [np.flatnonzero(row >= np.repeat(floor - bound, count))
             for row, bound in zip(sums, most)]
    sizes = [np.searchsorted(starts[1:], pick, side="right")
             for pick in picks]
    ids = picks[0][:, None]
    part, used = sums[0, picks[0]], sizes[0]
    taken = _set_slots(picks[0], sizes[0], starts, combs)
    for i in range(1, len(picks)):
        order = np.lexsort((-sums[i, picks[i]], sizes[i]))
        pick, size = picks[i][order], sizes[i][order]
        own = _set_slots(pick, size, starts, combs)
        low = -sums[i, pick]  # ascending within each size
        cut = np.searchsorted(size, np.arange(width + 2)).tolist()
        left = budget - used[:, None] - np.arange(width + 1)
        bar = np.where(left >= 0, part[:, None]
                       + reach[i + 1][np.maximum(left, 0)] - floor, -np.inf)
        rows, sets = [], []
        for k in np.flatnonzero(np.diff(cut)).tolist():
            counts = np.searchsorted(low[cut[k]:cut[k + 1]], bar[:, k],
                                     side="right")
            total = int(counts.sum())
            if not total:
                continue
            row = np.repeat(np.arange(counts.size), counts)
            chosen = (cut[k] + np.arange(total)
                      - np.repeat(counts.cumsum() - counts, counts))
            if k:
                clash = (taken[row, :, None]
                         == own[chosen, None, :k]).any(axis=(1, 2))
                row, chosen = row[~clash], chosen[~clash]
            rows.append(row)
            sets.append(chosen)
        row, chosen = np.concatenate(rows), np.concatenate(sets)
        ids = np.column_stack((ids[row], pick[chosen]))
        taken = np.hstack((taken[row], own[chosen]))
        if i + 1 < len(picks):
            part = part[row] + sums[i, pick[chosen]]
            used = used[row] + size[chosen]
    return ids, taken


def adversary_oracle(policy: SchedulingPolicy,
                     config: SystemConfig) -> AdversaryResponse:
    """Exhaustively search every feasible deterministic plan on a small instance.

    Per-slot actions are {idle, block user 0, ..., block user N-1} with at
    most budget_B blocked slots; the returned plan maximizes the exact
    finite-horizon system average age.  Plans are ordered lexicographically
    (idle < block 0 < block 1 < ..., slot by slot), the reported plan is the
    lexicographically smallest maximizer, and every tie within relative
    1e-12 is a row of tied_actions.  More than ORACLE_MAX_PLANS candidate
    plans raise InstanceTooLargeError.

    A plan's payoff is its own slot-ordered sum: per user, starting from
    age 1, each slot adds the running expected age to the user's age sum and
    then sets age = age*(1 - s) + 1.0 (s = 0 on a blocked slot, p_i
    otherwise); the payoff is math.fsum of the N age sums over N*T.

    A user's age sum depends only on the slots where that user is blocked,
    so each set of at most B slots is priced once per user
    (_blocked_set_sums), and a plan, N disjoint sets with at most B slots
    in all, is priced from N table entries, bit for bit as above.  With S
    = sum_k C(T, k) sets, k <= B, the tables take 16*N*S bytes while they
    are built and 8*N*S after; N*S is at most the plan count plus N, so
    under the cap they stay below about 160 MB.  Besides them the search
    holds its candidates' slots and the tied action rows.
    _joint_plans collects every plan whose sum can reach a floor: it bounds
    what the remaining users add with the slots left by a DP over budget
    splits that ignores disjointness, and the floor sits 16*(N+2) eps below
    the limit, so float rounding against fsum's drops no plan.

    The limit starts ORACLE_WINDOW below the best single-user plan and
    widens x4 until some collected value theta has no plan valued in
    [theta*(1-3e-12), theta) and theta*(1-3e-12) is at or above the limit.
    The sequential rule (reset when value > best*(1+1e-12), otherwise join
    the ties when value >= best*(1-1e-12)) then runs, in lexicographic
    order, over the plans valued theta or more only.  The first of them
    resets whatever came before, as every earlier plan is worth less than
    theta*(1-3e-12); after it best >= theta, so no lower plan resets or
    joins, and the rule ends with the best and ties it has over every plan.
    A plan's place in the order comes from its blocks sorted by slot, each
    coded (T - slot)*(N+1) + 1 + user, one lexsort key per block; only the
    tied plans become T-wide action rows.
    """
    check_profile(policy, None, None, config)
    n, horizon, budget = policy.n, config.horizon_T, config.budget_B
    count = oracle_plan_count(n, horizon, budget)
    if count > ORACLE_MAX_PLANS:
        raise InstanceTooLargeError(
            f"{count} candidate plans exceed the cap of {ORACLE_MAX_PLANS}")

    width = min(budget, horizon)
    sums, starts = _blocked_set_sums(policy.probs, horizon, width)
    starts = np.array(starts)
    # best[i][k]: user i's largest sum over the sets of k slots.  reach[i]
    # and front[i] bound what users i .. N-1 and 0 .. i-1 add with b slots,
    # and most[i][k] what both add around a set of k slots for user i.
    best = np.maximum.reduceat(sums, starts[:-1], axis=1).tolist()

    def plus(bound, i):  # `bound` with user i's best sets added
        return [max(bound[b - k] + best[i][k]
                    for k in range(min(b, width) + 1))
                for b in range(budget + 1)]

    reach, front = [[0.0] * (budget + 1)], [[0.0] * (budget + 1)]
    for i in range(n - 1):
        reach.insert(0, plus(reach[0], n - 1 - i))
        front.append(plus(front[-1], i))
    reach.insert(0, [])
    most = [np.array([max(front[i][b] + reach[i + 1][budget - k - b]
                          for b in range(budget - k + 1))
                      for k in range(width + 1)]) for i in range(n)]
    reach = [np.array(bound) for bound in reach]

    scale = n * horizon
    empty = sums[:, 0].tolist()
    lower = max(math.fsum(empty[:i] + [max(best[i])] + empty[i + 1:])
                for i in range(n)) / scale
    slack = 1.0 - 16 * (n + 2) * np.finfo(float).eps
    window = ORACLE_WINDOW
    while True:
        limit = lower * (1.0 - window)
        ids, blocks = _joint_plans(sums, starts, horizon, reach, most,
                                   budget, limit * scale * slack)
        values = np.array([math.fsum(row) / scale for row in
                           sums[np.arange(n), ids].tolist()])
        rank = np.argsort(-values, kind="stable")
        high = values[rank]
        low = high * (1.0 - 3 * ORACLE_TIE_REL)
        gap = np.append(high[1:] < low[:-1], True) & (low >= limit)
        if gap.any():
            break
        window = max(4 * window, ORACLE_TIE_REL)
    held = rank[:int(np.argmax(gap)) + 1]
    values, blocks = values[held], blocks[held]

    lex = np.arange(len(held))
    if len(held) > 1:
        code = blocks.astype(np.intp)
        code = np.where(code >= 0, (horizon - code) * (n + 1)
                        + np.repeat(np.arange(1, n + 1), width), 0)
        code = np.sort(code, axis=1)[:, :-width - 1:-1]
        lex = np.lexsort(code.T[::-1])
    best_value = -math.inf
    ties: list[int] = []
    for k, value in zip(lex.tolist(), values[lex].tolist()):
        if value > best_value * (1 + ORACLE_TIE_REL):
            best_value = value
            ties = [k]
        elif value >= best_value * (1 - ORACLE_TIE_REL):
            ties.append(k)

    tied = blocks[ties].reshape(len(ties), n, width)
    tied_actions = np.zeros((len(ties), horizon), dtype=np.intp)
    row, user, col = np.nonzero(tied >= 0)
    tied_actions[row, tied[row, user, col]] = user + 1
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
