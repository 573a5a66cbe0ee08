"""Exact expected-age trajectories at finite horizon.

Each user's expected age follows the linear recursion

    age(t+1) = age(t) * (1 - delivery_prob(t)) + 1,    age(1) = 1,

where delivery_prob(t) is the probability the user receives an update in slot
t: its scheduling probability when the channel is clear, damped by the
blocking probability otherwise.  The equivalent sum form (a sum of survival
products over all possible last-delivery slots) is quadratic in T; it lives
in the tests as a cross-check.

The recursion is evaluated in floating point exactly as the per-slot loop
would, but it skips work the loop would repeat.  A row is cut into runs of
constant survival s = 1 - delivery_prob.  For s >= 0 the rounded map
age -> age*s + 1.0 is monotone, so inside a run the ages move monotonically
and reach a float that the map sends to itself; from there on every slot of
the run holds that float, and the rest of the run is filled without
iterating.  Structured plans (middle blocks, uniform sub-carrier blocking,
the audit's deviation families) are a few runs per row, so most slots are
filled this way.  The s = 1 run of a surely blocked window never reaches a
fixed point: it is a ramp of +1.0 steps, filled by one np.cumsum, which
adds in sequence as the loop does (age*1.0 is exact).  Any other run that
ends before its fixed point (a tiny delivery probability) is iterated slot
by slot, so the worst case stays O(N*T), as do all public operations.

Within one call, the trajectory of every run that reached its fixed point
is kept, keyed by the run's (entry age, s): the map is deterministic, so a
later run with the same key, in any row, copies that trajectory (or the
prefix of it that fits) instead of iterating.  Rows of many plans that
share their clear stretches, as the diversity audit's samples do, cost a
few dictionary lookups each.  The cache is dropped when the call returns.

In the diversity model the per-slot interception sum_j q_j * b_j is added
in sub-carrier order with elementwise operations (_intercepted), never by a
matrix product, whose last bit may depend on the operands' shapes and on
the BLAS build: a plan's value is the same whether it is priced alone or
in a batch.
"""

from dataclasses import dataclass

import numpy as np

from .errors import CertificateError
from .model import (
    BlockingPlan,
    SchedulingPolicy,
    SubcarrierPolicy,
    SystemConfig,
    check_profile,
)

# ===========================================================================
#  Result container
# ===========================================================================


@dataclass(frozen=True)
class AgeSeries:
    """Expected-age trajectories, entry (i, t-1) being user i's age at slot t.

    per_user_avg[i] is the time average of row i; system_avg averages those
    over users.  Ages satisfy 1 <= age(t) <= t, with age(1) = 1 always.
    """

    per_user: np.ndarray  # shape (N, T)
    per_user_avg: np.ndarray  # shape (N,)
    system_avg: float

    @property
    def num_users(self) -> int:
        return self.per_user.shape[0]

    @property
    def horizon(self) -> int:
        return self.per_user.shape[1]


def _check_age_range(ages: np.ndarray) -> np.ndarray:
    """Return `ages`, a matrix with one slot per column, after checking
    that every entry lies in [1, t] within 1e-9; CertificateError if not."""
    t_grid = np.arange(1, ages.shape[1] + 1)
    if not (np.all(ages >= 1.0 - 1e-9) and np.all(ages <= t_grid + 1e-9)):
        raise CertificateError("expected age outside [1, t]")
    return ages


def _make_series(per_user: np.ndarray) -> AgeSeries:
    per_user = _check_age_range(np.asarray(per_user, dtype=float))
    per_user.setflags(write=False)
    per_user_avg = per_user.mean(axis=1)
    per_user_avg.setflags(write=False)
    return AgeSeries(per_user, per_user_avg, float(per_user_avg.mean()))


# ===========================================================================
#  Trajectories
# ===========================================================================


def _recurse_ages(delivery_prob: np.ndarray) -> np.ndarray:
    """Run age(t+1) = age(t)*s(t) + 1, s = 1 - delivery, per row of an
    (N, T) matrix, bit for bit as the plain per-slot loop would.

    Each row is cut into runs of equal s.  Inside a run the loop stops at
    the first slot where age*s + 1.0 == age: the rounded map has reached a
    fixed point, so every later slot of the run holds the same float and is
    filled by one slice assignment.  The slots a converged run iterated are
    kept under its (entry age, s); a later run with that key copies them.
    A run with s == 1.0 is a ramp, filled by one cumsum.
    """
    n, horizon = delivery_prob.shape
    out = np.empty((n, horizon))
    out[:, 0] = 1.0
    if horizon == 1:
        return out
    # a run starts wherever the delivery probability changes; where two
    # probabilities round to one s, the next run just goes on iterating
    carry = delivery_prob[:, :-1]  # carry[i, t-1] takes slot t to t+1
    rows, cuts = np.divmod(
        np.flatnonzero(carry[:, 1:] != carry[:, :-1]), max(horizon - 2, 1))
    row_cuts = np.searchsorted(rows, np.arange(n + 1)).tolist()
    cuts = (cuts + 1).tolist()
    # (entry age, s) -> (ages up to the fixed point, as an array, fixed point)
    converged = {}
    for i in range(n):
        starts = [0, *cuts[row_cuts[i]:row_cuts[i + 1]]]
        row_out = out[i]
        age = 1.0
        done = 1  # row_out[:done] is written; `ages` holds the slots after it
        ages = []
        for s, start, stop in zip((1.0 - carry[i, starts]).tolist(), starts,
                                  starts[1:] + [horizon - 1]):
            if stop - start == 1:  # most runs of a dense plan
                age = age * s + 1.0
                ages.append(age)
                continue
            if s == 1.0:  # a ramp: age*1.0 is exact and cumsum adds in order
                row_out[done:done + len(ages)] = ages
                ages = []
                row_out[start + 1:stop + 1] = 1.0
                np.cumsum(row_out[start:stop + 1], out=row_out[start:stop + 1])
                done = stop + 1
                age = float(row_out[stop])
                continue
            key = (age, s)
            if key not in converged:
                run = []
                for _ in range(stop - start):
                    nxt = age * s + 1.0
                    if nxt == age:  # every later slot of the run holds `age`
                        converged[key] = (np.array(run), age)
                        break
                    age = nxt
                    run.append(age)
                else:  # the run ends before its fixed point
                    ages += run
                    continue
            trail, fixed = converged[key]
            row_out[done:done + len(ages)] = ages
            done += len(ages)
            ages = []
            k = min(stop - start, trail.size)
            row_out[done:done + k] = trail[:k]
            row_out[done + k:stop + 1] = fixed
            done = stop + 1
            age = fixed if k == trail.size else float(trail[k - 1])
        row_out[done:] = ages
    return out


def _intercepted(q: np.ndarray, block_prob: np.ndarray) -> np.ndarray:
    """Per-column probability that the drawn sub-carrier is blocked,
    sum_j q_j * block_prob[j], added in sub-carrier order by elementwise
    operations, so a column's value does not depend on the other columns."""
    hit = q[0] * block_prob[0]
    for q_j, row in zip(q[1:], block_prob[1:]):
        hit += q_j * row
    return hit


def expected_age_trajectory(
        policy: SchedulingPolicy, plan: BlockingPlan,
        config: SystemConfig) -> AgeSeries:
    """Exact per-user expected ages when each user owns one channel.

    Plan rows index users; randomized plans are allowed, with per-slot
    delivery probability p_i * (1 - block_prob[i, t]).
    """
    check_profile(policy, None, plan, config)
    delivery = policy.probs[:, None] * (1.0 - plan.block_prob)
    return _make_series(_recurse_ages(delivery))


def expected_age_trajectory_diversity(
        policy: SchedulingPolicy, subpolicy: SubcarrierPolicy,
        plan: BlockingPlan, config: SystemConfig) -> AgeSeries:
    """Exact ages when updates ride a sub-carrier drawn from `subpolicy`.

    Delivery probability for user i in slot t is
    p_i * sum_j q_j * (1 - block_prob[j, t]): the scheduled user receives the
    update unless the drawn sub-carrier is blocked.  When every sub-carrier is
    blocked with the same probability the q-dependence cancels.  A row
    depends on p_i alone, so the recursion runs once per distinct p_i.
    """
    check_profile(policy, subpolicy, plan, config)
    intercepted = _intercepted(subpolicy.probs, plan.block_prob)
    probs, user_row = np.unique(policy.probs, return_inverse=True)
    delivery = probs[:, None] * (1.0 - intercepted)[None, :]
    return _make_series(_recurse_ages(delivery)[user_row])


def _window_system_ages(policy: SchedulingPolicy, subpolicy: SubcarrierPolicy,
                        samples, horizon: int) -> np.ndarray:
    """expected_age_trajectory_diversity(...).system_avg of every sample
    plan, bit for bit, from one recursion over all of them.

    A sample is a sequence of disjoint (start, stop, weights) windows: its
    plan blocks sub-carrier j with probability weights[j] in slots
    start+1..stop and nowhere else.  The caller has checked the profile and
    every sample's feasibility.  Rows are one per (sample, distinct p_i),
    and the [1, t] certificate covers all of them.
    """
    probs, user_row = np.unique(policy.probs, return_inverse=True)
    windows = [w for sample in samples for w in sample]
    if windows:
        hit = _intercepted(subpolicy.probs,
                           np.column_stack([w for _, _, w in windows]))
        window_rows = iter((probs[:, None] * (1.0 - hit)).T)
    delivery = np.empty((len(samples), probs.size, horizon))
    delivery[...] = probs[:, None]  # p_i * (1 - 0) outside every window
    for rows, sample in zip(delivery, samples):
        for start, stop, _ in sample:
            rows[:, start:stop] = next(window_rows)[:, None]
    ages = _check_age_range(_recurse_ages(delivery.reshape(-1, horizon)))
    row_avg = ages.mean(axis=1).reshape(len(samples), probs.size)
    # contiguous rows, so each mean adds as the evaluator's 1-D mean does
    return np.ascontiguousarray(row_avg[:, user_row]).mean(axis=1)
