"""Exact expected-age trajectories at finite horizon.

Each user's expected age follows the linear recursion

    age(t+1) = age(t) * (1 - delivery_prob(t)) + 1,    age(1) = 1,

where delivery_prob(t) is the probability the user receives an update in slot
t: its scheduling probability when the channel is clear, damped by the
blocking probability otherwise.  The equivalent sum form (a sum of survival
products over all possible last-delivery slots) is quadratic in T; it lives
in the tests as a cross-check.

The recursion is evaluated in floating point exactly as the per-slot loop
would, but it skips work the loop would repeat.  One core, _run_ages, takes
a row as its runs of constant survival s = 1 - delivery_prob, each a
(start, s) pair, and writes the row's ages.  The callers find the runs
where they are cheapest: expected_age_trajectory in each plan row,
expected_age_trajectory_diversity once in the interception vector that
every distinct p_i shares, and the audit's window pricing straight from
its (start, stop, weights) windows, so none of them builds an N x T
delivery matrix.  _recurse_ages, the dense entry the lock tests drive,
finds the runs of a delivery matrix and feeds the same core.  Any cut
into runs gives the same floats, as every run is filled as the loop fills
it; two neighbouring runs may share one s.  For s >= 0 the rounded map
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


def _run_ages(row: np.ndarray, starts: list, survival: list,
              converged: dict) -> None:
    """Write one row's ages, age(1) = 1 and age(t+1) = age(t)*s(t) + 1, bit
    for bit as the plain per-slot loop would, given the row's runs.

    Run k has survival s = survival[k] over carry indices starts[k] ..
    starts[k+1] - 1, where carry index t - 1 takes slot t to t + 1; the
    last run ends at carry index T - 2, and a T = 1 row has no runs.
    starts[0] is 0 and the starts increase strictly; two neighbouring runs
    may share one s.  Inside a run the loop stops at the first slot where
    age*s + 1.0 == age: the rounded map has reached a fixed point, so every
    later slot of the run holds the same float and is filled by one slice
    assignment.  The slots a converged run iterated are kept in `converged`
    under its (entry age, s), as (those ages as an array, the fixed point);
    a later run with that key, in any row of the call, copies them.  A run with s == 1.0 is a ramp, filled by one cumsum.
    """
    horizon = row.size
    row[0] = 1.0
    age = 1.0
    done = 1  # row[:done] is written; `ages` holds the slots after it
    ages = []
    for s, start, stop in zip(survival, starts, starts[1:] + [horizon - 1]):
        if stop - start == 1:  # most runs of a dense plan
            age = age * s + 1.0
            ages.append(age)
            continue
        if s == 1.0:  # a ramp: age*1.0 is exact and cumsum adds in order
            row[done:done + len(ages)] = ages
            ages = []
            row[start + 1:stop + 1] = 1.0
            np.cumsum(row[start:stop + 1], out=row[start:stop + 1])
            done = stop + 1
            age = float(row[stop])
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
        if ages:
            row[done:done + len(ages)] = ages
            done += len(ages)
            ages = []
        k = min(stop - start, trail.size)
        row[done:done + k] = trail[:k]
        row[done + k:stop + 1] = fixed
        done = stop + 1
        age = fixed if k == trail.size else float(trail[k - 1])
    row[done:] = ages


def _run_starts(values: np.ndarray) -> list:
    """Per row of an (n, T) matrix, the carry indices where a run of equal
    values[:, :-1] starts (see _run_ages): [0, then every change], or []
    at T = 1.  Column T - 1 carries no slot, so it starts no run."""
    n, horizon = values.shape
    if horizon == 1:
        return [[] for _ in range(n)]
    carry = values[:, :-1]
    rows, cuts = np.divmod(
        np.flatnonzero(carry[:, 1:] != carry[:, :-1]), max(horizon - 2, 1))
    row_cuts = np.searchsorted(rows, np.arange(n + 1)).tolist()
    cuts = (cuts + 1).tolist()
    return [[0, *cuts[a:b]] for a, b in zip(row_cuts, row_cuts[1:])]


def _recurse_ages(delivery_prob: np.ndarray) -> np.ndarray:
    """Run age(t+1) = age(t)*s(t) + 1, s = 1 - delivery, per row of an
    (N, T) matrix, bit for bit as the plain per-slot loop would: each row
    is cut into runs where its delivery probability changes (where two
    probabilities round to one s, the next run just goes on iterating) and
    handed to _run_ages, with one converged-run cache for the call."""
    out = np.empty(delivery_prob.shape)
    converged = {}
    for row, delivery, starts in zip(out, delivery_prob,
                                     _run_starts(delivery_prob)):
        _run_ages(row, starts, (1.0 - delivery[starts]).tolist(), converged)
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
    delivery probability p_i * (1 - block_prob[i, t]).  Row i's runs are
    the runs of block_prob[i], so no delivery matrix is built.
    """
    check_profile(policy, None, plan, config)
    out = np.empty(plan.block_prob.shape)
    converged = {}
    for row, p, blocked, starts in zip(out, policy.probs.tolist(),
                                       plan.block_prob,
                                       _run_starts(plan.block_prob)):
        _run_ages(row, starts, (1.0 - p * (1.0 - blocked[starts])).tolist(),
                  converged)
    return _make_series(out)


def expected_age_trajectory_diversity(
        policy: SchedulingPolicy, subpolicy: SubcarrierPolicy,
        plan: BlockingPlan, config: SystemConfig) -> AgeSeries:
    """Exact ages when updates ride a sub-carrier drawn from `subpolicy`.

    Delivery probability for user i in slot t is
    p_i * sum_j q_j * (1 - block_prob[j, t]): the scheduled user receives the
    update unless the drawn sub-carrier is blocked.  When every sub-carrier is
    blocked with the same probability the q-dependence cancels.  A row
    depends on p_i alone, so the recursion runs once per distinct p_i, over
    the runs of the interception vector, which every row shares.
    """
    check_profile(policy, subpolicy, plan, config)
    intercepted = _intercepted(subpolicy.probs, plan.block_prob)
    probs, user_row = np.unique(policy.probs, return_inverse=True)
    (starts,) = _run_starts(intercepted[None, :])
    clear = 1.0 - intercepted[starts]
    out = np.empty((probs.size, config.horizon_T))
    converged = {}
    for row, p in zip(out, probs.tolist()):
        _run_ages(row, starts, (1.0 - p * clear).tolist(), converged)
    return _make_series(out[user_row])


def _window_system_ages(policy: SchedulingPolicy, subpolicy: SubcarrierPolicy,
                        samples, horizon: int) -> np.ndarray:
    """expected_age_trajectory_diversity(...).system_avg of every sample
    plan, bit for bit, without building any plan or delivery matrix.

    A sample is a sequence of disjoint (start, stop, weights) windows: its
    plan blocks sub-carrier j with probability weights[j] in slots
    start+1..stop and nowhere else.  The caller has checked the profile and
    every sample's feasibility.  Rows are one per (sample, distinct p_i);
    each is at most 2k + 1 runs for k windows, read off the windows with
    s = 1 - p_i outside them and s = 1 - p_i*(1 - sum_j q_j w_j) inside,
    added as _intercepted adds.  The ages of every row go into one buffer,
    and the [1, t] certificate covers all of them.
    """
    probs, user_row = np.unique(policy.probs, return_inverse=True)
    windows = [w for sample in samples for w in sample]
    if windows:
        hit = _intercepted(subpolicy.probs,
                           np.column_stack([w for _, _, w in windows]))
        window_s = iter((1.0 - probs[:, None] * (1.0 - hit)).T.tolist())
    clear_s = (1.0 - probs).tolist()  # s = 1 - p_i*(1 - 0) outside windows
    last = horizon - 1  # carry indices run over [0, T - 1)
    ages = np.empty((len(samples), probs.size, horizon))
    converged = {}
    for rows, sample in zip(ages, samples):
        starts, runs, free = [], [], 0
        for start, stop, _ in sample:
            inside = next(window_s)
            stop = min(stop, last)
            if start >= stop:  # an empty window, or one past the last carry
                continue
            if free < start:
                starts.append(free)
                runs.append(clear_s)
            starts.append(start)
            runs.append(inside)
            free = stop
        if free < last:
            starts.append(free)
            runs.append(clear_s)
        for k, row in enumerate(rows):
            _run_ages(row, starts, [s[k] for s in runs], converged)
    ages = _check_age_range(ages.reshape(-1, horizon))
    row_avg = ages.mean(axis=1).reshape(len(samples), probs.size)
    # contiguous rows, so each mean adds as the evaluator's 1-D mean does
    return np.ascontiguousarray(row_avg[:, user_row]).mean(axis=1)
