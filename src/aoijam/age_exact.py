"""Exact expected-age trajectories at finite horizon.

Both models follow one delivery law: user i receives its update in slot t
with probability p_i * (1 - r(t)), r being the interception row the user
reads, so its expected age follows the linear recursion

    age(t+1) = age(t) * s(t) + 1,    s = 1 - p_i * (1 - r(t)),  age(1) = 1.

Without diversity user i reads plan row i; with it every user reads the
one vector r = sum_j q_j * block_prob[j] (_intercepted).  One body,
_profile_series, prices every profile: it cuts each row into runs of
constant r once, prices each distinct (row, p_i) pair once through the
row core _price_row, and copies that row to the pair's other users.  The
diversity audit's _window_system_ages reads its rows' runs off its
(start, stop, weights) windows and calls the same row core; nothing
builds an N x T delivery matrix.  The quadratic sum form of the recursion
lives in the tests as a cross-check.

The row core's _run_ages writes, from a row's runs of constant s, the
floats of the plain per-slot loop.  Any cut into runs gives the same
floats, as every run is filled as the loop fills it.  For s >= 0 the
rounded map age -> age*s + 1.0 is monotone, so inside a run the ages move
monotonically and reach a float that the map sends to itself; the rest of
the run holds that float and is filled without iterating.  Structured
plans (middle blocks, uniform sub-carrier blocking, the audit's deviation
families) are a few runs per row, so most slots are filled this way.  The
s = 1 run of a surely blocked window is a ramp of +1.0 steps, filled by
one np.cumsum, which adds in sequence as the loop does (age*1.0 is exact).
Any other run that ends before its fixed point (a tiny delivery
probability) is iterated slot by slot, so the worst case stays O(N*T).
Within one call a converged run's trajectory is kept under its (entry age,
s), and a later run with that key, in any row, copies it (or the prefix
that fits): the audit's samples share their clear stretches.

The interception is added in sub-carrier order with elementwise
operations, never by a matrix product, whose last bit may depend on the
operands' shapes and on the BLAS build: a plan's value is the same whether
it is priced alone or in a batch.
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


def _check_age_range(ages: np.ndarray) -> None:
    """Raise CertificateError unless every entry of `ages`, a matrix with
    one slot per column, lies in [1, t] within 1e-9 (a NaN fails too)."""
    excess = ages.max(axis=0)
    excess -= np.arange(1, ages.shape[1] + 1)
    if not (ages.min() >= 1.0 - 1e-9 and excess.max() <= 1e-9):
        raise CertificateError("expected age outside [1, t]")


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
    a later run with that key, in any row of the call, copies them.  A run
    with s == 1.0 is a ramp, filled by one cumsum.
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


def _intercepted(q: np.ndarray, block_prob: np.ndarray) -> np.ndarray:
    """Per-column probability that the drawn sub-carrier is blocked,
    sum_j q_j * block_prob[j], added in sub-carrier order by elementwise
    operations, so a column's value does not depend on the other columns."""
    hit = q[0] * block_prob[0]
    for q_j, row in zip(q[1:], block_prob[1:]):
        hit += q_j * row
    return hit


def _price_row(row: np.ndarray, p: float, starts: list, clear: np.ndarray,
               converged: dict) -> None:
    """Write the ages of a user scheduled with probability p whose channel
    is clear with probability clear[k] over run k (runs as in _run_ages):
    the delivery law of both models, survival s = 1 - p*clear."""
    _run_ages(row, starts, (1.0 - p * clear).tolist(), converged)


def _profile_series(policy: SchedulingPolicy,
                    subpolicy: SubcarrierPolicy | None, plan: BlockingPlan,
                    config: SystemConfig) -> AgeSeries:
    """Exact ages of a strategy profile in either model; subpolicy is None
    exactly in the no-diversity model.

    User i reads one interception row: plan row i when each user owns a
    channel, else the vector _intercepted(q, block_prob) that every user
    shares.  Each row is cut into runs once; each distinct (row, p_i) pair
    is priced once, into its first user's output row, and those rows are
    certified before they are copied to the pair's other users.
    """
    check_profile(policy, subpolicy, plan, config)
    if subpolicy is None:
        rows, row_of = plan.block_prob, range(policy.n)
    else:
        rows = _intercepted(subpolicy.probs, plan.block_prob)[None]
        row_of = [0] * policy.n
    runs = [(starts, 1.0 - row[starts])
            for row, starts in zip(rows, _run_starts(rows))]
    out = np.empty((policy.n, config.horizon_T))
    first, converged = {}, {}
    source = [first.setdefault(pair, user) for user, pair
              in enumerate(zip(row_of, policy.probs.tolist()))]
    for (r, p), user in first.items():
        _price_row(out[user], p, *runs[r], converged)
    priced = list(first.values())  # increasing: a prefix iff it ends at k - 1
    k = len(priced)
    _check_age_range(out[:k] if priced[-1] == k - 1 else out[priced])
    for user, src in enumerate(source):
        if src != user:
            out[user] = out[src]
    out.setflags(write=False)
    per_user_avg = out.mean(axis=1)
    per_user_avg.setflags(write=False)
    return AgeSeries(out, per_user_avg, float(per_user_avg.mean()))


def expected_age_trajectory(policy: SchedulingPolicy, plan: BlockingPlan,
                            config: SystemConfig) -> AgeSeries:
    """Exact per-user expected ages when each user owns one channel.

    Plan rows index users; randomized plans are allowed, with per-slot
    delivery probability p_i * (1 - block_prob[i, t]).
    """
    return _profile_series(policy, None, plan, config)


def expected_age_trajectory_diversity(
        policy: SchedulingPolicy, subpolicy: SubcarrierPolicy,
        plan: BlockingPlan, config: SystemConfig) -> AgeSeries:
    """Exact ages when updates ride a sub-carrier drawn from `subpolicy`.

    Delivery probability for user i in slot t is
    p_i * sum_j q_j * (1 - block_prob[j, t]): the scheduled user receives the
    update unless the drawn sub-carrier is blocked.  When every sub-carrier is
    blocked with the same probability the q-dependence cancels.  Users with
    one p_i have one row, priced once.
    """
    return _profile_series(policy, subpolicy, plan, config)


def _window_system_ages(policy: SchedulingPolicy, subpolicy: SubcarrierPolicy,
                        samples, horizon: int) -> np.ndarray:
    """expected_age_trajectory_diversity(...).system_avg of every sample
    plan, bit for bit, without building any plan or delivery matrix.

    A sample is a sequence of disjoint (start, stop, weights) windows: its
    plan blocks sub-carrier j with probability weights[j] in slots
    start+1..stop and nowhere else.  The caller has checked the profile and
    every sample's feasibility.  A sample's row is at most 2k + 1 runs for
    k windows, clear with probability 1 outside them and 1 - sum_j q_j w_j
    inside; each (sample, distinct p_i) row is priced by _price_row into
    one buffer, and the [1, t] certificate covers all of them.
    """
    first = {}
    user_row = [first.setdefault(p, len(first))
                for p in policy.probs.tolist()]
    windows = [w for sample in samples for w in sample]
    if windows:
        window_clear = iter((1.0 - _intercepted(
            subpolicy.probs,
            np.column_stack([w for _, _, w in windows]))).tolist())
    last = horizon - 1  # carry indices run over [0, T - 1)
    ages = np.empty((len(samples), len(first), horizon))
    converged = {}
    for rows, sample in zip(ages, samples):
        starts, clear, free = [], [], 0
        for start, stop, _ in sample:
            inside = next(window_clear)
            stop = min(stop, last)
            if start >= stop:  # an empty window, or one past the last carry
                continue
            if free < start:
                starts.append(free)
                clear.append(1.0)
            starts.append(start)
            clear.append(inside)
            free = stop
        if free < last:
            starts.append(free)
            clear.append(1.0)
        clear = np.array(clear)
        for row, p in zip(rows, first):
            _price_row(row, p, starts, clear, converged)
    ages = ages.reshape(-1, horizon)
    _check_age_range(ages)
    row_avg = ages.mean(axis=1).reshape(len(samples), len(first))
    # contiguous rows, so each mean adds as the evaluator's 1-D mean does
    return np.ascontiguousarray(row_avg[:, user_row]).mean(axis=1)
