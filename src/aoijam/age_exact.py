"""Exact expected-age trajectories at finite horizon.

Both models follow one delivery law: user i receives its update in slot t
with probability p_i * (1 - r(t)), r being the interception row the user
reads, so its expected age follows the linear recursion

    age(t+1) = age(t) * s(t) + 1,    s = 1 - p_i * (1 - r(t)),  age(1) = 1.

Without diversity user i reads plan row i; with it every user reads the
one vector r = sum_j q_j * block_prob[j] (_intercepted).  One body,
_profile_series, prices every profile: it cuts each row into runs of
constant r once, prices each distinct (row, p_i) pair once through the
row core _run_ages, and copies that row to the pair's other users.  The
diversity audit reads its rows' runs off its (start, stop, weights)
windows (_window_runs) and _window_screen only sums them, building no
plan and no N x T delivery matrix; the few samples it prices densely go
through expected_age_trajectory_diversity.  The quadratic sum form of the
recursion lives in the tests as a cross-check.

One run walker, _walk_runs, holds the recursion's loop and yields, from a
row's runs of constant s, the floats of the plain per-slot loop.  It has
two consumers: the row core's _run_ages writes them, and _run_sum adds
them up and certifies [1, t] at each run's ends without writing a row.
Any cut into runs gives the same floats, as every run is walked as the
loop walks it.  For s >= 0 the rounded map age -> age*s + 1.0 is
monotone, so inside a run the ages move monotonically and reach a float
that the map sends to itself; the rest of the run holds that float and is
filled without iterating.  Structured plans (middle blocks, uniform
sub-carrier blocking, the audit's deviation families) are a few runs per
row, so most slots are filled this way.  The s = 1 run of a surely
blocked window is a ramp of +1.0 steps, built by one np.cumsum, which adds
in sequence as the loop does (age*1.0 is exact).
Any other run that ends before its fixed point (a tiny delivery
probability) is iterated slot by slot, so the worst case stays O(N*T).
Within one call a converged run's trajectory is kept under its (entry age,
s), with its prefix sums, and a later run with that key, in any row,
copies it (or the prefix that fits): the audit's samples share their clear
stretches, and _run_sum adds such a run as one prefix sum plus the fixed
point times the slots left, O(runs) per row.  The screened system age
and the evaluator's add the same ages in different orders; _screen_margin
bounds their distance.

The interception is added in sub-carrier order with elementwise
operations, never by a matrix product, whose last bit may depend on the
operands' shapes and on the BLAS build: a slot's interception is the same
read off a whole plan or off the audit's windows.
"""

from dataclasses import dataclass
from itertools import accumulate

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


def _walk_runs(starts: list, survival: list, horizon: int, converged: dict):
    """Yield the ages of slots 2..T of one row, age(1) = 1 and age(t+1) =
    age(t)*s(t) + 1, bit for bit as the plain per-slot loop computes them,
    given the row's runs (see _run_ages).

    The ages come in order as pieces (values, fill, repeat, head): the
    next ages are `values` (a list or an array), then `repeat` copies of
    `fill`.  head is None when `values` holds explicit ages: single-slot
    runs, runs that end before their fixed point, and ramps.  Every other
    piece is one run copied from the cache: head is the sum of `values`,
    read off the cached prefix sums, and the run ends at age `fill`.
    Inside a run the loop stops at the first slot where age*s + 1.0 ==
    age: the rounded map has reached a fixed point, so the rest of the run
    repeats it.  The slots a converged run iterated are kept in
    `converged` under its (entry age, s), as (those ages as an array,
    their count, the fixed point, their prefix sums from 0.0); a later run
    with that key, in any row of the call, copies them.  A run with
    s == 1.0 is a ramp, built by one cumsum.
    """
    age, ages = 1.0, []
    for s, start, stop in zip(survival, starts, starts[1:] + [horizon - 1]):
        if stop - start == 1:  # most runs of a dense plan
            age = age * s + 1.0
            ages.append(age)
            continue
        if s == 1.0:  # a ramp: age*1.0 is exact and cumsum adds in order
            if ages:
                yield ages, 0.0, 0, None
                ages = []
            ramp = np.ones(stop - start + 1)
            ramp[0] = age
            np.cumsum(ramp, out=ramp)
            age = float(ramp[-1])
            yield ramp[1:], 0.0, 0, None
            continue
        key = (age, s)
        cached = converged.get(key)
        if cached is None:
            run = []
            for _ in range(stop - start):
                nxt = age * s + 1.0
                if nxt == age:  # every later slot of the run holds `age`
                    cached = converged[key] = (
                        np.array(run), len(run), age,
                        list(accumulate(run, initial=0.0)))
                    break
                age = nxt
                run.append(age)
            else:  # the run ends before its fixed point
                ages += run
                continue
        if ages:
            yield ages, 0.0, 0, None
            ages = []
        trail, size, fixed, prefix = cached
        if stop - start > size:
            age = fixed
            yield trail, fixed, stop - start - size, prefix[size]
        else:  # a prefix of the cached trajectory
            k = stop - start
            age = float(trail[k - 1])
            yield trail[:k], age, 0, prefix[k]
    if ages:
        yield ages, 0.0, 0, None


def _run_ages(row: np.ndarray, starts: list, survival: list,
              converged: dict) -> None:
    """Write one row's ages, age(1) = 1 and age(t+1) = age(t)*s(t) + 1, bit
    for bit as the plain per-slot loop would, given the row's runs.

    Run k has survival s = survival[k] over carry indices starts[k] ..
    starts[k+1] - 1, where carry index t - 1 takes slot t to t + 1; the
    last run ends at carry index T - 2, and a T = 1 row has no runs.
    starts[0] is 0 and the starts increase strictly; two neighbouring runs
    may share one s.  The ages are _walk_runs's, one slice per piece;
    `converged` is its cache for the call.
    """
    row[0] = 1.0
    done = 1
    for values, fill, repeat, _ in _walk_runs(starts, survival, row.size,
                                              converged):
        stop = done + len(values)
        row[done:stop] = values
        done = stop + repeat
        row[stop:done] = fill


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


def _survival(p: float, clear: np.ndarray) -> list:
    """Per run, the probability s = 1 - p*clear that a user scheduled with
    probability p misses its update when its channel is clear with
    probability clear[k] over run k: the delivery law of both models."""
    return (1.0 - p * clear).tolist()


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
        starts, clear = runs[r]
        _run_ages(out[user], starts, _survival(p, clear), converged)
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


def _window_runs(subpolicy: SubcarrierPolicy, samples,
                 horizon: int) -> tuple[list, np.ndarray, list]:
    """Every window sample's runs as (starts, clear, bounds): starts[k]
    holds the carry indices where sample k's runs start (see _run_ages),
    and clear[bounds[k]:bounds[k+1]] the probability that the channel is
    clear over each of them, 1 outside the windows and 1 - sum_j q_j w_j
    inside.  A sample of k windows is at most 2k + 1 runs; an empty window,
    or one past the last carry, makes none."""
    windows = [w for sample in samples for w in sample]
    if windows:
        window_clear = iter((1.0 - _intercepted(
            subpolicy.probs,
            np.column_stack([w for _, _, w in windows]))).tolist())
    last = horizon - 1  # carry indices run over [0, T - 1)
    starts, clear, bounds = [], [], [0]
    for sample in samples:
        runs, free = [], 0
        for start, stop, _ in sample:
            inside = next(window_clear)
            stop = min(stop, last)
            if start >= stop:
                continue
            if free < start:
                runs.append(free)
                clear.append(1.0)
            runs.append(start)
            clear.append(inside)
            free = stop
        if free < last:
            runs.append(free)
            clear.append(1.0)
        starts.append(runs)
        bounds.append(len(clear))
    return starts, np.array(clear), bounds


def _run_sum(starts: list, survival: list, horizon: int,
             converged: dict) -> float:
    """The sum of one row's ages (runs as in _run_ages), from _walk_runs's
    pieces without writing them: a copied run adds its cached prefix sum
    and `fill` times its repeat count, so a row of r runs costs O(r) once
    its runs are cached; explicit ages are summed as an array.

    Raises CertificateError unless every age lies in [1, t] within 1e-9
    (a NaN fails too).  Explicit ages are each checked.  A copied run is
    checked at its last slot only: its entry age ended the piece before
    it (or is age(1) = 1), the rounded map is monotone for s >= 0, so the
    run's ages lie between its two ends, and age(t) - t never rises when
    s <= 1, so no slot inside the run exceeds its slot by more than its
    entry did.
    """
    total, slot = 1.0, 1
    for values, fill, repeat, head in _walk_runs(starts, survival, horizon,
                                                 converged):
        k = len(values)
        if head is None:
            ages = np.asarray(values)
            low = ages.min()
            excess = (ages - np.arange(slot + 1, slot + k + 1)).max()
            total += float(ages.sum())
        else:  # the run's last age
            low = fill
            excess = low - (slot + k + repeat)
            total += head + fill * repeat
        if not (low >= 1.0 - 1e-9 and excess <= 1e-9):
            raise CertificateError("expected age outside [1, t]")
        slot += k + repeat
    return total


def _window_screen(policy: SchedulingPolicy, subpolicy: SubcarrierPolicy,
                   samples, horizon: int) -> np.ndarray:
    """Every window sample's system age within _screen_margin of
    expected_age_trajectory_diversity(...).system_avg of its plan, without
    building any plan or delivery matrix.

    A sample is a sequence of disjoint (start, stop, weights) windows: its
    plan blocks sub-carrier j with probability weights[j] in slots
    start+1..stop and nowhere else.  The caller has checked the profile and
    every sample's feasibility.  Each (sample, distinct p_i) row is summed
    by _run_sum from its _window_runs, with one converged-run cache for the
    call and no age written.  Each row's [1, t] certificate is _run_sum's."""
    counts = {}
    for p in policy.probs.tolist():
        counts[p] = counts.get(p, 0) + 1
    starts, clear, bounds = _window_runs(subpolicy, samples, horizon)
    totals = np.zeros(len(samples))
    converged = {}
    for p, count in counts.items():
        survival = _survival(p, clear)
        totals += np.array([
            _run_sum(runs, survival[a:b], horizon, converged)
            for runs, a, b in zip(starts, bounds, bounds[1:])]) * count
    return totals / (horizon * policy.n)


def _screen_margin(values: np.ndarray, horizon: int,
                   users: int) -> np.ndarray:
    """An upper bound, twice over, on the distance between _window_screen's
    value of a sample and expected_age_trajectory_diversity(...).system_avg
    of its plan, for samples whose screened system ages are `values`.

    Both routes add the same positive ages, weighted by 1/(T*N), in
    different orders: along any path from one age to the result they
    round at most n = T + N + 8 times (T - 1 additions in a row's sum and
    the rest for the users' weights and the divisions), so each lies
    within gamma_n = n*u / (1 - n*u) of the exact weighted sum S, u being
    2**-53.  They differ by at most 2*gamma_n*S <= 2*gamma_n/(1 - gamma_n)
    * value <= 2*n*u/(1 - 2*n*u) * value.  The margin is 4*n*u * value,
    at least twice that bound while n*u <= 1/4 (any n that fits in memory),
    so a comparison against it cannot tip by its own rounding.
    """
    return 4.0 * (horizon + users + 8) * 2.0**-53 * values
