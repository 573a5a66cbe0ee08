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
diversity audit reads its rows' runs off one flat table of its samples'
windows (_window_runs), building no plan and no N x T delivery matrix,
and _window_screen prices them in closed form; the few samples it
prices densely go through expected_age_trajectory_diversity.
The quadratic sum form of the recursion lives in the tests as a
cross-check.

One run walker, _walk_runs, holds the recursion's loop and yields, from a
row's runs of constant s, the floats of the plain per-slot loop, which
the row core _run_ages writes.  Any cut into runs gives the same floats,
as every run is walked as the loop walks it.  For s >= 0 the rounded map
age -> age*s + 1.0 is monotone, so inside a run the ages move
monotonically and reach a float that the map sends to itself; the rest of
the run holds that float and is filled without iterating.  Structured
plans (middle blocks, uniform sub-carrier blocking, the audit's deviation
families) are a few runs per row, so most slots are filled this way.  The
s = 1 run of a surely blocked window is a ramp of +1.0 steps, built by
one np.cumsum, which adds in sequence as the loop does (age*1.0 is
exact).  Any other run that ends before its fixed point (a tiny delivery
probability) is iterated slot by slot, so the worst case stays O(N*T).
Within one call a converged run's trajectory is kept under its (entry age,
s), and a later run with that key, in any row, copies it (or the prefix
that fits).

The audit's screen does not walk: a run of constant s has a closed form
(_run_kernel), its exit age and its age sum from its entry age, length
and s, so every (sample, distinct p_i) row is priced by a few numpy
passes over all samples at once, O(runs) per row at any T.  It reads the
same per-slot s as the evaluator, bit for bit, but not the same ages;
_screen_margin bounds the distance between the two system ages.

The interception is added in sub-carrier order with elementwise
operations, never by a matrix product, whose last bit may depend on the
operands' shapes and on the BLAS build: a slot's interception is the same
read off a whole plan or off the audit's windows.
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


def _walk_runs(starts: list, survival: list, horizon: int, converged: dict):
    """Yield the ages of slots 2..T of one row, age(1) = 1 and age(t+1) =
    age(t)*s(t) + 1, bit for bit as the plain per-slot loop computes them,
    given the row's runs (see _run_ages).

    The ages come in order as pieces (values, fill, repeat): the next ages
    are `values` (a list or an array), then `repeat` copies of `fill`.
    Inside a run the loop stops at the first slot where age*s + 1.0 ==
    age: the rounded map has reached a fixed point, so the rest of the run
    repeats it.  The slots a converged run iterated are kept in
    `converged` under its (entry age, s), as (those ages as an array,
    their count, the fixed point); a later run with that key, in any row
    of the call, copies them.  A run with s == 1.0 is a ramp, built by one
    cumsum.
    """
    age, ages = 1.0, []
    for s, start, stop in zip(survival, starts, starts[1:] + [horizon - 1]):
        if stop - start == 1:  # most runs of a dense plan
            age = age * s + 1.0
            ages.append(age)
            continue
        if s == 1.0:  # a ramp: age*1.0 is exact and cumsum adds in order
            if ages:
                yield ages, 0.0, 0
                ages = []
            ramp = np.ones(stop - start + 1)
            ramp[0] = age
            np.cumsum(ramp, out=ramp)
            age = float(ramp[-1])
            yield ramp[1:], 0.0, 0
            continue
        key = (age, s)
        cached = converged.get(key)
        if cached is None:
            run = []
            for _ in range(stop - start):
                nxt = age * s + 1.0
                if nxt == age:  # every later slot of the run holds `age`
                    cached = converged[key] = (np.array(run), len(run), age)
                    break
                age = nxt
                run.append(age)
            else:  # the run ends before its fixed point
                ages += run
                continue
        if ages:
            yield ages, 0.0, 0
            ages = []
        trail, size, fixed = cached
        if stop - start > size:
            age = fixed
            yield trail, fixed, stop - start - size
        else:  # a prefix of the cached trajectory
            age = float(trail[stop - start - 1])
            yield trail[:stop - start], 0.0, 0
    if ages:
        yield ages, 0.0, 0


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
    for values, fill, repeat in _walk_runs(starts, survival, row.size,
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


def _window_runs(subpolicy: SubcarrierPolicy, table,
                 horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """The runs of the n samples of a window table (n, owner, start, stop,
    weights), whose window i blocks sub-carrier j with probability
    weights[i, j] (a windows x N_sub matrix) in slots start[i]+1..stop[i]
    of sample owner[i]; windows come sample by sample (owner is
    nondecreasing), in slot order, and a sample may hold none.

    Returns two (runs, n) matrices (k, clear): column o lists sample o's
    runs in carry order (see _run_ages), run r taking k[r, o] carries over
    which the channel is clear with probability clear[r, o].  They
    alternate, the clear stretch before each window (clear 1), then the
    window (1 - sum_j q_j w_j), and end with the stretch after the last
    window, so a column's runs tile the T - 1 carries; windows are cut to
    them.  Empty runs (k = 0) stand for the stretch between abutting
    windows, a window with no carry and the padding below a column's last
    run."""
    n, owner, start, stop, weights = table
    last = horizon - 1
    per_sample = np.bincount(owner, minlength=n)
    k = np.zeros((2 * int(per_sample.max(initial=0)) + 1, n))
    clear = np.ones_like(k)
    lo, hi = np.minimum(start, last), np.minimum(stop, last)
    # each window's place in its sample, and the carry its sample is free
    # from: the end of the window before it, or 0
    rank = np.arange(owner.size) - (np.cumsum(per_sample) - per_sample)[owner]
    free = np.zeros_like(hi)
    free[1:] = hi[:-1]
    free[rank == 0] = 0
    k[2 * rank, owner] = lo - free
    k[2 * rank + 1, owner] = hi - lo
    clear[2 * rank + 1, owner] = 1.0 - _intercepted(subpolicy.probs, weights.T)
    k[2 * per_sample, np.arange(n)] = last - k.sum(axis=0)
    return k, clear


_SERIES_LEVELS = 17  # its tail is below u/64 of the sum when d*k < 1


def _run_kernel(entry: np.ndarray, k: np.ndarray,
                s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form age sums and exit ages of chains of runs of the
    recursion age(t+1) = age(t)*s + 1.

    Axis 0 of k and s (broadcast together) is a chain: run r takes k[r]
    carries at survival s[r] and enters at the age run r - 1 exits with,
    run 0 at `entry`.  Returns (sums, exits), the ages each run adds up and
    the age it ends at.  With d = 1 - s and H_j = (1 - s**j)/d = 1 + s +
    ... + s**(j-1), a run of k carries entered at age a reaches a*s**j +
    H_j after j of them, so it exits at a*P + H and adds a*G + SH, where P
    = s**k, H = H_k, G = s*H and SH = H_1 + ... + H_k.  Three branches, on
    x = d*k:
      - x = 0 (s = 1 or k = 0) is an exact ramp: P = 1, H = G = k, SH =
        k(k+1)/2;
      - else H = -expm1(k*log(s))/d, and for x >= 1, SH = (k - G)/d: as
        G/k <= (1 - e**-x)/x, the difference loses at most a factor e - 1;
      - for 0 < x < 1, SH = k(k+1)/2 * sum_r (-d)**r C(k+1, r+2) /
        C(k+1, 2), the ratio of successive terms being d(k-1-r)/(r+3) <=
        1/(r+3), summed by Horner from its 18th term.

    Error, to first order in u = 2**-53, for numpy's power, log and expm1
    within one ulp (2u; numpy 2.4 on x86-64 measured 1.13u at most), so
    power is exact at k = 1: P is within 2u and exact at k <= 1 and on
    ramps; H within 7u (log 2u, the product 3u, expm1 5u as its condition
    number is at most 1 at a negative argument, the division and d = 1 -
    s, inexact only for s < 1/2); G within 8u; SH within 17u (1 + 8(e - 1)
    + 2 for x >= 1; the Horner sum within 5u for x < 1, as each level
    passes at most 1/(r+2) of the error below it on).  So a run entered at
    the float a exits at a*P*(1 + t1) + H*(1 + t2) with |t1| <= 4u (2u at
    k <= 1) and |t2| <= 8u, and adds a*G*(1 + t3) + SH*(1 + t4) with |t3|
    <= 10u and |t4| <= 18u.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        d = 1.0 - s
        x = d * k
        ramp = x == 0.0
        P = s**k
        H = np.where(ramp, k, -np.expm1(k * np.log(s)) / d)
        G = s * H
        SH = np.where(ramp, k * (k + 1.0) * 0.5, (k - G) / d)
    series = np.flatnonzero((0.0 < x) & (x < 1.0))
    if series.size:
        d, k = d.flat[series], np.broadcast_to(k, x.shape).flat[series]
        levels = np.arange(1.0, _SERIES_LEVELS + 1.0)[:, None]
        v = np.ones_like(d)
        for rho in (d * (k - levels) / (levels + 2.0))[::-1]:
            v = 1.0 - rho * v
        SH.flat[series] = k * (k + 1.0) * 0.5 * v
    entries = np.empty_like(x)
    entries[0] = entry
    for r in range(x.shape[0] - 1):
        entries[r + 1] = entries[r] * P[r] + H[r]
    exits = entries[-1] * P[-1] + H[-1]
    return entries * G + SH, np.concatenate((entries[1:], exits[None]))


def _window_screen(policy: SchedulingPolicy, subpolicy: SubcarrierPolicy,
                   table, horizon: int) -> np.ndarray:
    """The system age of every sample of a window table (see _window_runs)
    within _screen_margin of expected_age_trajectory_diversity(...)
    .system_avg of its plan, without building any plan or delivery matrix.

    A sample's plan blocks sub-carrier j with probability weights[i, j] in
    slots start[i]+1..stop[i] of each of its windows i and nowhere else.
    The caller has checked the profile and the table's feasibility.  The
    table's runs (_window_runs) give each slot the survival s = 1 - p_i *
    clear that the evaluator reads off the plan, bit for bit; every
    (sample, distinct p_i) row is priced by _run_kernel across all samples
    at once, and no age is written.

    Raises CertificateError unless every run's first and last ages lie in
    [1, t] within 1e-9 (a NaN fails too).  That covers the run: its ages
    move monotonically from its entry age towards its fixed point, and
    age(t) - t never rises when s <= 1.
    """
    counts = {}
    for p in policy.probs.tolist():
        counts[p] = counts.get(p, 0) + 1
    p, count = np.array(list(counts)), np.array(list(counts.values()))
    k, clear = _window_runs(subpolicy, table, horizon)
    s = 1.0 - p[:, None] * clear[:, None]  # (runs, distinct p_i, samples)
    k = k[:, None]
    sums, exits = _run_kernel(np.ones(s.shape[1:]), k, s)
    first = np.concatenate((np.ones((1,) + s.shape[1:]), exits[:-1])) * s
    first += 1.0
    done = np.cumsum(k, axis=0)  # carries up to each run's end
    bad = ~((first >= 1.0 - 1e-9) & (exits >= 1.0 - 1e-9)
            & (first - (done - k + 2.0) <= 1e-9)
            & (exits - (done + 1.0) <= 1e-9))
    if np.any(bad & (k > 0.0)):
        raise CertificateError("expected age outside [1, t]")
    totals = (sums.sum(axis=0) + 1.0) * count[:, None]
    return totals.sum(axis=0) / (horizon * policy.n)


def _screen_margin(values: np.ndarray, horizon: int,
                   users: int) -> np.ndarray:
    """An upper bound, twice over, on the distance between _window_screen's
    value of a sample and expected_age_trajectory_diversity(...).system_avg
    of its plan, for samples whose screened system ages are `values`.

    Both routes read the same float survival s in every slot, so both
    approximate one exact value S, the users' mean of the exact
    recursion's time-average ages.  An exact age is a sum of positive
    terms, age(t) = sum_j prod_{j <= i < t} s(i); a route that computes
    each term times at most m factors (1 + delta), |delta| <= u = 2**-53
    (an error of c*u counting as c factors), lies within m*u*S of S, to
    first order.
      - The evaluator's step age*s + 1.0 rounds twice, so a term gains at
        most 2 factors per step, 2(T - 1) in all; a row's mean adds T - 1
        additions and a division, the users' mean N - 1 additions and a
        division: m = 3T + N - 2.
      - The screen's run of k carries (_run_kernel) multiplies the terms
        before it by s**k, within 2u and exact at k <= 1, and rounds
        twice: at most 2k factors, no more than the recursion's k steps.
        A run's own terms enter through H, within 8u with the addition,
        and are summed through G, within 10u with the product and the
        addition, or through SH, within 18u: a per-run error that does
        not grow with T.  A row's first age and run sums, at most T of
        them not 0, add T - 1 additions, its user count a product, the
        distinct p_i N - 1 additions and the division by T*N one.  A term
        summed in a later run than its own crosses at most T - 2 carries
        on the way: m = 8 + 2(T - 2) + 10 + T - 1 + 1 + N - 1 + 1 = 3T + N
        + 14.  A term summed in its own run has 18 + T - 1 + 1 + N - 1 + 1
        = T + N + 18 factors, no more at T >= 2; at T = 1 there is no run.
    So the two values lie within (6T + 2N + 12)*u*S of each other to
    first order, and the margin 4*(3T + N + 6)*u * value is twice that;
    the higher-order terms fit in its other half while (3T + N + 14)*u <=
    1/10 (any T that fits in memory).
    """
    return 4.0 * (3 * horizon + users + 6) * 2.0**-53 * values
