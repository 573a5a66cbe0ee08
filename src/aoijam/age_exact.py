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
filled this way.  A run that ends before its fixed point (the s = 1 ramp of
a surely blocked window, a tiny delivery probability) is iterated slot by
slot, so the worst case stays O(N*T), as do all public operations.
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


def _make_series(per_user: np.ndarray) -> AgeSeries:
    per_user = np.asarray(per_user, dtype=float)
    t_grid = np.arange(1, per_user.shape[1] + 1)
    if not (np.all(per_user >= 1.0 - 1e-9)
            and np.all(per_user <= t_grid + 1e-9)):
        raise CertificateError("expected age outside [1, t]")
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
    filled by one slice assignment.
    """
    n, horizon = delivery_prob.shape
    out = np.empty((n, horizon))
    out[:, 0] = 1.0
    if horizon == 1:
        return out
    for i in range(n):
        surv = 1.0 - delivery_prob[i, :-1]  # surv[t-1] carries slot t to t+1
        starts = [0, *(np.flatnonzero(surv[1:] != surv[:-1]) + 1).tolist()]
        row_out = out[i]
        age = 1.0
        done = 1  # row_out[:done] is written; `ages` holds the slots after it
        ages = []
        for s, start, stop in zip(surv[starts].tolist(), starts,
                                  starts[1:] + [horizon - 1]):
            if stop - start == 1:  # most runs of a dense plan
                age = age * s + 1.0
                ages.append(age)
                continue
            for _ in range(stop - start):
                nxt = age * s + 1.0
                if nxt == age:  # every later slot of the run holds `age`
                    row_out[done:done + len(ages)] = ages
                    row_out[done + len(ages):stop + 1] = age
                    done = stop + 1
                    ages = []
                    break
                age = nxt
                ages.append(age)
        row_out[done:] = ages
    return out


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
    intercepted = subpolicy.probs @ plan.block_prob  # per-slot hit probability
    probs, user_row = np.unique(policy.probs, return_inverse=True)
    delivery = probs[:, None] * (1.0 - intercepted)[None, :]
    return _make_series(_recurse_ages(delivery)[user_row])
