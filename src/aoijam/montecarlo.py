"""Seeded stochastic simulation of the slotted updating system.

Each run realizes the sampled age process v_i(t): the base station schedules
one user per slot (and one sub-carrier under diversity), the adversary blocks
per its plan, and a user's age resets to 1 on delivery or grows by 1
otherwise.  Runs are reproducible: run k of a batch draws from two
generator streams (base station and adversary) seeded by a splitmix64 hash of
(master_seed, k), so any execution order or degree of parallelism yields the
same result.

estimate_average_age evaluates runs in blocks of max(1, BLOCK_CELLS // T).
Each run still fills its own row of the block from its own streams, so
blocking leaves the seed-to-output mapping unchanged; the category lookups,
the blocked channels and the delivery mask are then computed for the whole
block at once.  Per-run averages come from exact integer age sums, which
match the mean of simulate_run's ages bit for bit while T(T+1)/2 < 2**53.
simulate_run and the estimator share one sampling path (_delivery_sampler).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InsufficientRunsError
from .model import (
    BlockingPlan,
    SchedulingPolicy,
    SubcarrierPolicy,
    SystemConfig,
    blocking_feasible,
)

# Slots simulated at once: estimate_average_age draws max(1, BLOCK_CELLS // T)
# runs per block, so a block's buffers stay near one long run's size.
BLOCK_CELLS = 2**14

_MASK64 = (1 << 64) - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB


def mix_seed(master_seed: int, position: int) -> int:
    """splitmix64 output at `position` steps past master_seed.

    Stateless counter scheme: callers may evaluate positions in any order.
    """
    z = (master_seed + (position + 1) * _SPLITMIX_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX_1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_2) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class SimResult:
    """Monte Carlo estimate of the system-average age.

    std_error is the sample standard deviation of per-run system averages
    divided by sqrt(runs); per_user_mean holds each user's average over runs
    of its time-average age.
    """

    mean_system_age: float
    per_user_mean: np.ndarray
    std_error: float
    runs: int
    seed: int


# ===========================================================================
#  Sampling
# ===========================================================================


def _check_inputs(policy, subpolicy, plan, config):
    if subpolicy is None:
        if plan.channels != policy.n:
            raise DimensionMismatchError(
                f"plan has {plan.channels} rows, policy has {policy.n} users")
    elif plan.channels != subpolicy.n:
        raise DimensionMismatchError(
            f"plan has {plan.channels} rows, {subpolicy.n} sub-carriers given")
    if not blocking_feasible(plan, config):
        raise ValueError("blocking plan exceeds the adversary's budget")


def _categories(cum: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Category of each uniform: how many cumulative sums lie at or below it.

    `cum` is a cumulative distribution (one threshold per category) or a
    channels x T matrix of per-slot ones; a uniform above the last threshold
    gets the index one past the last category.  For a non-decreasing cum this
    equals searchsorted(cum, uniforms, side="right"), and at a few categories
    one comparison pass per category is several times faster.
    """
    idx = np.zeros(uniforms.shape, dtype=np.intp)
    for threshold in cum:
        idx += uniforms >= threshold
    return idx


def _delivery_sampler(policy: SchedulingPolicy,
                      subpolicy: SubcarrierPolicy | None, plan: BlockingPlan,
                      horizon: int):
    """Return draw(seeds), the one sampling path of this module.

    draw(seeds) realizes one run per seed and returns, per run and slot, the
    user whose update got through: shape (len(seeds), horizon), -1 where
    the transmission was blocked.  The code N (a uniform at or above a
    cumulative sum that rounds below 1) matches no user.  Run k fills row k of each uniform buffer from its own
    streams: the base station's default_rng(mix_seed(seed, 0)) draws the
    schedule uniforms and then the sub-carrier uniforms; the adversary's
    default_rng(mix_seed(seed, 1)) is created only for a randomized plan
    with nonzero mass.  Everything after the draws is vectorised over the
    block, and a deterministic plan's blocked channels are found once here.
    """
    sched_cum = np.cumsum(policy.probs)
    sub_cum = None if subpolicy is None else np.cumsum(subpolicy.probs)
    m = plan.block_prob
    blocked = adv_cum = None
    if plan.total_blocked() != 0.0:
        if plan.mode == "deterministic":
            hit = m.argmax(axis=0)
            blocked = np.where(m[hit, np.arange(horizon)] == 1.0, hit, -1)
        else:
            adv_cum = np.cumsum(m, axis=0)

    def draw(seeds) -> np.ndarray:
        shape = (len(seeds), horizon)
        sched_u = np.empty(shape)
        sub_u = None if sub_cum is None else np.empty(shape)
        adv_u = None if adv_cum is None else np.empty(shape)
        for k, seed in enumerate(seeds):
            bs_rng = np.random.default_rng(mix_seed(seed, 0))
            bs_rng.random(out=sched_u[k])
            if sub_u is not None:
                bs_rng.random(out=sub_u[k])
            if adv_u is not None:
                np.random.default_rng(mix_seed(seed, 1)).random(out=adv_u[k])

        scheduled = _categories(sched_cum, sched_u)
        used_channel = (scheduled if sub_u is None
                        else _categories(sub_cum, sub_u))
        if adv_u is not None:
            # residual mass above the column sum means "block nothing"
            idx = _categories(adv_cum, adv_u)
            blocked_now = np.where(idx < m.shape[0], idx, -1)
        elif blocked is not None:
            blocked_now = blocked
        else:
            return scheduled
        return np.where(used_channel != blocked_now, scheduled, -1)

    return draw


def _slots(horizon: int) -> np.ndarray:
    """1-based slot numbers; int32 keeps the per-user passes cheap."""
    dtype = np.int32 if horizon < 2**31 else np.int64
    return np.arange(1, horizon + 1, dtype=dtype)


def _last_delivery(codes: np.ndarray, user: int, slots: np.ndarray) -> np.ndarray:
    """Per slot, the latest slot up to it that delivered `user`'s update;
    0 before the first delivery.  Works along the last axis."""
    return np.maximum.accumulate(np.where(codes == user, slots, 0), axis=-1)


def simulate_run(policy: SchedulingPolicy, subpolicy, plan: BlockingPlan,
                 config: SystemConfig, seed: int) -> np.ndarray:
    """One realization of the sampled ages, shape (N, T) of integers.

    Pass subpolicy=None for the no-diversity model.  Base-station and
    adversary randomness come from independent streams derived from `seed`,
    so the adversary's draws never depend on the realized schedule.
    """
    _check_inputs(policy, subpolicy, plan, config)
    horizon = config.horizon_T
    codes = _delivery_sampler(policy, subpolicy, plan, horizon)([seed])[0]
    slots = _slots(horizon)
    ages = np.empty((policy.n, horizon), dtype=np.int64)
    for i in range(policy.n):
        last = _last_delivery(codes, i, slots)
        ages[i] = np.where(last > 0, slots - last + 1, slots)
    return ages


# ===========================================================================
#  Batch estimation
# ===========================================================================


def estimate_average_age(policy: SchedulingPolicy, subpolicy, plan: BlockingPlan,
                         config: SystemConfig, runs: int,
                         master_seed: int) -> SimResult:
    """Average the system age over `runs` independent runs.

    Run k is seeded with mix_seed(master_seed, k) and realizes the same ages
    as simulate_run with that seed.  Runs are evaluated in blocks of
    max(1, BLOCK_CELLS // T).  A user's time-average age in a run is its
    exact integer age sum divided by T: with last(t) the latest delivery
    slot up to t (0 if none), the sum is T(T+1)/2 - sum(last) + #(last > 0).
    While T(T+1)/2 < 2**53 every partial sum is an exact float, so this
    equals the mean of simulate_run's ages bit for bit.  Aggregation uses
    exact compensated sums, so the estimate is independent of run order.
    """
    if runs < 2:
        raise InsufficientRunsError(
            f"runs = {runs}; need >= 2 for a standard error")
    _check_inputs(policy, subpolicy, plan, config)
    horizon = config.horizon_T
    draw = _delivery_sampler(policy, subpolicy, plan, horizon)
    slots = _slots(horizon)
    full_sum = horizon * (horizon + 1) // 2
    block = max(1, BLOCK_CELLS // horizon)

    per_run_user = np.empty((runs, policy.n))
    for start in range(0, runs, block):
        stop = min(start + block, runs)
        codes = draw([mix_seed(master_seed, k) for k in range(start, stop)])
        for i in range(policy.n):
            last = _last_delivery(codes, i, slots)
            age_sum = (full_sum - last.sum(axis=1, dtype=np.int64)
                       + np.count_nonzero(last, axis=1))
            per_run_user[start:stop, i] = age_sum / horizon

    per_user_mean = np.array(
        [math.fsum(per_run_user[:, i]) / runs for i in range(policy.n)])
    per_user_mean.setflags(write=False)
    system_per_run = per_run_user.mean(axis=1)
    mean_system = math.fsum(system_per_run) / runs
    centered = system_per_run - mean_system
    sample_var = math.fsum(centered * centered) / (runs - 1)
    return SimResult(
        mean_system_age=mean_system,
        per_user_mean=per_user_mean,
        std_error=math.sqrt(sample_var / runs),
        runs=runs,
        seed=master_seed,
    )
