"""Seeded stochastic simulation of the slotted updating system.

Each run realizes the sampled age process v_i(t): the base station schedules
one user per slot (and one sub-carrier under diversity), the adversary blocks
per its plan, and a user's age is age(t) = t - last(t-1), age(1) = 1, with
last(t) the latest slot up to t that delivered its update (0 if none): the
slot convention of the exact recursion.  Every uniform hashes (master_seed,
run, stream, slot), so any execution order or degree of parallelism yields
the same result.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientRunsError
from .model import (
    BlockingPlan,
    SchedulingPolicy,
    SystemConfig,
    check_profile,
)

# Slots simulated at once: estimate_average_age draws max(1, BLOCK_CELLS // T)
# runs per block, so a block's buffers stay near one long run's size.
BLOCK_CELLS = 2**14

_MASK64 = (1 << 64) - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB


def mix_seed(master_seed: int, position: int | np.ndarray) -> int | np.ndarray:
    """splitmix64 output at `position` steps past master_seed, for an int
    position or elementwise over a numpy uint64 array, whose arithmetic
    wraps mod 2**64 where the int path masks; the array path works in place
    on one fresh array and one scratch buffer.  Stateless counter scheme:
    callers may evaluate positions in any order."""
    offset = (master_seed + _SPLITMIX_GAMMA) & _MASK64
    if not isinstance(position, np.ndarray):
        z = (position * _SPLITMIX_GAMMA + offset) & _MASK64
        for shift, mix in ((30, _MIX_1), (27, _MIX_2)):
            z = ((z ^ (z >> shift)) * mix) & _MASK64
        return z ^ (z >> 31)
    z = position * np.uint64(_SPLITMIX_GAMMA)
    z += np.uint64(offset)
    shifted = np.empty_like(z)
    for shift, mix in ((30, _MIX_1), (27, _MIX_2)):
        np.right_shift(z, np.uint64(shift), out=shifted)
        z ^= shifted
        z *= np.uint64(mix)
    np.right_shift(z, np.uint64(31), out=shifted)
    z ^= shifted
    return z


def _uniforms(master_seed: int, start: int, stop: int, stream: int,
              horizon: int) -> np.ndarray:
    """(horizon, stop - start) uniforms in [0, 1), one column per run: row
    t - 1, column k - start holds u(k, s, t), the top 53 bits of
    mix_seed(master_seed, (3k + s)T + t - 1) scaled by 2**-53."""
    runs = (np.arange(start, stop, dtype=np.uint64) * 3 + stream) * horizon
    counters = np.arange(horizon, dtype=np.uint64)[:, None] + runs
    bits = mix_seed(master_seed, counters)
    bits >>= np.uint64(11)
    return bits * 2.0**-53


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
#  Estimation
# ===========================================================================


def _categories(cum: np.ndarray, uniforms: np.ndarray,
                code_type: type) -> np.ndarray:
    """Category of each uniform: how many cumulative sums lie at or below it.

    `cum` is a cumulative distribution (one threshold per category) or a
    channels x T x 1 stack of per-slot sums, each (T, 1) slice broadcast
    across a slot-major block's columns; a uniform above the last threshold
    gets the index one past the last category.  For a non-decreasing cum
    this equals searchsorted(cum, uniforms, side="right"), and at a few
    categories one comparison pass per category, through one reused bool
    buffer into `code_type` counts, is several times faster.  `code_type`
    must hold len(cum); estimate_average_age passes int8 while
    max(N, channels) <= 127 and widens to int16, then int32 beyond.
    """
    idx = np.zeros(uniforms.shape, dtype=code_type)
    hit = np.empty(uniforms.shape, dtype=bool)
    for threshold in cum:
        np.greater_equal(uniforms, threshold, out=hit)
        idx += hit
    return idx


def _narrowest(types, top: int) -> type:
    """The first integer type in `types` that holds `top`."""
    return next(t for t in types if np.iinfo(t).max >= top)


def estimate_average_age(policy: SchedulingPolicy, subpolicy, plan: BlockingPlan,
                         config: SystemConfig, runs: int,
                         master_seed: int) -> SimResult:
    """Average the system age over `runs` independent runs.

    Pass subpolicy=None for the no-diversity model.  Run k draws u(k, s, t)
    (see _uniforms) on stream 0 to schedule a user, on stream 1 to pick the
    sub-carrier and, only when some plan entry lies strictly between 0 and
    1, on stream 2 to pick the blocked channel, so the adversary's draws
    never depend on the realized schedule.  Runs are evaluated in blocks of
    max(1, BLOCK_CELLS // T), each block slot-major: one row per slot and
    one column per run, so every per-slot step is one vectorised row
    operation across the block's runs.

    Categories (the scheduled user, the sub-carrier, the blocked channel,
    -1 for "delivered to nobody") are int8 codes while max(N, channels)
    <= 127, then int16 and int32.  Slot stamps are int16 while T < 2**15,
    then int32 while T < 2**31, then int64.  Each user's last delivery
    slot is its code mask times the slot stamps, then a running maximum
    down the slots.

    A user's time-average age in a run is its exact integer age sum divided
    by T: with last(t) the latest delivery slot up to t (0 if none), the sum
    is T(T+1)/2 - sum(last(1..T-1)), taken in int64.  While T(T+1)/2 < 2**53
    every partial sum is an exact float, so this equals the mean of the
    run's integer ages bit for bit.  Aggregation uses exact compensated
    sums, so the estimate is independent of run order.
    """
    if runs < 2:
        raise InsufficientRunsError(
            f"runs = {runs}; need >= 2 for a standard error")
    check_profile(policy, subpolicy, plan, config)
    horizon = config.horizon_T
    sched_cum = np.cumsum(policy.probs)
    sub_cum = None if subpolicy is None else np.cumsum(subpolicy.probs)
    # one (T, 1) threshold column per channel, broadcast across the runs
    adv_cum = np.cumsum(plan.block_prob, axis=0)[:, :, None]
    channels = adv_cum.shape[0]
    code_type = _narrowest((np.int8, np.int16, np.int32),
                           max(policy.n, channels))
    randomized = not plan.is_deterministic
    if not randomized:
        # a 0/1 column's sums step from 0 to 1 at its blocked channel, so
        # any uniform in (0, 1) finds it; an empty column finds `channels`
        idx = _categories(adv_cum, np.full((horizon, 1), 0.5), code_type)
        blocked = np.where(idx < channels, idx, -1)
    slot_type = _narrowest((np.int16, np.int32, np.int64), horizon)
    slots = np.arange(1, horizon + 1, dtype=slot_type)[:, None]
    full_sum = horizon * (horizon + 1) // 2
    block = max(1, BLOCK_CELLS // horizon)

    per_run_user = np.empty((runs, policy.n))
    for start in range(0, runs, block):
        stop = min(start + block, runs)
        scheduled = _categories(
            sched_cum, _uniforms(master_seed, start, stop, 0, horizon),
            code_type)
        used_channel = (scheduled if sub_cum is None else _categories(
            sub_cum, _uniforms(master_seed, start, stop, 1, horizon),
            code_type))
        if randomized:
            # residual mass above the column sum means "block nothing"
            idx = _categories(
                adv_cum, _uniforms(master_seed, start, stop, 2, horizon),
                code_type)
            blocked = np.where(idx < channels, idx, -1)
        # the user whose update got through, -1 where it was blocked; a
        # uniform above a sum that rounds below 1 (code N) matches no user
        codes = np.where(used_channel != blocked, scheduled, -1)
        delivered = np.empty(codes.shape, dtype=bool)
        last = np.empty(codes.shape, dtype=slot_type)
        for i in range(policy.n):
            np.equal(codes, i, out=delivered)
            np.multiply(delivered, slots, out=last)
            np.maximum.accumulate(last, axis=0, out=last)
            age_sum = full_sum - last[:-1].sum(axis=0, dtype=np.int64)
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
