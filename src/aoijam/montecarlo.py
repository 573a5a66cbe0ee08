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
    _check_count,
    _is_integer,
    check_profile,
)

# Cells simulated at once: estimate_average_age works in blocks of
# min(T, BLOCK_CELLS) slots by min(runs, max(1, BLOCK_CELLS // T)) runs and
# allocates its buffers once per call at that size, as one block.
BLOCK_CELLS = 2**16

_MASK64 = (1 << 64) - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB


def _finalise(z: np.ndarray, scratch: np.ndarray) -> None:
    """splitmix64's output rounds on the uint64 array z, in place; scratch
    is a uint64 buffer of z's shape that the shifts are written to."""
    for shift, mix in ((30, _MIX_1), (27, _MIX_2)):
        np.right_shift(z, np.uint64(shift), out=scratch)
        z ^= scratch
        z *= np.uint64(mix)
    np.right_shift(z, np.uint64(31), out=scratch)
    z ^= scratch


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
    _finalise(z, np.empty_like(z))
    return z


def _draw_words(master_seed: int, stream: int, first_run: int,
                first_slot: int, horizon: int, slot_words: np.ndarray,
                out: np.ndarray, scratch: np.ndarray) -> None:
    """Fill the (slots, runs) array `out` with raw stream words: row r,
    column j gets mix_seed(master_seed, (3k + stream)T + first_slot + r)
    for run k = first_run + j, the word whose top 53 bits make u(k, stream,
    first_slot + r + 1).  `slot_words[r]` must hold r·gamma mod 2**64: a
    counter's gamma multiple plus the seed offset splits into that row term
    and a column term, so the words cost one add and the finaliser's
    rounds.  Each word depends only on its own counter, so `out` may be any
    contiguous run of a block's rows: estimate_average_age draws stream 0
    on every row of a chunk and streams 1 and 2 only on the rows inside the
    plan's window, with first_slot the window's first slot in the chunk."""
    rows, cols = out.shape
    column = np.arange(first_run, first_run + cols, dtype=np.uint64)
    column *= np.uint64(3)
    column += np.uint64(stream)
    column *= np.uint64(horizon)
    column += np.uint64(first_slot)
    column *= np.uint64(_SPLITMIX_GAMMA)
    column += np.uint64((master_seed + _SPLITMIX_GAMMA) & _MASK64)
    np.add(slot_words[:rows, None], column, out=out)
    _finalise(out, scratch)


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


def _word_thresholds(cum: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The test u >= c on raw words, for every c in the float array `cum`,
    which is overwritten.

    With u = (w >> 11)·2**-53 and m = ceil(c·2**53) (exact: the scaling is
    by a power of two), u >= c holds exactly when w >= m·2**11, always when
    m <= 0 and never when m >= 2**53.  Returns (always, above): `always`
    counts the c <= 0 along axis 0, and for every other c the test is
    w > above, with above = m·2**11 - 1 mod 2**64; an always c, and a c
    that no word reaches, both get above = 2**64 - 1, which no word
    exceeds.  `above` takes over the memory of `cum`.
    """
    np.multiply(cum, 2.0**53, out=cum)
    np.ceil(cum, out=cum)
    np.clip(cum, 0.0, 2.0**53, out=cum)
    always = (cum == 0.0).sum(axis=0)
    # each m overwrites its float one row at a time (numpy copies an
    # overlapping source first), so only one row is ever held twice
    above = cum.view(np.uint64)
    for row in range(len(cum)):
        above[row] = cum[row]
    np.left_shift(above, np.uint64(11), out=above)
    np.subtract(above, np.uint64(1), out=above)
    return always, above


def _scalar_thresholds(cum: np.ndarray) -> tuple[int, np.ndarray]:
    """_word_thresholds of a 1-D cumulative distribution, less the entries
    that no word exceeds: an always entry is counted, a never entry costs
    no pass."""
    always, above = _word_thresholds(cum)
    return int(always), above[above != np.uint64(_MASK64)]


def _categories(words: np.ndarray, always, above, codes: np.ndarray,
                hit: np.ndarray) -> None:
    """Category of each word into `codes`: how many cumulative sums lie at
    or below its uniform, counted as `always` plus one pass per entry of
    `above` (see _word_thresholds) through the reused bool buffer `hit`.

    `above` is a 1-D threshold array, or a channels x slots x 1 stack of
    per-slot thresholds, each (slots, 1) slice broadcast across the block's
    runs with `always` a (slots, 1) column.  For a non-decreasing cum this
    equals searchsorted(cum, uniforms, side="right"), and at a few
    categories one comparison pass per category is several times faster.
    `codes` must hold the count; estimate_average_age passes int8 while
    max(N, channels) <= 127 and widens to int16, then int32 beyond.
    """
    codes[...] = always
    for threshold in above:
        np.greater(words, threshold, out=hit)
        codes += hit


def _set_none(codes: np.ndarray, hit: np.ndarray) -> None:
    """Set codes to -1 where hit, as codes | -hit: a masked copy costs a
    branch per cell, mispredicted on random masks.  `hit` is clobbered."""
    flag = hit.view(np.int8)
    np.negative(flag, out=flag)
    np.bitwise_or(codes, flag, out=codes)


def _running_max(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Running maximum down the rows of x by doubling: pass k sets each row
    to the max of itself and the row k above, for k = 1, 2, 4, ...,
    ping-ponging between x and y (both are overwritten).  Returns the one
    that holds the result."""
    k = 1
    while k < len(x):
        np.maximum(x[k:], x[:-k], out=y[k:])
        y[:k] = x[:k]
        x, y = y, x
        k *= 2
    return x


def _narrowest(types, top: int) -> type:
    """The first integer type in `types` that holds `top`."""
    return next(t for t in types if np.iinfo(t).max >= top)


def estimate_average_age(policy: SchedulingPolicy, subpolicy, plan: BlockingPlan,
                         config: SystemConfig, runs: int,
                         master_seed: int) -> SimResult:
    """Average the system age over `runs` independent runs.

    Pass subpolicy=None for the no-diversity model.  `master_seed` is an
    int or a numpy integer; the draws read it mod 2**64, and the result's
    seed is int(master_seed), unreduced (seeds 1 and 2**64 + 1 draw the
    same runs); a bool, float or str raises InsufficientRunsError.
    Run k draws u(k, s, t) =
    (mix_seed(master_seed, (3k + s)T + t - 1) >> 11)·2**-53 on stream 0 to
    schedule a user, on stream 1 to pick the sub-carrier and, only when
    some plan entry lies strictly between 0 and 1, on stream 2 to pick the
    blocked channel, so the adversary's draws never depend on the realized
    schedule.  Streams 1 and 2 are drawn only on the slots of the plan's
    window, the hull [a, b) of its nonzero columns (empty for an empty
    plan): outside it nothing is blocked, every word there would be
    discarded, and a counter's word does not depend on which others are
    drawn.  Blocks are min(T, BLOCK_CELLS) slots by min(runs,
    max(1, BLOCK_CELLS // T)) runs, each slot-major: one row per slot and
    one column per run, so every per-slot step is one vectorised row
    operation across the block's runs, and the window is a contiguous run
    of rows.  Every buffer is allocated once per call.  A run longer than
    BLOCK_CELLS slots is walked in slot chunks, each user carrying its last
    delivery slot from one chunk into the next.

    The uniforms are never formed: a block's raw words are drawn in place
    (see _draw_words) and compared with integer thresholds, which decide
    u >= c exactly (see _word_thresholds).  Categories (the scheduled user,
    the sub-carrier, the blocked channel, -1 for "delivered to nobody") are
    int8 codes while max(N, channels) <= 127, then int16 and int32.  Slot
    stamps are int16 while T < 2**15, then int32 while T < 2**31, then
    int64, held in a block-shaped buffer that is refilled only when the
    chunk or the group width changes.  Each user's last delivery slot is
    its code mask times the stamps, then a running maximum down the slots
    by doubling (see _running_max).

    A user's time-average age in a run is its exact integer age sum divided
    by T: with last(t) the latest delivery slot up to t (0 if none), the sum
    is T(T+1)/2 - sum(last(1..T-1)).  A chunk of S slots adds at most S·T,
    so its sum is taken in int32 while S·T < 2**31 and in int64 beyond; the
    running total is int64.  While T(T+1)/2 < 2**53 every partial sum is an
    exact float, so this equals the mean of the run's integer ages bit for
    bit.  Aggregation uses exact compensated sums, so the estimate is
    independent of run order.
    """
    _check_count("runs", runs, 2)  # a standard error needs two runs
    if not _is_integer(master_seed):
        raise InsufficientRunsError(
            f"master_seed must be an integer, got {master_seed!r}")
    master_seed = int(master_seed)
    check_profile(policy, subpolicy, plan, config)
    horizon, n = config.horizon_T, policy.n
    channels = plan.block_prob.shape[0]
    code_type = _narrowest((np.int8, np.int16, np.int32), max(n, channels))
    slot_type = _narrowest((np.int16, np.int32, np.int64), horizon)
    sched = _scalar_thresholds(np.cumsum(policy.probs))
    if subpolicy is not None:
        sub = _scalar_thresholds(np.cumsum(subpolicy.probs))
    # the plan's window: the hull of its nonzero columns, empty for no plan
    blocking = plan.block_prob.any(axis=0)
    support = np.flatnonzero(blocking)
    win_start, win_stop = ((int(support[0]), int(support[-1]) + 1)
                           if len(support) else (0, 0))
    randomized = not plan.is_deterministic
    if randomized:
        # one (T, 1) threshold column per channel, broadcast across the
        # runs; a word past the last channel's sum blocks nothing (-1)
        adv_always, adv_above = _word_thresholds(
            np.cumsum(plan.block_prob, axis=0)[:, :, None])
        adv_always[adv_always == channels] = -1
        adv_always = adv_always.astype(code_type)
    else:
        # a 0/1 column blocks the channel holding its 1, an empty one none
        blocked = np.where(blocking, plan.block_prob.argmax(axis=0),
                           -1).astype(code_type)[:, None]
    full_sum = horizon * (horizon + 1) // 2

    chunk = min(horizon, BLOCK_CELLS)
    group = min(runs, max(1, BLOCK_CELLS // horizon))
    sum_type = _narrowest((np.int32, np.int64), chunk * horizon)
    slot_words = np.arange(chunk, dtype=np.uint64) * np.uint64(_SPLITMIX_GAMMA)
    dtypes = {"words": np.uint64, "scratch": np.uint64, "hit": bool,
              "codes": code_type, "stamps": slot_type, "last": slot_type,
              "spare": slot_type}
    if subpolicy is not None:
        dtypes["channel"] = code_type
    if randomized:
        dtypes["blocked"] = code_type
    # every buffer is a view of one allocation, widest type first so each
    # view is aligned: freed as one block, it lifts glibc's mmap threshold
    # above its size, so later calls reuse its heap pages instead of
    # faulting fresh ones in, whatever the calls before them freed
    cells, widths = chunk * group, {
        name: np.dtype(dtype).itemsize for name, dtype in dtypes.items()}
    pool = np.empty(cells * sum(widths.values()), np.uint8)
    buffers, at = {}, 0
    for name in sorted(dtypes, key=widths.get, reverse=True):
        buffers[name] = pool[at:at + cells * widths[name]].view(dtypes[name])
        at += cells * widths[name]

    per_run_user = np.empty((runs, n))
    stamped = None  # the (first slot, runs) the stamp buffer holds
    for start in range(0, runs, group):
        cols = min(group, runs - start)
        carry = np.zeros((n, cols), dtype=slot_type)
        sums = np.zeros((n, cols), dtype=np.int64)
        for first in range(0, horizon, chunk):
            stop = min(first + chunk, horizon)
            rows = stop - first
            b = {name: buf[:rows * cols].reshape(rows, cols)
                 for name, buf in buffers.items()}
            w, h, codes = b["words"], b["hit"], b["codes"]

            def draw(stream, lo, hi):
                _draw_words(master_seed, stream, start, first + lo, horizon,
                            slot_words, w[lo:hi], b["scratch"][lo:hi])

            draw(0, 0, rows)
            _categories(w, *sched, codes, h)
            # the chunk's rows inside the window; outside it adv is -1, so
            # the codes there are final after stream 0
            lo = min(max(win_start - first, 0), rows)
            hi = max(min(win_stop - first, rows), lo)
            if lo < hi:
                win, slots = slice(lo, hi), slice(first + lo, first + hi)
                wr, hr = w[win], h[win]
                channel = codes[win]
                if subpolicy is not None:
                    draw(1, lo, hi)
                    channel = b["channel"][win]
                    _categories(wr, *sub, channel, hr)
                if randomized:
                    draw(2, lo, hi)
                    adv = b["blocked"][win]
                    _categories(wr, adv_always[slots], adv_above[:-1, slots],
                                adv, hr)
                    np.greater(wr, adv_above[-1, slots], out=hr)
                    _set_none(adv, hr)
                else:
                    adv = blocked[slots]
                # the user whose update got through, -1 where it was
                # blocked; a word above a sum that rounds below 1 (code N)
                # matches no user
                np.equal(channel, adv, out=hr)
                _set_none(codes[win], hr)
            if stamped != (first, cols):
                stamped = (first, cols)
                b["stamps"][...] = np.arange(first + 1, stop + 1,
                                             dtype=slot_type)[:, None]
            # slot T's stamp never enters the age sum
            live = rows - (stop == horizon)
            for i in range(n):
                last = b["last"]
                np.equal(codes, i, out=h)
                np.multiply(h, b["stamps"], out=last)
                np.maximum(last[0], carry[i], out=last[0])
                last = _running_max(last, b["spare"])
                sums[i] += last[:live].sum(axis=0, dtype=sum_type)
                carry[i] = last[-1]
        per_run_user[start:start + cols] = (full_sum - sums.T) / horizon

    per_user_mean = np.array(
        [math.fsum(per_run_user[:, i].tolist()) / runs for i in range(n)])
    per_user_mean.setflags(write=False)
    system_per_run = per_run_user.mean(axis=1)
    mean_system = math.fsum(system_per_run.tolist()) / runs
    centered = system_per_run - mean_system
    sample_var = math.fsum((centered * centered).tolist()) / (runs - 1)
    return SimResult(
        mean_system_age=mean_system,
        per_user_mean=per_user_mean,
        std_error=math.sqrt(sample_var / runs),
        runs=runs,
        seed=master_seed,
    )
