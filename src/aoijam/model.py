"""Domain types for the jammed status-updating system.

A base station serves N users in slotted time, scheduling one user per slot
from a stationary distribution p (and, in the diversity model, picking one of
N_sub sub-carriers from a distribution q).  A budget-limited adversary may
block at most one channel per slot and floor(alpha*T) slots in total.

Blocking convention: block_prob[j, t] = 1 means channel j is blocked in slot
t+1 (slots are 1-based in formulas, 0-based in arrays).  Blocked entries count
against the budget.  Blocking slot T moves no age inside the horizon, so the
structured plans centre their window on the T - 1 live slots,
middle_window(T - 1, B); with B = T the window is all T slots.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    IndexOutOfRangeError,
    InvalidAlphaError,
    NoDiversityError,
    NonPositiveEntryError,
    NotNormalizedError,
)

# Tolerances for a raw vector's sum and for a plan entry outside [0, 1].
SUM_ACCEPT_TOL = 1e-9
ENTRY_TOL = 1e-12


def _first_non_finite(a: np.ndarray) -> tuple:
    """Index of the first NaN or infinite entry of `a` (which must have one)."""
    return np.unravel_index(int(np.argmin(np.isfinite(a))), a.shape)


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SystemConfig:
    """Horizon, population sizes, and the adversary's jamming fraction.

    budget_B = floor(alpha * horizon_T) is the number of slots the adversary
    may block in total; num_subcarriers == 1 means the no-diversity model.
    """

    horizon_T: int
    num_users: int
    alpha: float
    num_subcarriers: int = 1

    def __post_init__(self):
        if self.horizon_T < 1:
            raise DimensionMismatchError(
                f"horizon_T must be >= 1, got {self.horizon_T}")
        if self.num_users < 1:
            raise DimensionMismatchError(
                f"num_users must be >= 1, got {self.num_users}")
        if self.num_subcarriers < 1:
            raise DimensionMismatchError(
                f"num_subcarriers must be >= 1, got {self.num_subcarriers}")
        if not 0.0 < self.alpha < 1.0:
            raise InvalidAlphaError(
                f"alpha must lie in (0, 1), got {self.alpha}")

    @property
    def budget_B(self) -> int:
        """floor(alpha * T), read through float error: a product within a
        relative 1e-9 of an integer counts as that integer, so alpha=0.29
        at T=100 gives 29 although 0.29 * 100 evaluates to 28.999999999999996.
        """
        product = self.alpha * self.horizon_T
        nearest = round(product)
        if math.isclose(product, nearest, rel_tol=1e-9):
            return nearest
        return math.floor(product)

    @property
    def has_diversity(self) -> bool:
        return self.num_subcarriers > 1

    @property
    def num_channels(self) -> int:
        """Rows of a blocking plan: users without diversity, else sub-carriers."""
        return self.num_subcarriers if self.has_diversity else self.num_users


@dataclass(frozen=True)
class _ProbabilityVector:
    """A 1-D probability vector; the two policy types below differ only in
    the entry floor (POSITIVE: > 0 rather than >= 0) and the entry symbol.

    The constructor normalizes a vector whose sum is within 1e-9 of 1 and
    rejects anything farther off; the stored vector sums to 1 within 1e-12.
    Any input that is not 1-D raises DimensionMismatchError.  A subclass
    sets SYMBOL (the entry's name in messages) and POSITIVE.
    """

    probs: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.probs, dtype=float)
        if x.ndim != 1:
            raise DimensionMismatchError(
                f"probability vector must be 1-D, got shape {x.shape}")
        if x.size == 0:
            raise NotNormalizedError("empty probability vector")
        floor = "> 0" if self.POSITIVE else ">= 0"
        below = x <= 0.0 if self.POSITIVE else x < 0.0
        if below.any():
            bad = int(np.argmax(below))  # the first entry below the floor
            why = " (unscheduled users age forever)" if self.POSITIVE else ""
            raise NonPositiveEntryError(
                f"{self.SYMBOL}[{bad}] = {x[bad]} must be {floor}{why}")
        s = math.fsum(x)
        if not math.isfinite(s):  # a NaN or +inf entry; -inf failed above
            bad, = _first_non_finite(x)
            raise NonPositiveEntryError(
                f"{self.SYMBOL}[{bad}] = {x[bad]} must be a finite number "
                f"{floor}")
        if abs(s - 1.0) > SUM_ACCEPT_TOL:
            raise NotNormalizedError(f"probabilities sum to {s}, expected 1")
        object.__setattr__(self, "probs", _freeze(x / s))

    @property
    def n(self) -> int:
        return self.probs.size

    def __eq__(self, other):
        return type(other) is type(self) and np.array_equal(
            self.probs, other.probs)


class SchedulingPolicy(_ProbabilityVector):
    """Stationary distribution over the N users; every entry strictly positive."""

    SYMBOL = "p"
    POSITIVE = True


class SubcarrierPolicy(_ProbabilityVector):
    """Stationary distribution over the N_sub sub-carriers; zeros allowed."""

    SYMBOL = "q"
    POSITIVE = False


@dataclass(frozen=True)
class BlockingPlan:
    """The adversary's full schedule of (channel, slot) blocking probabilities.

    block_prob is channels x T; entry (j, t) is the probability channel j is
    blocked in slot t+1.  The matrix is the whole plan: it is deterministic
    when every entry is exactly 0 or 1, randomized otherwise.  At most one
    channel can be blocked per slot, so each column sums to <= 1.  The
    total-budget constraint depends on the config and is checked by
    blocking_feasible().  Entries within 1e-12 outside [0, 1] are accepted
    and stored clipped to [0, 1]; the caller's array is left as it is.
    """

    block_prob: np.ndarray

    def __post_init__(self):
        m = np.array(self.block_prob, dtype=float)  # own copy, clipped below
        if m.ndim != 2:
            raise DimensionMismatchError(
                f"block_prob must be 2-D (channels x slots), got shape {m.shape}")
        if not np.isfinite(m).all():
            bad = _first_non_finite(m)
            raise NonPositiveEntryError(
                f"block_prob[{bad[0]}, {bad[1]}] = {m[bad]} is not a finite "
                "probability")
        if np.any(m < -ENTRY_TOL) or np.any(m > 1.0 + ENTRY_TOL):
            raise NonPositiveEntryError(
                "block probabilities must lie in [0, 1]")
        if m.shape[0] > 0 and np.any(m.sum(axis=0) > 1.0 + SUM_ACCEPT_TOL):
            t = int(np.argmax(m.sum(axis=0)))
            raise NotNormalizedError(
                f"slot {t + 1}: per-slot blocking mass exceeds 1 "
                "(the adversary blocks at most one channel per slot)")
        np.clip(m, 0.0, 1.0, out=m)
        m.setflags(write=False)
        object.__setattr__(self, "block_prob", m)

    @property
    def channels(self) -> int:
        return self.block_prob.shape[0]

    @property
    def horizon(self) -> int:
        return self.block_prob.shape[1]

    @property
    def is_deterministic(self) -> bool:
        """True iff every entry is exactly 0 or 1 (no draw is needed)."""
        return bool(np.isin(self.block_prob, (0.0, 1.0)).all())

    def total_blocked(self) -> float:
        """Expected number of blocked slots (counts against the budget)."""
        return float(self.block_prob.sum())

    def __eq__(self, other):
        return isinstance(other, BlockingPlan) and np.array_equal(
            self.block_prob, other.block_prob)


# ---------------------------------------------------------------------------
#  Constructors and checks
# ---------------------------------------------------------------------------

def validate_policy(raw) -> SchedulingPolicy:
    """Turn a raw vector into a SchedulingPolicy, normalizing near-1 sums.

    Raises DimensionMismatchError unless the input is 1-D,
    NonPositiveEntryError for any entry <= 0 and NotNormalizedError when the
    sum deviates from 1 by more than 1e-9.
    """
    return SchedulingPolicy(raw)


def validate_subcarrier_policy(raw) -> SubcarrierPolicy:
    """Counterpart of validate_policy for sub-carrier distributions."""
    return SubcarrierPolicy(raw)


def uniform_policy(n: int) -> SchedulingPolicy:
    return SchedulingPolicy(np.full(n, 1.0 / n))


def uniform_subcarrier_policy(n: int) -> SubcarrierPolicy:
    return SubcarrierPolicy(np.full(n, 1.0 / n))


def middle_window(horizon_T: int, budget_B: int) -> tuple[int, int]:
    """Half-open 0-based slot range [start, stop) of the centered block window.

    start = ceil((T - B) / 2), so 1-based blocked slots are start+1 .. start+B;
    when T - B is even this is exactly the (T - B)/2 offset of the centered
    window, and the window is empty when B = 0.
    """
    start = math.ceil((horizon_T - budget_B) / 2)
    return start, start + budget_B


def make_middle_block(config: SystemConfig, target: int) -> BlockingPlan:
    """Deterministic plan blocking one channel for the middle B live slots.

    With B = 0 the plan is empty (all zeros), still a valid plan.
    """
    channels = config.num_channels
    if not 0 <= target < channels:
        raise IndexOutOfRangeError(
            f"target {target} outside 0..{channels - 1}")
    m = np.zeros((channels, config.horizon_T))
    start, stop = middle_window(config.horizon_T - 1, config.budget_B)
    m[target, start:stop] = 1.0
    return BlockingPlan(m)


def make_uniform_subcarrier_block(config: SystemConfig) -> BlockingPlan:
    """Randomized plan blocking a uniformly drawn sub-carrier each window slot.

    Every sub-carrier row carries probability 1/N_sub inside the live-slot
    middle window of length B and 0 elsewhere, so exactly one sub-carrier is
    blocked per window slot in expectation and realization.
    """
    if not config.has_diversity:
        raise NoDiversityError("uniform sub-carrier blocking needs N_sub >= 2")
    m = np.zeros((config.num_subcarriers, config.horizon_T))
    start, stop = middle_window(config.horizon_T - 1, config.budget_B)
    m[:, start:stop] = 1.0 / config.num_subcarriers
    return BlockingPlan(m)


def blocking_feasible(plan: BlockingPlan, config: SystemConfig) -> bool:
    """True iff the plan fits the config's budget; DimensionMismatchError if
    it is not channels x T.  BlockingPlan enforces the per-slot limit."""
    if plan.channels != config.num_channels or plan.horizon != config.horizon_T:
        raise DimensionMismatchError(
            f"plan is {plan.channels}x{plan.horizon}, config expects "
            f"{config.num_channels}x{config.horizon_T}")
    return plan.total_blocked() <= config.budget_B + SUM_ACCEPT_TOL


def check_profile(policy: SchedulingPolicy,
                  subpolicy: SubcarrierPolicy | None,
                  plan: BlockingPlan | None, config: SystemConfig) -> None:
    """Raise unless (policy, subpolicy, plan) is a strategy profile of config.

    subpolicy is None exactly in the no-diversity model; plan=None checks
    the sizes and the model only (for a caller that has no plan yet).  Sizes
    fail first (DimensionMismatchError, NoDiversityError), then the plan's
    shape, then its budget (InvalidAlphaError: the plan spends more than its
    fraction alpha of the horizon).
    """
    if policy.n != config.num_users:
        raise DimensionMismatchError(
            f"policy has {policy.n} users, config expects {config.num_users}")
    if subpolicy is None:
        if config.has_diversity:
            raise DimensionMismatchError(
                f"config has {config.num_subcarriers} sub-carriers but no "
                "sub-carrier policy was given")
    elif not config.has_diversity:
        raise NoDiversityError(
            "a sub-carrier policy needs the diversity model (N_sub >= 2)")
    elif subpolicy.n != config.num_subcarriers:
        raise DimensionMismatchError(
            f"sub-carrier policy has {subpolicy.n} entries, config expects "
            f"{config.num_subcarriers}")
    if plan is not None and not blocking_feasible(plan, config):
        raise InvalidAlphaError("blocking plan exceeds the adversary's budget")


def empty_plan(config: SystemConfig) -> BlockingPlan:
    """All-zeros plan (the adversary idles)."""
    return BlockingPlan(np.zeros((config.num_channels, config.horizon_T)))
