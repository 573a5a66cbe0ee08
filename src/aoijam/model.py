"""Domain types for the jammed status-updating system.

A base station serves N users in slotted time, scheduling one user per slot
from a stationary distribution p (and, in the diversity model, picking one of
N_sub sub-carriers from a distribution q).  A budget-limited adversary may
block at most one channel per slot and floor(alpha*T) slots in total.

Blocking convention: block_prob[j, t] = 1 means channel j is blocked in slot
t+1 (slots are 1-based in formulas, 0-based in arrays).  Blocked entries count
against the budget.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    NoDiversityError,
    NonPositiveEntryError,
    NotNormalizedError,
    TargetOutOfRangeError,
)

# Loose tolerance for accepting raw vectors, tight one for stored invariants.
SUM_ACCEPT_TOL = 1e-9
SUM_STORED_TOL = 1e-12
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
            raise ValueError(f"horizon_T must be >= 1, got {self.horizon_T}")
        if self.num_users < 1:
            raise ValueError(f"num_users must be >= 1, got {self.num_users}")
        if self.num_subcarriers < 1:
            raise ValueError(
                f"num_subcarriers must be >= 1, got {self.num_subcarriers}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")

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
class SchedulingPolicy:
    """Stationary distribution over the N users; every entry strictly positive.

    The constructor normalizes a vector whose sum is within 1e-9 of 1 and
    rejects anything farther off; the stored vector sums to 1 within 1e-12.
    """

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float).ravel()
        if p.size == 0:
            raise NotNormalizedError("empty probability vector")
        if np.any(p <= 0.0):
            bad = int(np.argmin(p))
            raise NonPositiveEntryError(
                f"p[{bad}] = {p[bad]} must be > 0 (unscheduled users age forever)")
        s = math.fsum(p)
        if not math.isfinite(s):  # a NaN or +inf entry; -inf failed above
            bad, = _first_non_finite(p)
            raise NonPositiveEntryError(
                f"p[{bad}] = {p[bad]} must be a finite number > 0")
        if abs(s - 1.0) > SUM_ACCEPT_TOL:
            raise NotNormalizedError(f"probabilities sum to {s}, expected 1")
        object.__setattr__(self, "probs", _freeze(p / s))

    @property
    def n(self) -> int:
        return self.probs.size

    def __eq__(self, other):
        return isinstance(other, SchedulingPolicy) and np.array_equal(
            self.probs, other.probs)


@dataclass(frozen=True)
class SubcarrierPolicy:
    """Stationary distribution over the N_sub sub-carriers; zeros allowed."""

    probs: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.probs, dtype=float).ravel()
        if q.size == 0:
            raise NotNormalizedError("empty probability vector")
        if np.any(q < 0.0):
            bad = int(np.argmin(q))
            raise NonPositiveEntryError(f"q[{bad}] = {q[bad]} must be >= 0")
        s = math.fsum(q)
        if not math.isfinite(s):  # a NaN or +inf entry; -inf failed above
            bad, = _first_non_finite(q)
            raise NonPositiveEntryError(
                f"q[{bad}] = {q[bad]} must be a finite number >= 0")
        if abs(s - 1.0) > SUM_ACCEPT_TOL:
            raise NotNormalizedError(f"probabilities sum to {s}, expected 1")
        object.__setattr__(self, "probs", _freeze(q / s))

    @property
    def n(self) -> int:
        return self.probs.size

    def __eq__(self, other):
        return isinstance(other, SubcarrierPolicy) and np.array_equal(
            self.probs, other.probs)


@dataclass(frozen=True)
class BlockingPlan:
    """The adversary's full schedule of (channel, slot) blocking probabilities.

    block_prob is channels x T; entry (j, t) is the probability channel j is
    blocked in slot t+1.  "deterministic" restricts entries to {0, 1}.  At most
    one channel can be blocked per slot, so each column sums to <= 1.  The
    total-budget constraint depends on the config and is checked by
    blocking_feasible().
    """

    mode: str  # "deterministic" | "randomized"
    block_prob: np.ndarray

    def __post_init__(self):
        if self.mode not in ("deterministic", "randomized"):
            raise ValueError(f"unknown plan mode {self.mode!r}")
        m = np.asarray(self.block_prob, dtype=float)
        if m.ndim != 2:
            raise DimensionMismatchError(
                f"block_prob must be 2-D (channels x slots), got shape {m.shape}")
        if not np.isfinite(m).all():
            bad = _first_non_finite(m)
            raise ValueError(
                f"block_prob[{bad[0]}, {bad[1]}] = {m[bad]} is not a finite "
                "probability")
        if np.any(m < -ENTRY_TOL) or np.any(m > 1.0 + ENTRY_TOL):
            raise ValueError("block probabilities must lie in [0, 1]")
        if self.mode == "deterministic" and not np.all((m == 0.0) | (m == 1.0)):
            raise ValueError("deterministic plans admit only {0, 1} entries")
        if m.shape[0] > 0 and np.any(m.sum(axis=0) > 1.0 + SUM_ACCEPT_TOL):
            t = int(np.argmax(m.sum(axis=0)))
            raise ValueError(
                f"slot {t + 1}: per-slot blocking mass exceeds 1 "
                "(the adversary blocks at most one channel per slot)")
        object.__setattr__(self, "block_prob", _freeze(m))

    @property
    def channels(self) -> int:
        return self.block_prob.shape[0]

    @property
    def horizon(self) -> int:
        return self.block_prob.shape[1]

    def total_blocked(self) -> float:
        """Expected number of blocked slots (counts against the budget)."""
        return float(self.block_prob.sum())

    def __eq__(self, other):
        return (isinstance(other, BlockingPlan) and self.mode == other.mode
                and np.array_equal(self.block_prob, other.block_prob))


@dataclass(frozen=True)
class BudgetSplit:
    """Per-user jamming fractions alpha_i >= 0 with sum(alpha_i) = alpha."""

    alphas: np.ndarray
    alpha: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        a = np.asarray(self.alphas, dtype=float).ravel()
        if np.any(a < 0.0):
            raise ValueError("split fractions must be >= 0")
        total = math.fsum(a)
        target = total if self.alpha is None else float(self.alpha)
        if abs(total - target) > SUM_STORED_TOL:
            raise ValueError(
                f"split fractions sum to {total}, expected {target}")
        object.__setattr__(self, "alphas", _freeze(a))
        object.__setattr__(self, "alpha", target)

    @property
    def n(self) -> int:
        return self.alphas.size


# ---------------------------------------------------------------------------
#  Constructors and checks
# ---------------------------------------------------------------------------

def validate_policy(raw) -> SchedulingPolicy:
    """Turn a raw vector into a SchedulingPolicy, normalizing near-1 sums.

    Raises NonPositiveEntryError for any entry <= 0 and NotNormalizedError
    when the sum deviates from 1 by more than 1e-9.
    """
    return SchedulingPolicy(np.asarray(raw, dtype=float))


def validate_subcarrier_policy(raw) -> SubcarrierPolicy:
    """Counterpart of validate_policy for sub-carrier distributions."""
    return SubcarrierPolicy(np.asarray(raw, dtype=float))


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
    """Deterministic plan blocking one channel for the middle B slots.

    With B = 0 the plan is empty (all zeros), still a valid plan.
    """
    channels = config.num_channels
    if not 0 <= target < channels:
        raise TargetOutOfRangeError(
            f"target {target} outside 0..{channels - 1}")
    m = np.zeros((channels, config.horizon_T))
    start, stop = middle_window(config.horizon_T, config.budget_B)
    m[target, start:stop] = 1.0
    return BlockingPlan("deterministic", m)


def make_uniform_subcarrier_block(config: SystemConfig) -> BlockingPlan:
    """Randomized plan blocking a uniformly drawn sub-carrier each window slot.

    Every sub-carrier row carries probability 1/N_sub inside the middle window
    of length B and 0 elsewhere, so exactly one sub-carrier is blocked per
    window slot in expectation and realization.
    """
    if not config.has_diversity:
        raise NoDiversityError("uniform sub-carrier blocking needs N_sub >= 2")
    m = np.zeros((config.num_subcarriers, config.horizon_T))
    start, stop = middle_window(config.horizon_T, config.budget_B)
    m[:, start:stop] = 1.0 / config.num_subcarriers
    return BlockingPlan("randomized", m)


def blocking_feasible(plan: BlockingPlan, config: SystemConfig) -> bool:
    """True iff the plan fits the config's budget and per-slot constraints."""
    if plan.channels != config.num_channels or plan.horizon != config.horizon_T:
        raise DimensionMismatchError(
            f"plan is {plan.channels}x{plan.horizon}, config expects "
            f"{config.num_channels}x{config.horizon_T}")
    if plan.total_blocked() > config.budget_B + SUM_ACCEPT_TOL:
        return False
    return bool(np.all(plan.block_prob.sum(axis=0) <= 1.0 + SUM_ACCEPT_TOL))


def empty_plan(config: SystemConfig) -> BlockingPlan:
    """All-zeros deterministic plan (the adversary idles)."""
    return BlockingPlan(
        "deterministic", np.zeros((config.num_channels, config.horizon_T)))
