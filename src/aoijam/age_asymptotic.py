"""Large-horizon closed forms for expected age, used as game payoffs.

These formulas assume the horizon dwarfs every user's renewal time
(T >> 1/p_i).  An unblocked user's time-average age tends to 1/p_i; a user
blocked for a consecutive alpha*T-slot window picks up an extra term that
grows linearly in T.  Every operation that depends on this regime emits
AsymptoticValidityWarning when T * min_i p_i < 100, the point where the 1/p
approximation drifts past roughly 1%.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    CertificateError,
    IndexOutOfRangeError,
    InvalidAlphaError,
    NoDiversityError,
    NonPositiveProbabilityError,
)
from .model import BudgetSplit, SchedulingPolicy

ASYMPTOTIC_REGIME_MIN = 100.0


class AsymptoticValidityWarning(UserWarning):
    """T * min_i p_i is too small for the large-horizon formulas to be tight."""


def _warn_if_small_horizon(T: float, p_min: float,
                           stacklevel: int = 3) -> None:
    """Warn when T*p_min is too small; the default stacklevel points at the
    caller of the public function that calls this one."""
    if T * p_min < ASYMPTOTIC_REGIME_MIN:
        warnings.warn(
            f"T*min(p) = {T * p_min:.4g} < {ASYMPTOTIC_REGIME_MIN:g}; "
            "large-horizon age formulas may be off by more than ~1%",
            AsymptoticValidityWarning, stacklevel=stacklevel)


def _check_alpha(alpha: float) -> None:
    if not 0.0 <= alpha < 1.0:
        raise InvalidAlphaError(f"alpha must lie in [0, 1), got {alpha}")


def _spared_users_sum(p: np.ndarray, blocked_user: int, alpha: float,
                      T: int) -> float:
    """sum of 1/p_j over the users other than `blocked_user`.

    Also the argument checks and the regime warning shared by the payoffs
    of a single middle-blocked user; the warning points at their caller.
    """
    if not 0 <= blocked_user < p.size:
        raise IndexOutOfRangeError(
            f"blocked_user {blocked_user} outside 0..{p.size - 1}")
    _check_alpha(alpha)
    _warn_if_small_horizon(T, float(p.min()), stacklevel=4)
    return math.fsum(1.0 / p[j] for j in range(p.size) if j != blocked_user)


# ===========================================================================
#  Per-user ages
# ===========================================================================


def unblocked_user_age(p_j: float) -> float:
    """Time-average age of a never-blocked user: 1/p_j."""
    if p_j <= 0.0:
        raise NonPositiveProbabilityError(f"p_j = {p_j} must be > 0")
    return 1.0 / p_j


def blocked_user_age(p_1: float, alpha: float, T: int) -> float:
    """Time-average age of the user blocked for the middle alpha*T slots.

    (1+alpha)(1-p_1)/p_1 + alpha(1+alpha*T)/2 + 1.  The first term is the
    renewal cost inflated by the lost fraction, the second the linear ramp
    accumulated inside the blocked window.  At alpha=0 this collapses to
    1/p_1.
    """
    if p_1 <= 0.0:
        raise NonPositiveProbabilityError(f"p_1 = {p_1} must be > 0")
    _check_alpha(alpha)
    _warn_if_small_horizon(T, p_1)
    return (1 + alpha) * (1 - p_1) / p_1 + alpha * (1 + alpha * T) / 2 + 1.0


def system_age_no_diversity(
        policy: SchedulingPolicy, blocked_user: int, alpha: float,
        T: int) -> float:
    """User-average age when one user absorbs the whole middle-block budget."""
    p = policy.probs
    unblocked = _spared_users_sum(p, blocked_user, alpha, T)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AsymptoticValidityWarning)
        blocked = blocked_user_age(float(p[blocked_user]), alpha, T)
    return (unblocked + blocked) / p.size


# ===========================================================================
#  Reduced payoff (constants dropped; what both players optimize)
# ===========================================================================


@dataclass(frozen=True)
class ReducedGamePayoff:
    """Reduced system-age payoff split into its named parts.

    value = unblocked_term + blocked_term + linear_t_term within 1e-12;
    unblocked_term sums 1/p_j over spared users, blocked_term is
    (1+alpha)/p_b - alpha, linear_t_term is alpha(1+alpha*T)/2.
    """

    value: float
    unblocked_term: float
    blocked_term: float
    linear_t_term: float

    def __post_init__(self):
        parts = math.fsum(
            (self.unblocked_term, self.blocked_term, self.linear_t_term))
        if abs(self.value - parts) > 1e-12 * max(1.0, abs(self.value)):
            raise CertificateError(
                f"payoff {self.value!r} is not the sum of its parts {parts!r}")


def reduced_objective(
        policy: SchedulingPolicy, blocked_user: int, alpha: float,
        T: int) -> ReducedGamePayoff:
    """Reduced payoff for a single middle-blocked user.

    Equals num_users * system_age_no_diversity exactly (the dropped
    "constants" cancel to zero), so both share their argmin in the policy and
    their argmax in the target.
    """
    p = policy.probs
    unblocked = _spared_users_sum(p, blocked_user, alpha, T)
    blocked = (1 + alpha) / float(p[blocked_user]) - alpha
    linear = alpha * (1 + alpha * T) / 2
    return ReducedGamePayoff(
        math.fsum((unblocked, blocked, linear)), unblocked, blocked, linear)


def split_objective(policy: SchedulingPolicy, split: BudgetSplit,
                    T: int) -> float:
    """Budget-dependent part of the payoff when the adversary splits its
    budget as alpha_i*T consecutive blocked slots per user.

    sum_i alpha_i/p_i + sum_i alpha_i^2*T/2.  Convex in the split, so it is
    maximized at a vertex: concentrating everything on argmax_i 1/p_i.
    """
    if split.n != policy.n:
        raise IndexOutOfRangeError(
            f"split has {split.n} entries, policy has {policy.n}")
    _warn_if_small_horizon(T, float(policy.probs.min()))
    a = split.alphas
    p = policy.probs
    return float(np.sum(a / p) + np.sum(a * a) * T / 2)


def reduced_payoff_for_split(
        policy: SchedulingPolicy, split: BudgetSplit, T: int) -> float:
    """Reduced payoff generalized to per-user budget fractions.

    sum_i 1/p_i + split_objective - sum_i alpha_i/2.  Putting the whole
    budget on user b reproduces reduced_objective(policy, b, alpha, T)
    exactly; an all-zeros split gives the no-adversary payoff sum_i 1/p_i.
    """
    if split.n != policy.n:
        raise IndexOutOfRangeError(
            f"split has {split.n} entries, policy has {policy.n}")
    base = float(np.sum(1.0 / policy.probs))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AsymptoticValidityWarning)
        extra = split_objective(policy, split, T)
    _warn_if_small_horizon(T, float(policy.probs.min()))
    return base + extra - float(split.alphas.sum()) / 2


# ===========================================================================
#  Diversity model
# ===========================================================================


def diversity_user_ages(policy: SchedulingPolicy, alpha: float,
                        N_sub: int) -> np.ndarray:
    """Per-user ages under uniform sub-carrier blocking of the middle window.

    (1-alpha)/p_i + alpha/(p_i(1-1/N_sub)): outside the window user i renews
    at rate p_i, inside at rate p_i(1-1/N_sub) since one of N_sub
    sub-carriers is jammed.  Independent of the sub-carrier distribution q.
    """
    if N_sub < 2:
        raise NoDiversityError(f"N_sub = {N_sub} must be >= 2")
    _check_alpha(alpha)
    p = policy.probs
    return (1 - alpha) / p + alpha / (p * (1 - 1.0 / N_sub))


def diversity_system_age(policy: SchedulingPolicy, alpha: float,
                         N_sub: int) -> float:
    """User average of diversity_user_ages."""
    return float(diversity_user_ages(policy, alpha, N_sub).mean())
