"""Large-horizon closed forms for expected age, used as game payoffs.

These formulas assume the horizon dwarfs every user's renewal time
(T >> 1/p_i).  An unblocked user's time-average age tends to 1/p_i; a user
blocked for a consecutive alpha*T-slot window picks up an extra term that
grows linearly in T.  The functions that return an age, blocked_user_age
and system_age_no_diversity, emit AsymptoticValidityWarning when
T * min_i p_i < 100, the point where the 1/p approximation drifts past
roughly 1%.  The reduced game payoffs do not warn: the players only compare
them.
"""

import math
import warnings

import numpy as np

from .errors import (
    DimensionMismatchError,
    IndexOutOfRangeError,
    InvalidAlphaError,
    NoDiversityError,
    NonPositiveEntryError,
)
from .model import SchedulingPolicy

ASYMPTOTIC_REGIME_MIN = 100.0


class AsymptoticValidityWarning(UserWarning):
    """T * min_i p_i is too small for the large-horizon formulas to be tight."""


def _warn_if_small_horizon(T: float, p_min: float) -> None:
    """Warn when T*p_min is too small, pointing at the caller of the public
    function that calls this one."""
    if T * p_min < ASYMPTOTIC_REGIME_MIN:
        warnings.warn(
            f"T*min(p) = {T * p_min:.4g} < {ASYMPTOTIC_REGIME_MIN:g}; "
            "large-horizon age formulas may be off by more than ~1%",
            AsymptoticValidityWarning, stacklevel=3)


def _check_alpha(alpha: float) -> None:
    if not 0.0 <= alpha < 1.0:
        raise InvalidAlphaError(f"alpha must lie in [0, 1), got {alpha}")


def _check_user(n: int, blocked_user: int) -> None:
    if not 0 <= blocked_user < n:
        raise IndexOutOfRangeError(
            f"blocked_user {blocked_user} outside 0..{n - 1}")


# ===========================================================================
#  Per-user ages
# ===========================================================================


def unblocked_user_age(p_j: float) -> float:
    """Time-average age of a never-blocked user: 1/p_j."""
    if p_j <= 0.0:
        raise NonPositiveEntryError(f"p_j = {p_j} must be > 0")
    return 1.0 / p_j


def _blocked_age(p_1: float, alpha: float, T: int) -> float:
    return (1 + alpha) * (1 - p_1) / p_1 + alpha * (1 + alpha * T) / 2 + 1.0


def blocked_user_age(p_1: float, alpha: float, T: int) -> float:
    """Time-average age of the user blocked for the middle alpha*T slots.

    (1+alpha)(1-p_1)/p_1 + alpha(1+alpha*T)/2 + 1.  The first term is the
    renewal cost inflated by the lost fraction, the second the linear ramp
    accumulated inside the blocked window.  At alpha=0 this collapses to
    1/p_1.
    """
    if p_1 <= 0.0:
        raise NonPositiveEntryError(f"p_1 = {p_1} must be > 0")
    _check_alpha(alpha)
    _warn_if_small_horizon(T, p_1)
    return _blocked_age(p_1, alpha, T)


def system_age_no_diversity(
        policy: SchedulingPolicy, blocked_user: int, alpha: float,
        T: int) -> float:
    """User-average age when one user absorbs the whole middle-block budget."""
    p = policy.probs
    _check_user(p.size, blocked_user)
    _check_alpha(alpha)
    _warn_if_small_horizon(T, float(p.min()))
    unblocked = math.fsum(
        1.0 / p[j] for j in range(p.size) if j != blocked_user)
    blocked = _blocked_age(float(p[blocked_user]), alpha, T)
    return (unblocked + blocked) / p.size


# ===========================================================================
#  Reduced payoff (constants dropped; what both players optimize)
# ===========================================================================


def _reduced_payoff(p: list, shares: list, T: int) -> float:
    """fsum of three fsums: 1/p_j over users with share 0, then
    (1+a_j)/p_j - a_j and a_j(1+a_j*T)/2 over users with share a_j > 0."""
    unblocked = math.fsum(1.0 / p_j for p_j, a in zip(p, shares) if a == 0.0)
    hit = [(p_j, a) for p_j, a in zip(p, shares) if a > 0.0]
    blocked = math.fsum((1 + a) / p_j - a for p_j, a in hit)
    linear = math.fsum(a * (1 + a * T) / 2 for _, a in hit)
    return math.fsum((unblocked, blocked, linear))


def reduced_payoff_for_split(policy: SchedulingPolicy, shares,
                             T: int) -> float:
    """Reduced payoff when user i is blocked for shares[i]*T consecutive slots.

    sum_i 1/p_i + sum_i (a_i/p_i - a_i + a_i(1+a_i*T)/2) with a = shares,
    a 1-D array of N finite entries >= 0 (DimensionMismatchError for any
    other shape, InvalidAlphaError for a negative or non-finite entry).
    Convex in the shares, so a budget is best spent at a vertex:
    concentrated on argmax_i 1/p_i.  All-zero shares give the no-adversary
    payoff sum_i 1/p_i.
    """
    a = np.asarray(shares, dtype=float)
    if a.shape != (policy.n,):
        raise DimensionMismatchError(
            f"shares must be a 1-D array of {policy.n} entries, got shape "
            f"{a.shape}")
    bad = ~(a >= 0.0) | np.isinf(a)
    if bad.any():
        i = int(np.argmax(bad))
        raise InvalidAlphaError(
            f"shares[{i}] = {a[i]} must be a finite number >= 0")
    return _reduced_payoff(policy.probs.tolist(), a.tolist(), T)


def reduced_objective(policy: SchedulingPolicy, blocked_user: int,
                      alpha: float, T: int) -> float:
    """Reduced payoff for a single middle-blocked user: the value of
    reduced_payoff_for_split with share alpha on blocked_user, 0 elsewhere.

    Equals num_users * system_age_no_diversity up to rounding (the dropped
    "constants" cancel to zero), so both share their argmin in the policy
    and their argmax in the target.
    """
    _check_user(policy.n, blocked_user)
    _check_alpha(alpha)
    shares = [0.0] * policy.n
    shares[blocked_user] = alpha
    return _reduced_payoff(policy.probs.tolist(), shares, T)


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
