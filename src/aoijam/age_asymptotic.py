"""Large-horizon closed forms for expected age, used as game payoffs.

These formulas assume the horizon dwarfs every user's renewal time
(T >> 1/p_i).  An unblocked user's time-average age tends to 1/p_i; a user
blocked for a consecutive a*T-slot window ages (1+a)/p_i - a + a(1+a*T)/2,
which grows linearly in T.  _reduced_payoff, the one scalar body of every
no-diversity closed form here, sums those ages over the users, and
_follower_aware_payoffs is its array form.  Every game payoff is that sum
over N, the large-horizon system age both players optimize; no other
module divides by N.  blocked_user_age, the one function that returns an
age in T, emits AsymptoticValidityWarning when T * p < 100, the point
where the 1/p approximation drifts past roughly 1%.  The game payoffs do
not warn: the players only compare them.  A game function prices with its
config's blocked_share, B/T, in place of alpha; it calls the unchecked
private forms, since that share is 1.0 when B = T.
"""

import math
import numbers
import warnings

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidAlphaError,
    NoDiversityError,
    NonPositiveEntryError,
)
from .model import SchedulingPolicy, _is_integer

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


def _check_probability(name: str, p: float) -> None:
    if not (isinstance(p, numbers.Real) and 0.0 < p <= 1.0):  # NaN fails too
        raise NonPositiveEntryError(f"{name} = {p!r} must lie in (0, 1]")


def _check_alpha(alpha: float) -> None:
    if not (isinstance(alpha, numbers.Real) and 0.0 <= alpha < 1.0):
        raise InvalidAlphaError(f"alpha must lie in [0, 1), got {alpha!r}")


def _check_horizon(T: int) -> None:
    if not (_is_integer(T) and T >= 1):
        raise DimensionMismatchError(f"T must be an integer >= 1, got {T!r}")


# ===========================================================================
#  Per-user ages
# ===========================================================================


def unblocked_user_age(p_j: float) -> float:
    """Time-average age of a never-blocked user: 1/p_j, for p_j in (0, 1]."""
    _check_probability("p_j", p_j)
    return 1.0 / p_j


def blocked_user_age(p_1: float, alpha: float, T: int) -> float:
    """Time-average age of the user blocked for the middle alpha*T slots.

    (1+alpha)/p_1 - alpha + alpha(1+alpha*T)/2: the renewal cost inflated
    by the lost fraction, plus the linear ramp accumulated inside the
    blocked window.  It is the system age of a one-user system, and at
    alpha=0 it is 1/p_1.  Raises NonPositiveEntryError for p_1 outside
    (0, 1], then InvalidAlphaError, then DimensionMismatchError unless T is
    an integer >= 1.
    """
    _check_probability("p_1", p_1)
    _check_alpha(alpha)
    _check_horizon(T)
    _warn_if_small_horizon(T, p_1)
    return _reduced_payoff([p_1], [alpha], T)


# ===========================================================================
#  Game payoffs (the large-horizon system age; what both players optimize)
# ===========================================================================


def _reduced_payoff(p: list, shares: list, T: int) -> float:
    """The users' ages summed, N times the system age: fsum of three fsums,
    1/p_j over users with share 0, then (1+a_j)/p_j - a_j and
    a_j(1+a_j*T)/2 over users with share a_j > 0."""
    unblocked = math.fsum(1.0 / p_j for p_j, a in zip(p, shares) if a == 0.0)
    hit = [(p_j, a) for p_j, a in zip(p, shares) if a > 0.0]
    blocked = math.fsum((1 + a) / p_j - a for p_j, a in hit)
    linear = math.fsum(a * (1 + a * T) / 2 for _, a in hit)
    return math.fsum((unblocked, blocked, linear))


def _follower_aware_payoffs(probs: np.ndarray, alpha: float,
                            T: int) -> np.ndarray:
    """The worst single middle-blocked target's system age for every row of
    a (samples, N) matrix of scheduling policies, in one array expression:
    with share alpha on user b the ages sum to (sum_j 1/p_j - 1/p_b) +
    ((1+alpha)/p_b - alpha) + alpha(1+alpha*T)/2; the largest, over N."""
    inverse = 1.0 / probs
    unblocked = inverse.sum(axis=1, keepdims=True) - inverse
    blocked = (1 + alpha) / probs - alpha
    return ((unblocked + blocked + alpha * (1 + alpha * T) / 2).max(axis=1)
            / probs.shape[1])


def follower_aware_payoff(policy: SchedulingPolicy, alpha: float,
                          T: int) -> float:
    """Leader's payoff when the adversary best-responds: the worst single
    middle-blocked target's system age, the one-row case of
    _follower_aware_payoffs.  Raises InvalidAlphaError for alpha outside
    [0, 1), then DimensionMismatchError unless T is an integer >= 1."""
    _check_alpha(alpha)
    _check_horizon(T)
    return float(_follower_aware_payoffs(policy.probs[None], alpha, T)[0])


def reduced_payoff_for_split(policy: SchedulingPolicy, shares,
                             T: int) -> float:
    """A plan priced by its per-user shares: the large-horizon system age
    when user i is blocked for shares[i]*T consecutive slots.

    (sum_i 1/p_i + sum_i (a_i/p_i - a_i + a_i(1+a_i*T)/2)) / N with
    a = shares, a 1-D array of N entries in [0, 1] (DimensionMismatchError
    for any other shape, InvalidAlphaError naming the first entry outside;
    a share of 1 blocks every slot).  Convex in the shares, so a budget is
    best spent at a vertex: concentrated on argmax_i 1/p_i.  All-zero
    shares give the no-adversary age mean_i 1/p_i; one-hot shares give the
    single middle-blocked target's system age.
    """
    a = np.asarray(shares, dtype=float)
    if a.shape != (policy.n,):
        raise DimensionMismatchError(
            f"shares must be a 1-D array of {policy.n} entries, got shape "
            f"{a.shape}")
    bad = ~((a >= 0.0) & (a <= 1.0))
    if bad.any():
        i = int(np.argmax(bad))
        raise InvalidAlphaError(f"shares[{i}] = {a[i]} must lie in [0, 1]")
    _check_horizon(T)
    return _reduced_payoff(policy.probs.tolist(), a.tolist(), T) / policy.n


def _middle_block_payoff(p: list, target: int, share: float, T: int) -> float:
    """The system age with `share` on user `target` and 0 elsewhere."""
    shares = [0.0] * len(p)
    shares[target] = share
    return _reduced_payoff(p, shares, T) / len(p)


# ===========================================================================
#  Diversity model
# ===========================================================================


def diversity_user_ages(policy: SchedulingPolicy, alpha: float,
                        N_sub: int) -> np.ndarray:
    """Per-user ages under uniform sub-carrier blocking of the middle window.

    (1-alpha)/p_i + alpha/(p_i(1-1/N_sub)): outside the window user i renews
    at rate p_i, inside at rate p_i(1-1/N_sub) since one of N_sub
    sub-carriers is jammed.  Independent of the sub-carrier distribution q;
    their mean is the diversity system age.
    """
    if not (_is_integer(N_sub) and N_sub >= 2):
        raise NoDiversityError(f"N_sub = {N_sub!r} must be an integer >= 2")
    _check_alpha(alpha)
    return _diversity_ages(policy.probs, alpha, N_sub)


def _diversity_ages(p: np.ndarray, alpha: float, N_sub: int) -> np.ndarray:
    """diversity_user_ages, unchecked, elementwise on an array of scheduling
    probabilities of any shape (one policy per row of a 2-D array)."""
    return (1 - alpha) / p + alpha / (p * (1 - 1.0 / N_sub))
