"""Closed-form large-horizon ages and the game payoffs, system ages."""

import math
import re
import warnings

import numpy as np
import pytest

from aoijam.age_asymptotic import (
    AsymptoticValidityWarning,
    _middle_block_payoff,
    blocked_user_age,
    diversity_user_ages,
    follower_aware_payoff,
    reduced_payoff_for_split,
    unblocked_user_age,
)
from aoijam.age_exact import expected_age_trajectory
from aoijam.errors import (
    DimensionMismatchError,
    InvalidAlphaError,
    NoDiversityError,
    NonPositiveEntryError,
)
from aoijam.model import (
    SystemConfig,
    empty_plan,
    make_middle_block,
    uniform_policy,
    validate_policy,
)


def _quiet(fn, *args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AsymptoticValidityWarning)
        return fn(*args, **kwargs)


def _system_age(policy, blocked_user, alpha, T):
    """Large-horizon system age with one user middle-blocked: the one-hot
    split's payoff."""
    shares = alpha * np.eye(policy.n)[blocked_user]
    return reduced_payoff_for_split(policy, shares, T)


def _user_ages(policy, blocked_user, alpha, T):
    """Each user's closed-form age with one user middle-blocked."""
    return [_quiet(blocked_user_age, p, alpha, T) if i == blocked_user
            else unblocked_user_age(p) for i, p in enumerate(policy.probs)]


def _diversity_system_age(policy, alpha, n_sub):
    """The users' mean diversity age."""
    return float(diversity_user_ages(policy, alpha, n_sub).mean())


# ===========================================================================
#  Per-user closed forms
# ===========================================================================


def test_unblocked_age_is_reciprocal():
    assert unblocked_user_age(0.25) == 4.0
    assert unblocked_user_age(1.0) == 1.0
    with pytest.raises(NonPositiveEntryError):
        unblocked_user_age(0.0)


@pytest.mark.parametrize("p", [0.0, -0.25, 1.5, 2.0, math.inf, math.nan, "0.5",
                               None])
@pytest.mark.parametrize("call", [
    lambda p: unblocked_user_age(p),
    lambda p: blocked_user_age(p, 0.2, 1000),
], ids=["unblocked_user_age", "blocked_user_age"])
def test_closed_forms_refuse_a_non_probability(call, p):
    # 1/p would give an age below 1, an age of 0 or a NaN age; a string or
    # None is named, never compared
    with pytest.raises(NonPositiveEntryError,
                       match=re.escape(f" = {p!r} must lie in (0, 1]")):
        call(p)


def test_unblocked_age_matches_exact_recursion():
    # p = 0.01 at T = 1e5: time average within 1% of 100
    cfg = SystemConfig(horizon_T=100_000, num_users=2, alpha=0.1)
    series = expected_age_trajectory(
        validate_policy([0.01, 0.99]), empty_plan(cfg), cfg)
    assert series.per_user_avg[0] == pytest.approx(
        unblocked_user_age(0.01), rel=0.01)


def test_blocked_age_formula_value():
    assert blocked_user_age(0.2, 0.2, 10_000) == pytest.approx(
        4.8 + 200.1 + 1.0, abs=1e-9)


def test_blocked_age_zero_budget_matches_unblocked():
    for p in (0.1, 0.35, 0.9):
        assert _quiet(blocked_user_age, p, 0.0, 1000) == pytest.approx(
            unblocked_user_age(p), abs=1e-12)


def test_blocked_age_matches_exact_recursion():
    # p1 = 0.1, alpha = 0.2, T = 1e4: within 2% of the closed form
    T, alpha = 10_000, 0.2
    cfg = SystemConfig(horizon_T=T, num_users=2, alpha=alpha)
    series = expected_age_trajectory(
        validate_policy([0.1, 0.9]), make_middle_block(cfg, 0), cfg)
    assert series.per_user_avg[0] == pytest.approx(
        blocked_user_age(0.1, alpha, T), rel=0.02)


@pytest.mark.parametrize("seed", range(5))
def test_blocked_age_dominates_unblocked(seed):
    rng = np.random.default_rng(seed)
    p = float(rng.uniform(0.01, 1.0))
    alpha = float(rng.uniform(0.01, 0.99))
    T = int(rng.integers(1, 10_000))
    assert _quiet(blocked_user_age, p, alpha, T) >= unblocked_user_age(p)


def test_blocked_age_alpha_validation():
    with pytest.raises(InvalidAlphaError):
        _quiet(blocked_user_age, 0.5, 1.0, 100)
    with pytest.raises(InvalidAlphaError):
        _quiet(blocked_user_age, 0.5, -0.2, 100)


# ===========================================================================
#  System age, the game payoff
# ===========================================================================


def test_system_age_example():
    val = _system_age(validate_policy([0.5, 0.5]), 0, 0.5, 100)
    assert val == pytest.approx((2.0 + 1.5 + 12.75 + 1.0) / 2, abs=1e-12)


def test_system_age_single_user():
    # one user: the blocked age is the system age, bit for bit
    pol = validate_policy([1.0])
    assert _system_age(pol, 0, 0.3, 500) == _quiet(
        blocked_user_age, 1.0, 0.3, 500)


def test_system_age_symmetric_in_spared_users():
    a = _system_age(validate_policy([0.5, 0.2, 0.3]), 0, 0.4, 2000)
    b = _system_age(validate_policy([0.5, 0.3, 0.2]), 0, 0.4, 2000)
    assert a == pytest.approx(b, abs=1e-12)


def test_reduced_objective_example():
    payoff = reduced_payoff_for_split(validate_policy([0.5, 0.5]), [0.5, 0.0],
                                      100)
    assert payoff == pytest.approx((2.0 + 3.0 - 0.5 + 12.75) / 2, abs=1e-12)


def test_reduced_objective_alpha_zero_is_weight_sum():
    pol = validate_policy([0.25, 0.25, 0.5])
    payoff = reduced_payoff_for_split(pol, 0.0 * np.eye(3)[1], 100)
    assert payoff == pytest.approx(float(np.mean(1 / pol.probs)), abs=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_reduced_equals_scaled_system_age(seed):
    # the dropped constants cancel exactly: the payoff is the users' mean
    # closed-form age
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(1, 6))
    p = rng.dirichlet(np.ones(n) * 3) * 0.98 + 0.02 / n
    pol = validate_policy(p / p.sum())
    b = int(rng.integers(n))
    alpha = float(rng.uniform(0.05, 0.95))
    T = int(rng.integers(10, 100_000))
    lhs = reduced_payoff_for_split(pol, alpha * np.eye(n)[b], T)
    rhs = float(np.mean(_user_ages(pol, b, alpha, T)))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_per_user_closed_forms_sum_to_the_reduced_payoff():
    # any split, a share of 0 included: math.fsum of the users' ages over N
    # is the system age to within 4 eps, relative
    rng = np.random.default_rng(7)
    eps = np.finfo(float).eps
    for _ in range(500):
        n = int(rng.integers(1, 9))
        pol = validate_policy(rng.dirichlet(np.ones(n)) * 0.99 + 0.01 / n)
        shares = np.where(rng.random(n) < 0.5, 0.0,
                          rng.uniform(0.0, 0.99, n))
        T = int(rng.integers(1, 10**6))
        ages = math.fsum(_quiet(blocked_user_age, p, a, T)
                         for p, a in zip(pol.probs, shares))
        payoff = reduced_payoff_for_split(pol, shares, T)
        assert abs(ages / n - payoff) <= 4 * eps * payoff


def test_reduced_objective_argmin_matches_system_grid():
    # coarse simplex grid, N=2: the split's payoff and the users' mean
    # closed-form age pick the same best policy
    alpha, T = 0.6, 5000
    grid = [validate_policy([x, 1 - x]) for x in np.arange(0.05, 1.0, 0.05)]
    red = [reduced_payoff_for_split(g, [alpha, 0.0], T) for g in grid]
    sys_ = [np.mean(_user_ages(g, 0, alpha, T)) for g in grid]
    assert int(np.argmin(red)) == int(np.argmin(sys_))


# ===========================================================================
#  Per-user shares of the horizon
# ===========================================================================


def test_split_zero_budget_is_unjammed_payoff():
    pol = uniform_policy(3)
    for T in (10, 1000, 10**6):
        assert reduced_payoff_for_split(pol, np.zeros(3), T) == 3.0


def test_split_concentration_beats_uniform_by_known_gap():
    # at uniform p the gap is alpha^2*T/2*(1 - 1/N), over N
    n, alpha, T = 4, 0.6, 2000
    pol = uniform_policy(n)
    conc = np.eye(n)[0] * alpha
    unif = np.full(n, alpha / n)
    gap = reduced_payoff_for_split(pol, conc, T) - reduced_payoff_for_split(
        pol, unif, T)
    assert gap == pytest.approx(alpha**2 * T / 2 * (1 - 1 / n) / n,
                                rel=1e-12)


def test_split_grid_maximum_is_concentration_on_slowest_user():
    # enumerate splits on a simplex grid, N=3: vertex at argmax 1/p_i wins
    alpha, T = 0.5, 3000
    pol = validate_policy([0.5, 0.3, 0.2])
    steps = 10
    best_val, best_split = -np.inf, None
    for i in range(steps + 1):
        for j in range(steps + 1 - i):
            k = steps - i - j
            split = alpha * np.array([i, j, k]) / steps
            val = reduced_payoff_for_split(pol, split, T)
            if val > best_val:
                best_val, best_split = val, split
    np.testing.assert_allclose(best_split, [0.0, 0.0, alpha])
    conc = alpha * np.eye(3)[2]
    assert best_val == pytest.approx(reduced_payoff_for_split(pol, conc, T))


@pytest.mark.parametrize("seed", range(4))
def test_reduced_payoff_for_split_matches_single_target(seed):
    rng = np.random.default_rng(200 + seed)
    n = int(rng.integers(2, 5))
    p = rng.dirichlet(np.ones(n))
    p = p * 0.9 + 0.1 / n
    pol = validate_policy(p / p.sum())
    alpha = float(rng.uniform(0.05, 0.9))
    T = int(rng.integers(100, 50_000))
    b = int(rng.integers(n))
    # the game functions' single-target payoff is the one-hot case, bit
    # for bit
    assert reduced_payoff_for_split(pol, alpha * np.eye(n)[b], T) == (
        _middle_block_payoff(pol.probs.tolist(), b, alpha, T))


def test_reduced_payoff_for_empty_split_is_base_cost():
    pol = validate_policy([0.4, 0.6])
    assert reduced_payoff_for_split(pol, np.zeros(2), 1000) == pytest.approx(
        (1 / 0.4 + 1 / 0.6) / 2, abs=1e-12)


def test_reduced_payoff_groups_unblocked_blocked_and_linear_sums():
    # fsum of three fsums, over N: 1/p_j over unshared users, (1+a)/p - a
    # and a(1+aT)/2 over the shared ones
    p, a, T = [0.2, 0.5, 0.3], [0.0, 0.25, 0.1], 1000
    expect = math.fsum((
        1 / 0.2,
        math.fsum(((1 + 0.25) / 0.5 - 0.25, (1 + 0.1) / 0.3 - 0.1)),
        math.fsum((0.25 * (1 + 0.25 * T) / 2, 0.1 * (1 + 0.1 * T) / 2)))) / 3
    assert reduced_payoff_for_split(validate_policy(p), a, T) == expect


@pytest.mark.parametrize("shares, error, message", [
    pytest.param([[0.1, 0.0], [0.0, 0.1]], DimensionMismatchError,
                 "got shape (2, 2)", id="nested"),
    pytest.param(0.1, DimensionMismatchError, "got shape ()", id="scalar"),
    pytest.param([0.1, 0.0, 0.0], DimensionMismatchError, "got shape (3,)",
                 id="too-long"),
    pytest.param([0.1], DimensionMismatchError, "got shape (1,)",
                 id="too-short"),
    pytest.param([0.1, -0.05], InvalidAlphaError, "shares[1] = -0.05",
                 id="negative"),
    pytest.param([np.nan, 0.1], InvalidAlphaError, "shares[0] = nan",
                 id="nan"),
    pytest.param([0.1, np.inf], InvalidAlphaError, "shares[1] = inf",
                 id="inf"),
    pytest.param([-0.5, np.nan], InvalidAlphaError, "shares[0] = -0.5",
                 id="first-bad-entry"),
    # a share above 1 would block more slots than the horizon has
    pytest.param([5.0, 3.0], InvalidAlphaError, "shares[0] = 5.0",
                 id="above-one"),
    pytest.param([1.0, 1.0 + 2**-52], InvalidAlphaError,
                 "shares[1] = 1.0000000000000002 must lie in [0, 1]",
                 id="just-above-one"),
])
def test_split_shares_are_validated(shares, error, message):
    with pytest.raises(error) as info:
        reduced_payoff_for_split(uniform_policy(2), shares, 1000)
    assert message in str(info.value)


@pytest.mark.parametrize("call", [
    lambda T: blocked_user_age(0.5, 0.2, T),
    lambda T: reduced_payoff_for_split(uniform_policy(2), [0.2, 0.0], T),
    lambda T: follower_aware_payoff(uniform_policy(2), 0.2, T),
], ids=["blocked_user_age", "reduced_payoff_for_split",
        "follower_aware_payoff"])
@pytest.mark.parametrize("horizon", [0, -5, 0.5, math.nan, True, 10.5,
                                     np.float64(100)])
def test_closed_forms_reject_horizon_below_one(call, horizon):
    # a horizon counts slots, as SystemConfig's does: a bool or a float,
    # even a whole one, is refused
    with pytest.raises(DimensionMismatchError,
                       match="T must be an integer >= 1"):
        call(horizon)


# ===========================================================================
#  Diversity system age
# ===========================================================================


def test_diversity_age_example():
    assert _diversity_system_age(
        validate_policy([0.5, 0.5]), 0.5, 2) == pytest.approx(3.0, abs=1e-12)


def test_diversity_age_zero_alpha():
    pol = validate_policy([0.25, 0.75])
    assert _diversity_system_age(pol, 0.0, 4) == pytest.approx(
        float(np.mean(1 / pol.probs)), abs=1e-12)


def test_diversity_age_many_subcarriers_approaches_unblocked():
    pol = validate_policy([0.3, 0.7])
    base = float(np.mean(1 / pol.probs))
    prev = np.inf
    for nsub in (2, 4, 16, 256):
        val = _diversity_system_age(pol, 0.5, nsub)
        assert base < val < prev
        prev = val
    assert prev == pytest.approx(base, rel=0.005)


def test_diversity_age_requires_subcarriers():
    with pytest.raises(NoDiversityError):
        diversity_user_ages(uniform_policy(2), 0.5, 1)


@pytest.mark.parametrize("n_sub", [2.5, 3.0, True, "3"])
def test_diversity_age_counts_whole_subcarriers(n_sub):
    with pytest.raises(NoDiversityError,
                       match=re.escape(f"N_sub = {n_sub!r} must be an integer")):
        diversity_user_ages(uniform_policy(2), 0.5, n_sub)


@pytest.mark.parametrize("seed", range(5))
def test_diversity_age_midpoint_convexity(seed):
    rng = np.random.default_rng(300 + seed)
    a = rng.dirichlet(np.ones(3)) * 0.94 + 0.02
    b = rng.dirichlet(np.ones(3)) * 0.94 + 0.02
    pa = validate_policy(a / a.sum())
    pb = validate_policy(b / b.sum())
    mid = validate_policy((pa.probs + pb.probs) / 2)
    f = lambda q: _diversity_system_age(q, 0.4, 3)
    assert f(mid) <= (f(pa) + f(pb)) / 2 + 1e-12


# ===========================================================================
#  Validity guardrail
# ===========================================================================


def test_warns_when_horizon_too_short():
    with pytest.warns(AsymptoticValidityWarning):
        blocked_user_age(0.5, 0.3, 100)  # T*p = 50
    with pytest.warns(AsymptoticValidityWarning):
        blocked_user_age(0.25, 0.3, 300)  # T*p = 75


def test_no_warning_in_valid_regime():
    with warnings.catch_warnings():
        warnings.simplefilter("error", AsymptoticValidityWarning)
        blocked_user_age(0.5, 0.3, 1000)
        reduced_payoff_for_split(uniform_policy(2), [0.5, 0.0], 400)


def test_warning_points_at_the_caller():
    for call in (lambda: blocked_user_age(0.5, 0.3, 100),
                 lambda: blocked_user_age(0.25, 0.3, 300)):
        with pytest.warns(AsymptoticValidityWarning) as record:
            call()
        assert [w.filename for w in record] == [__file__]


def test_game_payoffs_do_not_warn():
    # T*min(p) = 2.5: the ages warn here, the payoffs do not
    with warnings.catch_warnings():
        warnings.simplefilter("error", AsymptoticValidityWarning)
        reduced_payoff_for_split(uniform_policy(4), [0.3, 0, 0, 0], 10)
        follower_aware_payoff(uniform_policy(4), 0.3, 10)


def test_single_blocked_user_values_are_pinned():
    # repr of each value, taken before the payoffs and the system age
    # shared their code; the split's payoff is that system age
    pol = validate_policy([0.2, 0.5, 0.3])
    assert repr(reduced_payoff_for_split(pol, [0.0, 0.25, 0.0], 1000)) == (
        "13.986111111111112")
    assert repr(_system_age(pol, 1, 0.25, 1000)) == "13.986111111111112"
    assert repr(_system_age(pol, 0, 0.37, 777)) == "21.727994444444445"
