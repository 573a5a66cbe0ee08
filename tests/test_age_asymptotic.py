"""Closed-form large-horizon ages and the reduced game payoffs."""

import math
import warnings

import numpy as np
import pytest

from aoijam.age_asymptotic import (
    AsymptoticValidityWarning,
    blocked_user_age,
    diversity_system_age,
    reduced_objective,
    reduced_payoff_for_split,
    system_age_no_diversity,
    unblocked_user_age,
)
from aoijam.age_exact import expected_age_trajectory
from aoijam.errors import (
    DimensionMismatchError,
    IndexOutOfRangeError,
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


# ===========================================================================
#  Per-user closed forms
# ===========================================================================


def test_unblocked_age_is_reciprocal():
    assert unblocked_user_age(0.25) == 4.0
    assert unblocked_user_age(1.0) == 1.0
    with pytest.raises(NonPositiveEntryError):
        unblocked_user_age(0.0)


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
#  System age and reduced payoff
# ===========================================================================


def test_system_age_example():
    val = _quiet(system_age_no_diversity,
                 validate_policy([0.5, 0.5]), 0, 0.5, 100)
    assert val == pytest.approx((2.0 + 1.5 + 12.75 + 1.0) / 2, abs=1e-12)


def test_system_age_single_user():
    pol = validate_policy([1.0])
    assert _quiet(system_age_no_diversity, pol, 0, 0.3, 500) == pytest.approx(
        _quiet(blocked_user_age, 1.0, 0.3, 500), abs=1e-12)


def test_system_age_symmetric_in_spared_users():
    a = _quiet(system_age_no_diversity,
               validate_policy([0.5, 0.2, 0.3]), 0, 0.4, 2000)
    b = _quiet(system_age_no_diversity,
               validate_policy([0.5, 0.3, 0.2]), 0, 0.4, 2000)
    assert a == pytest.approx(b, abs=1e-12)


def test_system_age_index_checked():
    with pytest.raises(IndexOutOfRangeError):
        _quiet(system_age_no_diversity, uniform_policy(2), 2, 0.4, 100)


def test_reduced_objective_example():
    payoff = reduced_objective(validate_policy([0.5, 0.5]), 0, 0.5, 100)
    assert payoff == pytest.approx(2.0 + 3.0 - 0.5 + 12.75, abs=1e-12)


def test_reduced_objective_alpha_zero_is_weight_sum():
    pol = validate_policy([0.25, 0.25, 0.5])
    payoff = reduced_objective(pol, 1, 0.0, 100)
    assert payoff == pytest.approx(float(np.sum(1 / pol.probs)), abs=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_reduced_equals_scaled_system_age(seed):
    # the dropped constants cancel exactly: reduced = N * system average
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(1, 6))
    p = rng.dirichlet(np.ones(n) * 3) * 0.98 + 0.02 / n
    pol = validate_policy(p / p.sum())
    b = int(rng.integers(n))
    alpha = float(rng.uniform(0.05, 0.95))
    T = int(rng.integers(10, 100_000))
    lhs = reduced_objective(pol, b, alpha, T)
    rhs = n * _quiet(system_age_no_diversity, pol, b, alpha, T)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_reduced_objective_argmin_matches_system_grid():
    # coarse simplex grid, N=2: both objectives pick the same best policy
    alpha, T = 0.6, 5000
    grid = [validate_policy([x, 1 - x]) for x in np.arange(0.05, 1.0, 0.05)]
    red = [reduced_objective(g, 0, alpha, T) for g in grid]
    sys_ = [_quiet(system_age_no_diversity, g, 0, alpha, T) for g in grid]
    assert int(np.argmin(red)) == int(np.argmin(sys_))


# ===========================================================================
#  Per-user shares of the horizon
# ===========================================================================


def test_split_zero_budget_is_unjammed_payoff():
    pol = uniform_policy(3)
    for T in (10, 1000, 10**6):
        assert reduced_payoff_for_split(pol, np.zeros(3), T) == 9.0


def test_split_concentration_beats_uniform_by_known_gap():
    # at uniform p the gap is alpha^2*T/2*(1 - 1/N)
    n, alpha, T = 4, 0.6, 2000
    pol = uniform_policy(n)
    conc = np.eye(n)[0] * alpha
    unif = np.full(n, alpha / n)
    gap = reduced_payoff_for_split(pol, conc, T) - reduced_payoff_for_split(
        pol, unif, T)
    assert gap == pytest.approx(alpha**2 * T / 2 * (1 - 1 / n), rel=1e-12)


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
    # the single-target payoff is the one-hot case, bit for bit
    assert reduced_payoff_for_split(pol, alpha * np.eye(n)[b], T) == (
        reduced_objective(pol, b, alpha, T))


def test_reduced_payoff_for_empty_split_is_base_cost():
    pol = validate_policy([0.4, 0.6])
    assert reduced_payoff_for_split(pol, np.zeros(2), 1000) == pytest.approx(
        1 / 0.4 + 1 / 0.6, abs=1e-12)


def test_reduced_payoff_groups_unblocked_blocked_and_linear_sums():
    # fsum of three fsums: 1/p_j over unshared users, (1+a)/p - a and
    # a(1+aT)/2 over the shared ones
    p, a, T = [0.2, 0.5, 0.3], [0.0, 0.25, 0.1], 1000
    expect = math.fsum((
        1 / 0.2,
        math.fsum(((1 + 0.25) / 0.5 - 0.25, (1 + 0.1) / 0.3 - 0.1)),
        math.fsum((0.25 * (1 + 0.25 * T) / 2, 0.1 * (1 + 0.1 * T) / 2))))
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
])
def test_split_shares_are_validated(shares, error, message):
    with pytest.raises(error) as info:
        reduced_payoff_for_split(uniform_policy(2), shares, 1000)
    assert message in str(info.value)


# ===========================================================================
#  Diversity system age
# ===========================================================================


def test_diversity_age_example():
    assert diversity_system_age(
        validate_policy([0.5, 0.5]), 0.5, 2) == pytest.approx(3.0, abs=1e-12)


def test_diversity_age_zero_alpha():
    pol = validate_policy([0.25, 0.75])
    assert diversity_system_age(pol, 0.0, 4) == pytest.approx(
        float(np.mean(1 / pol.probs)), abs=1e-12)


def test_diversity_age_many_subcarriers_approaches_unblocked():
    pol = validate_policy([0.3, 0.7])
    base = float(np.mean(1 / pol.probs))
    prev = np.inf
    for nsub in (2, 4, 16, 256):
        val = diversity_system_age(pol, 0.5, nsub)
        assert base < val < prev
        prev = val
    assert prev == pytest.approx(base, rel=0.005)


def test_diversity_age_requires_subcarriers():
    with pytest.raises(NoDiversityError):
        diversity_system_age(uniform_policy(2), 0.5, 1)


@pytest.mark.parametrize("seed", range(5))
def test_diversity_age_midpoint_convexity(seed):
    rng = np.random.default_rng(300 + seed)
    a = rng.dirichlet(np.ones(3)) * 0.94 + 0.02
    b = rng.dirichlet(np.ones(3)) * 0.94 + 0.02
    pa = validate_policy(a / a.sum())
    pb = validate_policy(b / b.sum())
    mid = validate_policy((pa.probs + pb.probs) / 2)
    f = lambda q: diversity_system_age(q, 0.4, 3)
    assert f(mid) <= (f(pa) + f(pb)) / 2 + 1e-12


# ===========================================================================
#  Validity guardrail
# ===========================================================================


def test_warns_when_horizon_too_short():
    with pytest.warns(AsymptoticValidityWarning):
        blocked_user_age(0.5, 0.3, 100)  # T*p = 50
    with pytest.warns(AsymptoticValidityWarning):
        system_age_no_diversity(uniform_policy(4), 0, 0.3, 300)  # T*p = 75


def test_no_warning_in_valid_regime():
    with warnings.catch_warnings():
        warnings.simplefilter("error", AsymptoticValidityWarning)
        blocked_user_age(0.5, 0.3, 1000)
        reduced_objective(uniform_policy(2), 0, 0.5, 400)


def test_warning_points_at_the_caller():
    for call in (lambda: blocked_user_age(0.5, 0.3, 100),
                 lambda: system_age_no_diversity(uniform_policy(4), 0, 0.3,
                                                 300)):
        with pytest.warns(AsymptoticValidityWarning) as record:
            call()
        assert [w.filename for w in record] == [__file__]


def test_game_payoffs_do_not_warn():
    # T*min(p) = 2.5: the ages warn here, the payoffs do not
    with warnings.catch_warnings():
        warnings.simplefilter("error", AsymptoticValidityWarning)
        reduced_objective(uniform_policy(4), 0, 0.3, 10)
        reduced_payoff_for_split(uniform_policy(4), [0.3, 0, 0, 0], 10)


def test_single_blocked_user_values_are_pinned():
    # repr of each value, taken before the two payoffs shared their code
    pol = validate_policy([0.2, 0.5, 0.3])
    assert repr(reduced_objective(pol, 1, 0.25, 1000)) == "41.958333333333336"
    assert repr(system_age_no_diversity(pol, 1, 0.25, 1000)) == (
        "13.986111111111112")
    assert repr(system_age_no_diversity(pol, 0, 0.37, 777)) == (
        "21.727994444444445")
