"""Core types: policies, blocking plans, budgets, feasibility."""

import math

import numpy as np
import pytest

from aoijam.errors import (
    DimensionMismatchError,
    NoDiversityError,
    NonPositiveEntryError,
    NotNormalizedError,
    TargetOutOfRangeError,
)
from aoijam.model import (
    BlockingPlan,
    BudgetSplit,
    SchedulingPolicy,
    SystemConfig,
    blocking_feasible,
    empty_plan,
    make_middle_block,
    make_uniform_subcarrier_block,
    middle_window,
    uniform_policy,
    validate_policy,
    validate_subcarrier_policy,
)

# ===========================================================================
#  SystemConfig
# ===========================================================================


def test_budget_is_floor_of_alpha_T():
    cfg = SystemConfig(horizon_T=10, num_users=2, alpha=0.4)
    assert cfg.budget_B == 4


def test_budget_rounds_down():
    assert SystemConfig(horizon_T=10, num_users=2, alpha=0.05).budget_B == 0
    assert SystemConfig(horizon_T=10, num_users=2, alpha=0.39).budget_B == 3
    assert SystemConfig(horizon_T=7, num_users=3, alpha=0.5).budget_B == 3


@pytest.mark.parametrize("alpha, horizon, budget", [
    (0.29, 100, 29),  # 0.29 * 100 evaluates to 28.999999999999996
    (0.57, 100, 57),
    (0.58, 100, 58),
    (1 / 3, 3, 1),
    (0.295, 100, 29),  # a genuine fraction still rounds down
])
def test_budget_survives_float_error(alpha, horizon, budget):
    assert SystemConfig(horizon_T=horizon, num_users=2,
                        alpha=alpha).budget_B == budget


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 1.5])
def test_alpha_outside_open_interval_rejected(alpha):
    with pytest.raises(ValueError):
        SystemConfig(horizon_T=10, num_users=2, alpha=alpha)


def test_channel_count_follows_model_variant():
    no_div = SystemConfig(horizon_T=10, num_users=3, alpha=0.2)
    assert not no_div.has_diversity
    assert no_div.num_channels == 3
    div = SystemConfig(horizon_T=10, num_users=3, alpha=0.2, num_subcarriers=4)
    assert div.has_diversity
    assert div.num_channels == 4


# ===========================================================================
#  Policies
# ===========================================================================


def test_validate_policy_accepts_exact_distribution():
    pol = validate_policy([0.375, 0.3125, 0.3125])
    assert isinstance(pol, SchedulingPolicy)
    np.testing.assert_allclose(pol.probs, [0.375, 0.3125, 0.3125])


def test_validate_policy_rejects_bad_sum():
    with pytest.raises(NotNormalizedError):
        validate_policy([0.5, 0.6])


def test_validate_policy_rejects_nonpositive_entry():
    with pytest.raises(NonPositiveEntryError):
        validate_policy([0.0, 1.0])
    with pytest.raises(NonPositiveEntryError):
        validate_policy([-0.2, 1.2])


@pytest.mark.parametrize("build, raw, message", [
    (validate_policy, [math.nan, 1.0], "p[0] = nan"),
    (validate_policy, [0.5, math.inf], "p[1] = inf"),
    (validate_policy, [0.5, -math.inf, 0.5], "p[1] = -inf"),
    (validate_subcarrier_policy, [1.0, math.nan], "q[1] = nan"),
    (validate_subcarrier_policy, [math.inf, 0.0], "q[0] = inf"),
    (validate_subcarrier_policy, [0.5, 0.5, -math.inf], "q[2] = -inf"),
])
def test_policies_reject_non_finite_entries(build, raw, message):
    with pytest.raises(NonPositiveEntryError) as info:
        build(raw)
    assert message in str(info.value)


def test_validate_policy_normalizes_tiny_drift():
    # off by ~3e-10 in the sum: accepted and renormalized
    raw = np.array([0.3, 0.3, 0.4]) * (1.0 + 3e-10)
    pol = validate_policy(raw)
    assert abs(math.fsum(pol.probs) - 1.0) <= 1e-12


def test_policy_array_is_read_only():
    pol = uniform_policy(4)
    with pytest.raises(ValueError):
        pol.probs[0] = 0.9


def test_subcarrier_policy_allows_zero_entries():
    q = validate_subcarrier_policy([0.0, 1.0])
    np.testing.assert_allclose(q.probs, [0.0, 1.0])
    with pytest.raises(NonPositiveEntryError):
        validate_subcarrier_policy([-0.1, 1.1])


# ===========================================================================
#  Middle-block construction
# ===========================================================================


def test_middle_block_T10_alpha04():
    # B = 4, window starts after ceil((10-4)/2) = 3 clear slots:
    # blocked 1-based slots are {4, 5, 6, 7}
    cfg = SystemConfig(horizon_T=10, num_users=2, alpha=0.4)
    plan = make_middle_block(cfg, target=0)
    blocked = np.flatnonzero(plan.block_prob[0]) + 1
    assert blocked.tolist() == [4, 5, 6, 7]
    assert plan.block_prob[1].sum() == 0.0
    assert plan.mode == "deterministic"


def test_middle_block_T4_alpha05_target1():
    cfg = SystemConfig(horizon_T=4, num_users=2, alpha=0.5)
    plan = make_middle_block(cfg, target=1)
    blocked = np.flatnonzero(plan.block_prob[1]) + 1
    assert blocked.tolist() == [2, 3]
    assert plan.block_prob[0].sum() == 0.0


def test_middle_block_zero_budget_is_empty():
    cfg = SystemConfig(horizon_T=10, num_users=2, alpha=0.05)
    plan = make_middle_block(cfg, target=0)
    assert plan.total_blocked() == 0.0
    assert blocking_feasible(plan, cfg)


def test_middle_block_odd_remainder_window():
    # T=11, B=4: start = ceil(7/2) = 4, blocked 1-based slots {5,6,7,8}
    cfg = SystemConfig(horizon_T=11, num_users=2, alpha=0.4)
    plan = make_middle_block(cfg, target=0)
    assert (np.flatnonzero(plan.block_prob[0]) + 1).tolist() == [5, 6, 7, 8]


def test_middle_block_target_range_checked():
    cfg = SystemConfig(horizon_T=10, num_users=2, alpha=0.4)
    with pytest.raises(TargetOutOfRangeError):
        make_middle_block(cfg, target=2)
    with pytest.raises(TargetOutOfRangeError):
        make_middle_block(cfg, target=-1)


def test_middle_block_diversity_rows_are_subcarriers():
    cfg = SystemConfig(horizon_T=10, num_users=2, alpha=0.4, num_subcarriers=5)
    plan = make_middle_block(cfg, target=4)
    assert plan.channels == 5


def test_middle_window_helper():
    assert middle_window(10, 4) == (3, 7)
    assert middle_window(4, 2) == (1, 3)
    assert middle_window(10, 0) == (5, 5)


# ===========================================================================
#  Uniform sub-carrier blocking
# ===========================================================================


def test_uniform_subcarrier_block_entries():
    cfg = SystemConfig(horizon_T=10, num_users=2, alpha=0.4, num_subcarriers=4)
    plan = make_uniform_subcarrier_block(cfg)
    start, stop = middle_window(10, 4)
    window = plan.block_prob[:, start:stop]
    np.testing.assert_allclose(window, 0.25)
    outside = np.delete(plan.block_prob, np.s_[start:stop], axis=1)
    assert np.all(outside == 0.0)
    # one blocked sub-carrier per window slot in expectation
    np.testing.assert_allclose(plan.block_prob[:, start:stop].sum(axis=0), 1.0)
    assert blocking_feasible(plan, cfg)


def test_uniform_subcarrier_block_needs_diversity():
    cfg = SystemConfig(horizon_T=10, num_users=2, alpha=0.4)
    with pytest.raises(NoDiversityError):
        make_uniform_subcarrier_block(cfg)


# ===========================================================================
#  Plan validity and feasibility
# ===========================================================================


def test_plan_rejects_two_channels_same_slot():
    m = np.zeros((2, 4))
    m[0, 1] = 1.0
    m[1, 1] = 1.0
    with pytest.raises(ValueError):
        BlockingPlan("deterministic", m)


@pytest.mark.parametrize("mode, raw, message", [
    ("randomized", [[math.nan, 0.1]], "block_prob[0, 0] = nan"),
    ("randomized", [[0.0, 0.1], [0.2, math.nan]], "block_prob[1, 1] = nan"),
    ("randomized", [[0.0, math.inf]], "block_prob[0, 1] = inf"),
    ("deterministic", [[0.0, 1.0], [-math.inf, 0.0]], "block_prob[1, 0] = -inf"),
])
def test_plan_rejects_non_finite_entries(mode, raw, message):
    with pytest.raises(ValueError) as info:
        BlockingPlan(mode, raw)
    assert message in str(info.value)


def test_plan_rejects_fractional_deterministic_entries():
    m = np.zeros((2, 4))
    m[0, 1] = 0.5
    with pytest.raises(ValueError):
        BlockingPlan("deterministic", m)
    # same matrix is fine as a randomized plan
    BlockingPlan("randomized", m)


def test_feasibility_rejects_over_budget():
    cfg = SystemConfig(horizon_T=10, num_users=2, alpha=0.4)  # B = 4
    m = np.zeros((2, 10))
    m[0, :5] = 1.0  # 5 blocked slots
    assert not blocking_feasible(BlockingPlan("deterministic", m), cfg)
    m[0, 4] = 0.0
    assert blocking_feasible(BlockingPlan("deterministic", m), cfg)


def test_feasibility_checks_dimensions():
    cfg = SystemConfig(horizon_T=10, num_users=2, alpha=0.4)
    wrong = BlockingPlan("deterministic", np.zeros((3, 10)))
    with pytest.raises(DimensionMismatchError):
        blocking_feasible(wrong, cfg)
    short = BlockingPlan("deterministic", np.zeros((2, 9)))
    with pytest.raises(DimensionMismatchError):
        blocking_feasible(short, cfg)


def test_empty_plan_is_feasible():
    cfg = SystemConfig(horizon_T=6, num_users=3, alpha=0.3)
    assert blocking_feasible(empty_plan(cfg), cfg)


def test_randomized_budget_counts_expected_mass():
    cfg = SystemConfig(horizon_T=10, num_users=2, alpha=0.2)  # B = 2
    m = np.zeros((2, 10))
    m[0, :] = 0.25  # expected blocked mass 2.5 > 2
    assert not blocking_feasible(BlockingPlan("randomized", m), cfg)
    m[0, :8] = 0.25
    m[0, 8:] = 0.0
    assert blocking_feasible(BlockingPlan("randomized", m), cfg)


# ===========================================================================
#  BudgetSplit
# ===========================================================================


def test_budget_split_total_checked():
    BudgetSplit(np.array([0.1, 0.2]), alpha=0.3)
    with pytest.raises(ValueError):
        BudgetSplit(np.array([0.1, 0.25]), alpha=0.3)
    with pytest.raises(ValueError):
        BudgetSplit(np.array([-0.1, 0.4]), alpha=0.3)


def test_budget_split_infers_total_when_omitted():
    s = BudgetSplit(np.array([0.05, 0.15]))
    assert s.alpha == pytest.approx(0.2, abs=1e-15)
