"""Monte Carlo simulation: determinism, seeding, and agreement with the
exact recursion."""

import math

import numpy as np
import pytest

from aoijam.age_exact import (
    expected_age_trajectory,
    expected_age_trajectory_diversity,
)
from aoijam.errors import DimensionMismatchError, InsufficientRunsError
from aoijam.model import (
    SystemConfig,
    empty_plan,
    make_middle_block,
    make_uniform_subcarrier_block,
    middle_window,
    uniform_subcarrier_policy,
    validate_policy,
    validate_subcarrier_policy,
)
from aoijam.montecarlo import (
    BLOCK_CELLS,
    SimResult,
    estimate_average_age,
    mix_seed,
    simulate_run,
)

# ===========================================================================
#  Seed mixing
# ===========================================================================


def test_mix_seed_is_deterministic_and_64bit():
    a = mix_seed(12345, 7)
    assert a == mix_seed(12345, 7)
    assert 0 <= a < 2**64


def test_mix_seed_positions_distinct():
    outs = {mix_seed(999, k) for k in range(1000)}
    assert len(outs) == 1000


def test_mix_seed_masters_distinct():
    assert mix_seed(1, 0) != mix_seed(2, 0)


# ===========================================================================
#  simulate_run
# ===========================================================================


def test_always_scheduled_always_fresh():
    cfg = SystemConfig(horizon_T=50, num_users=1, alpha=0.01)
    ages = simulate_run(validate_policy([1.0]), None, empty_plan(cfg), cfg, 3)
    np.testing.assert_array_equal(ages, np.ones((1, 50), dtype=np.int64))


def test_same_seed_same_run():
    cfg = SystemConfig(horizon_T=200, num_users=3, alpha=0.2)
    pol = validate_policy([0.5, 0.3, 0.2])
    plan = make_middle_block(cfg, 2)
    a = simulate_run(pol, None, plan, cfg, 42)
    b = simulate_run(pol, None, plan, cfg, 42)
    np.testing.assert_array_equal(a, b)
    c = simulate_run(pol, None, plan, cfg, 43)
    assert not np.array_equal(a, c)


def test_ages_are_positive_ints_bounded_by_slot():
    cfg = SystemConfig(horizon_T=80, num_users=2, alpha=0.3)
    pol = validate_policy([0.7, 0.3])
    ages = simulate_run(pol, None, make_middle_block(cfg, 1), cfg, 11)
    assert np.issubdtype(ages.dtype, np.integer)
    assert np.all(ages >= 1)
    assert np.all(ages <= np.arange(1, 81))


def test_blocked_window_forces_age_increments():
    cfg = SystemConfig(horizon_T=20, num_users=2, alpha=0.3)  # B=6, slots 8..13
    pol = validate_policy([0.5, 0.5])
    start, stop = middle_window(20, cfg.budget_B)
    for seed in range(5):
        ages = simulate_run(pol, None, make_middle_block(cfg, 0), cfg, seed)
        window = ages[0, start:stop]
        assert np.all(np.diff(window) == 1)


def test_run_validates_dimensions_and_budget():
    cfg = SystemConfig(horizon_T=10, num_users=2, alpha=0.2)
    pol = validate_policy([0.5, 0.5])
    with pytest.raises(DimensionMismatchError):
        simulate_run(pol, None,
                     make_middle_block(
                         SystemConfig(horizon_T=10, num_users=3, alpha=0.2), 0),
                     cfg, 0)
    over = np.zeros((2, 10))
    over[0, :5] = 1.0
    from aoijam.model import BlockingPlan
    with pytest.raises(ValueError):
        simulate_run(pol, None, BlockingPlan("deterministic", over), cfg, 0)


def test_randomized_plan_uses_adversary_stream():
    cfg = SystemConfig(horizon_T=100, num_users=1, alpha=0.5, num_subcarriers=2)
    pol = validate_policy([1.0])
    q = uniform_subcarrier_policy(2)
    plan = make_uniform_subcarrier_block(cfg)
    a = simulate_run(pol, q, plan, cfg, 5)
    b = simulate_run(pol, q, plan, cfg, 5)
    np.testing.assert_array_equal(a, b)
    # a blocked draw must actually bite sometimes: some age > 1 inside window
    assert a.max() > 1


# ===========================================================================
#  estimate_average_age
# ===========================================================================


def test_estimate_requires_two_runs():
    cfg = SystemConfig(horizon_T=10, num_users=2, alpha=0.2)
    pol = validate_policy([0.5, 0.5])
    with pytest.raises(InsufficientRunsError):
        estimate_average_age(pol, None, empty_plan(cfg), cfg, 1, 0)


def test_estimate_is_deterministic_in_master_seed():
    cfg = SystemConfig(horizon_T=60, num_users=2, alpha=0.3)
    pol = validate_policy([0.6, 0.4])
    plan = make_middle_block(cfg, 1)
    r1 = estimate_average_age(pol, None, plan, cfg, 200, 77)
    r2 = estimate_average_age(pol, None, plan, cfg, 200, 77)
    assert r1.mean_system_age == r2.mean_system_age
    assert r1.std_error == r2.std_error
    np.testing.assert_array_equal(r1.per_user_mean, r2.per_user_mean)
    assert isinstance(r1, SimResult) and r1.runs == 200 and r1.seed == 77


@pytest.mark.parametrize("seed,n,alpha", [(0, 2, 0.3), (1, 3, 0.5), (2, 2, 0.7)])
def test_estimate_agrees_with_recursion(seed, n, alpha):
    rng = np.random.default_rng(seed)
    cfg = SystemConfig(horizon_T=40, num_users=n, alpha=alpha)
    p = rng.dirichlet(np.ones(n)) * 0.8 + 0.2 / n
    pol = validate_policy(p / p.sum())
    plan = make_middle_block(cfg, int(rng.integers(n)))
    exact = expected_age_trajectory(pol, plan, cfg).system_avg
    est = estimate_average_age(pol, None, plan, cfg, 4000, 1000 + seed)
    assert abs(est.mean_system_age - exact) <= 4 * est.std_error


def test_estimate_matches_diversity_recursion():
    cfg = SystemConfig(horizon_T=50, num_users=2, alpha=0.4, num_subcarriers=2)
    pol = validate_policy([0.6, 0.4])
    q = uniform_subcarrier_policy(2)
    plan = make_uniform_subcarrier_block(cfg)
    exact = expected_age_trajectory_diversity(pol, q, plan, cfg).system_avg
    est = estimate_average_age(pol, q, plan, cfg, 4000, 9)
    assert abs(est.mean_system_age - exact) <= 4 * est.std_error


def test_mean_trajectory_matches_recursion_pointwise():
    cfg = SystemConfig(horizon_T=3, num_users=2, alpha=0.1)
    pol = validate_policy([0.5, 0.5])
    runs = 20_000
    acc = np.zeros((2, 3))
    sq = np.zeros((2, 3))
    for k in range(runs):
        v = simulate_run(pol, None, empty_plan(cfg), cfg, mix_seed(4242, k))
        acc += v
        sq += v.astype(float) ** 2
    mean = acc / runs
    se = np.sqrt((sq / runs - mean**2) / runs)
    np.testing.assert_allclose(mean[0], [1.0, 1.5, 1.75], atol=3 * se[0].max())


def test_std_error_shrinks_like_sqrt_runs():
    cfg = SystemConfig(horizon_T=50, num_users=2, alpha=0.3)
    pol = validate_policy([0.5, 0.5])
    plan = make_middle_block(cfg, 0)
    se_small = estimate_average_age(pol, None, plan, cfg, 2000, 1).std_error
    se_big = estimate_average_age(pol, None, plan, cfg, 8000, 2).std_error
    assert se_small / se_big == pytest.approx(2.0, rel=0.2)


# ===========================================================================
#  Seed-to-output lock: block evaluation against the per-run loop
# ===========================================================================

_LOCK_PROBS = [0.5, 0.3, 0.2]
_RUNS_AT_500 = max(1, BLOCK_CELLS // 500)  # runs in one block at T=500


def _per_run_reference(policy, subpolicy, plan, config, runs, master_seed):
    """The estimator as a plain loop: one simulate_run per run, its ages
    averaged over slots, then the same compensated aggregation."""
    per_run_user = np.empty((runs, policy.n))
    for k in range(runs):
        ages = simulate_run(policy, subpolicy, plan, config,
                            mix_seed(master_seed, k))
        per_run_user[k] = ages.mean(axis=1)
    per_user_mean = np.array(
        [math.fsum(per_run_user[:, i]) / runs for i in range(policy.n)])
    system_per_run = per_run_user.mean(axis=1)
    mean_system = math.fsum(system_per_run) / runs
    centered = system_per_run - mean_system
    sample_var = math.fsum(centered * centered) / (runs - 1)
    return mean_system, per_user_mean, math.sqrt(sample_var / runs)


def _lock_scenario(plan_kind, horizon):
    pol = validate_policy(_LOCK_PROBS)
    if plan_kind == "diversity":
        cfg = SystemConfig(horizon, 3, 0.3, num_subcarriers=3)
        return (pol, validate_subcarrier_policy([0.5, 0.25, 0.25]),
                make_uniform_subcarrier_block(cfg), cfg)
    cfg = SystemConfig(horizon, 3, 0.3)
    plan = empty_plan(cfg) if plan_kind == "empty" else make_middle_block(cfg, 2)
    return pol, None, plan, cfg


@pytest.mark.parametrize("plan_kind", ["empty", "middle", "diversity"])
@pytest.mark.parametrize("horizon,runs", [
    (500, _RUNS_AT_500 - 1),
    (500, _RUNS_AT_500),
    (500, _RUNS_AT_500 + 1),
    (500, 3 * _RUNS_AT_500 + 5),
    (1, 40),
    (BLOCK_CELLS + 1, 3),  # a block holds a single run
])
def test_estimate_matches_per_run_loop_bit_for_bit(plan_kind, horizon, runs):
    pol, q, plan, cfg = _lock_scenario(plan_kind, horizon)
    est = estimate_average_age(pol, q, plan, cfg, runs, 31337)
    mean, per_user, se = _per_run_reference(pol, q, plan, cfg, runs, 31337)
    assert repr(est.mean_system_age) == repr(mean)
    assert repr(est.std_error) == repr(se)
    assert est.per_user_mean.tobytes() == per_user.tobytes()


@pytest.mark.parametrize("plan_kind,mean,se", [
    ("empty", "3.4629494949494948", "0.03270954244439598"),
    ("middle", "11.28608080808081", "0.08347638609209448"),
    ("diversity", "4.0184444444444445", "0.04252838888119944"),
])
def test_estimate_pinned_to_seed_mapping(plan_kind, mean, se):
    """Values of the per-run implementation this estimator replaced."""
    pol, q, plan, cfg = _lock_scenario(plan_kind, 500)
    est = estimate_average_age(pol, q, plan, cfg, 33, 2024)
    assert repr(est.mean_system_age) == mean
    assert repr(est.std_error) == se
