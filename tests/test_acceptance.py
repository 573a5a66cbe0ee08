"""Acceptance checks, one per criterion, each printing a single PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the lines; under plain
pytest the per-test PASSED/FAILED verdict carries the same information.
Tolerances and time budgets are asserted, not advisory.
"""

import json
from time import perf_counter

import numpy as np

from aoijam import (
    SystemConfig,
    adversary_best_response,
    adversary_oracle,
    best_response_dynamics,
    blocked_user_age,
    counter_block_policy,
    diversity_nash_point,
    empty_plan,
    estimate_average_age,
    expected_age_trajectory,
    expected_age_trajectory_diversity,
    follower_aware_payoff,
    make_middle_block,
    make_uniform_subcarrier_block,
    numeric_simplex_minimizer,
    oracle_plan_count,
    ordered_kkt_solver,
    uniform_policy,
    validate_policy,
    validate_subcarrier_policy,
    verify_diversity_nash,
)
from aoijam.cli import main


def test_criterion_01_closed_form_matches_numeric_best_response():
    start = perf_counter()
    worst = 0.0
    for n in (2, 3, 5, 10):
        for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
            game = SystemConfig(horizon_T=100, num_users=n, alpha=alpha)
            closed = counter_block_policy(game, 0)
            weights = np.ones(n)
            weights[0] = 1.0 + alpha
            numeric = numeric_simplex_minimizer(weights)
            worst = max(worst, float(np.abs(closed.probs - numeric.probs).max()))
    elapsed = perf_counter() - start
    assert worst <= 1e-6, f"max deviation {worst:.3e} exceeds 1e-6"
    assert elapsed < 1.0, f"took {elapsed:.3f}s, budget 1s"
    print(f"\ncriterion 01: PASS - closed form vs numeric minimizer over "
          f"N x alpha grid, max dev {worst:.2e} (tol 1e-6), {elapsed:.3f}s")


def test_criterion_02_long_horizon_recursion_approaches_inverse_rate():
    config = SystemConfig(horizon_T=100_000, num_users=2, alpha=0.5)
    policy = validate_policy([0.01, 0.99])
    start = perf_counter()
    series = expected_age_trajectory(policy, empty_plan(config), config)
    elapsed = perf_counter() - start
    avg = float(series.per_user_avg[0])
    rel = abs(avg - 100.0) / 100.0
    assert rel <= 0.01, f"time-average {avg:.4f} is {rel:.2%} from 100"
    assert elapsed < 1.0, f"took {elapsed:.3f}s, budget 1s"
    print(f"criterion 02: PASS - recursion at p=0.01, T=1e5 gives {avg:.3f} "
          f"vs 100 (rel {rel:.2e}, tol 1e-2), {elapsed:.3f}s")


def test_criterion_03_blocked_user_matches_long_horizon_closed_form():
    config = SystemConfig(horizon_T=10_000, num_users=2, alpha=0.2)
    policy = validate_policy([0.1, 0.9])
    start = perf_counter()
    series = expected_age_trajectory(
        policy, make_middle_block(config, 0), config)
    elapsed = perf_counter() - start
    avg = float(series.per_user_avg[0])
    predicted = blocked_user_age(0.1, 0.2, 10_000)
    rel = abs(avg - predicted) / predicted
    assert rel <= 0.02, f"exact {avg:.4f} vs closed form {predicted:.4f}"
    assert elapsed < 1.0, f"took {elapsed:.3f}s, budget 1s"
    print(f"criterion 03: PASS - blocked-user exact {avg:.3f} vs closed form "
          f"{predicted:.3f} (rel {rel:.2e}, tol 2e-2), {elapsed:.3f}s")


def test_criterion_04_monte_carlo_agrees_with_recursion():
    config = SystemConfig(horizon_T=500, num_users=3, alpha=0.3)
    policy = validate_policy([0.5, 0.3, 0.2])
    plan = make_middle_block(config, 2)
    exact = expected_age_trajectory(policy, plan, config).system_avg
    start = perf_counter()
    result = estimate_average_age(policy, None, plan, config,
                                  runs=200_000, master_seed=2024)
    elapsed = perf_counter() - start
    dev = abs(result.mean_system_age - exact)
    assert dev <= 3.0 * result.std_error, (
        f"simulated {result.mean_system_age:.5f} vs exact {exact:.5f} "
        f"is {dev / result.std_error:.2f} standard errors away")
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"
    print(f"criterion 04: PASS - 2e5 runs give {result.mean_system_age:.4f} "
          f"vs exact {exact:.4f} ({dev / result.std_error:.2f} SE, tol 3 SE), "
          f"{elapsed:.1f}s")


def test_criterion_05_best_response_dynamics_never_settles():
    start = perf_counter()
    for n in (2, 3):
        for alpha in (0.3, 0.5):
            report = best_response_dynamics(
                SystemConfig(horizon_T=1000, num_users=n, alpha=alpha), 20)
            targets = [step.blocked_user for step in report.trace]
            assert len(targets) == 20
            changes = [a != b for a, b in zip(targets, targets[1:])]
            assert all(changes), (
                f"N={n}, alpha={alpha}: target repeated at "
                f"iteration {changes.index(False) + 1}")
            assert not report.holds
    elapsed = perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s, budget 1s"
    print(f"criterion 05: PASS - alternating play for N in 2,3 x alpha in "
          f"0.3,0.5: blocked user changes all 20 iterations, no fixed point, "
          f"{elapsed:.3f}s")


def test_criterion_06_ordered_solver_returns_uniform_and_uniform_is_minimax():
    start = perf_counter()
    worst = 0.0
    rng = np.random.default_rng(606)
    for n in range(2, 9):
        for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
            ordered = ordered_kkt_solver(
                SystemConfig(horizon_T=10_000, num_users=n, alpha=alpha))
            worst = max(worst,
                        float(np.abs(ordered.probs - 1.0 / n).max()))
            value = follower_aware_payoff(uniform_policy(n), alpha, 10_000)
            for _ in range(200):
                draw = rng.dirichlet(np.ones(n))
                rival = validate_policy((draw + 0.02) / (1.0 + 0.02 * n))
                assert value <= follower_aware_payoff(
                    rival, alpha, 10_000) + 1e-9
    elapsed = perf_counter() - start
    assert worst <= 1e-6, f"ordered solver off uniform by {worst:.3e}"
    assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"
    print(f"criterion 06: PASS - order-constrained solver lands on uniform "
          f"(max dev {worst:.2e}, tol 1e-6) and uniform beats 200 sampled "
          f"rivals per cell, {elapsed:.1f}s")


def test_criterion_07_subcarrier_choice_does_not_move_the_age():
    start = perf_counter()
    rng = np.random.default_rng(707)
    for nsub in (2, 4):
        config = SystemConfig(horizon_T=400, num_users=2, alpha=0.3,
                              num_subcarriers=nsub)
        policy = uniform_policy(2)
        plan = make_uniform_subcarrier_block(config)
        reference = None
        spread = 0.0
        for _ in range(20):
            q = validate_subcarrier_policy(rng.dirichlet(np.ones(nsub)))
            avg = expected_age_trajectory_diversity(
                policy, q, plan, config).system_avg
            if reference is None:
                reference = avg
            spread = max(spread, abs(avg - reference))
        assert spread <= 1e-12 * reference, (
            f"N_sub={nsub}: spread {spread:.3e} across random q")
    elapsed = perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.1f}s, budget 5s"
    print(f"criterion 07: PASS - system age invariant across 20 random "
          f"sub-carrier choices for N_sub in 2,4 (rel tol 1e-12), "
          f"{elapsed:.1f}s")


def test_criterion_08_diversity_equilibrium_survives_sampled_deviations():
    start = perf_counter()
    for n in (2, 4):
        for nsub in (2, 4):
            for alpha in (0.2, 0.5):
                config = SystemConfig(horizon_T=400, num_users=n, alpha=alpha,
                                      num_subcarriers=nsub)
                point = diversity_nash_point(config)
                report = verify_diversity_nash(point, config, 500, 500,
                                               seed=808)
                assert report.holds, (
                    f"N={n}, N_sub={nsub}, alpha={alpha}: "
                    f"witness {report.witness}")
    elapsed = perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"
    print(f"criterion 08: PASS - uniform point survives 500+500 sampled "
          f"deviations in all 8 (N, N_sub, alpha) cells, {elapsed:.1f}s")


def test_criterion_09_exhaustive_adversary_vs_structured_plan():
    config = SystemConfig(horizon_T=10, num_users=2, alpha=0.3)
    assert config.budget_B == 3
    policy = validate_policy([0.7, 0.3])
    start = perf_counter()
    oracle = adversary_oracle(policy, config)
    elapsed = perf_counter() - start
    structured = adversary_best_response(policy, config)
    structured_exact = expected_age_trajectory(
        policy, structured.plan, config).system_avg
    gap = oracle.payoff - structured_exact
    assert gap >= -1e-9, "oracle fell below the structured plan"
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"
    print(f"criterion 09: PASS - oracle over "
          f"{oracle_plan_count(2, 10, 3)} plans reaches {oracle.payoff:.6f}; "
          f"structured middle block gives {structured_exact:.6f}; "
          f"gap {gap:+.3e} (reported, not asserted zero), {elapsed:.1f}s")


def test_criterion_10_same_seed_reruns_are_byte_identical(tmp_path):
    doc = {
        "schema_version": 1,
        "model": "no-diversity",
        "system": {"horizon_T": 60, "num_users": 2, "alpha": 0.4},
        "policy": {"source": "explicit", "probs": [0.6, 0.4]},
        "plan": {"source": "middle-block", "target": 1},
        "experiment": {"name": "montecarlo", "runs": 2000, "seed": 77},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    start = perf_counter()
    for sub in ("first", "second"):
        code = main(["simulate", "--config", str(path),
                     "--out-dir", str(tmp_path / sub), "--quiet"])
        assert code == 0
    elapsed = perf_counter() - start
    for name in ("sim.csv", "scenario.json"):
        first = (tmp_path / "first" / name).read_bytes()
        second = (tmp_path / "second" / name).read_bytes()
        assert first == second, f"{name} differs between identical runs"
    print(f"criterion 10: PASS - repeated same-seed runs produce "
          f"byte-identical sim.csv and scenario.json, {elapsed:.2f}s")
