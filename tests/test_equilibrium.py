"""Equilibrium layer: Nash witness checks, the non-convergent dynamics,
Stackelberg certification, and the diversity Nash point."""

import math

import numpy as np
import pytest

from aoijam.age_asymptotic import reduced_objective
from aoijam.best_response import bs_best_response_single_block
from aoijam.equilibrium import (
    ADV_DEVIATION_FAMILIES,
    DeviationWitness,
    EquilibriumReport,
    best_response_dynamics,
    diversity_nash_point,
    follower_aware_payoff,
    is_nash_no_diversity,
    stackelberg_equilibrium,
    _sample_adv_deviations,
    verify_diversity_nash,
)
from aoijam.errors import (
    CertificateError,
    DimensionMismatchError,
    NoDiversityError,
)
from aoijam.model import (
    SystemConfig,
    empty_plan,
    make_middle_block,
    middle_window,
    uniform_policy,
    uniform_subcarrier_policy,
    validate_policy,
)

# ===========================================================================
#  Nash witness checks (no diversity)
# ===========================================================================


def _cfg(T=100, n=2, alpha=0.5):
    return SystemConfig(horizon_T=T, num_users=n, alpha=alpha)


def test_uniform_with_middle_block_fails_on_bs_side():
    cfg = _cfg()
    report = is_nash_no_diversity(
        uniform_policy(2), make_middle_block(cfg, 0), cfg)
    assert report.holds is False
    w = report.witness
    assert w.player == "base-station"
    root = math.sqrt(1.5)
    np.testing.assert_allclose(
        w.strategy.probs, [root / (1 + root), 1 / (1 + root)], atol=1e-6)
    assert w.payoff_after < w.payoff_before - 1e-9


def test_best_response_policy_fails_on_adversary_side():
    cfg = _cfg()
    policy = bs_best_response_single_block(2, 0.5)  # shields user 0
    report = is_nash_no_diversity(policy, make_middle_block(cfg, 0), cfg)
    assert report.holds is False
    w = report.witness
    assert w.player == "adversary"
    assert "user 1" in w.description
    assert w.payoff_after > w.payoff_before + 1e-9


def test_nash_check_payoff_is_the_single_target_payoff():
    # the plan's shares are one-hot: both payoffs are one formula, bit for bit
    cfg = _cfg(T=1000, n=8, alpha=0.2)
    report = is_nash_no_diversity(
        uniform_policy(8), make_middle_block(cfg, 0), cfg)
    assert report.payoff == reduced_objective(uniform_policy(8), 0, 0.2, 1000)
    assert report.payoff == 85.5


def test_zero_budget_uniform_pair_is_nash():
    cfg = _cfg(T=10, alpha=0.05)  # B = 0
    report = is_nash_no_diversity(uniform_policy(2), empty_plan(cfg), cfg)
    assert report.holds is True
    assert report.witness is None


def test_zero_budget_nonuniform_still_fails_bs_side():
    cfg = _cfg(T=10, alpha=0.05)
    report = is_nash_no_diversity(
        validate_policy([0.8, 0.2]), empty_plan(cfg), cfg)
    assert report.holds is False
    assert report.witness.player == "base-station"


def test_nash_check_rejects_diversity_and_infeasible_inputs():
    div_cfg = SystemConfig(horizon_T=100, num_users=2, alpha=0.5,
                           num_subcarriers=2)
    with pytest.raises(ValueError):
        is_nash_no_diversity(uniform_policy(2), empty_plan(div_cfg), div_cfg)
    cfg = _cfg(alpha=0.2)
    from aoijam.model import BlockingPlan
    over = np.zeros((2, 100))
    over[0, :30] = 1.0  # B = 20
    with pytest.raises(ValueError):
        is_nash_no_diversity(
            uniform_policy(2), BlockingPlan(over), cfg)


def test_failed_report_must_carry_witness():
    with pytest.raises(CertificateError, match="witness"):
        EquilibriumReport(kind="nash-check", holds=False)


# ===========================================================================
#  Best-response dynamics
# ===========================================================================


def test_dynamics_two_users_alternate_targets():
    report = best_response_dynamics(2, 0.5, 10_000, 8)
    targets = [s.blocked_user for s in report.trace]
    assert targets == [0, 1, 0, 1, 0, 1, 0, 1]
    assert report.holds is False
    assert len(report.trace) == 8


def test_dynamics_policies_cycle_without_fixed_point():
    report = best_response_dynamics(2, 0.5, 10_000, 9)
    probs = [s.policy.probs for s in report.trace]
    np.testing.assert_allclose(probs[1], probs[3], atol=1e-15)
    np.testing.assert_allclose(probs[2], probs[4], atol=1e-15)
    assert np.max(np.abs(probs[1] - probs[2])) > 0.05
    for a, b in zip(report.trace, report.trace[1:]):
        changed = (a.blocked_user != b.blocked_user
                   or np.max(np.abs(a.policy.probs - b.policy.probs)) > 1e-12)
        assert changed


@pytest.mark.parametrize("n,alpha", [(2, 0.3), (2, 0.5), (3, 0.3), (3, 0.5)])
def test_dynamics_target_changes_every_iteration(n, alpha):
    report = best_response_dynamics(n, alpha, 10_000, 20)
    targets = [s.blocked_user for s in report.trace]
    assert all(a != b for a, b in zip(targets, targets[1:]))
    assert report.holds is False


def test_dynamics_minimal_and_invalid_iterations():
    assert len(best_response_dynamics(2, 0.4, 1000, 2).trace) == 2
    with pytest.raises(ValueError):
        best_response_dynamics(2, 0.4, 1000, 1)


def test_dynamics_payoffs_are_reduced_objective_values():
    report = best_response_dynamics(3, 0.4, 5000, 4)
    for step in report.trace:
        expect = reduced_objective(step.policy, step.blocked_user, 0.4, 5000)
        assert step.payoff == pytest.approx(expect, abs=1e-12)


# ===========================================================================
#  Stackelberg
# ===========================================================================


def test_stackelberg_example_value():
    leader, plan, payoff = stackelberg_equilibrium(2, 0.5, 100)
    np.testing.assert_allclose(leader.probs, 0.5)
    assert payoff == pytest.approx(17.25, abs=1e-12)
    start, stop = middle_window(100, 50)
    assert np.all(plan.block_prob[0, start:stop] == 1.0)
    assert plan.block_prob[1].sum() == 0.0


def test_stackelberg_target_parameter_picks_tied_plan():
    _, plan0, pay0 = stackelberg_equilibrium(3, 0.4, 300, target=0)
    _, plan2, pay2 = stackelberg_equilibrium(3, 0.4, 300, target=2)
    assert pay0 == pytest.approx(pay2, abs=1e-12)
    assert plan0.block_prob[0].sum() > 0
    assert plan2.block_prob[2].sum() > 0


def test_stackelberg_single_user():
    leader, plan, _ = stackelberg_equilibrium(1, 0.3, 100)
    np.testing.assert_allclose(leader.probs, [1.0])
    assert plan.total_blocked() == 30


def test_stackelberg_leader_beats_sampled_rivals():
    rng = np.random.default_rng(5)
    _, _, payoff = stackelberg_equilibrium(3, 0.6, 2000, certify_samples=50)
    for _ in range(50):
        p = np.clip(rng.dirichlet(np.ones(3)), 1e-6, None)
        rival = validate_policy(p / p.sum())
        assert payoff <= follower_aware_payoff(rival, 0.6, 2000) + 1e-9


def test_follower_aware_payoff_targets_min_probability():
    pol = validate_policy([0.5, 0.2, 0.3])
    value = follower_aware_payoff(pol, 0.4, 1000)
    assert value == pytest.approx(
        reduced_objective(pol, 1, 0.4, 1000), abs=1e-12)


# ===========================================================================
#  Diversity Nash point and verification
# ===========================================================================


def test_diversity_point_components():
    p, q, plan = diversity_nash_point(2, 2, 0.5, 10)
    np.testing.assert_allclose(p.probs, 0.5)
    np.testing.assert_allclose(q.probs, 0.5)
    start, stop = middle_window(10 - 1, 5)  # centred on the live slots
    np.testing.assert_allclose(plan.block_prob[:, start:stop], 0.5)
    assert plan.total_blocked() == pytest.approx(5.0)


def test_diversity_point_zero_budget():
    _, _, plan = diversity_nash_point(2, 2, 0.01, 50)  # B = 0
    assert plan.total_blocked() == 0.0


def test_diversity_point_needs_subcarriers():
    with pytest.raises(NoDiversityError):
        diversity_nash_point(2, 1, 0.5, 100)


def test_verify_holds_at_the_uniform_point():
    cfg = SystemConfig(horizon_T=200, num_users=2, alpha=0.4,
                       num_subcarriers=2)
    point = diversity_nash_point(2, 2, 0.4, 200)
    report = verify_diversity_nash(point, cfg, 120, 120, seed=3)
    assert report.holds is True
    assert report.witness is None


@pytest.mark.parametrize("N, N_sub, alpha", [
    (2, 2, 0.5), (2, 2, 0.3), (4, 2, 0.2), (3, 3, 0.4), (2, 3, 0.1)])
def test_verify_holds_at_the_uniform_point_for_every_small_horizon(
        N, N_sub, alpha):
    # a window centred on all T slots starts one slot late when T - B is
    # odd, and a window-shift deviation then beats the paper's point
    failed = []
    for T in range(6, 41):
        cfg = SystemConfig(horizon_T=T, num_users=N, alpha=alpha,
                           num_subcarriers=N_sub)
        report = verify_diversity_nash(
            diversity_nash_point(N, N_sub, alpha, T), cfg, 20, 100, seed=0)
        if not report.holds:
            failed.append((T, report.witness.description))
    assert failed == []


def test_verify_flags_nonuniform_bs_policy():
    cfg = SystemConfig(horizon_T=200, num_users=2, alpha=0.4,
                       num_subcarriers=2)
    _, q, plan = diversity_nash_point(2, 2, 0.4, 200)
    report = verify_diversity_nash(
        (validate_policy([0.7, 0.3]), q, plan), cfg, 50, 0, seed=3)
    assert report.holds is False
    w = report.witness
    assert w.player == "base-station"
    np.testing.assert_allclose(w.strategy[0].probs, 0.5)  # uniform p wins
    assert w.payoff_after < w.payoff_before - 1e-9


def test_verify_flags_skewed_subcarrier_choice():
    # a skewed q hands the adversary a fat target: jam the heavy sub-carrier
    cfg = SystemConfig(horizon_T=200, num_users=2, alpha=0.4,
                       num_subcarriers=4)
    p, _, plan = diversity_nash_point(2, 4, 0.4, 200)
    from aoijam.model import validate_subcarrier_policy
    skew = validate_subcarrier_policy([0.7, 0.1, 0.1, 0.1])
    report = verify_diversity_nash((p, skew, plan), cfg, 100, 100, seed=9)
    assert report.holds is False
    assert report.witness.player == "adversary"
    assert report.witness.payoff_after > report.witness.payoff_before + 1e-9


@pytest.mark.parametrize("n_sub", [2, 3])
@pytest.mark.parametrize("alpha", [0.6, 0.9])
@pytest.mark.parametrize("T", [6, 10, 40])
def test_two_window_deviations_spend_the_budget_in_both_halves(T, alpha,
                                                              n_sub):
    # a budget above half the horizon once left the second window no room
    # (ValueError) or let the two windows overlap and spend less than B
    cfg = SystemConfig(horizon_T=T, num_users=2, alpha=alpha,
                       num_subcarriers=n_sub)
    families = ADV_DEVIATION_FAMILIES
    plans = _sample_adv_deviations(cfg, 50, np.random.default_rng(T))
    for plan in plans[families.index("two-window")::len(families)]:
        mass = plan.block_prob.sum(axis=0)
        np.testing.assert_allclose(mass[mass > 0], 1.0)
        assert np.count_nonzero(mass) == cfg.budget_B
        for half in (mass[:T // 2], mass[T // 2:]):
            spent = np.flatnonzero(half)
            assert spent.size > 0
            assert spent[-1] - spent[0] + 1 == spent.size  # one window


def test_verify_requires_diversity_and_feasible_plan():
    cfg_flat = SystemConfig(horizon_T=100, num_users=2, alpha=0.5)
    point = diversity_nash_point(2, 2, 0.5, 100)
    with pytest.raises(NoDiversityError):
        verify_diversity_nash(point, cfg_flat, 5, 5)
    cfg = SystemConfig(horizon_T=100, num_users=2, alpha=0.2,
                       num_subcarriers=2)
    big = diversity_nash_point(2, 2, 0.5, 100)  # spends 50 > B = 20
    with pytest.raises(ValueError):
        verify_diversity_nash(big, cfg, 5, 5)


def test_verify_rejects_wrong_user_count():
    cfg = SystemConfig(horizon_T=100, num_users=2, alpha=0.2,
                       num_subcarriers=2)
    _, q, plan = diversity_nash_point(2, 2, 0.2, 100)
    with pytest.raises(DimensionMismatchError, match="policy has 5 users"):
        verify_diversity_nash((uniform_policy(5), q, plan), cfg, 5, 5)


def test_witness_dataclass_shape():
    w = DeviationWitness(player="adversary", strategy=None,
                         payoff_before=1.0, payoff_after=2.0)
    assert w.payoff_after > w.payoff_before
