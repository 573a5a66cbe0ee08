"""Equilibrium layer: Nash witness checks, the non-convergent dynamics,
Stackelberg certification, and the diversity Nash point."""

import math

import numpy as np
import pytest

import aoijam.age_exact as age_exact
import aoijam.equilibrium as equilibrium
from aoijam.age_asymptotic import (
    _diversity_ages,
    diversity_user_ages,
    follower_aware_payoff,
    reduced_payoff_for_split,
)
from aoijam.best_response import adversary_best_response, counter_block_policy
from aoijam.equilibrium import (
    ADV_DEVIATION_FAMILIES,
    IMPROVEMENT_TOL,
    DeviationWitness,
    EquilibriumReport,
    best_response_dynamics,
    diversity_nash_point,
    is_nash_no_diversity,
    stackelberg_equilibrium,
    _certification_policies,
    _follower_aware_payoffs,
    _check_windows,
    _sample_adv_deviations,
    _sample_bs_deviations,
    _window_plan,
    verify_diversity_nash,
)
from aoijam.age_exact import (
    _intercepted,
    _screen_margin,
    _window_runs,
    _window_screen,
    expected_age_trajectory_diversity,
)
from aoijam.errors import (
    CertificateError,
    DimensionMismatchError,
    InsufficientRunsError,
    InvalidAlphaError,
    NoDiversityError,
    NonPositiveEntryError,
    NotNormalizedError,
)
from aoijam.model import (
    SUM_ACCEPT_TOL,
    BlockingPlan,
    SystemConfig,
    blocking_feasible,
    check_profile,
    empty_plan,
    make_middle_block,
    make_uniform_subcarrier_block,
    middle_window,
    uniform_policy,
    uniform_subcarrier_policy,
    validate_policy,
    validate_subcarrier_policy,
)


def _one_hot_payoff(policy, target, share, T):
    """The single middle-blocked target's system age: share on target
    alone."""
    return reduced_payoff_for_split(policy, share * np.eye(policy.n)[target],
                                    T)


def _diversity_system_age(policy, alpha, n_sub):
    """The large-horizon diversity system age, the users' mean age."""
    return float(diversity_user_ages(policy, alpha, n_sub).mean())


# ===========================================================================
#  Nash witness checks (no diversity)
# ===========================================================================


def _cfg(T=100, n=2, alpha=0.5, n_sub=1):
    return SystemConfig(horizon_T=T, num_users=n, alpha=alpha,
                        num_subcarriers=n_sub)


def test_uniform_with_middle_block_fails_on_bs_side():
    cfg = _cfg()
    report = is_nash_no_diversity(
        uniform_policy(2), make_middle_block(cfg, 0), cfg)
    assert report.holds is False
    w = report.witness
    assert report.payoff == w.payoff_before
    assert w.player == "base-station"
    root = math.sqrt(1.5)
    np.testing.assert_allclose(
        w.strategy.probs, [root / (1 + root), 1 / (1 + root)], atol=1e-6)
    assert w.payoff_after < w.payoff_before - 1e-9


def test_best_response_policy_fails_on_adversary_side():
    cfg = _cfg()
    policy = counter_block_policy(cfg, 0)  # shields user 0
    report = is_nash_no_diversity(policy, make_middle_block(cfg, 0), cfg)
    assert report.holds is False
    w = report.witness
    assert report.payoff == w.payoff_before
    assert w.player == "adversary"
    assert "user 1" in w.description
    assert w.payoff_after > w.payoff_before + 1e-9


def test_nash_check_payoff_is_the_single_target_payoff():
    # the plan's shares are one-hot: both payoffs are one formula, bit for bit
    cfg = _cfg(T=1000, n=8, alpha=0.2)
    report = is_nash_no_diversity(
        uniform_policy(8), make_middle_block(cfg, 0), cfg)
    assert report.payoff == _one_hot_payoff(uniform_policy(8), 0, 0.2, 1000)
    assert report.payoff == 10.6875


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
    assert report.payoff == report.witness.payoff_before
    assert report.witness.player == "base-station"


def _search_every_target(policy, cfg, current):
    """The per-target search the Nash check once ran: the middle block on
    each user, lowest p first, and the first that raises the system age
    above `current` by more than IMPROVEMENT_TOL, as (target, value)."""
    for target in sorted(range(policy.n), key=lambda i: (policy.probs[i], i)):
        value = _one_hot_payoff(policy, target, cfg.blocked_share,
                                cfg.horizon_T)
        if value > current + IMPROVEMENT_TOL:
            return target, value
    return None


@pytest.mark.parametrize("seed", range(4))
def test_nash_check_adversary_side_is_the_adversary_reply(seed):
    # random p, tied minima and B = 0 among them: the check's adversary
    # witness is adversary_best_response's plan, payoff and target, and the
    # search over every target finds the same deviation
    rng = np.random.default_rng(900 + seed)
    seen = {"adversary": 0, "tie": 0, "B=0": 0}
    for _ in range(150):
        n = int(rng.integers(1, 7))
        cfg = _cfg(T=int(rng.choice([10, 40, 100, 999])), n=n,
                   alpha=float(rng.uniform(0.01, 0.9)))
        p = rng.dirichlet(np.ones(n))
        if n > 1 and rng.random() < 0.4:
            p[rng.choice(n, 2, replace=False)] = p.min()  # a tied minimum
        policy = validate_policy(p / p.sum())
        plan = (empty_plan(cfg) if rng.random() < 0.4
                else make_middle_block(cfg, int(rng.integers(n))))
        reply = adversary_best_response(policy, cfg)
        report = is_nash_no_diversity(policy, plan, cfg)
        found = _search_every_target(policy, cfg, report.payoff)
        lowest = np.flatnonzero(policy.probs == policy.probs.min())
        seen["tie"] += lowest.size > 1
        seen["B=0"] += cfg.budget_B == 0
        assert reply.target == lowest[0]
        if reply.payoff > report.payoff + IMPROVEMENT_TOL:
            seen["adversary"] += 1
            w = report.witness
            assert (w.player, w.strategy, w.payoff_after, w.description) == (
                "adversary", reply.plan, reply.payoff,
                f"middle-block user {reply.target}")
            assert found == (reply.target, reply.payoff)
        else:
            assert found is None
            assert report.witness is None or (
                report.witness.player == "base-station")
    assert min(seen.values()) > 0, seen


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
    report = best_response_dynamics(_cfg(T=10_000), 8)
    targets = [s.blocked_user for s in report.trace]
    assert targets == [0, 1, 0, 1, 0, 1, 0, 1]
    assert report.holds is False
    assert len(report.trace) == 8


def test_dynamics_policies_cycle_without_fixed_point():
    report = best_response_dynamics(_cfg(T=10_000), 9)
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
    report = best_response_dynamics(_cfg(10_000, n, alpha), 20)
    targets = [s.blocked_user for s in report.trace]
    assert all(a != b for a, b in zip(targets, targets[1:]))
    assert report.holds is False


def test_dynamics_minimal_and_invalid_iterations():
    assert len(best_response_dynamics(_cfg(1000, 2, 0.4), 2).trace) == 2
    with pytest.raises(ValueError):
        best_response_dynamics(_cfg(1000, 2, 0.4), 1)


@pytest.mark.parametrize("max_iter", [2.5, 3.0, True, "4"])
def test_dynamics_iterations_must_be_an_integer(max_iter):
    with pytest.raises(InsufficientRunsError,
                       match="max_iter must be an integer >= 2, got"):
        best_response_dynamics(_cfg(1000, 2, 0.4), max_iter)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_dynamics_compose_the_two_replies(n):
    # every step is counter_block_policy against the previous target, then
    # adversary_best_response against that policy, bit for bit
    cfg = _cfg(1000, n, 0.3)
    trace = best_response_dynamics(cfg, 6).trace
    for previous, step in zip((None,) + trace, trace):
        policy = (uniform_policy(n) if previous is None
                  else counter_block_policy(cfg, previous.blocked_user))
        reply = adversary_best_response(policy, cfg)
        assert step.policy == policy
        assert (step.blocked_user, step.payoff) == (reply.target, reply.payoff)


def test_dynamics_payoffs_are_reduced_objective_values():
    report = best_response_dynamics(_cfg(5000, 3, 0.4), 4)
    for step in report.trace:
        expect = _one_hot_payoff(step.policy, step.blocked_user, 0.4, 5000)
        assert step.payoff == pytest.approx(expect, abs=1e-12)


# ===========================================================================
#  Stackelberg
# ===========================================================================


def test_stackelberg_example_value():
    leader, plan, payoff = stackelberg_equilibrium(_cfg())
    np.testing.assert_allclose(leader.probs, 0.5)
    assert payoff == pytest.approx(8.625, abs=1e-12)
    start, stop = middle_window(100, 50)
    assert np.all(plan.block_prob[0, start:stop] == 1.0)
    assert plan.block_prob[1].sum() == 0.0


def test_stackelberg_target_parameter_picks_tied_plan():
    _, plan0, pay0 = stackelberg_equilibrium(_cfg(300, 3, 0.4), target=0)
    _, plan2, pay2 = stackelberg_equilibrium(_cfg(300, 3, 0.4), target=2)
    assert pay0 == pytest.approx(pay2, abs=1e-12)
    assert plan0.block_prob[0].sum() > 0
    assert plan2.block_prob[2].sum() > 0


def test_stackelberg_single_user():
    leader, plan, _ = stackelberg_equilibrium(_cfg(100, 1, 0.3))
    np.testing.assert_allclose(leader.probs, [1.0])
    assert plan.total_blocked() == 30


def test_stackelberg_leader_beats_sampled_rivals():
    rng = np.random.default_rng(5)
    _, _, payoff = stackelberg_equilibrium(_cfg(2000, 3, 0.6),
                                           certify_samples=50)
    for _ in range(50):
        p = np.clip(rng.dirichlet(np.ones(3)), 1e-6, None)
        rival = validate_policy(p / p.sum())
        assert payoff <= follower_aware_payoff(rival, 0.6, 2000) + 1e-9


def _reference_rivals(N, samples, seed):
    """The certificate's rivals built one validate_policy at a time."""
    rng = np.random.default_rng(seed)
    grid = max(2, samples // 4)
    out = []
    if N == 2:
        for x in np.linspace(0.02, 0.98, grid):
            out.append(validate_policy([x, 1 - x]))
    while len(out) < max(samples, grid):
        p = np.clip(rng.dirichlet(np.ones(N)), 1e-6, None)
        out.append(validate_policy(p / p.sum()))
    return out[:samples]


@pytest.mark.parametrize("seed", [0, 11])
@pytest.mark.parametrize("samples", [1, 2, 3, 50, 2000])
@pytest.mark.parametrize("N", [1, 2, 3, 6, 8, 40])
def test_certification_rivals_match_per_rival_reference(N, samples, seed):
    # the same draws, each row left in its drawn order of users
    rivals = _certification_policies(N, samples, seed)
    reference = np.array([r.probs for r in _reference_rivals(N, samples, seed)])
    assert rivals.shape == (samples, N)
    np.testing.assert_allclose(rivals, reference, rtol=1e-15, atol=0)
    for row in rivals:
        assert abs(math.fsum(row) - 1.0) <= 1e-12
        validate_policy(row)


@pytest.mark.parametrize("N", [1, 2, 3, 6, 8, 40])
def test_follower_aware_payoffs_ignore_the_order_of_users(N):
    # the certificate's rows go unsorted: a row and its reverse are one
    # rival to the follower-aware payoff
    rivals = _certification_policies(N, 500, N)
    for share, T in ((0.05, 100), (0.35, 1500), (0.9, 20000)):
        np.testing.assert_allclose(
            _follower_aware_payoffs(rivals, share, T),
            _follower_aware_payoffs(rivals[:, ::-1], share, T),
            rtol=1e-15, atol=0)


@pytest.mark.parametrize("N", [1, 2, 3, 6, 8])
def test_follower_aware_payoffs_match_scalar_payoff(N):
    # the array form against the fsum route, target by target
    rivals = _certification_policies(N, 200, 4)
    batched = _follower_aware_payoffs(rivals, 0.35, 1500)
    scalar = [max(_one_hot_payoff(validate_policy(row), b, 0.35, 1500)
                  for b in range(N)) for row in rivals]
    np.testing.assert_allclose(batched, scalar, rtol=1e-12, atol=0)


def test_stackelberg_names_the_first_beating_rival(monkeypatch):
    rivals = _certification_policies(3, 20, 0)
    payoffs = np.full(20, 1e9)
    payoffs[[7, 12]] = 0.5
    monkeypatch.setattr(equilibrium, "_follower_aware_payoffs",
                        lambda probs, alpha, T: payoffs)
    with pytest.raises(CertificateError) as caught:
        stackelberg_equilibrium(_cfg(200, 3, 0.3), certify_samples=20)
    assert str(caught.value).startswith(
        f"sampled policy {rivals[7]} gives the leader 0.5,")


@pytest.mark.parametrize("samples", [0, -5, 2.5, True])
def test_stackelberg_needs_a_rival(samples):
    with pytest.raises(InsufficientRunsError, match="certify_samples"):
        stackelberg_equilibrium(_cfg(200, 3, 0.3),
                                certify_samples=samples)


def test_follower_aware_payoff_targets_min_probability():
    pol = validate_policy([0.5, 0.2, 0.3])
    value = follower_aware_payoff(pol, 0.4, 1000)
    assert value == pytest.approx(
        _one_hot_payoff(pol, 1, 0.4, 1000), abs=1e-12)


@pytest.mark.parametrize("alpha, T, error, message", [
    (1.0, 100, InvalidAlphaError, "alpha must lie in [0, 1), got 1.0"),
    (-0.1, 100, InvalidAlphaError, "alpha must lie in [0, 1), got -0.1"),
    (1.5, 0, InvalidAlphaError, "alpha must lie in [0, 1), got 1.5"),
    (0.4, 0, DimensionMismatchError, "T must be an integer >= 1, got 0"),
    ("0.4", 100, InvalidAlphaError, "alpha must lie in [0, 1), got '0.4'"),
    (None, 100, InvalidAlphaError, "alpha must lie in [0, 1), got None"),
])
def test_follower_aware_payoff_rejects_bad_alpha_then_horizon(alpha, T,
                                                              error, message):
    with pytest.raises(error) as caught:
        follower_aware_payoff(validate_policy([0.5, 0.5]), alpha, T)
    assert str(caught.value) == message


# ===========================================================================
#  Diversity Nash point and verification
# ===========================================================================


def test_diversity_point_components():
    p, q, plan = diversity_nash_point(_cfg(10, 2, 0.5, 2))
    np.testing.assert_allclose(p.probs, 0.5)
    np.testing.assert_allclose(q.probs, 0.5)
    start, stop = middle_window(10 - 1, 5)  # centred on the live slots
    np.testing.assert_allclose(plan.block_prob[:, start:stop], 0.5)
    assert plan.total_blocked() == pytest.approx(5.0)


def test_diversity_point_zero_budget():
    _, _, plan = diversity_nash_point(_cfg(50, 2, 0.01, 2))  # B = 0
    assert plan.total_blocked() == 0.0


def test_diversity_point_needs_subcarriers():
    with pytest.raises(NoDiversityError):
        diversity_nash_point(_cfg())


def test_verify_holds_at_the_uniform_point():
    cfg = SystemConfig(horizon_T=200, num_users=2, alpha=0.4,
                       num_subcarriers=2)
    point = diversity_nash_point(cfg)
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
            diversity_nash_point(cfg), cfg, 20, 100, seed=0)
        if not report.holds:
            failed.append((T, report.witness.description))
    assert failed == []


def test_verify_flags_nonuniform_bs_policy():
    cfg = SystemConfig(horizon_T=200, num_users=2, alpha=0.4,
                       num_subcarriers=2)
    _, q, plan = diversity_nash_point(cfg)
    report = verify_diversity_nash(
        (validate_policy([0.7, 0.3]), q, plan), cfg, 50, 1, seed=3)
    assert report.holds is False
    w = report.witness
    assert report.payoff == w.payoff_before
    assert w.player == "base-station"
    np.testing.assert_allclose(w.strategy[0].probs, 0.5)  # uniform p wins
    assert w.payoff_after < w.payoff_before - 1e-9


def _reference_bs_witness(policy, n_sub, alpha, bs_samples, seed):
    """The base-station side priced one (p, q) pair at a time, the pairs
    drawn as _reference_bs_candidates draws them: uniform first, then row
    i's broad or wiggle candidate, as its coin says, with q row i."""
    N = policy.n
    broad, (dirichlet, wiggle), q = _reference_bs_candidates(
        N, n_sub, bs_samples - 1, np.random.default_rng(seed))
    pairs = [(uniform_policy(N), uniform_subcarrier_policy(n_sub))]
    for i in range(bs_samples - 1):
        p = dirichlet[i] if broad[i] else wiggle[i]
        pairs.append((validate_policy(p), validate_subcarrier_policy(q[i])))
    current = _diversity_system_age(policy, alpha, n_sub)
    for p_dev, q_dev in pairs:
        value = _diversity_system_age(p_dev, alpha, n_sub)
        if value < current - IMPROVEMENT_TOL:
            return (p_dev, q_dev), current, value
    return None


@pytest.mark.parametrize("probs, n_sub", [
    ([0.7, 0.3], 2), ([0.5, 0.3, 0.2], 3), ([0.25] * 4, 2),
    # 49 entries of 1/49 do not fsum to 1: the uniform row, the witness, is
    # priced only as validate_policy normalizes it
    ([0.5 / 24] * 24 + [0.5 / 25] * 25, 3)])
def test_verify_bs_witness_matches_per_sample_reference(probs, n_sub):
    N = len(probs)
    cfg = SystemConfig(horizon_T=200, num_users=N, alpha=0.4,
                       num_subcarriers=n_sub)
    _, q, plan = diversity_nash_point(cfg)
    policy = validate_policy(probs)
    report = verify_diversity_nash((policy, q, plan), cfg, 60, 1, seed=8)
    reference = _reference_bs_witness(policy, n_sub, 0.4, 60, 8)
    if reference is None:
        assert report.holds is True
        return
    (p_ref, q_ref), before, after = reference
    w = report.witness
    assert report.payoff == w.payoff_before
    assert w.player == "base-station"
    assert w.strategy == (p_ref, q_ref)
    assert w.payoff_before.hex() == before.hex()
    assert w.payoff_after.hex() == after.hex()


def test_bs_witness_is_always_the_uniform_row():
    # uniform p minimizes the large-horizon price sum_i c/p_i, so the first
    # row is the only base-station witness the audit can return; the other
    # sampled rows only confirm
    rng = np.random.default_rng(31)
    for _ in range(40):
        N, n_sub = int(rng.integers(2, 7)), int(rng.choice([2, 3, 5]))
        cfg = SystemConfig(horizon_T=60, num_users=N, alpha=0.3,
                           num_subcarriers=n_sub)
        _, q, plan = diversity_nash_point(cfg)
        p = rng.dirichlet(np.ones(N)) + 1e-3
        report = verify_diversity_nash((validate_policy(p / p.sum()), q, plan),
                                       cfg, 50, 1, seed=int(rng.integers(100)))
        assert report.witness.player == "base-station"
        assert report.witness.strategy == (uniform_policy(N),
                                           uniform_subcarrier_policy(n_sub))


def _reference_bs_candidates(N, N_sub, n, rng):
    """The four array draws of _sample_bs_deviations, in its order: the
    branch coins, both candidate p rows (clipped and divided by their row
    sums) for every drawn pair, and the q rows."""
    broad = rng.random(n) < 0.5
    candidates = []
    for raw in (rng.dirichlet(np.ones(N), size=n),
                1 / N + rng.normal(0, 0.05, (n, N))):
        p = np.clip(raw, 1e-9, None)
        candidates.append(p / p.sum(axis=1, keepdims=True))
    return broad, candidates, rng.dirichlet(np.ones(N_sub), size=n)


@pytest.mark.parametrize("bs_samples", [1, 2, 40])
def test_bs_deviations_take_four_array_draws(bs_samples):
    # the adversary plans are drawn from the same generator afterwards
    rng, reference = np.random.default_rng(21), np.random.default_rng(21)
    p_rows, q_rows = _sample_bs_deviations(3, 2, bs_samples, rng)
    assert p_rows.shape == (bs_samples, 3)
    assert q_rows.shape == (bs_samples, 2)
    np.testing.assert_array_equal(p_rows[0], np.full(3, 1 / 3))
    np.testing.assert_array_equal(q_rows[0], [0.5, 0.5])
    broad, (dirichlet, wiggle), q = _reference_bs_candidates(
        3, 2, bs_samples - 1, reference)
    for i, (p_row, q_row) in enumerate(zip(p_rows[1:], q_rows[1:])):
        expected = dirichlet[i] if broad[i] else wiggle[i]
        assert p_row.tobytes() == expected.tobytes()
        assert q_row.tobytes() == q[i].tobytes()
    assert rng.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize("N, N_sub", [(1, 2), (4, 3), (16, 5)])
def test_one_bs_sample_draws_nothing(N, N_sub):
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    p_rows, q_rows = _sample_bs_deviations(N, N_sub, 1, rng)
    assert rng.bit_generator.state == state
    assert p_rows.shape == (1, N) and q_rows.shape == (1, N_sub)
    np.testing.assert_array_equal(p_rows[0], np.full(N, 1 / N))
    np.testing.assert_array_equal(q_rows[0], np.full(N_sub, 1 / N_sub))


def test_one_user_bs_deviations_are_all_certain():
    p_rows, _ = _sample_bs_deviations(1, 3, 200, np.random.default_rng(6))
    assert p_rows.tobytes() == np.ones((200, 1)).tobytes()


@pytest.mark.parametrize("N", [1, 2, 7, 16])
def test_bs_deviations_are_policies(N):
    p_rows, q_rows = _sample_bs_deviations(N, 3, 300, np.random.default_rng(N))
    np.testing.assert_array_equal(p_rows[0], np.full(N, 1 / N))
    for rows, validate in ((p_rows, validate_policy),
                           (q_rows, validate_subcarrier_policy)):
        assert np.all(rows > 0)
        for row in rows:
            assert abs(math.fsum(row) - 1.0) <= SUM_ACCEPT_TOL
            validate(row)


def test_half_the_bs_deviations_are_broad():
    # every drawn row is exactly one of its two candidates
    n = 4000
    rng, reference = np.random.default_rng(8), np.random.default_rng(8)
    p_rows, _ = _sample_bs_deviations(3, 2, n + 1, rng)
    _, (dirichlet, wiggle), _ = _reference_bs_candidates(3, 2, n, reference)
    took_broad = np.all(p_rows[1:] == dirichlet, axis=1)
    took_wiggle = np.all(p_rows[1:] == wiggle, axis=1)
    assert np.all(took_broad != took_wiggle)
    assert 0.45 <= took_broad.mean() <= 0.55


@pytest.mark.parametrize("bs_samples, adv_samples", [
    (0, 5), (-1, 5), (5, 0), (5, -1), (2.5, 5), (True, 5), (5, 2.5),
    (5, False), (5, "3")])
def test_verify_needs_a_sample_on_each_side(bs_samples, adv_samples):
    # no adversary sample would certify a plan that is no best response;
    # a count that is no integer is no count (each row spoils one side)
    cfg = SystemConfig(horizon_T=40, num_users=2, alpha=0.2,
                       num_subcarriers=2)
    p, q, _ = diversity_nash_point(cfg)
    name = "adv_samples" if bs_samples == 5 else "bs_samples"
    with pytest.raises(InsufficientRunsError, match=name):
        verify_diversity_nash((p, q, empty_plan(cfg)), cfg, bs_samples,
                              adv_samples, seed=4)


def test_verify_flags_skewed_subcarrier_choice():
    # a skewed q hands the adversary a fat target: jam the heavy sub-carrier
    cfg = SystemConfig(horizon_T=200, num_users=2, alpha=0.4,
                       num_subcarriers=4)
    p, _, plan = diversity_nash_point(cfg)
    from aoijam.model import validate_subcarrier_policy
    skew = validate_subcarrier_policy([0.7, 0.1, 0.1, 0.1])
    report = verify_diversity_nash((p, skew, plan), cfg, 100, 100, seed=9)
    assert report.holds is False
    assert report.payoff == report.witness.payoff_before
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
    samples = _sample_adv_deviations(cfg, 50, np.random.default_rng(T))
    for windows in samples[families.index("two-window")::len(families)]:
        (s1, e1, w1), (s2, e2, w2) = windows
        assert 0 <= s1 < e1 <= T // 2 <= s2 < e2 <= T
        assert (e1 - s1) + (e2 - s2) == cfg.budget_B
        mass = _window_plan(windows, cfg).block_prob.sum(axis=0)
        np.testing.assert_allclose(mass[mass > 0], 1.0)
        assert np.count_nonzero(mass) == cfg.budget_B


def _reference_adv_deviations(config, adv_samples, rng):
    """The adversary samples built as dense plans, one family per sample in
    turn, as the audit built them before it kept them as windows."""
    n_sub, horizon, budget = (config.num_subcarriers, config.horizon_T,
                              config.budget_B)
    plans = []
    while len(plans) < adv_samples:
        family = ADV_DEVIATION_FAMILIES[len(plans) % len(ADV_DEVIATION_FAMILIES)]
        m = np.zeros((n_sub, horizon))
        if budget == 0:
            plans.append(BlockingPlan(m))
            continue
        if family == "window-shift":
            start = int(rng.integers(0, horizon - budget + 1))
            m[:, start:start + budget] = 1.0 / n_sub
        elif family == "vertex-split":
            j = int(rng.integers(n_sub))
            start = int(rng.integers(0, horizon - budget + 1))
            m[j, start:start + budget] = 1.0
        elif family == "two-window":
            first = budget if budget == 1 else int(rng.integers(
                max(1, budget - (horizon + 1) // 2),
                min(budget - 1, horizon // 2) + 1))
            second = budget - first
            s1 = int(rng.integers(0, max(1, horizon // 2 - first)))
            s2 = int(rng.integers(horizon // 2, horizon - second + 1))
            m[:, s1:s1 + first] = 1.0 / n_sub
            if second:
                m[:, s2:s2 + second] = 1.0 / n_sub
        elif family == "nonuniform-split":
            start, stop = middle_window(horizon - 1, budget)
            m[:, start:stop] = rng.dirichlet(np.ones(n_sub))[:, None]
        else:  # sub-budget
            short = int(rng.integers(0, budget))
            start, _ = middle_window(horizon - 1, short)
            m[:, start:start + short] = 1.0 / n_sub
        plans.append(BlockingPlan(m))
    return plans


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("T, alpha", [
    (1, 0.5), (2, 0.5), (10, 0.05), (7, 0.95), (40, 0.99), (41, 0.3),
    (120, 0.2), (333, 0.51)])
@pytest.mark.parametrize("n_sub", [2, 3, 5])
def test_window_samples_are_the_dense_plans(T, alpha, n_sub, seed):
    # B = 0 at T = 1 and 10; B = T - 1 at T = 7 and 40
    cfg = SystemConfig(horizon_T=T, num_users=3, alpha=alpha,
                       num_subcarriers=n_sub)
    rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    samples = _sample_adv_deviations(cfg, 23, rng)
    plans = _reference_adv_deviations(cfg, 23, reference)
    assert rng.bit_generator.state == reference.bit_generator.state
    assert len(samples) == 23
    for k, (windows, expected) in enumerate(zip(samples, plans)):
        plan = _window_plan(windows, cfg)
        assert plan.block_prob.tobytes() == expected.block_prob.tobytes(), (
            ADV_DEVIATION_FAMILIES[k % len(ADV_DEVIATION_FAMILIES)])
        assert blocking_feasible(plan, cfg)


@pytest.mark.parametrize("windows, error", [
    ([(3, 5, np.array([0.5, 0.5])), (4, 6, np.array([0.5, 0.5]))],
     DimensionMismatchError),  # overlap
    ([(5, 8, np.array([0.5, 0.5])), (1, 2, np.array([0.5, 0.5]))],
     DimensionMismatchError),  # out of slot order
    ([(38, 41, np.array([0.5, 0.5]))], DimensionMismatchError),
    ([(-1, 2, np.array([0.5, 0.5]))], DimensionMismatchError),
    ([(1, 3, np.array([np.nan, 0.5]))], NonPositiveEntryError),
    ([(1, 3, np.array([1.5, 0.0]))], NonPositiveEntryError),
    ([(1, 3, np.array([-0.1, 0.5]))], NonPositiveEntryError),
    ([(1, 3, np.array([0.7, 0.7]))], NotNormalizedError),
    ([(0, 5, np.array([0.5, 0.5])), (9, 13, np.array([1.0, 0.0]))],
     InvalidAlphaError),  # 9 slots, B = 8
])
def test_window_check_raises_what_the_plan_check_raises(windows, error):
    cfg = SystemConfig(horizon_T=40, num_users=2, alpha=0.2,
                       num_subcarriers=2)
    with pytest.raises(error):
        _check_windows([[(0, 1, np.array([0.5, 0.5]))], windows], cfg)
    if error is not DimensionMismatchError:
        # the dense plan of the same windows fails with the same class
        with pytest.raises(error):
            plan = _window_plan(windows, cfg)
            check_profile(uniform_policy(2), uniform_subcarrier_policy(2),
                          plan, cfg)


_EDGE_T = 600  # B = 300 at alpha = 0.5
_UNIFORM3, _VERTEX0 = np.full(3, 1.0 / 3.0), np.array([1.0, 0.0, 0.0])
_EDGE_SAMPLES = {
    # the p = 0.35 rows settle before and inside this window, so the later
    # zero-length window at slot 200 enters a cached (entry age, s) run
    "settled-window": [(100, 300, _UNIFORM3)],
    "window-at-slot-0": [(0, 40, _UNIFORM3)],
    "window-ending-at-T": [(560, 600, _UNIFORM3)],
    "only-the-last-slot": [(599, 600, _VERTEX0)],
    "empty-sample": [],
    "zero-length-window": [(200, 200, _UNIFORM3)],
    "abutting-windows": [(100, 150, np.array([0.6, 0.3, 0.1])),
                         (150, 230, _UNIFORM3)],
    "one-slot-abutting-at-slot-0": [(0, 1, _VERTEX0), (1, 2, _UNIFORM3)],
    "all-zero-weights": [(300, 500, np.zeros(3))],
    "zero-weights-then-window": [(100, 101, np.zeros(3)),
                                 (101, 300, _UNIFORM3)],
    "both-ends": [(0, 150, _VERTEX0), (450, 600, _VERTEX0)],
    "zero-length-then-window": [(50, 50, _VERTEX0), (50, 120, _UNIFORM3)],
}


@pytest.mark.parametrize("q", [[0.5, 0.3, 0.2], [1.0, 0.0, 0.0]])
def test_window_prices_of_edge_samples_are_the_evaluator_prices(q):
    # duplicate p_i share a row; the 1e-4 user's runs never reach their
    # fixed point; with q on sub-carrier 0 alone, a _VERTEX0 window is a
    # sure block (s = 1, a ramp)
    cfg = SystemConfig(horizon_T=_EDGE_T, num_users=5, alpha=0.5,
                       num_subcarriers=3)
    policy = validate_policy([0.35, 0.35, 0.2, 0.0999, 0.0001])
    subpolicy = validate_subcarrier_policy(q)
    samples = list(_EDGE_SAMPLES.values())
    _check_windows(samples, cfg)
    dense = []
    for name, windows in zip(_EDGE_SAMPLES, samples):
        series = expected_age_trajectory_diversity(
            policy, subpolicy, _window_plan(windows, cfg), cfg)
        assert series.per_user[4, -2] < series.per_user[4, -1], name
        dense.append(series.system_avg)
    # the screen of the same samples: ramps under q on sub-carrier 0, the
    # 1e-4 user's unsettled runs, empty samples
    screened = _window_screen(policy, subpolicy, samples, _EDGE_T)
    assert np.all(np.abs(screened - dense)
                  <= _screen_margin(screened, _EDGE_T, 5) / 2)


def _reference_audit(point, config, bs_samples, adv_samples, seed):
    """verify_diversity_nash with each adversary plan built densely and
    priced alone by expected_age_trajectory_diversity."""
    policy, subpolicy, plan = point
    rng = np.random.default_rng(seed)
    share, n_sub = config.blocked_share, config.num_subcarriers
    current = _diversity_system_age(policy, share, n_sub)
    p_rows, q_rows = _sample_bs_deviations(policy.n, n_sub, bs_samples, rng)
    for p_row, q_row in zip(p_rows, q_rows):
        p_dev = validate_policy(p_row)
        value = _diversity_system_age(p_dev, share, n_sub)
        if value < current - IMPROVEMENT_TOL:
            return (False, current, "base-station",
                    (p_dev, validate_subcarrier_policy(q_row)), value)
    exact = expected_age_trajectory_diversity(
        policy, subpolicy, plan, config).system_avg
    for candidate in _reference_adv_deviations(config, adv_samples, rng):
        value = expected_age_trajectory_diversity(
            policy, subpolicy, candidate, config).system_avg
        if value > exact + IMPROVEMENT_TOL:
            return False, exact, "adversary", candidate, value
    return True, current, None, None, None


def _random_audit(rng):
    """A random diversity profile, config and sample counts."""
    N, n_sub = int(rng.integers(1, 7)), int(rng.choice([2, 3, 5]))
    T, alpha = int(rng.integers(6, 120)), float(rng.uniform(0.05, 0.95))
    cfg = SystemConfig(horizon_T=T, num_users=N, alpha=alpha,
                       num_subcarriers=n_sub)
    kind = rng.integers(3)  # uniform, near-uniform or random p
    p = (np.full(N, 1.0 / N) if kind == 0 else
         np.clip(1.0 / N + rng.normal(0, 1e-3, N), 1e-3, None) if kind == 1
         else rng.dirichlet(np.ones(N)) + 1e-3)
    q = rng.dirichlet(np.ones(n_sub)) if rng.random() < 0.5 else np.full(
        n_sub, 1.0 / n_sub)
    m = np.zeros((n_sub, T))  # a random plan spending at most B slots
    slots = rng.permutation(T)[:int(rng.integers(0, cfg.budget_B + 1))]
    m[:, slots] = rng.dirichlet(np.ones(n_sub), slots.size).T * rng.uniform(
        0.5, 1.0, slots.size)
    if rng.random() < 0.3:
        m = make_uniform_subcarrier_block(cfg).block_prob
    point = (validate_policy(p / p.sum()), validate_subcarrier_policy(q),
             BlockingPlan(m))
    return point, cfg, int(rng.integers(1, 12)), int(rng.integers(1, 30))


def _replay_audit(point, cfg, bs, adv, seed):
    """Check verify_diversity_nash against _reference_audit bit for bit;
    return the witness's player, None where the audit holds."""
    report = verify_diversity_nash(point, cfg, bs, adv, seed=seed)
    holds, payoff, player, strategy, after = _reference_audit(
        point, cfg, bs, adv, seed)
    assert report.holds is holds
    assert report.payoff.hex() == payoff.hex()
    if holds:
        assert report.witness is None
        return None
    w = report.witness
    assert w.player == player
    assert w.payoff_after.hex() == after.hex()
    if player == "adversary":
        assert w.strategy.block_prob.tobytes() == (
            strategy.block_prob.tobytes())
    else:
        assert w.strategy == strategy
    return player


def test_audit_replays_the_per_plan_reference():
    rng = np.random.default_rng(2024)
    players = []
    for _ in range(400):
        point, cfg, bs, adv = _random_audit(rng)
        players.append(_replay_audit(point, cfg, bs, adv,
                                     int(rng.integers(1000))))
    # every branch of the audit ran
    assert set(players) == {"adversary", "base-station", None}


def test_audit_prices_samples_across_chunks():
    # a heavy sub-carrier at T=200 and N=4: the audit prices its near
    # samples one plan at a time, and the witness is the one that pricing
    # every sample densely finds
    cfg = SystemConfig(horizon_T=200, num_users=4, alpha=0.4,
                       num_subcarriers=4)
    p, _, plan = diversity_nash_point(cfg)
    point = (p, validate_subcarrier_policy([0.7, 0.1, 0.1, 0.1]), plan)
    assert _replay_audit(point, cfg, 10, 100, 9) == "adversary"


# ===========================================================================
#  The adversary samples' screen
# ===========================================================================


def _screen_and_prices(policy, subpolicy, samples, cfg):
    """(screened values, dense values, margins) of window samples, each
    dense value expected_age_trajectory_diversity's of the sample's plan."""
    T = cfg.horizon_T
    screened = _window_screen(policy, subpolicy, samples, T)
    dense = np.array([expected_age_trajectory_diversity(
        policy, subpolicy, _window_plan(windows, cfg), cfg).system_avg
        for windows in samples])
    return screened, dense, _screen_margin(screened, T, policy.n)


def _random_screen_case(rng, T):
    """A random diversity profile at horizon T, its adversary samples and
    its config: some users share a p_i, one p_i may be tiny, q may sit on
    one sub-carrier (a vertex window there is a sure block, s = 1), and a
    small alpha leaves B = 0."""
    N, n_sub = int(rng.integers(1, 7)), int(rng.choice([2, 3, 5]))
    alpha = float(rng.choice([0.01, rng.uniform(0.05, 0.95)]))
    cfg = SystemConfig(horizon_T=T, num_users=N, alpha=alpha,
                       num_subcarriers=n_sub)
    p = rng.dirichlet(np.ones(N)) + 1e-3
    if N > 2:
        p[1] = p[0]  # two users share one row
    if rng.random() < 0.3:
        p[-1] = 1e-6 * p.sum()  # never settles within the horizon
    q = (np.eye(n_sub)[int(rng.integers(n_sub))] if rng.random() < 0.3
         else rng.dirichlet(np.ones(n_sub)))
    policy = validate_policy(p / p.sum())
    subpolicy = validate_subcarrier_policy(q)
    return policy, subpolicy, _sample_adv_deviations(cfg, 25, rng), cfg


@pytest.mark.parametrize("T", [1, 2, 3, 17, 240, 1500])
@pytest.mark.parametrize("seed", range(6))
def test_screen_agrees_with_the_dense_prices_within_the_margin(T, seed):
    rng = np.random.default_rng(9100 + 10 * T + seed)
    policy, subpolicy, samples, cfg = _random_screen_case(rng, T)
    screened, dense, margin = _screen_and_prices(policy, subpolicy, samples,
                                                 cfg)
    assert np.all(margin > 0.0)
    assert np.all(np.abs(screened - dense) <= margin / 2), (
        np.abs(screened - dense) / margin)
    # the margin's premise, that both routes add the same ages: every carry
    # slot of a sample's runs is clear with the probability the evaluator
    # reads off the sample's plan, bit for bit
    starts, clear, bounds = _window_runs(subpolicy, samples, T)
    for windows, runs, a, b in zip(samples, starts, bounds, bounds[1:]):
        plan = _window_plan(windows, cfg).block_prob
        lengths = np.diff(runs + [T - 1]).astype(int)
        assert np.repeat(clear[a:b], lengths).tobytes() == (
            1.0 - _intercepted(subpolicy.probs, plan))[:T - 1].tobytes()


def _spy_dense_prices(monkeypatch):
    """Record the samples the audit prices densely, in order: the audit
    builds the plan of those samples alone."""
    calls, real = [], equilibrium._window_plan

    def spy(windows, config):
        calls.append(windows)
        return real(windows, config)

    monkeypatch.setattr(equilibrium, "_window_plan", spy)
    return calls


def test_sample_within_the_margin_of_the_threshold_is_priced_densely(
        monkeypatch):
    # scale the candidate's window until its exact age plus IMPROVEMENT_TOL
    # lies just above the highest sampled age, within the rounding margin:
    # that sample must be priced densely, and it is no witness.  At
    # uniform q the window samples that span B slots tie with it.
    cfg = SystemConfig(horizon_T=300, num_users=3, alpha=0.2,
                       num_subcarriers=3)
    policy, subpolicy, full = diversity_nash_point(cfg)
    rng = np.random.default_rng(1)  # the audit's draws at seed 1
    _sample_bs_deviations(3, 3, 1, rng)
    samples = _sample_adv_deviations(cfg, 40, rng)
    screened = _window_screen(policy, subpolicy, samples, 300)
    margin = _screen_margin(screened, 300, 3)
    top = int(np.argmax(screened))

    def candidate(scale):
        return BlockingPlan(full.block_prob * scale)

    def gap(scale):
        exact = expected_age_trajectory_diversity(
            policy, subpolicy, candidate(scale), cfg).system_avg
        return exact + IMPROVEMENT_TOL - screened[top]

    def key(windows):
        return [(start, stop, w.tobytes()) for start, stop, w in windows]

    low, high = 0.0, 1.0
    assert gap(low) < 0.0 < gap(high)
    while (low + high) / 2 not in (low, high):
        mid = (low + high) / 2
        low, high = (mid, high) if gap(mid) <= 0.0 else (low, mid)
    assert 0.0 < gap(high) <= margin[top] / 4

    calls = _spy_dense_prices(monkeypatch)
    point = (policy, subpolicy, candidate(high))
    report = verify_diversity_nash(point, cfg, 1, 40, seed=1)
    priced = [key(windows) for windows in calls]
    assert key(samples[top]) in priced
    near = [key(samples[k]) for k in np.flatnonzero(
        screened >= screened[top] - 4 * margin[top])]
    assert all(windows in near for windows in priced)
    assert len(near) < len(samples)
    assert report.holds is True
    assert report.payoff.hex() == _reference_audit(
        point, cfg, 1, 40, 1)[1].hex()


def test_game_audit_prices_no_sample_densely(monkeypatch):
    cfg = SystemConfig(horizon_T=5000, num_users=4, alpha=0.2,
                       num_subcarriers=3)
    point = diversity_nash_point(cfg)
    calls = _spy_dense_prices(monkeypatch)
    for seed in range(5):
        report = verify_diversity_nash(point, cfg, 500, 200, seed=seed)
        assert report.holds is True
    assert calls == []


def test_skewed_audit_prices_each_near_sample_once(monkeypatch):
    # a heavy sub-carrier at N = 2: 9 samples screen within the rounding
    # margin of the threshold, or above it, and the first is the witness.
    # The users share one p, so the evaluator writes one row per price:
    # the candidate's and the witness's, and no other.
    cfg = SystemConfig(horizon_T=200, num_users=2, alpha=0.4,
                       num_subcarriers=4)
    policy, _, plan = diversity_nash_point(cfg)
    skew = validate_subcarrier_policy([0.7, 0.1, 0.1, 0.1])
    rng = np.random.default_rng(9)  # the audit's draws at seed 9
    _sample_bs_deviations(2, 4, 20, rng)
    samples = _sample_adv_deviations(cfg, 60, rng)
    screened = _window_screen(policy, skew, samples, 200)
    threshold = expected_age_trajectory_diversity(
        policy, skew, plan, cfg).system_avg + IMPROVEMENT_TOL
    near = np.flatnonzero(
        screened >= threshold - _screen_margin(screened, 200, 2))
    assert near.size == 9

    rows, real = [], age_exact._run_ages

    def spy(row, *runs):
        rows.append(row)
        real(row, *runs)

    monkeypatch.setattr(age_exact, "_run_ages", spy)
    report = verify_diversity_nash((policy, skew, plan), cfg, 20, 60, seed=9)
    assert report.witness.player == "adversary"
    assert report.witness.strategy.block_prob.tobytes() == (
        _window_plan(samples[near[0]], cfg).block_prob.tobytes())
    assert len(rows) == 2


def test_verify_requires_diversity_and_feasible_plan():
    cfg_flat = SystemConfig(horizon_T=100, num_users=2, alpha=0.5)
    point = diversity_nash_point(_cfg(n_sub=2))
    with pytest.raises(NoDiversityError):
        verify_diversity_nash(point, cfg_flat, 5, 5)
    cfg = SystemConfig(horizon_T=100, num_users=2, alpha=0.2,
                       num_subcarriers=2)
    big = diversity_nash_point(_cfg(n_sub=2))  # spends 50 > B = 20
    with pytest.raises(ValueError):
        verify_diversity_nash(big, cfg, 5, 5)


def test_verify_rejects_wrong_user_count():
    cfg = SystemConfig(horizon_T=100, num_users=2, alpha=0.2,
                       num_subcarriers=2)
    _, q, plan = diversity_nash_point(cfg)
    with pytest.raises(DimensionMismatchError, match="policy has 5 users"):
        verify_diversity_nash((uniform_policy(5), q, plan), cfg, 5, 5)


def test_witness_dataclass_shape():
    w = DeviationWitness(player="adversary", strategy=None,
                         payoff_before=1.0, payoff_after=2.0)
    assert w.payoff_after > w.payoff_before
