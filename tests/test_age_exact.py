"""Exact age trajectories: recursion vs. the quadratic sum form."""

import numpy as np
import pytest

from aoijam.age_exact import (
    _intercepted,
    _run_ages,
    _run_starts,
    expected_age_trajectory,
    expected_age_trajectory_diversity,
)
from aoijam.equilibrium import (
    ADV_DEVIATION_FAMILIES,
    _sample_adv_deviations,
    _window_plan,
)
from aoijam.errors import DimensionMismatchError
from aoijam.model import (
    BlockingPlan,
    SystemConfig,
    empty_plan,
    make_middle_block,
    make_uniform_subcarrier_block,
    uniform_policy,
    uniform_subcarrier_policy,
    validate_policy,
    validate_subcarrier_policy,
)

# ===========================================================================
#  Sum-form oracle (O(T^2), test-only)
# ===========================================================================


def survival_product(p_i, blocked, k, l):
    """Probability user i misses every update in slots k..l (1-based, inclusive).

    `blocked` holds per-slot blocking probabilities for this user's channel
    (1 = surely blocked, so the slot contributes factor 1; 0 = clear, factor
    1 - p_i; fractions interpolate).
    """
    r = np.asarray(blocked, dtype=float).ravel()
    return float(np.prod(1.0 - p_i * (1.0 - r[k - 1:l])))


def age_sum_form(p_i, blocked_row, horizon):
    """age(t+1) = sum_{l=1..t} survival(l..t) + 1, built term by term."""
    ages = [1.0]
    for t in range(1, horizon):
        total = sum(survival_product(p_i, blocked_row, ell, t)
                    for ell in range(1, t + 1))
        ages.append(total + 1.0)
    return np.array(ages)


# ===========================================================================
#  survival_product
# ===========================================================================


def test_survival_three_clear_slots():
    assert survival_product(0.5, [0, 0, 0], 1, 3) == pytest.approx(0.125)


def test_survival_blocked_slot_contributes_one():
    assert survival_product(0.5, [0, 1, 0], 1, 3) == pytest.approx(0.25)


def test_survival_all_blocked_is_one():
    assert survival_product(0.9, [1, 1, 1, 1], 1, 4) == 1.0


def test_survival_subrange():
    # only slots 2..3 of [clear, blocked, clear]
    assert survival_product(0.5, [0, 1, 0], 2, 3) == pytest.approx(0.5)


def test_survival_fractional_blocking():
    # r = 0.5 damps the delivery probability by half
    assert survival_product(0.4, [0.5], 1, 1) == pytest.approx(1 - 0.4 * 0.5)


# ===========================================================================
#  expected_age_trajectory
# ===========================================================================


def _no_div_cfg(horizon, users, alpha=0.5):
    return SystemConfig(horizon_T=horizon, num_users=users, alpha=alpha)


def test_always_scheduled_user_stays_fresh():
    cfg = _no_div_cfg(5, 1, alpha=0.1)  # B = 0
    series = expected_age_trajectory(
        validate_policy([1.0]), empty_plan(cfg), cfg)
    np.testing.assert_array_equal(series.per_user, np.ones((1, 5)))
    assert series.system_avg == 1.0


def test_halfrate_user_three_slots():
    # a user scheduled with probability 0.5 (here: either of two users)
    cfg = _no_div_cfg(3, 2, alpha=0.1)
    series = expected_age_trajectory(
        validate_policy([0.5, 0.5]), empty_plan(cfg), cfg)
    np.testing.assert_allclose(series.per_user[0], [1.0, 1.5, 1.75])
    assert series.per_user_avg[0] == pytest.approx(4.25 / 3)


def test_blocked_slot_freezes_decay():
    # user 0 blocked in slot 2: age(3) = age(2) * 1 + 1 = 2.5
    cfg = _no_div_cfg(3, 2, alpha=0.34)  # B = 1
    m = np.zeros((2, 3))
    m[0, 1] = 1.0
    series = expected_age_trajectory(
        validate_policy([0.5, 0.5]), BlockingPlan(m), cfg)
    np.testing.assert_allclose(series.per_user[0], [1.0, 1.5, 2.5])


def test_first_slot_age_is_one_and_bounded():
    cfg = _no_div_cfg(40, 3, alpha=0.3)
    series = expected_age_trajectory(
        validate_policy([0.2, 0.3, 0.5]), make_middle_block(cfg, 0), cfg)
    np.testing.assert_array_equal(series.per_user[:, 0], 1.0)
    t_grid = np.arange(1, 41)
    assert np.all(series.per_user >= 1.0)
    assert np.all(series.per_user <= t_grid)


def test_averages_match_definition():
    cfg = _no_div_cfg(25, 2, alpha=0.4)
    series = expected_age_trajectory(
        validate_policy([0.6, 0.4]), make_middle_block(cfg, 1), cfg)
    np.testing.assert_allclose(
        series.per_user_avg, series.per_user.mean(axis=1), atol=1e-15)
    assert series.system_avg == pytest.approx(series.per_user_avg.mean())


@pytest.mark.parametrize("seed", range(8))
def test_recursion_matches_sum_form(seed):
    rng = np.random.default_rng(seed)
    horizon = int(rng.integers(2, 21))
    users = int(rng.integers(1, 4))
    alpha = float(rng.uniform(0.1, 0.9))
    cfg = _no_div_cfg(horizon, users, alpha)
    p = rng.uniform(0.05, 1.0, users)
    policy = validate_policy(p / p.sum())
    # random feasible deterministic plan: <= B blocked slots, one row per slot
    m = np.zeros((users, horizon))
    slots = rng.permutation(horizon)[:cfg.budget_B]
    for t in slots:
        m[rng.integers(users), t] = 1.0
    series = expected_age_trajectory(policy, BlockingPlan(m), cfg)
    for i in range(users):
        np.testing.assert_allclose(
            series.per_user[i],
            age_sum_form(policy.probs[i], m[i], horizon), atol=1e-12)


def test_extra_blocked_slot_never_lowers_age():
    cfg = _no_div_cfg(15, 2, alpha=0.4)
    policy = validate_policy([0.7, 0.3])
    m = np.zeros((2, 15))
    m[0, 5:8] = 1.0
    base = expected_age_trajectory(policy, BlockingPlan(m), cfg)
    m2 = m.copy()
    m2[0, 8] = 1.0
    more = expected_age_trajectory(policy, BlockingPlan(m2), cfg)
    assert np.all(more.per_user >= base.per_user - 1e-15)
    assert more.system_avg > base.system_avg


def test_over_budget_plan_rejected():
    cfg = _no_div_cfg(10, 2, alpha=0.2)  # B = 2
    m = np.zeros((2, 10))
    m[0, :3] = 1.0
    with pytest.raises(ValueError):
        expected_age_trajectory(
            validate_policy([0.5, 0.5]), BlockingPlan(m), cfg)


def test_row_count_must_match_users():
    cfg = _no_div_cfg(10, 2, alpha=0.2)
    with pytest.raises(DimensionMismatchError):
        expected_age_trajectory(
            validate_policy([0.5, 0.5]),
            BlockingPlan(np.zeros((3, 10))), cfg)


# ===========================================================================
#  Diversity trajectories
# ===========================================================================


def test_diversity_without_blocking_matches_plain():
    cfg = SystemConfig(horizon_T=30, num_users=2, alpha=0.02,
                       num_subcarriers=3)  # B = 0
    policy = validate_policy([0.55, 0.45])
    div = expected_age_trajectory_diversity(
        policy, validate_subcarrier_policy([0.2, 0.5, 0.3]),
        empty_plan(cfg), cfg)
    plain_cfg = SystemConfig(horizon_T=30, num_users=2, alpha=0.02)
    plain = expected_age_trajectory(policy, empty_plan(plain_cfg), plain_cfg)
    np.testing.assert_allclose(div.per_user, plain.per_user, atol=1e-15)


def test_uniform_blocked_slot_halves_delivery():
    # N=1, p=1, N_sub=2: inside the window age(t+1) = age(t)*0.5 + 1
    cfg = SystemConfig(horizon_T=4, num_users=1, alpha=0.26,
                       num_subcarriers=2)  # B = 1, window is slot 2
    series = expected_age_trajectory_diversity(
        validate_policy([1.0]), uniform_subcarrier_policy(2),
        make_uniform_subcarrier_block(cfg), cfg)
    np.testing.assert_allclose(series.per_user[0], [1.0, 1.0, 1.5, 1.0])


def test_uniform_blocking_is_q_independent():
    cfg = SystemConfig(horizon_T=50, num_users=2, alpha=0.4,
                       num_subcarriers=4)
    policy = validate_policy([0.6, 0.4])
    plan = make_uniform_subcarrier_block(cfg)
    ref = expected_age_trajectory_diversity(
        policy, uniform_subcarrier_policy(4), plan, cfg)
    rng = np.random.default_rng(7)
    for _ in range(10):
        q = rng.dirichlet(np.ones(4))
        other = expected_age_trajectory_diversity(
            policy, validate_subcarrier_policy(q), plan, cfg)
        np.testing.assert_allclose(other.per_user, ref.per_user, atol=1e-12)


def test_diversity_plan_rows_must_match_subcarriers():
    cfg = SystemConfig(horizon_T=10, num_users=2, alpha=0.3,
                       num_subcarriers=2)
    with pytest.raises(DimensionMismatchError):
        expected_age_trajectory_diversity(
            validate_policy([0.5, 0.5]), uniform_subcarrier_policy(3),
            BlockingPlan(np.zeros((3, 10))), cfg)


def test_diversity_evaluator_rejects_wrong_user_count():
    cfg = SystemConfig(horizon_T=10, num_users=2, alpha=0.3,
                       num_subcarriers=2)
    with pytest.raises(DimensionMismatchError, match="policy has 5 users"):
        expected_age_trajectory_diversity(
            uniform_policy(5), uniform_subcarrier_policy(2),
            make_uniform_subcarrier_block(cfg), cfg)


def test_no_diversity_evaluator_rejects_diversity_config():
    # N == N_sub, so the plan's shape alone cannot tell the models apart
    cfg = SystemConfig(horizon_T=10, num_users=2, alpha=0.3,
                       num_subcarriers=2)
    with pytest.raises(DimensionMismatchError, match="sub-carrier policy"):
        expected_age_trajectory(uniform_policy(2), empty_plan(cfg), cfg)


@pytest.mark.parametrize("seed", range(4))
def test_one_user_models_coincide_bit_for_bit(seed):
    # with q = (1, 0) and plan rows (b, 0) the drawn sub-carrier is blocked
    # with probability b itself, so both models deliver through row b
    rng = np.random.default_rng(seed)
    horizon = 400
    b = np.repeat(rng.choice([0.0, 0.0, 1.0, *rng.random(3)], 40), 10)
    plain_cfg = SystemConfig(horizon_T=horizon, num_users=1, alpha=0.6)
    div_cfg = SystemConfig(horizon_T=horizon, num_users=1, alpha=0.6,
                           num_subcarriers=2)
    policy = validate_policy([1.0])
    plain = expected_age_trajectory(policy, BlockingPlan(b[None]), plain_cfg)
    div = expected_age_trajectory_diversity(
        policy, validate_subcarrier_policy([1.0, 0.0]),
        BlockingPlan(np.stack([b, np.zeros(horizon)])), div_cfg)
    assert div.per_user.tobytes() == plain.per_user.tobytes()


@pytest.mark.parametrize("probs", [[0.25, 0.25, 0.5], [0.25, 0.5, 0.25],
                                   [0.5, 0.25, 0.25]])
def test_users_sharing_p_match_their_own_pricing(probs):
    # two users share p = 0.25, so one priced row serves both; each row is
    # the per-slot loop on that user's own delivery p_i * (1 - q.b)
    cfg = SystemConfig(horizon_T=500, num_users=3, alpha=0.4,
                       num_subcarriers=3)
    rng = np.random.default_rng(5)
    m = (rng.dirichlet(np.ones(3), 500).T
         * np.repeat(rng.random(50) * 0.6, 10))
    policy = validate_policy(probs)
    subpolicy = validate_subcarrier_policy([0.5, 0.3, 0.2])
    series = expected_age_trajectory_diversity(
        policy, subpolicy, BlockingPlan(m), cfg)
    clear = 1.0 - _intercepted(subpolicy.probs, m)
    for i, p in enumerate(policy.probs):
        alone = _recurse_reference((p * clear)[None])[0]
        assert series.per_user[i].tobytes() == alone.tobytes(), i


# ===========================================================================
#  Recursion lock: the run core against the plain per-slot loop
# ===========================================================================


def _recurse_ages(delivery_prob):
    """The dense driver of the run core: each row of an (N, T) delivery
    matrix is cut into runs where its delivery probability changes (where
    two probabilities round to one s, the next run just goes on iterating)
    and handed to _run_ages with s = 1 - delivery, with one converged-run
    cache for the call."""
    out = np.empty(delivery_prob.shape)
    converged = {}
    for row, delivery, starts in zip(out, delivery_prob,
                                     _run_starts(delivery_prob)):
        _run_ages(row, starts, (1.0 - delivery[starts]).tolist(), converged)
    return out


def _recurse_reference(delivery_prob):
    """age(t+1) = age(t)*(1 - d(t)) + 1, one slot at a time."""
    n, horizon = delivery_prob.shape
    out = np.empty((n, horizon))
    surv = 1.0 - delivery_prob
    for i in range(n):
        row_s = surv[i].tolist()
        age = 1.0
        out[i, 0] = age
        for t in range(1, horizon):
            age = age * row_s[t - 1] + 1.0
            out[i, t] = age
    return out


_LOCK_P = np.array([0.5, 0.3, 0.2])


def _middle_block():
    cfg = _no_div_cfg(2000, 3, alpha=0.3)
    return _LOCK_P[:, None] * (1.0 - make_middle_block(cfg, 1).block_prob)


def _diversity_delivery(q, block_prob):
    return _LOCK_P[:, None] * (1.0 - np.asarray(q) @ block_prob)[None, :]


def _uniform_subcarrier():
    cfg = SystemConfig(horizon_T=2000, num_users=3, alpha=0.3,
                       num_subcarriers=3)
    return _diversity_delivery([0.2, 0.5, 0.3],
                               make_uniform_subcarrier_block(cfg).block_prob)


def _deviation_family(k):
    """Plan k of a sample that takes one plan from each family, in order."""
    def build():
        cfg = SystemConfig(horizon_T=1500, num_users=3, alpha=0.2,
                           num_subcarriers=3)
        samples = _sample_adv_deviations(
            cfg, len(ADV_DEVIATION_FAMILIES), np.random.default_rng(17))
        return _diversity_delivery([0.2, 0.5, 0.3],
                                   _window_plan(samples[k], cfg).block_prob)
    return build


def _dense(values):
    def build():
        rng = np.random.default_rng(23)
        return _LOCK_P[:, None] * (1.0 - rng.choice(values, (3, 3000)))
    return build


def _random_delivery():
    return np.random.default_rng(29).random((2, 3000))


_LOCK_CASES = {
    "middle-block": _middle_block,
    "uniform-subcarrier": _uniform_subcarrier,
    **{f"family-{name}": _deviation_family(k)
       for k, name in enumerate(ADV_DEVIATION_FAMILIES)},
    "dense-0/1": _dense([0.0, 1.0]),
    "dense-0/0.5": _dense([0.0, 0.5]),
    "random-delivery": _random_delivery,
    # the rounded map reaches its fixed point at slot 276,086 of 300,000
    "tiny-p-late-fixed-point": lambda: np.full((1, 300_000), 1e-4),
    "tiny-p-no-fixed-point": lambda: np.full((1, 200_000), 1e-4),
    "ramp": lambda: np.zeros((2, 1000)),
    # enters the s = 1 ramp at age 4.68559 and climbs through every binade
    # up to 2**14, rounding at each; entry + k, rounded once, differs from
    # the loop in 8,224 of these slots
    "ramp-from-fraction": lambda: np.array(
        [np.concatenate([np.full(5, 0.1), np.zeros(17_000)])]),
    "T=1": lambda: np.array([[0.5], [0.0]]),
    "T=2": lambda: np.array([[0.5, 0.5], [0.0, 1.0]]),
    "N=1": lambda: np.array([[0.7] * 50 + [0.0] * 50 + [0.7] * 50]),
}


def _stacked(*builds, width=None):
    """The rows of every build in one matrix, each cut or edge-padded to
    `width` slots (default: the first build's)."""
    def build():
        blocks = [b() for b in builds]
        w = blocks[0].shape[1] if width is None else width
        return np.concatenate([
            np.pad(m[:, :w], ((0, 0), (0, max(0, w - m.shape[1]))), "edge")
            for m in blocks])
    return build


def _rows(*rows):
    return lambda: np.array([np.concatenate(r) for r in rows])


def _run(value, length):
    return np.full(length, value)


# rows that share run starts, so later runs copy a cached trajectory
_SHARED_RUN_CASES = {
    # 20-slot windows of s = 0.9 end before its fixed point, in two rows
    # before and one after a row that reaches it from the same entry age
    "short-window-before-fixed-point": _rows(
        [_run(0.5, 100), _run(0.1, 20), _run(0.5, 380)],
        [_run(0.5, 100), _run(0.1, 20), _run(0.5, 380)],
        [_run(0.5, 100), _run(0.1, 400)],
        [_run(0.5, 60), _run(0.1, 20), _run(0.3, 420)]),
    # the second row's first run is a prefix of the first row's, the third
    # row's outlasts it
    "prefix-of-cached-trajectory": _rows(
        [_run(0.1, 600)], [_run(0.1, 50), _run(0.5, 550)],
        [_run(0.1, 500), _run(0.7, 100)]),
    # delivery 1 holds age 1, the fixed point of s = 0, from slot 1 on
    "entered-at-fixed-point": _rows(
        [_run(1.0, 50), _run(0.3, 50)], [_run(1.0, 20), _run(0.6, 80)],
        [_run(0.3, 40), _run(1.0, 30), _run(0.3, 30)]),
    # one middle window per row at shifted offsets: every row repeats the
    # clear run and, once converged, the window and the run after it
    "shifted-windows": lambda: np.array([
        np.concatenate([_run(0.4, a), _run(0.1, 60), _run(0.4, 300 - a)])
        for a in (100, 100, 150, 37, 250, 150)]),
    "tiny-p-late-fixed-point-twice": _stacked(
        _LOCK_CASES["tiny-p-late-fixed-point"],
        _LOCK_CASES["tiny-p-late-fixed-point"]),
    "tiny-p-no-fixed-point-twice": _stacked(
        _LOCK_CASES["tiny-p-no-fixed-point"],
        _LOCK_CASES["tiny-p-no-fixed-point"]),
    "every-case-stacked": _stacked(*_LOCK_CASES.values(), width=3000),
}
_LOCK_CASES.update(_SHARED_RUN_CASES)


@pytest.mark.parametrize("name", list(_LOCK_CASES))
def test_recursion_is_bit_identical_to_reference(name):
    delivery = _LOCK_CASES[name]()
    got = _recurse_ages(delivery)
    assert got.shape == delivery.shape
    assert got.tobytes() == _recurse_reference(delivery).tobytes()


def test_tiny_p_cases_straddle_the_fixed_point():
    late = _recurse_ages(_LOCK_CASES["tiny-p-late-fixed-point"]())[0]
    assert late[276_084] < late[276_085] == late[-1]
    never = _recurse_ages(_LOCK_CASES["tiny-p-no-fixed-point"]())[0]
    assert never[-2] < never[-1]


def test_interception_is_the_same_column_alone_or_in_a_matrix():
    # a matrix product may round a column differently by the operands'
    # shapes; the ordered sum gives every column one value
    rng = np.random.default_rng(31)
    for n_sub in (2, 3, 5):
        q = validate_subcarrier_policy(rng.dirichlet(np.ones(n_sub))).probs
        m = rng.dirichlet(np.ones(n_sub), 400).T * rng.random(400)
        whole = _intercepted(q, m)
        expect = [sum((q[j] * m[j, t] for j in range(1, n_sub)),
                      q[0] * m[0, t]) for t in range(400)]
        assert whole.tobytes() == np.array(expect).tobytes()
        for t in (0, 17, 399):
            assert _intercepted(q, m[:, t:t + 1])[0] == whole[t]
