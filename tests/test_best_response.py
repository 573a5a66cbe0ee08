"""Best responses: closed forms vs. numeric descent, structured adversary
vs. exhaustive oracle."""

import functools
import math
import time
import tracemalloc

import numpy as np
import pytest

from aoijam import best_response, model
from aoijam.age_exact import expected_age_trajectory
from aoijam.best_response import (
    AdversaryResponse,
    adversary_best_response,
    adversary_oracle,
    bs_best_response_single_block,
    counter_block_policy,
    numeric_simplex_minimizer,
    oracle_plan_count,
    ordered_kkt_solver,
    project_simplex,
)
from aoijam.errors import (
    ConvergenceFailureError,
    DimensionMismatchError,
    IndexOutOfRangeError,
    InstanceTooLargeError,
    InvalidAlphaError,
    NonPositiveEntryError,
)
from aoijam.model import (
    SystemConfig,
    middle_window,
    uniform_policy,
    validate_policy,
)

# ===========================================================================
#  Projections
# ===========================================================================


@pytest.mark.parametrize("seed", range(6))
def test_simplex_projection_is_feasible_and_optimal(seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=rng.integers(1, 9)) * 3
    x = project_simplex(v)
    assert x.min() >= 0.0
    assert x.sum() == pytest.approx(1.0, abs=1e-12)
    # projection beats random feasible points in distance
    for _ in range(20):
        z = rng.dirichlet(np.ones(v.size))
        assert np.sum((x - v) ** 2) <= np.sum((z - v) ** 2) + 1e-12


def test_simplex_projection_fixes_feasible_points():
    v = np.array([0.2, 0.5, 0.3])
    np.testing.assert_allclose(project_simplex(v), v, atol=1e-15)


# ===========================================================================
#  Base-station closed form and numeric minimizer
# ===========================================================================


def test_single_block_closed_form_example():
    pol = bs_best_response_single_block(3, 0.44)
    np.testing.assert_allclose(pol.probs, [0.375, 0.3125, 0.3125], atol=1e-12)


def test_single_block_blocked_user_listed_first():
    pol = bs_best_response_single_block(2, 0.5)
    root = math.sqrt(1.5)
    np.testing.assert_allclose(
        pol.probs, [root / (1 + root), 1 / (1 + root)], atol=1e-12)
    assert pol.probs[0] > pol.probs[1]


def test_single_block_tiny_alpha_near_uniform():
    pol = bs_best_response_single_block(4, 1e-9)
    np.testing.assert_allclose(pol.probs, 0.25, atol=1e-9)


def test_single_block_rejects_bad_alpha():
    with pytest.raises(InvalidAlphaError):
        bs_best_response_single_block(3, 0.0)
    with pytest.raises(InvalidAlphaError):
        bs_best_response_single_block(3, 1.0)


def test_single_block_single_user():
    np.testing.assert_allclose(
        bs_best_response_single_block(1, 0.5).probs, [1.0])


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("alpha", [0.05, 0.3, 0.44, 0.9])
def test_counter_block_permutes_the_validated_response(n, alpha):
    # validate, permute, validate again: dynamics.csv pins these bits
    base = bs_best_response_single_block(n, alpha).probs
    for target in range(n):
        order = [target] + [i for i in range(n) if i != target]
        probs = np.empty(n)
        probs[order] = base
        assert counter_block_policy(n, alpha, target).probs.tobytes() == (
            validate_policy(probs).probs.tobytes())


@pytest.mark.parametrize("target", [-1, 3, 7])
def test_counter_block_target_range_checked(target):
    with pytest.raises(IndexOutOfRangeError, match=f"target {target} outside"):
        counter_block_policy(3, 0.3, target)


def test_numeric_minimizer_uniform_weights():
    pol = numeric_simplex_minimizer(np.ones(5))
    np.testing.assert_allclose(pol.probs, 0.2, atol=1e-8)


def test_numeric_minimizer_known_ratio():
    pol = numeric_simplex_minimizer([4.0, 1.0])
    np.testing.assert_allclose(pol.probs, [2 / 3, 1 / 3], atol=1e-8)


def test_numeric_minimizer_rejects_bad_weights():
    with pytest.raises(NonPositiveEntryError):
        numeric_simplex_minimizer([1.0, 0.0])
    with pytest.raises(NonPositiveEntryError):
        numeric_simplex_minimizer([])


@pytest.mark.parametrize("weights, error, message", [
    ([[1.0, 2.0], [1.0, 1.0]], DimensionMismatchError, "must be 1-D"),
    ([[1.0, 2.0]], DimensionMismatchError, "must be 1-D"),
    (3.0, DimensionMismatchError, "must be 1-D"),
    ([1.0, math.nan, 2.0], NonPositiveEntryError, "w[1] = nan"),
    ([1.0, 2.0, math.inf], NonPositiveEntryError, "w[2] = inf"),
    ([1.0, -math.inf], NonPositiveEntryError, "w[1] = -inf"),
])
def test_numeric_minimizer_takes_only_1d_finite_weights(weights, error,
                                                        message):
    with pytest.raises(error) as info:
        numeric_simplex_minimizer(weights)
    assert message in str(info.value)


def test_numeric_minimizer_reproduces_single_block_response():
    for n, alpha in [(2, 0.5), (3, 0.44), (5, 0.9), (10, 0.1)]:
        w = np.ones(n)
        w[0] = 1 + alpha
        numeric = numeric_simplex_minimizer(w)
        closed = bs_best_response_single_block(n, alpha)
        np.testing.assert_allclose(numeric.probs, closed.probs, atol=1e-6)


@pytest.mark.parametrize("seed", range(10))
def test_numeric_minimizer_matches_closed_form_randomly(seed):
    rng = np.random.default_rng(700 + seed)
    w = rng.uniform(0.1, 10.0, size=rng.integers(2, 9))
    pol = numeric_simplex_minimizer(w)
    closed = np.sqrt(w) / np.sqrt(w).sum()
    np.testing.assert_allclose(pol.probs, closed, atol=1e-8)


def test_closed_form_vs_numeric_acceptance_grid_is_fast():
    start = time.perf_counter()
    for n in (2, 3, 5, 10):
        for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
            w = np.ones(n)
            w[0] = 1 + alpha
            dev = np.max(np.abs(numeric_simplex_minimizer(w).probs
                                - bs_best_response_single_block(n, alpha).probs))
            assert dev <= 1e-6
    assert time.perf_counter() - start < 1.0


# ===========================================================================
#  Ordered solver (leader side)
# ===========================================================================


def test_ordered_solver_returns_uniform():
    for n, alpha in [(2, 0.5), (3, 0.5), (5, 0.2), (8, 0.9)]:
        pol = ordered_kkt_solver(n, alpha)
        np.testing.assert_allclose(pol.probs, 1.0 / n, atol=1e-6)


def test_ordered_solver_output_is_feasible():
    pol = ordered_kkt_solver(6, 0.7)
    assert np.all(np.diff(pol.probs) <= 1e-10)
    assert pol.probs.sum() == pytest.approx(1.0, abs=1e-10)


def test_unordered_minimizer_would_break_the_ordering():
    # same weights without the cone: the blocked user is scheduled MORE
    n, alpha = 4, 0.6
    w = np.ones(n)
    w[-1] = 1 + alpha
    free = numeric_simplex_minimizer(w)
    assert free.probs[-1] == pytest.approx(
        math.sqrt(1 + alpha) * free.probs[0], rel=1e-6)
    assert free.probs[-1] > free.probs[0]


def test_ordered_solver_validates_inputs():
    with pytest.raises(ValueError):
        ordered_kkt_solver(1, 0.5)
    with pytest.raises(InvalidAlphaError):
        ordered_kkt_solver(3, 1.2)


@pytest.mark.parametrize("solve", [
    lambda: numeric_simplex_minimizer([1.0, 2.0, 3.0]),
    lambda: ordered_kkt_solver(4, 0.5),
], ids=["simplex", "ordered"])
def test_descent_out_of_iterations_raises(monkeypatch, solve):
    monkeypatch.setattr(best_response, "DESCENT_MAX_ITER", 1)
    with pytest.raises(ConvergenceFailureError, match="after 1 iterations"):
        solve()


# ===========================================================================
#  Structured adversary response
# ===========================================================================


def test_structured_response_targets_least_scheduled():
    cfg = SystemConfig(horizon_T=1000, num_users=3, alpha=0.2)
    resp = adversary_best_response(validate_policy([0.5, 0.3, 0.2]), cfg)
    assert resp.target == 2
    start, stop = middle_window(1000, cfg.budget_B)
    assert np.all(resp.plan.block_prob[2, start:stop] == 1.0)
    assert resp.plan.total_blocked() == cfg.budget_B


def test_structured_response_tie_breaks_low_index():
    cfg = SystemConfig(horizon_T=1000, num_users=4, alpha=0.3)
    resp = adversary_best_response(validate_policy([0.25] * 4), cfg)
    assert resp.target == 0


def test_structured_payoff_dominates_other_targets():
    from aoijam.age_asymptotic import reduced_objective
    cfg = SystemConfig(horizon_T=5000, num_users=3, alpha=0.4)
    pol = validate_policy([0.5, 0.2, 0.3])
    resp = adversary_best_response(pol, cfg)
    for other in range(3):
        alt = reduced_objective(pol, other, cfg.alpha, cfg.horizon_T)
        assert resp.payoff >= alt - 1e-12
    assert resp.payoff == pytest.approx(
        reduced_objective(pol, 1, cfg.alpha, cfg.horizon_T))


def test_structured_response_rejects_diversity_config():
    cfg = SystemConfig(horizon_T=100, num_users=2, alpha=0.2, num_subcarriers=2)
    with pytest.raises(ValueError):
        adversary_best_response(validate_policy([0.5, 0.5]), cfg)


@pytest.mark.parametrize("policy, cfg", [
    (validate_policy([0.2, 0.5, 0.3]),
     SystemConfig(horizon_T=8, num_users=2, alpha=0.2)),
    (validate_policy([0.5, 0.5]),
     SystemConfig(horizon_T=8, num_users=2, alpha=0.2, num_subcarriers=2)),
], ids=["wrong-user-count", "diversity-config"])
def test_adversary_replies_check_the_profile(monkeypatch, policy, cfg):
    with pytest.raises(DimensionMismatchError):
        adversary_best_response(policy, cfg)

    def no_enumeration(*args):
        raise AssertionError("oracle sized its search before the check")

    monkeypatch.setattr(best_response, "oracle_plan_count", no_enumeration)
    with pytest.raises(DimensionMismatchError):
        adversary_oracle(policy, cfg)


def test_adversary_replies_build_no_plan_to_check_the_profile(monkeypatch):
    def no_plan(config):
        raise AssertionError("a reply built a plan only to check the profile")

    monkeypatch.setattr(model, "empty_plan", no_plan)
    monkeypatch.setattr(best_response, "empty_plan", no_plan, raising=False)
    cfg = SystemConfig(horizon_T=8, num_users=2, alpha=0.25)
    pol = validate_policy([0.6, 0.4])
    assert adversary_best_response(pol, cfg).target == 1
    assert adversary_oracle(pol, cfg).plan.horizon == 8


# ===========================================================================
#  Exhaustive oracle
# ===========================================================================


def test_oracle_plan_count_formula():
    assert oracle_plan_count(2, 10, 3) == 1 + 20 + 180 + 960
    assert oracle_plan_count(1, 4, 4) == 16
    assert oracle_plan_count(3, 2, 0) == 1


def test_oracle_zero_budget_returns_empty_plan():
    cfg = SystemConfig(horizon_T=6, num_users=2, alpha=0.1)  # B = 0
    pol = validate_policy([0.6, 0.4])
    resp = adversary_oracle(pol, cfg)
    assert resp.plan.total_blocked() == 0.0
    assert resp.payoff == pytest.approx(
        expected_age_trajectory(pol, resp.plan, cfg).system_avg)


def test_oracle_beats_every_single_user_window():
    # N=1: enumerate all 1-user plans by hand and compare
    cfg = SystemConfig(horizon_T=8, num_users=1, alpha=0.3)  # B = 2
    pol = validate_policy([1.0])
    resp = adversary_oracle(pol, cfg)
    from itertools import combinations
    from aoijam.model import BlockingPlan
    best = -np.inf
    for slots in combinations(range(8), 2):
        m = np.zeros((1, 8))
        m[0, list(slots)] = 1.0
        val = expected_age_trajectory(
            pol, BlockingPlan(m), cfg).system_avg
        best = max(best, val)
    # also the 0- and 1-slot plans
    for s in range(8):
        m = np.zeros((1, 8))
        m[0, s] = 1.0
        best = max(best, expected_age_trajectory(
            pol, BlockingPlan(m), cfg).system_avg)
    assert resp.payoff == pytest.approx(best, rel=1e-12)


def test_oracle_dominates_structured_response_exactly():
    cfg = SystemConfig(horizon_T=10, num_users=2, alpha=0.3)  # B = 3
    pol = validate_policy([0.7, 0.3])
    oracle = adversary_oracle(pol, cfg)
    structured = adversary_best_response(pol, cfg)
    structured_exact = expected_age_trajectory(
        pol, structured.plan, cfg).system_avg
    assert oracle.payoff >= structured_exact - 1e-12
    gap = oracle.payoff - structured_exact
    assert gap >= 0.0
    assert isinstance(oracle, AdversaryResponse)


def test_oracle_ties_contain_best_and_respect_symmetry():
    # uniform policy: swapping user rows of a maximizer is also a maximizer
    cfg = SystemConfig(horizon_T=6, num_users=2, alpha=0.35)  # B = 2
    pol = validate_policy([0.5, 0.5])
    resp = adversary_oracle(pol, cfg)
    ties = resp.tied_actions.tolist()
    best = _actions(resp.plan)
    assert ties[0] == best
    assert len(ties) >= 2
    assert [0 if a == 0 else 3 - a for a in best] in ties  # users swapped


@pytest.mark.parametrize("seed", range(3))
def test_oracle_maximizers_start_at_or_just_before_the_middle(seed):
    # short horizons: every tie is one window of all B >= 1 slots on one
    # user, starting at middle_window(T, B) or one slot earlier, never later
    rng = np.random.default_rng(seed)
    for _ in range(4):
        n, horizon = int(rng.integers(2, 4)), int(rng.integers(6, 11))
        cfg = SystemConfig(horizon_T=horizon, num_users=n,
                           alpha=float(rng.uniform(0.17, 0.45)))
        pol = validate_policy(rng.dirichlet(np.ones(n)))
        start = middle_window(horizon, cfg.budget_B)[0]
        for act in adversary_oracle(pol, cfg).tied_actions:
            cols = np.flatnonzero(act)
            assert len(set(act[cols].tolist())) == 1
            assert cols.tolist() == list(range(cols[0],
                                               cols[0] + cfg.budget_B))
            assert cols[0] in (start - 1, start)


def test_oracle_respects_instance_cap():
    cfg = SystemConfig(horizon_T=40, num_users=3, alpha=0.5)
    with pytest.raises(InstanceTooLargeError):
        adversary_oracle(validate_policy([0.3, 0.3, 0.4]), cfg)


def test_oracle_handles_long_horizons():
    # one plan, 5000 slots: the search walks the levels in a loop, so the
    # horizon is not bounded by the interpreter's recursion limit
    cfg = SystemConfig(horizon_T=5000, num_users=2, alpha=1e-4)  # B = 0
    pol = validate_policy([0.6, 0.4])
    resp = adversary_oracle(pol, cfg)
    assert resp.plan.total_blocked() == 0.0
    assert resp.tied_actions.shape == (1, 5000)
    assert resp.payoff == pytest.approx(
        expected_age_trajectory(pol, resp.plan, cfg).system_avg, rel=1e-12)


# ===========================================================================
#  Oracle lock: the level-synchronous search against a depth-first one
# ===========================================================================


def _oracle_reference(policy, config):
    """Depth-first oracle: (payoff, tied plans), each plan a list of
    per-slot actions (0 = idle, 1+i = block user i), in lexicographic order.

    A branch restores the running ages and age sums from saved copies, so
    every leaf carries its own slot-ordered sums, whatever was visited
    before it.
    """
    n, horizon, budget = policy.n, config.horizon_T, config.budget_B
    probs = policy.probs.tolist()
    best_value = -np.inf
    ties = []
    actions = [0] * horizon
    ages = [1.0] * n
    age_sums = [0.0] * n

    def recurse(t, used):
        nonlocal best_value, ties
        if t == horizon:
            value = math.fsum(age_sums) / (n * horizon)
            if value > best_value * (1 + 1e-12):
                best_value = value
                ties = [list(actions)]
            elif value >= best_value * (1 - 1e-12):
                ties.append(list(actions))
            return
        saved_ages, saved_sums = ages.copy(), age_sums.copy()
        for act in range(0, n + 1):
            if act > 0 and used == budget:
                break
            actions[t] = act
            for i in range(n):
                s = 0.0 if act == i + 1 else probs[i]
                age_sums[i] += ages[i]
                ages[i] = ages[i] * (1.0 - s) + 1.0
            recurse(t + 1, used + (1 if act > 0 else 0))
            ages[:], age_sums[:] = saved_ages, saved_sums
        actions[t] = 0

    recurse(0, 0)
    return best_value, ties


def _actions(plan) -> list:
    """Per-slot actions of a 0/1 plan (0 = idle, 1+i = block i)."""
    blocked = plan.block_prob.max(axis=0) > 0.0
    return np.where(blocked, plan.block_prob.argmax(axis=0) + 1, 0).tolist()


def _lock_policy(n, kind):
    if kind == "uniform":  # every user symmetric: many tied maximizers
        return uniform_policy(n)
    if kind == "tiny-p":
        return validate_policy([1e-9] + [(1.0 - 1e-9) / (n - 1)] * (n - 1))
    return validate_policy(np.arange(n, 0, -1) / (n * (n + 1) / 2))


LOCK_POLICIES = {1: ("uniform",),
                 2: ("uniform", "tiny-p", "skewed"),
                 3: ("uniform", "tiny-p", "skewed")}
LOCK_MAX_PLANS = 300  # per instance, so the grid runs in about a second


def _lock_grid(n):
    """(T, B) for T = 1..12 and B = 0..T-1, up to LOCK_MAX_PLANS plans."""
    for horizon in range(1, 13):
        for budget in range(horizon):
            if oracle_plan_count(n, horizon, budget) <= LOCK_MAX_PLANS:
                yield horizon, budget


@functools.cache
def _locked(n, horizon, budget, kind):
    policy = _lock_policy(n, kind)
    config = SystemConfig(horizon_T=horizon, num_users=n,
                          alpha=(budget + 0.5) / horizon)
    assert config.budget_B == budget
    return policy, config, _oracle_reference(policy, config)


@pytest.mark.parametrize("chunk", [None, 1, 7],
                         ids=["default-chunk", "chunk-1", "chunk-7"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_oracle_matches_depth_first_reference(monkeypatch, n, chunk):
    # chunks of 1 and 7 plans put chunk boundaries between tied plans
    if chunk is not None:
        monkeypatch.setattr(best_response, "ORACLE_CHUNK_PLANS", chunk)
    for horizon, budget in _lock_grid(n):
        for kind in LOCK_POLICIES[n]:
            policy, config, (payoff, ties) = _locked(n, horizon, budget, kind)
            resp = adversary_oracle(policy, config)
            where = f"N={n} T={horizon} B={budget} {kind}"
            assert repr(resp.payoff) == repr(payoff), where
            assert resp.tied_actions.tolist() == ties, where
            assert _actions(resp.plan) == ties[0], where


def test_oracle_payoff_is_its_plans_own_sum():
    # the golden `oracle` scenario: N=2, T=8, B=2
    cfg = SystemConfig(horizon_T=8, num_users=2, alpha=0.25)
    pol = validate_policy([0.6, 0.4])
    resp = adversary_oracle(pol, cfg)
    sums = []
    for i, p in enumerate(pol.probs.tolist()):
        age, total = 1.0, 0.0
        for t in range(cfg.horizon_T):
            s = 0.0 if resp.plan.block_prob[i, t] == 1.0 else p
            total += age
            age = age * (1.0 - s) + 1.0
        sums.append(total)
    own = math.fsum(sums) / (pol.n * cfg.horizon_T)
    assert repr(resp.payoff) == repr(own)


ORACLE_MEMORY_BOUND = 8_000_000  # bytes; unchunked, this search peaks ~22 MB


def test_oracle_memory_is_bounded_by_the_chunk():
    cfg = SystemConfig(horizon_T=22, num_users=2, alpha=4.5 / 22)  # B = 4
    assert oracle_plan_count(2, 22, cfg.budget_B) == 130_329
    pol = validate_policy([0.6, 0.4])
    tracemalloc.start()
    try:
        adversary_oracle(pol, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ORACLE_MEMORY_BOUND
