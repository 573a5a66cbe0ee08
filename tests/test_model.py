"""Core types: policies, blocking plans, budgets, feasibility."""

import dataclasses
import math

import numpy as np
import pytest

from aoijam.equilibrium import _window_plan, best_response_dynamics
from aoijam.errors import (
    DimensionMismatchError,
    IndexOutOfRangeError,
    InvalidAlphaError,
    NoDiversityError,
    NonPositiveEntryError,
    NotNormalizedError,
)
from aoijam.model import (
    BlockingPlan,
    SchedulingPolicy,
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


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 1.5, "0.5", None, math.nan])
def test_alpha_outside_open_interval_rejected(alpha):
    # a string or None is named, never compared
    with pytest.raises(InvalidAlphaError) as caught:
        SystemConfig(horizon_T=10, num_users=2, alpha=alpha)
    assert str(caught.value) == f"alpha must lie in (0, 1), got {alpha!r}"


# the horizon cases of test_closed_forms_reject_horizon_below_one, and the
# sizes that once passed here: NaN, fractions and bools
@pytest.mark.parametrize("field, value", [
    ("horizon_T", 0), ("horizon_T", -5), ("horizon_T", 0.5),
    ("horizon_T", math.nan), ("horizon_T", 10.5), ("horizon_T", True),
    ("num_users", math.nan), ("num_users", 2.5), ("num_users", False),
    ("num_subcarriers", math.nan), ("num_subcarriers", 2.0),
])
def test_sizes_must_be_integers_of_at_least_one(field, value):
    sizes = {"horizon_T": 10, "num_users": 2, "num_subcarriers": 1,
             field: value}
    with pytest.raises(DimensionMismatchError,
                       match=f"{field} must be an integer >= 1, got"):
        SystemConfig(alpha=0.4, **sizes)


def test_numpy_integer_sizes_are_stored_as_ints():
    # kept as np.uint8, a horizon of 200 overflows the diversity audit's
    # count of age cells
    cfg = SystemConfig(horizon_T=np.uint8(200), num_users=np.int32(3),
                       alpha=0.5, num_subcarriers=np.uint8(2))
    assert cfg == SystemConfig(horizon_T=200, num_users=3, alpha=0.5,
                               num_subcarriers=2)
    assert {type(cfg.horizon_T), type(cfg.num_users),
            type(cfg.num_subcarriers)} == {int}


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
    # the first entry below the floor is named, not a NaN before it or a
    # lower entry after it
    (validate_policy, [math.nan, -1.0, 2.0], "p[1] = -1.0 must be > 0"),
    (validate_policy, [math.nan, 0.5, 0.0, 0.5], "p[2] = 0.0 must be > 0"),
    (validate_subcarrier_policy, [math.nan, -1.0, 2.0],
     "q[1] = -1.0 must be >= 0"),
    (validate_subcarrier_policy, [0.5, -0.25, -2.0, 2.75],
     "q[1] = -0.25 must be >= 0"),
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


@pytest.mark.parametrize("build", [validate_policy, validate_subcarrier_policy])
@pytest.mark.parametrize("raw", [[[0.5], [0.5]], [[0.25, 0.25], [0.25, 0.25]],
                                 1.0, [[1.0]]])
def test_policies_accept_only_1d_vectors(build, raw):
    with pytest.raises(DimensionMismatchError, match="must be 1-D"):
        build(raw)


@pytest.mark.parametrize("build, message", [
    (uniform_policy, "n >= 1"),
    (uniform_subcarrier_policy, "n >= 1"),
    # the game's user count is checked where the game is built
    (lambda n: best_response_dynamics(
        SystemConfig(horizon_T=10, num_users=n, alpha=0.2), 5),
     "num_users must be an integer >= 1"),
], ids=["uniform_policy", "uniform_subcarrier_policy",
        "best_response_dynamics"])
@pytest.mark.parametrize("n", [0, -1])
def test_uniform_vectors_reject_count_below_one(build, message, n):
    with pytest.raises(DimensionMismatchError, match=message):
        build(n)


def test_policy_equality_is_per_type():
    assert validate_policy([0.5, 0.5]) == uniform_policy(2)
    assert validate_subcarrier_policy([0.5, 0.5]) == uniform_subcarrier_policy(2)
    assert uniform_policy(2) != uniform_subcarrier_policy(2)
    assert uniform_subcarrier_policy(2) != uniform_policy(2)


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
    assert plan.is_deterministic


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
    # T=11, B=4: centred on the 10 live slots, start = ceil(6/2) = 3,
    # blocked 1-based slots {4,5,6,7}
    cfg = SystemConfig(horizon_T=11, num_users=2, alpha=0.4)
    plan = make_middle_block(cfg, target=0)
    assert (np.flatnonzero(plan.block_prob[0]) + 1).tolist() == [4, 5, 6, 7]


def test_middle_block_target_range_checked():
    cfg = SystemConfig(horizon_T=10, num_users=2, alpha=0.4)
    with pytest.raises(IndexOutOfRangeError):
        make_middle_block(cfg, target=2)
    with pytest.raises(IndexOutOfRangeError):
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
        BlockingPlan(m)


# the first field says whether the finite entries are all 0 or 1: the
# check fires either way
@pytest.mark.parametrize("kind, raw, message", [
    ("randomized", [[math.nan, 0.1]], "block_prob[0, 0] = nan"),
    ("randomized", [[0.0, 0.1], [0.2, math.nan]], "block_prob[1, 1] = nan"),
    ("randomized", [[0.1, math.inf]], "block_prob[0, 1] = inf"),
    ("deterministic", [[0.0, 1.0], [-math.inf, 0.0]], "block_prob[1, 0] = -inf"),
])
def test_plan_rejects_non_finite_entries(kind, raw, message):
    finite = np.asarray(raw)[np.isfinite(raw)]
    assert np.all((finite == 0.0) | (finite == 1.0)) == (
        kind == "deterministic")
    with pytest.raises(ValueError) as info:
        BlockingPlan(raw)
    assert message in str(info.value)


def test_plan_is_its_matrix():
    m = np.zeros((2, 4))
    m[0, 1] = 1.0
    assert BlockingPlan(m).is_deterministic
    m[1, 2] = 0.5
    plan = BlockingPlan(m)
    assert not plan.is_deterministic
    assert plan == BlockingPlan(m.copy())
    assert [f.name for f in dataclasses.fields(BlockingPlan)] == [
        "block_prob"]


def test_plan_stores_tolerated_entries_clipped():
    raw = np.array([[-1e-13, 1 + 1e-13]])
    plan = BlockingPlan(raw)
    assert plan.block_prob.tolist() == [[0.0, 1.0]]
    assert plan.is_deterministic  # judged on the stored entries
    assert raw.tolist() == [[-1e-13, 1 + 1e-13]]  # the caller's copy


def _reference_plan(raw):
    """BlockingPlan's checks with every pass run on every plan, the
    reference for its min/max-gated form: (error class, message) or the
    stored matrix."""
    m = np.array(raw, dtype=float)
    try:
        if m.ndim != 2:
            raise DimensionMismatchError(
                "block_prob must be 2-D (channels x slots), got shape "
                f"{m.shape}")
        if not np.isfinite(m).all():
            bad = np.unravel_index(int(np.argmin(np.isfinite(m))), m.shape)
            raise NonPositiveEntryError(
                f"block_prob[{bad[0]}, {bad[1]}] = {m[bad]} is not a finite "
                "probability")
        if np.any(m < -1e-12) or np.any(m > 1.0 + 1e-12):
            raise NonPositiveEntryError(
                "block probabilities must lie in [0, 1]")
        if m.shape[0] > 0 and np.any(m.sum(axis=0) > 1.0 + 1e-9):
            t = int(np.argmax(m.sum(axis=0)))
            raise NotNormalizedError(
                f"slot {t + 1}: per-slot blocking mass exceeds 1 "
                "(the adversary blocks at most one channel per slot)")
    except ValueError as exc:
        return type(exc), str(exc)
    return np.clip(m, 0.0, 1.0)


def _built(raw):
    try:
        return BlockingPlan(raw).block_prob
    except ValueError as exc:
        return type(exc), str(exc)


def _same_outcome(got, want):
    if isinstance(want, tuple):
        return got == want
    return (isinstance(got, np.ndarray) and got.shape == want.shape
            and got.tobytes() == want.tobytes())


_CELLS = np.full((2, 4), 0.25)


def _with(i, j, value):
    m = _CELLS.copy()
    m[i, j] = value
    return m


@pytest.mark.parametrize("raw, error, message", [
    (_with(1, 2, math.nan), NonPositiveEntryError,
     "block_prob[1, 2] = nan is not a finite probability"),
    (_with(0, 3, math.inf), NonPositiveEntryError,
     "block_prob[0, 3] = inf is not a finite probability"),
    (_with(1, 0, -math.inf), NonPositiveEntryError,
     "block_prob[1, 0] = -inf is not a finite probability"),
    ([[5.0, math.nan]], NonPositiveEntryError,
     "block_prob[0, 1] = nan is not a finite probability"),
    ([[0.5, -2e-12, 0.0]], NonPositiveEntryError,
     "block probabilities must lie in [0, 1]"),
    ([[0.0, 1 + 2e-12, 0.0]], NonPositiveEntryError,
     "block probabilities must lie in [0, 1]"),
    ([[1 + 2e-12, 1.0], [0.5, 0.5]], NonPositiveEntryError,
     "block probabilities must lie in [0, 1]"),
    ([[0.5, 0.5, 0.5], [0.2, 0.5 + 2e-9, 0.1]], NotNormalizedError,
     "slot 2: per-slot blocking mass exceeds 1 (the adversary blocks at "
     "most one channel per slot)"),
    ([0.5, 0.5], DimensionMismatchError,
     "block_prob must be 2-D (channels x slots), got shape (2,)"),
], ids=["nan", "inf", "-inf", "nan-before-range", "below-zero",
        "above-one", "range-before-mass", "column-mass", "1-d"])
def test_plan_errors_keep_their_class_and_message(raw, error, message):
    with pytest.raises(error) as info:
        BlockingPlan(raw)
    assert type(info.value) is error
    assert str(info.value) == message
    assert _reference_plan(raw) == (error, message)
    # the constructors' route, which adopts the matrix, raises the same
    with pytest.raises(error) as adopted:
        BlockingPlan._adopt(np.array(raw, dtype=float))
    assert type(adopted.value) is error
    assert str(adopted.value) == message


@pytest.mark.parametrize("raw", [
    [[-1e-13, 1 + 1e-13, 0.5]],
    [[0.5, 1.0, 0.0]],
    np.zeros((0, 5)),
    np.zeros((3, 0)),
    [[-0.0, 1.0], [-0.0, -0.0]],
    [[-0.0, 1 + 1e-13], [-0.0, -0.0]],
    [[0.0, 1.0, 0.5 + 1e-10], [0.5, 0.0, 0.5]],
], ids=["clipped", "one-channel", "no-channels", "no-slots",
        "negative-zero", "negative-zero-clipped", "mass-within-1e-9"])
def test_accepted_plans_store_the_reference_bits(raw):
    stored = BlockingPlan(raw).block_prob
    want = _reference_plan(raw)
    assert stored.shape == want.shape
    assert stored.tobytes() == want.tobytes()  # -0.0 keeps its sign bit
    assert not stored.flags.writeable


def _random_plan_matrix(rng):
    """A small matrix that is valid, clipped or broken in one of the ways
    BlockingPlan checks, at random."""
    m = rng.dirichlet(np.ones(rng.integers(1, 5)),
                      size=rng.integers(1, 7)).T
    m *= rng.uniform(0.0, 1.0, size=m.shape[1])
    kind = rng.integers(6)
    if kind == 1:
        m = (m > 0.3).astype(float) * (np.arange(m.shape[0])[:, None] == 0)
    at = (rng.integers(m.shape[0]), rng.integers(m.shape[1]))
    if kind == 2:
        m[at] = rng.choice([math.nan, math.inf, -math.inf])
    elif kind == 3:
        m[at] = rng.choice([-2e-12, 1 + 2e-12, -1e-13, 1 + 1e-13, -0.0])
    elif kind == 4:
        m[:, at[1]] *= (1 + rng.choice([2e-9, 5e-10])) / max(
            m[:, at[1]].sum(), 1e-300)
    elif kind == 5:
        m[at] = rng.uniform(-0.5, 1.5)
    return m


@pytest.mark.parametrize("seed", range(4))
def test_plan_validation_replays_the_reference(seed):
    rng = np.random.default_rng(4100 + seed)
    for _ in range(500):
        m = _random_plan_matrix(rng)
        got, want = _built(m), _reference_plan(m)
        assert _same_outcome(got, want), (m, got, want)


def test_plan_keeps_its_own_copy_of_the_callers_array():
    m = np.zeros((2, 5))
    m[1, 2] = 0.5
    plan = BlockingPlan(m)
    m[0, :] = 1.0
    m[1, 2] = 0.0
    assert plan.block_prob.tolist() == [[0.0] * 5,
                                        [0.0, 0.0, 0.5, 0.0, 0.0]]
    assert m.flags.writeable  # the caller's array stays writable


def _constructor_plans():
    """(name, plan, the matrix it holds) for every plan constructor that
    hands BlockingPlan the matrix it built."""
    flat = SystemConfig(horizon_T=40, num_users=3, alpha=0.3)
    div = SystemConfig(horizon_T=40, num_users=3, alpha=0.3,
                       num_subcarriers=3)
    windows = [(2, 9, np.array([0.5, 0.25, 0.0])),
               (20, 23, np.full(3, 1.0 / 3.0))]
    plans = [("middle-block", make_middle_block(flat, 1)),
             ("middle-block-diversity", make_middle_block(div, 2)),
             ("uniform-subcarrier", make_uniform_subcarrier_block(div)),
             ("empty", empty_plan(flat)),
             ("empty-diversity", empty_plan(div)),
             ("window-plan", _window_plan(windows, div))]
    return [(name, plan, np.array(plan.block_prob)) for name, plan in plans]


@pytest.mark.parametrize("name, plan, held", _constructor_plans(),
                         ids=lambda x: x if isinstance(x, str) else "")
def test_constructor_plans_are_read_only_copies_of_their_matrix(
        name, plan, held):
    assert not plan.block_prob.flags.writeable
    with pytest.raises(ValueError):
        plan.block_prob[0, 0] = 1.0
    rebuilt = BlockingPlan(np.array(held))
    assert rebuilt.block_prob.dtype == plan.block_prob.dtype
    assert rebuilt.block_prob.shape == plan.block_prob.shape
    assert rebuilt.block_prob.tobytes() == plan.block_prob.tobytes()
    assert rebuilt == plan


@pytest.mark.parametrize("seed", range(2))
def test_adopted_matrices_pass_the_same_checks(seed):
    # the constructors' route raises what BlockingPlan raises, with the
    # same text, and stores the same bits
    rng = np.random.default_rng(4300 + seed)
    for _ in range(300):
        m = _random_plan_matrix(rng)
        try:
            got = BlockingPlan._adopt(np.array(m, dtype=float)).block_prob
        except ValueError as exc:
            got = type(exc), str(exc)
        assert _same_outcome(got, _built(m)), m


@pytest.mark.parametrize("seed", range(3))
def test_is_deterministic_is_every_entry_zero_or_one(seed):
    rng = np.random.default_rng(4200 + seed)
    for _ in range(300):
        channels, slots = rng.integers(1, 5), rng.integers(0, 9)
        m = np.zeros((channels, slots))
        rows = rng.integers(channels, size=slots)
        m[rows, np.arange(slots)] = rng.integers(0, 2, size=slots)
        kind = rng.integers(3)
        if kind == 1 and slots:  # a fractional entry
            m[rows[0], 0] = rng.choice([0.5, 1e-300, 1.0 - 2**-53])
        elif kind == 2 and slots:  # entries clipped to exactly 0 or 1
            m[rows[-1], -1] = rng.choice([-1e-13, 1 + 1e-13, -0.0])
        plan = BlockingPlan(m)
        assert plan.is_deterministic is bool(
            np.isin(plan.block_prob, (0.0, 1.0)).all())


def test_feasibility_rejects_over_budget():
    cfg = SystemConfig(horizon_T=10, num_users=2, alpha=0.4)  # B = 4
    m = np.zeros((2, 10))
    m[0, :5] = 1.0  # 5 blocked slots
    assert not blocking_feasible(BlockingPlan(m), cfg)
    m[0, 4] = 0.0
    assert blocking_feasible(BlockingPlan(m), cfg)


def test_feasibility_checks_dimensions():
    cfg = SystemConfig(horizon_T=10, num_users=2, alpha=0.4)
    wrong = BlockingPlan(np.zeros((3, 10)))
    with pytest.raises(DimensionMismatchError):
        blocking_feasible(wrong, cfg)
    short = BlockingPlan(np.zeros((2, 9)))
    with pytest.raises(DimensionMismatchError):
        blocking_feasible(short, cfg)


def test_empty_plan_is_feasible():
    cfg = SystemConfig(horizon_T=6, num_users=3, alpha=0.3)
    assert blocking_feasible(empty_plan(cfg), cfg)


def test_randomized_budget_counts_expected_mass():
    cfg = SystemConfig(horizon_T=10, num_users=2, alpha=0.2)  # B = 2
    m = np.zeros((2, 10))
    m[0, :] = 0.25  # expected blocked mass 2.5 > 2
    assert not blocking_feasible(BlockingPlan(m), cfg)
    m[0, :8] = 0.25
    m[0, 8:] = 0.0
    assert blocking_feasible(BlockingPlan(m), cfg)


# ===========================================================================
#  Strategy profiles
# ===========================================================================

_FLAT = SystemConfig(horizon_T=10, num_users=2, alpha=0.4)  # B = 4
_DIV = SystemConfig(horizon_T=10, num_users=2, alpha=0.4, num_subcarriers=3)


def _over_budget(config):
    m = np.zeros((config.num_channels, config.horizon_T))
    m[0, :5] = 1.0
    return BlockingPlan(m)


@pytest.mark.parametrize("profile, config, error, message", [
    ((uniform_policy(3), None, empty_plan(_FLAT)), _FLAT,
     DimensionMismatchError, "policy has 3 users"),
    ((uniform_policy(5), uniform_subcarrier_policy(3), empty_plan(_DIV)), _DIV,
     DimensionMismatchError, "policy has 5 users"),
    ((uniform_policy(2), None, empty_plan(_DIV)), _DIV,
     DimensionMismatchError, "no sub-carrier policy"),
    ((uniform_policy(2), uniform_subcarrier_policy(2), empty_plan(_FLAT)),
     _FLAT, NoDiversityError, "diversity model"),
    ((uniform_policy(2), uniform_subcarrier_policy(2), empty_plan(_DIV)), _DIV,
     DimensionMismatchError, "sub-carrier policy has 2"),
    ((uniform_policy(2), uniform_subcarrier_policy(3), empty_plan(_FLAT)),
     _DIV, DimensionMismatchError, "plan is 2x10"),
    ((uniform_policy(2), None, _over_budget(_FLAT)), _FLAT,
     ValueError, "budget"),
    ((uniform_policy(2), uniform_subcarrier_policy(3), _over_budget(_DIV)),
     _DIV, ValueError, "budget"),
], ids=["user-count", "user-count-diversity", "missing-subpolicy",
        "subpolicy-without-diversity", "subcarrier-count", "plan-shape",
        "over-budget", "over-budget-diversity"])
def test_check_profile_names_the_mismatch(profile, config, error, message):
    with pytest.raises(error, match=message):
        check_profile(*profile, config)


def test_check_profile_accepts_both_models():
    assert check_profile(uniform_policy(2), None, make_middle_block(_FLAT, 1),
                         _FLAT) is None
    assert check_profile(uniform_policy(2), uniform_subcarrier_policy(3),
                         make_uniform_subcarrier_block(_DIV), _DIV) is None

