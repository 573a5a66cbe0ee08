"""Monte Carlo simulation: determinism, seeding, and agreement with the
exact recursion."""

import math

import numpy as np
import pytest

from aoijam import montecarlo
from aoijam.age_exact import (
    expected_age_trajectory,
    expected_age_trajectory_diversity,
)
from aoijam.errors import DimensionMismatchError, InsufficientRunsError
from aoijam.model import (
    BlockingPlan,
    SystemConfig,
    empty_plan,
    make_middle_block,
    make_uniform_subcarrier_block,
    middle_window,
    uniform_policy,
    uniform_subcarrier_policy,
    validate_policy,
    validate_subcarrier_policy,
)
from aoijam.montecarlo import (
    BLOCK_CELLS,
    SimResult,
    estimate_average_age,
    mix_seed,
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


def test_mix_seed_on_uint64_arrays_matches_the_int_path():
    # array arithmetic wraps mod 2**64 where the int path masks, so both
    # give the same hash, also past 2**63 and for seeds beyond 2**64
    positions = [0, 1, 2**63 - 1, 2**63, 2**64 - 1]
    for master in (0, 12345, 2**64 - 1, 2**64 + 5):
        got = mix_seed(master, np.array(positions, dtype=np.uint64))
        assert got.dtype == np.uint64
        assert got.tolist() == [mix_seed(master, c) for c in positions]


def _words(master, stream, first_run, runs, first_slot, slots, horizon):
    """montecarlo._draw_words into a fresh (slots, runs) array."""
    slot_words = np.arange(slots, dtype=np.uint64) * np.uint64(
        montecarlo._SPLITMIX_GAMMA)
    out = np.empty((slots, runs), dtype=np.uint64)
    montecarlo._draw_words(master, stream, first_run, first_slot, horizon,
                           slot_words, out, np.empty_like(out))
    return out


@pytest.mark.parametrize("master", [7, 2**63 + 12345], ids=["small-seed",
                                                           "seed-above-2**63"])
@pytest.mark.parametrize("stream", [0, 1, 2])
def test_uniforms_are_slot_major(stream, master):
    # one column per run: row r, column k - start holds run k's word at
    # slot first + r + 1 (the one whose top 53 bits make u(k, s, t)),
    # recomputed here one Python int at a time; a slot chunk may start
    # inside the run
    start, stop, horizon = 5, 9, 7
    for first in (0, 3):
        got = _words(master, stream, start, stop - start, first,
                     horizon - first, horizon)
        for k in range(start, stop):
            for t in range(first + 1, horizon + 1):
                counter = (3 * k + stream) * horizon + t - 1
                assert int(got[t - 1 - first, k - start]) == mix_seed(
                    master, counter)


# chi-square 0.999 quantile at 63 degrees of freedom
_CHI2_63_Q999 = 103.44


def test_schedule_stream_is_uniform_and_apart_from_adversary_stream():
    # fixed counters: runs 0..2**11 - 1 at T = 2**9, master seed 0
    runs, horizon = 2**11, 2**9

    def uniforms(stream):
        words = _words(0, stream, 0, runs, 0, horizon, horizon).ravel()
        return (words >> np.uint64(11)) * 2.0**-53

    sched, adv = uniforms(0), uniforms(2)
    n = sched.size
    assert n == 2**20
    assert sched.min() >= 0.0 and sched.max() < 1.0
    counts = np.bincount((sched * 64).astype(np.intp), minlength=64)
    chi2 = float(((counts - n / 64) ** 2).sum() / (n / 64))
    assert chi2 < _CHI2_63_Q999
    assert abs(np.corrcoef(sched, adv)[0, 1]) < 5 / math.sqrt(n)


def _word_of(u):
    """The smallest word whose uniform (w >> 11)·2**-53 is u."""
    return int(u * 2.0**53) << 11


# K·2**-53 lies on the uniforms' grid; its nextafter neighbours lie just off
_K = 3 * 2**40 + 1


@pytest.mark.parametrize("c", [
    0.0, 2.0**-53, _K * 2.0**-53, np.nextafter(_K * 2.0**-53, 0.0),
    np.nextafter(_K * 2.0**-53, 1.0), 0.5, np.nextafter(1.0, 0.0), 1.0,
    np.cumsum([1 / 9] * 9)[-1],  # a cumsum that rounds to 1 + 2**-52
    5e-324,
], ids=lambda c: repr(float(c)))
def test_word_thresholds_decide_u_ge_c_exactly(c):
    # u = (w >> 11)·2**-53 >= c, decided on the word alone: w > above, or
    # always where c counts in `always` (one channel, one slot)
    always, above = montecarlo._word_thresholds(np.array([[c]]))
    always, above = always[0], above[0, 0]
    m = math.ceil(c * 2**53)
    words = {0, 2**64 - 1}
    for mm in (m - 1, m, m + 1):
        if 0 < mm <= 2**53:
            words |= {mm * 2**11 - 1, mm * 2**11}
    for w in sorted(words):
        want = (w >> 11) * 2.0**-53 >= c
        assert (bool(always) or w > int(above)) == want, w


# ===========================================================================
#  Per-run reference: one run's ages, slot by slot
# ===========================================================================


def _reference_ages(policy, subpolicy, plan, config, master_seed, k):
    """Run k's (N, T) integer ages age(t) = t - last(t-1), drawn from the
    stream the README documents: the uniform of stream s at slot t is the
    top 53 bits of mix_seed(master_seed, (3k + s)T + t - 1), hashed here
    through mix_seed's uint64 array path (locked to its int path by
    test_mix_seed_on_uint64_arrays_matches_the_int_path), times 2**-53.
    Stream 0 schedules, stream 1 picks the sub-carrier and stream 2, used
    only when some plan entry lies strictly inside (0, 1), the blocked
    channel.  A category is the number of cumulative sums at or below its
    uniform; a column's sums are the same floats whether it is summed alone
    or along axis 0 with the others.  One past the last (mass that rounds
    away) means no user is scheduled, or no sub-carrier the plan can block
    is used, or nothing is blocked.  Deliveries are then played slot by
    slot."""
    n, horizon = policy.n, config.horizon_T

    def uniforms(stream):
        first = (3 * k + stream) * horizon
        counters = np.arange(first, first + horizon, dtype=np.uint64)
        return (mix_seed(master_seed, counters) >> np.uint64(11)) * 2.0**-53

    user = np.searchsorted(np.cumsum(policy.probs), uniforms(0), side="right")
    channel = user if subpolicy is None else np.searchsorted(
        np.cumsum(subpolicy.probs), uniforms(1), side="right")
    m = plan.block_prob
    if np.any((m > 0.0) & (m < 1.0)):
        hit = (np.cumsum(m, axis=0) <= uniforms(2)).sum(axis=0).tolist()
    else:
        hit = [col.index(1.0) if 1.0 in col else len(col)
               for col in m.T.tolist()]
    hit = [h if h < m.shape[0] else -1 for h in hit]  # -1: no channel blocked

    before = []  # last(t - 1) of every user, for t = 1..T
    last = [0] * n
    for t, (u, c, h) in enumerate(zip(user.tolist(), channel.tolist(),
                                      hit), start=1):
        before.append(last.copy())
        if u < n and c != h:
            last[u] = t
    return np.arange(1, horizon + 1) - np.array(before, dtype=np.int64).T


def test_ages_are_positive_ints_bounded_by_slot():
    cfg = SystemConfig(horizon_T=80, num_users=2, alpha=0.3)
    pol = validate_policy([0.7, 0.3])
    plan = make_middle_block(cfg, 1)
    ages = _reference_ages(pol, None, plan, cfg, 11, 0)
    assert np.issubdtype(ages.dtype, np.integer)
    assert np.all(ages >= 1)
    assert np.all(ages <= np.arange(1, 81))


def test_blocked_window_forces_age_increments():
    cfg = SystemConfig(horizon_T=20, num_users=2, alpha=0.3)  # B=6, slots 8..13
    pol = validate_policy([0.5, 0.5])
    start, stop = middle_window(20, cfg.budget_B)
    for k in range(5):
        ages = _reference_ages(pol, None, make_middle_block(cfg, 0), cfg, 0, k)
        window = ages[0, start:stop]
        assert np.all(np.diff(window) == 1)


# ===========================================================================
#  estimate_average_age: validation, streams, degenerate profiles
# ===========================================================================


def test_always_scheduled_always_fresh():
    cfg = SystemConfig(horizon_T=50, num_users=1, alpha=0.01)
    est = estimate_average_age(validate_policy([1.0]), None, empty_plan(cfg),
                               cfg, 3, 3)
    assert est.mean_system_age == 1.0 and est.std_error == 0.0
    np.testing.assert_array_equal(est.per_user_mean, [1.0])


def test_same_seed_same_run():
    cfg = SystemConfig(horizon_T=200, num_users=3, alpha=0.2)
    pol = validate_policy([0.5, 0.3, 0.2])
    plan = make_middle_block(cfg, 2)
    a = estimate_average_age(pol, None, plan, cfg, 2, 42)
    b = estimate_average_age(pol, None, plan, cfg, 2, 42)
    assert a.per_user_mean.tobytes() == b.per_user_mean.tobytes()
    c = estimate_average_age(pol, None, plan, cfg, 2, 43)
    assert not np.array_equal(a.per_user_mean, c.per_user_mean)


def test_seeds_equal_mod_2_64_give_identical_estimates():
    cfg = SystemConfig(horizon_T=60, num_users=3, alpha=0.3,
                       num_subcarriers=3)
    profile = (validate_policy([0.5, 0.3, 0.2]),
               validate_subcarrier_policy([0.5, 0.25, 0.25]),
               make_uniform_subcarrier_block(cfg), cfg, 40)
    for seed in (0, 5, 2**64 - 1):
        a = estimate_average_age(*profile, seed)
        b = estimate_average_age(*profile, seed + 2**64)
        assert repr(a.mean_system_age) == repr(b.mean_system_age)
        assert repr(a.std_error) == repr(b.std_error)
        assert a.per_user_mean.tobytes() == b.per_user_mean.tobytes()


def test_result_seed_is_the_seed_as_given():
    # the draws read the seed mod 2**64; the result reports it unreduced
    cfg = SystemConfig(horizon_T=40, num_users=2, alpha=0.3)
    profile = (validate_policy([0.6, 0.4]), None, make_middle_block(cfg, 1),
               cfg, 3)
    a = estimate_average_age(*profile, 1)
    b = estimate_average_age(*profile, 2**64 + 1)
    assert a.mean_system_age.hex() == b.mean_system_age.hex()
    assert a.seed == 1
    assert b.seed == 18446744073709551617


def test_run_validates_dimensions_and_budget():
    cfg = SystemConfig(horizon_T=10, num_users=2, alpha=0.2)
    pol = validate_policy([0.5, 0.5])
    with pytest.raises(DimensionMismatchError):
        estimate_average_age(pol, None,
                             make_middle_block(
                                 SystemConfig(horizon_T=10, num_users=3,
                                              alpha=0.2), 0),
                             cfg, 2, 0)
    over = np.zeros((2, 10))
    over[0, :5] = 1.0
    with pytest.raises(ValueError):
        estimate_average_age(pol, None, BlockingPlan(over), cfg, 2, 0)


def test_randomized_plan_uses_adversary_stream():
    cfg = SystemConfig(horizon_T=100, num_users=1, alpha=0.5, num_subcarriers=2)
    pol = validate_policy([1.0])
    q = uniform_subcarrier_policy(2)
    plan = make_uniform_subcarrier_block(cfg)
    a = estimate_average_age(pol, q, plan, cfg, 2, 5)
    b = estimate_average_age(pol, q, plan, cfg, 2, 5)
    assert a.per_user_mean.tobytes() == b.per_user_mean.tobytes()
    # a blocked draw must actually bite sometimes: the user is always
    # scheduled, so any age above 1 comes from the adversary
    assert a.mean_system_age > 1.0


def _spy_draws(monkeypatch):
    """Record (stream, first run, first slot, slots) of every stream draw
    in the returned list."""
    real, draws = montecarlo._draw_words, []

    def spy(master_seed, stream, first_run, first_slot, horizon, slot_words,
            out, scratch):
        draws.append((stream, first_run, first_slot, len(out)))
        return real(master_seed, stream, first_run, first_slot, horizon,
                    slot_words, out, scratch)

    monkeypatch.setattr(montecarlo, "_draw_words", spy)
    return draws


def test_zero_one_plan_draws_no_adversary_stream(monkeypatch):
    # the entries decide: a 0/1 plan blocks without drawing, one fractional
    # entry brings in the adversary's stream; streams 1 and 2 are drawn
    # only on the window, the hull of the plan's nonzero columns
    cfg = SystemConfig(horizon_T=12, num_users=2, alpha=0.35,
                       num_subcarriers=2)  # B = 4
    pol, q = validate_policy([0.4, 0.6]), uniform_subcarrier_policy(2)
    draws = _spy_draws(monkeypatch)

    def drawn(*profile):
        """(stream, first slot, end slot) of each draw of a 2-run call."""
        draws.clear()
        estimate_average_age(*profile, 2, 5)
        return [(s, first, first + slots) for s, _, first, slots in draws]

    m = np.zeros((2, 12))
    m[0, 4:7] = 1.0
    assert drawn(pol, q, BlockingPlan(m), cfg) == [(0, 0, 12), (1, 4, 7)]
    m[1, 8] = 0.5  # the hull now takes in the clear slot 8
    assert drawn(pol, q, BlockingPlan(m), cfg) == [
        (0, 0, 12), (1, 4, 9), (2, 4, 9)]
    start, stop = middle_window(12, cfg.budget_B)
    assert stop - start == cfg.budget_B
    assert drawn(pol, q, make_uniform_subcarrier_block(cfg), cfg) == [
        (0, 0, 12), (1, start, stop), (2, start, stop)]
    assert drawn(pol, q, empty_plan(cfg), cfg) == [(0, 0, 12)]
    # without diversity the scheduled user's channel is its own
    cfg = SystemConfig(horizon_T=12, num_users=2, alpha=0.35)
    assert drawn(pol, None, make_middle_block(cfg, 0), cfg) == [(0, 0, 12)]


def test_window_streams_follow_the_slot_chunks(monkeypatch):
    # chunks of 8 slots at T = 20: the middle window [7, 13) is drawn as
    # its part in each chunk, and the last chunk, past it, draws stream 0
    monkeypatch.setattr(montecarlo, "BLOCK_CELLS", 8)
    cfg = SystemConfig(horizon_T=20, num_users=2, alpha=0.3,
                       num_subcarriers=2)  # B = 6
    assert middle_window(20, cfg.budget_B) == (7, 13)
    draws = _spy_draws(monkeypatch)
    estimate_average_age(validate_policy([0.4, 0.6]),
                         uniform_subcarrier_policy(2),
                         make_uniform_subcarrier_block(cfg), cfg, 2, 5)
    per_run = [(0, 0, 8), (1, 7, 1), (2, 7, 1), (0, 8, 8), (1, 8, 5),
               (2, 8, 5), (0, 16, 4)]
    assert draws == [(s, k, first, rows) for k in (0, 1)
                     for s, first, rows in per_run]


@pytest.mark.parametrize("randomized", [False, True], ids=["zero-one",
                                                           "randomized"])
def test_rounded_away_subcarrier_mass_still_delivers(monkeypatch, randomized):
    # six sub-carriers of 1/6 sum to the largest float below 1, so a uniform
    # there picks no sub-carrier; a plan blocking nothing in that slot must
    # not block it either way
    cfg = SystemConfig(horizon_T=8, num_users=1, alpha=0.25,
                       num_subcarriers=6)  # B = 2
    q = uniform_subcarrier_policy(6)
    assert np.cumsum(q.probs)[-1] == np.nextafter(1.0, 0.0)
    m = np.zeros((6, 8))
    if randomized:
        m[0, 2:6] = 0.5
    word = np.uint64(_word_of(np.nextafter(1.0, 0.0)))
    monkeypatch.setattr(
        montecarlo, "_draw_words",
        lambda master_seed, stream, first_run, first_slot, horizon,
        slot_words, out, scratch: out.fill(word))
    est = estimate_average_age(validate_policy([1.0]), q, BlockingPlan(m),
                               cfg, 2, 0)
    assert est.mean_system_age == 1.0


_DIV_CFG = SystemConfig(horizon_T=10, num_users=2, alpha=0.2,
                        num_subcarriers=2)


_SAMPLERS = [
    pytest.param(lambda *profile: estimate_average_age(*profile, _DIV_CFG, 2,
                                                       0),
                 id="estimate_average_age"),
]


@pytest.mark.parametrize("simulate", _SAMPLERS)
def test_sampler_rejects_wrong_user_count(simulate):
    with pytest.raises(DimensionMismatchError, match="policy has 5 users"):
        simulate(uniform_policy(5), uniform_subcarrier_policy(2),
                 make_uniform_subcarrier_block(_DIV_CFG))


@pytest.mark.parametrize("simulate", _SAMPLERS)
def test_no_diversity_sampler_rejects_diversity_config(simulate):
    # N == N_sub, so the plan's shape alone cannot tell the models apart
    with pytest.raises(DimensionMismatchError, match="sub-carrier policy"):
        simulate(uniform_policy(2), None, empty_plan(_DIV_CFG))


# ===========================================================================
#  estimate_average_age
# ===========================================================================


def test_estimate_requires_two_runs():
    cfg = SystemConfig(horizon_T=10, num_users=2, alpha=0.2)
    pol = validate_policy([0.5, 0.5])
    with pytest.raises(InsufficientRunsError):
        estimate_average_age(pol, None, empty_plan(cfg), cfg, 1, 0)


@pytest.mark.parametrize("runs", [2.5, 3.0, True, "4"])
def test_estimate_runs_must_be_an_integer(runs):
    cfg = SystemConfig(horizon_T=10, num_users=2, alpha=0.2)
    with pytest.raises(InsufficientRunsError,
                       match="runs must be an integer >= 2, got"):
        estimate_average_age(validate_policy([0.5, 0.5]), None,
                             empty_plan(cfg), cfg, runs, 0)


@pytest.mark.parametrize("seed", [np.int64(7), np.uint64(7), np.int8(7)])
def test_numpy_integer_seed_is_the_int_seed(seed):
    cfg = SystemConfig(horizon_T=60, num_users=3, alpha=0.3,
                       num_subcarriers=3)
    profile = (validate_policy([0.5, 0.3, 0.2]),
               uniform_subcarrier_policy(3),
               make_uniform_subcarrier_block(cfg), cfg, 5)
    a = estimate_average_age(*profile, 7)
    b = estimate_average_age(*profile, seed)
    assert repr(a.mean_system_age) == repr(b.mean_system_age)
    assert repr(a.std_error) == repr(b.std_error)
    assert a.per_user_mean.tobytes() == b.per_user_mean.tobytes()
    assert type(b.seed) is int and b.seed == 7


def test_numpy_seed_past_int64_matches_the_int_seed():
    cfg = SystemConfig(horizon_T=30, num_users=2, alpha=0.3)
    profile = (validate_policy([0.6, 0.4]), None, make_middle_block(cfg, 1),
               cfg, 3)
    a = estimate_average_age(*profile, 2**64 - 1)
    b = estimate_average_age(*profile, np.uint64(2**64 - 1))
    assert a.per_user_mean.tobytes() == b.per_user_mean.tobytes()
    assert b.seed == 2**64 - 1


@pytest.mark.parametrize("seed", [True, False, 7.0, np.float64(7.0), "7"])
def test_estimate_seed_must_be_an_integer(seed):
    cfg = SystemConfig(horizon_T=10, num_users=2, alpha=0.2)
    with pytest.raises(InsufficientRunsError,
                       match="master_seed must be an integer, got"):
        estimate_average_age(validate_policy([0.5, 0.5]), None,
                             empty_plan(cfg), cfg, 2, seed)


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
    plan = empty_plan(cfg)
    runs = 20_000
    ages = np.array([_reference_ages(pol, None, plan, cfg, 4242, k)
                     for k in range(runs)])
    mean = ages.mean(axis=0)
    se = ages.std(axis=0) / math.sqrt(runs)
    exact = expected_age_trajectory(pol, plan, cfg).per_user
    assert np.all(np.abs(mean - exact) <= 3 * se.max(axis=1, keepdims=True))


def _short_plan(kind, config):
    """A T=16 plan of budget 4: a middle block on channel 0, channel 0
    at 0.5 over 8 slots, or both channels at 0.5 over 4 slots."""
    if kind == "middle-block":
        return make_middle_block(config, 0)
    m = np.zeros((config.num_channels, config.horizon_T))
    if kind == "half-row":
        m[0, 4:12] = 0.5
    else:
        m[:, 6:10] = 0.5
    return BlockingPlan(m)


@pytest.mark.parametrize("kind", ["middle-block", "half-row",
                                  "split-columns"])
@pytest.mark.parametrize("nsub", [1, 2], ids=["no-diversity", "diversity"])
def test_simulated_ages_match_recursion_slot_by_slot(nsub, kind):
    # a time-varying plan at a short horizon: the sampled age at every
    # slot must follow the recursion's slot convention, within 3 SE
    cfg = SystemConfig(horizon_T=16, num_users=2, alpha=0.25,
                       num_subcarriers=nsub)
    pol = validate_policy([0.3, 0.7])
    q = validate_subcarrier_policy([0.4, 0.6]) if nsub > 1 else None
    plan = _short_plan(kind, cfg)
    runs = 1500
    ages = np.array([_reference_ages(pol, q, plan, cfg, 2718, k)
                     for k in range(runs)])
    mean = ages.mean(axis=0)
    se = ages.std(axis=0) / math.sqrt(runs)
    if q is None:
        exact = expected_age_trajectory(pol, plan, cfg).per_user
    else:
        exact = expected_age_trajectory_diversity(pol, q, plan, cfg).per_user
    assert np.all(np.abs(mean - exact) <= 3 * se.max(axis=1, keepdims=True))


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
# the lock's block edges are taken against a patched BLOCK_CELLS: at the
# real constant they would cost hundreds of slot-by-slot reference runs
_LOCK_BLOCK = 2**14
_RUNS_AT_500 = _LOCK_BLOCK // 500  # runs in one block at T=500
_SMALL_BLOCK = 2**9
_RUNS_AT_40 = _SMALL_BLOCK // 40  # runs in one small block at T=40


def _per_run_reference(policy, subpolicy, plan, config, runs, master_seed):
    """The estimator as a plain loop: one reference run per run, its ages
    averaged over slots, then the same compensated aggregation."""
    per_run_user = np.empty((runs, policy.n))
    for k in range(runs):
        ages = _reference_ages(policy, subpolicy, plan, config, master_seed,
                               k)
        per_run_user[k] = ages.mean(axis=1)
    per_user_mean = np.array(
        [math.fsum(per_run_user[:, i]) / runs for i in range(policy.n)])
    system_per_run = per_run_user.mean(axis=1)
    mean_system = math.fsum(system_per_run) / runs
    centered = system_per_run - mean_system
    sample_var = math.fsum(centered * centered) / (runs - 1)
    return mean_system, per_user_mean, math.sqrt(sample_var / runs)


_WIDE_USERS, _WIDE_SUBCARRIERS = 130, 300  # codes past the int8 range


def _lock_scenario(plan_kind, horizon):
    """The lock's profiles.  wide-users (130 users) and wide-subcarriers
    (300 sub-carriers, a randomized plan over all of them) draw categories
    past the int8 codes; past 255 an int8 count would wrap onto the codes
    of other channels.  randomized (fractional entries, no diversity) and
    diversity-zero-one (a 0/1 sub-carrier block) take the paths on which
    blocking decides per draw, not per user.  scattered (a randomized
    diversity plan with mass at slot 1, one middle slot and the last two
    slots) has clear slots inside its window, and late-window (a 0/1 plan
    whose support lies wholly in the second small-block chunk) leaves the
    first chunk without a window."""
    pol = validate_policy(_LOCK_PROBS)
    if plan_kind == "scattered":
        cfg = SystemConfig(horizon, 3, 0.3, num_subcarriers=3)
        m = np.zeros((3, horizon))
        m[0, 0] = 0.5
        m[1:, horizon // 2] = 0.25, 0.5
        m[:, -2:] = 0.25
        return (pol, validate_subcarrier_policy([0.5, 0.25, 0.25]),
                BlockingPlan(m), cfg)
    if plan_kind == "late-window":
        cfg = SystemConfig(horizon, 3, 0.3)
        m = np.zeros((3, horizon))
        m[2, _SMALL_BLOCK + 5:_SMALL_BLOCK + 105] = 1.0
        return pol, None, BlockingPlan(m), cfg
    if plan_kind in ("randomized", "diversity-zero-one"):
        nsub = 3 if plan_kind == "diversity-zero-one" else 1
        cfg = SystemConfig(horizon, 3, 0.3, num_subcarriers=nsub)
        start, stop = middle_window(horizon, cfg.budget_B)
        m = np.zeros((3, horizon))
        if nsub > 1:
            m[1, start:stop] = 1.0
            return (pol, validate_subcarrier_policy([0.5, 0.25, 0.25]),
                    BlockingPlan(m), cfg)
        m[0, start:stop], m[2, start:stop] = 0.25, 0.5
        return pol, None, BlockingPlan(m), cfg
    if plan_kind == "wide-users":
        cfg = SystemConfig(horizon, _WIDE_USERS, 0.3)
        return (uniform_policy(_WIDE_USERS), None,
                make_middle_block(cfg, _WIDE_USERS - 1), cfg)
    if plan_kind == "wide-subcarriers":
        cfg = SystemConfig(horizon, 3, 0.3, num_subcarriers=_WIDE_SUBCARRIERS)
        return (pol, uniform_subcarrier_policy(_WIDE_SUBCARRIERS),
                make_uniform_subcarrier_block(cfg), cfg)
    if plan_kind == "diversity":
        cfg = SystemConfig(horizon, 3, 0.3, num_subcarriers=3)
        return (pol, validate_subcarrier_policy([0.5, 0.25, 0.25]),
                make_uniform_subcarrier_block(cfg), cfg)
    cfg = SystemConfig(horizon, 3, 0.3)
    plan = empty_plan(cfg) if plan_kind == "empty" else make_middle_block(cfg, 2)
    return pol, None, plan, cfg


_LOCK_SIZES = [
    (500, _RUNS_AT_500 - 1),
    (500, _RUNS_AT_500),
    (500, _RUNS_AT_500 + 1),
    (500, 3 * _RUNS_AT_500 + 5),
    (1, 40),
    (_LOCK_BLOCK + 1, 3),  # two slot chunks, the second one slot long
]
_SMALL_SIZES = [
    (40, _RUNS_AT_40 - 1),
    (40, _RUNS_AT_40),
    (40, _RUNS_AT_40 + 1),
    (40, 3 * _RUNS_AT_40 + 5),
    (_SMALL_BLOCK, 3),  # one chunk, exactly full
    (2 * _SMALL_BLOCK, 2),  # slot T ends a full chunk
    (2 * _SMALL_BLOCK + 276, 3),  # three chunks, the last one partial
]
_LOCK_CELLS = [(kind, horizon, runs, _LOCK_BLOCK)
               for kind in ("empty", "middle", "diversity")
               for horizon, runs in _LOCK_SIZES] + [
    ("wide-users", 40, 30, _LOCK_BLOCK),
    ("wide-subcarriers", 40, 30, _LOCK_BLOCK),
    # the last horizon with int16 slot stamps and the first past it; the
    # stamp of slot T never enters the age sum, so only T = 2**15 + 1 would
    # see a stamp wrap in int16
    ("middle", 2**15 - 1, 2, _LOCK_BLOCK),
    ("middle", 2**15, 2, _LOCK_BLOCK),
    ("middle", 2**15 + 1, 2, _LOCK_BLOCK),
] + [(kind, horizon, runs, _SMALL_BLOCK)
     for kind in ("empty", "middle", "diversity", "wide-users", "randomized",
                  "diversity-zero-one", "scattered")
     for horizon, runs in _SMALL_SIZES] + [
    # the plan's window starts in the second chunk and ends in it
    ("late-window", 2 * _SMALL_BLOCK, 2, _SMALL_BLOCK),
    ("late-window", 2 * _SMALL_BLOCK + 276, 3, _SMALL_BLOCK),
    # two chunks at the real block size
    ("middle", BLOCK_CELLS + 1, 3, BLOCK_CELLS),
    # one chunk of S = T slots adds at most S·T to a user's age sum: int32
    # while S·T < 2**31 (T = 46,340), int64 past it (T = 46,341)
    ("middle", 46_340, 2, BLOCK_CELLS),
    ("middle", 46_341, 2, BLOCK_CELLS),
    # the second chunk's sums pass 2**31, where int32 would wrap
    ("empty", 100_000, 2, BLOCK_CELLS),
]


def _lock_id(kind, horizon, runs, block):
    suffix = "" if block == _LOCK_BLOCK else f"-block{block}"
    return f"{horizon}-{runs}-{kind}{suffix}"


@pytest.mark.parametrize("plan_kind,horizon,runs,block", [
    pytest.param(*cell, id=_lock_id(*cell)) for cell in _LOCK_CELLS])
def test_estimate_matches_per_run_loop_bit_for_bit(monkeypatch, plan_kind,
                                                   horizon, runs, block):
    monkeypatch.setattr(montecarlo, "BLOCK_CELLS", block)
    pol, q, plan, cfg = _lock_scenario(plan_kind, horizon)
    est = estimate_average_age(pol, q, plan, cfg, runs, 31337)
    mean, per_user, se = _per_run_reference(pol, q, plan, cfg, runs, 31337)
    assert repr(est.mean_system_age) == repr(mean)
    assert repr(est.std_error) == repr(se)
    assert est.per_user_mean.tobytes() == per_user.tobytes()


@pytest.mark.parametrize("plan_kind,mean,se", [
    ("empty", "3.417838383838384", "0.029396726585201788"),
    ("middle", "11.580787878787879", "0.14140949757887422"),
    ("diversity", "3.9847474747474747", "0.045354150352402686"),
], ids=["empty", "middle", "diversity"])  # ids that survive a pin refresh
def test_estimate_pinned_to_seed_mapping(plan_kind, mean, se):
    """Values of the per-run loop under age(t) = t - last(t-1), the slot
    convention of the exact recursion, on the counter-based stream."""
    pol, q, plan, cfg = _lock_scenario(plan_kind, 500)
    est = estimate_average_age(pol, q, plan, cfg, 33, 2024)
    assert repr(est.mean_system_age) == mean
    assert repr(est.std_error) == se
