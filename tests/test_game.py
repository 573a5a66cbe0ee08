"""One game description: the game functions take a SystemConfig and price
the B = floor(alpha*T) slots its plans block, at the share B/T."""

import json
import re
import warnings

import numpy as np
import pytest

from aoijam.age_asymptotic import (
    AsymptoticValidityWarning,
    reduced_payoff_for_split,
)
from aoijam.age_exact import expected_age_trajectory
from aoijam.best_response import (
    adversary_best_response,
    adversary_oracle,
    counter_block_policy,
    ordered_kkt_solver,
)
from aoijam.cli import REGISTRY, main
from aoijam.equilibrium import (
    best_response_dynamics,
    diversity_nash_point,
    is_nash_no_diversity,
    stackelberg_equilibrium,
    verify_diversity_nash,
)
from aoijam.errors import DimensionMismatchError, NoDiversityError
from aoijam.model import (
    SystemConfig,
    empty_plan,
    make_middle_block,
    uniform_policy,
    validate_policy,
)

FLAT = SystemConfig(horizon_T=100, num_users=3, alpha=0.2)
DIVERSE = SystemConfig(horizon_T=100, num_users=3, alpha=0.2,
                       num_subcarriers=2)
# alpha*T is 99.99999999, which the budget reads as B = T = 100
FULL = dict(horizon_T=100, num_users=2, alpha=0.9999999999)


# ===========================================================================
#  One share: the plans' B/T prices every plan
# ===========================================================================


def test_structured_reply_prices_its_own_plan():
    # B = 2 of T = 10: alpha 0.25 would price 2.5 blocked slots
    cfg = SystemConfig(horizon_T=10, num_users=2, alpha=0.25)
    policy = validate_policy([0.3, 0.7])
    reply = adversary_best_response(policy, cfg)
    shares = reply.plan.block_prob.sum(axis=1) / cfg.horizon_T
    assert reply.payoff == reduced_payoff_for_split(policy, shares, 10)
    assert reply.payoff == is_nash_no_diversity(policy, reply.plan,
                                                cfg).payoff
    assert repr(reply.payoff) == "2.7642857142857142"


def test_dynamics_without_budget_stop_at_the_uniform_point():
    cfg = SystemConfig(horizon_T=10, num_users=2, alpha=0.05)  # B = 0
    report = best_response_dynamics(cfg, 4)
    uniform = uniform_policy(2)
    assert report.holds is True
    assert [s.blocked_user for s in report.trace] == [0, 0, 0, 0]
    assert all(s.policy == uniform for s in report.trace)
    expected = reduced_payoff_for_split(uniform, np.zeros(2), 10)
    assert report.payoff == expected == 2.0
    assert is_nash_no_diversity(uniform, empty_plan(cfg), cfg).payoff == (
        expected)


def test_asymptotic_blocked_age_meets_the_exact_mean(tmp_path):
    # B/T = 5000/50003 where alpha = 0.1 misprices the window by 1.2e-4
    doc = {"schema_version": 1, "model": "no-diversity",
           "system": {"horizon_T": 50_003, "num_users": 2, "alpha": 0.1},
           "policy": {"source": "explicit", "probs": [0.25, 0.75]},
           "plan": {"source": "middle-block", "target": 0}}
    path = tmp_path / "scenario_in.json"
    path.write_text(json.dumps(doc))
    assert main(["asymptotic", "--config", str(path),
                 "--out-dir", str(tmp_path), "--quiet"]) == 0
    rows = (tmp_path / "asymptotic.csv").read_text().splitlines()
    closed = float(rows[1].split(",")[1])
    cfg = SystemConfig(horizon_T=50_003, num_users=2, alpha=0.1)
    exact = expected_age_trajectory(validate_policy([0.25, 0.75]),
                                    make_middle_block(cfg, 0),
                                    cfg).per_user_avg[0]
    assert closed == pytest.approx(exact, rel=1e-5)


@pytest.mark.parametrize("T, alpha, share", [
    (10, 0.2, 0.2), (100, 0.29, 0.29), (1000, 0.37, 0.37),
    (10, 0.25, 0.2), (10, 0.05, 0.0), (100, 0.9999999999, 1.0)])
def test_share_is_the_budget_over_the_horizon(T, alpha, share):
    # alpha itself, bit for bit, where alpha is the float nearest B/T
    cfg = SystemConfig(horizon_T=T, num_users=2, alpha=alpha)
    assert cfg.blocked_share.hex() == share.hex()


# ===========================================================================
#  Model checks
# ===========================================================================


@pytest.mark.parametrize("call", [
    lambda cfg: ordered_kkt_solver(cfg),
    lambda cfg: best_response_dynamics(cfg, 3),
    lambda cfg: stackelberg_equilibrium(cfg),
    lambda cfg: counter_block_policy(cfg, 0),
], ids=["ordered_kkt_solver", "best_response_dynamics",
        "stackelberg_equilibrium", "counter_block_policy"])
def test_no_diversity_functions_reject_a_diversity_game(call):
    with pytest.raises(DimensionMismatchError,
                       match="no sub-carrier policy was given"):
        call(DIVERSE)


def test_diversity_point_rejects_a_no_diversity_game():
    with pytest.raises(NoDiversityError):
        diversity_nash_point(FLAT)


def test_counter_block_reply_reads_only_users_and_share():
    # ten times the horizon at the same share gives the same reply
    wider = SystemConfig(horizon_T=1000, num_users=3, alpha=0.2)
    assert wider.blocked_share == FLAT.blocked_share
    assert counter_block_policy(wider, 1) == counter_block_policy(FLAT, 1)


# ===========================================================================
#  B = T: the share is 1.0, outside the public formulas' [0, 1)
# ===========================================================================


def test_whole_horizon_budget_runs_every_game_function():
    flat = SystemConfig(**FULL)
    diverse = SystemConfig(**FULL, num_subcarriers=2)
    assert flat.budget_B == flat.horizon_T and flat.blocked_share == 1.0
    policy = uniform_policy(2)
    reply = adversary_best_response(policy, flat)
    assert reply.plan.total_blocked() == 100
    assert counter_block_policy(flat, 0).probs[0] > 0.5
    assert ordered_kkt_solver(flat) == policy
    assert best_response_dynamics(flat, 4).holds is False
    assert stackelberg_equilibrium(flat)[2] == reply.payoff
    assert is_nash_no_diversity(policy, reply.plan, flat).payoff == (
        reply.payoff)
    point = diversity_nash_point(diverse)
    assert verify_diversity_nash(point, diverse, 20, 20).holds is True
    small = SystemConfig(horizon_T=6, num_users=2, alpha=0.9999999999)
    structured = adversary_best_response(policy, small).plan
    assert adversary_oracle(policy, small).payoff >= expected_age_trajectory(
        policy, structured, small).system_avg


@pytest.mark.parametrize("model, plan, command, experiment", [
    ("no-diversity", "middle-block", "exact", {}),
    ("diversity", "uniform-subcarrier", "exact", {}),
    ("no-diversity", "middle-block", "asymptotic", {}),
    ("diversity", "uniform-subcarrier", "asymptotic", {}),
    ("no-diversity", "middle-block", "montecarlo", {"runs": 20}),
    ("diversity", "uniform-subcarrier", "montecarlo", {"runs": 20}),
    ("no-diversity", "middle-block", "best-response", {}),
    ("no-diversity", "none", "oracle", {}),
    ("no-diversity", "none", "br-dynamics", {}),
    ("no-diversity", "none", "stackelberg", {}),
    ("no-diversity", "middle-block", "nash-verify", {}),
    ("diversity", "uniform-subcarrier", "nash-verify",
     {"bs_samples": 20, "adv_samples": 20}),
])
def test_whole_horizon_budget_runs_every_cli_runner(tmp_path, model, plan,
                                                    command, experiment):
    system = dict(FULL, horizon_T=6 if command == "oracle" else 100)
    if model == "diversity":
        system["num_subcarriers"] = 2
    # the counter-block source replies to a middle block, which only the
    # no-diversity model has
    policy = ({"source": "counter-block", "target": 1}
              if model == "no-diversity" else {"source": "uniform"})
    doc = {"schema_version": 1, "model": model, "system": system,
           "policy": policy,
           "plan": {"source": plan},
           "experiment": {"name": command, **experiment}}
    path = tmp_path / "scenario_in.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():  # T*min(p) is below 100 at T = 100
        warnings.simplefilter("ignore", AsymptoticValidityWarning)
        assert main([REGISTRY[command].command, "--config", str(path),
                     "--out-dir", str(tmp_path), "--quiet"]) == 0


# ===========================================================================
#  One payoff unit: every experiment reports the system age
# ===========================================================================

UNIT = {"schema_version": 1, "model": "no-diversity",
        "system": {"horizon_T": 20_000, "num_users": 3, "alpha": 0.2},
        "policy": {"source": "explicit", "probs": [0.5, 0.3, 0.2]},
        "plan": {"source": "middle-block", "target": 2}}


def _run(tmp_path, capsys, command, doc):
    """Run `command` on `doc` in a directory of its own: (directory,
    stdout)."""
    out = tmp_path / command
    path = tmp_path / f"{command}.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main([command, "--config", str(path), "--out-dir", str(out)]) == 0
    return out, capsys.readouterr().out


def _cell(out, kind):
    """The payoff cell of the `kind` row of out/equilibrium.csv."""
    rows = (out / "equilibrium.csv").read_text().splitlines()
    return next(row.split(",")[2] for row in rows
                if row.startswith(kind + ","))


def _stated(stdout, label):
    """The number printed after `label`."""
    return re.search(re.escape(label) + r" ([0-9.]+)\n", stdout).group(1)


def test_game_payoffs_are_the_system_age_the_evaluators_report(tmp_path,
                                                               capsys):
    # the adversary's reply to p is the plan itself, so both game cells
    # price this profile
    reply = _cell(_run(tmp_path, capsys, "best-response", UNIT)[0],
                  "adversary-best-response")
    check = _cell(_run(tmp_path, capsys, "nash-verify", UNIT)[0],
                  "nash-check")
    assert reply == check
    assert float(reply) == reduced_payoff_for_split(
        validate_policy([0.5, 0.3, 0.2]), [0.0, 0.0, 0.2], 20_000)
    # the closed-form system age, as asymptotic prints it, and the exact
    # system average
    closed = _stated(_run(tmp_path, capsys, "asymptotic", UNIT)[1],
                     "asymptotic system age (user 2 blocked):")
    assert f"{float(reply):.6f}" == closed
    exact = _stated(_run(tmp_path, capsys, "exact", UNIT)[1],
                    "exact system average age:")
    assert float(reply) == pytest.approx(float(exact), rel=1e-3)


def test_stackelberg_payoff_is_its_plans_system_age(tmp_path, capsys):
    game = {key: UNIT[key] for key in ("schema_version", "model", "system")}
    out, _ = _run(tmp_path, capsys, "stackelberg", {
        **game, "experiment": {"name": "stackelberg", "target": 2}})
    leader = _cell(out, "stackelberg")
    exact = _stated(_run(tmp_path, capsys, "exact", {
        **game, "policy": {"source": "uniform"},
        "plan": {"source": "middle-block", "target": 2}})[1],
        "exact system average age:")
    assert float(leader) == pytest.approx(float(exact), rel=1e-3)
