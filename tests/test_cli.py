"""Scenario-file front end: parsing, exit codes, CSV artifacts."""

import csv
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from aoijam.age_asymptotic import (
    AsymptoticValidityWarning,
    blocked_user_age,
    reduced_payoff_for_split,
)
from aoijam.best_response import counter_block_policy, numeric_simplex_minimizer
from aoijam.cli import (
    MODELS,
    SOURCES,
    ScenarioConfig,
    main,
    parse_scenario,
    run_scenario,
    scenario_from_dict,
    scenario_to_dict,
    serialize_strategy,
)
from aoijam.equilibrium import best_response_dynamics
from aoijam.errors import ScenarioParseError, ScenarioValidationError
from aoijam.model import (
    BlockingPlan,
    SystemConfig,
    make_middle_block,
    uniform_policy,
)


def write_scenario(tmp_path, doc, name="scenario_in.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def base_doc(**overrides):
    doc = {
        "schema_version": 1,
        "model": "no-diversity",
        "system": {"horizon_T": 3, "num_users": 2, "alpha": 0.4},
        "policy": {"source": "explicit", "probs": [0.5, 0.5]},
        "plan": {"source": "none"},
    }
    doc.update(overrides)
    return doc


# ---------------------------------------------------------------- parsing


def test_round_trip_reproduces_equivalent_scenario():
    doc = base_doc(experiment={"name": "montecarlo", "runs": 50, "seed": 7})
    first = scenario_from_dict(doc)
    second = scenario_from_dict(scenario_to_dict(first))
    assert first == second
    assert isinstance(first, ScenarioConfig)


def test_round_trip_diversity_with_subcarrier_policy():
    doc = base_doc(
        model="diversity",
        system={"horizon_T": 8, "num_users": 2, "alpha": 0.25,
                "num_subcarriers": 2},
        subcarrier_policy={"source": "explicit", "probs": [0.3, 0.7]},
        plan={"source": "uniform-subcarrier"},
    )
    first = scenario_from_dict(doc)
    assert first == scenario_from_dict(scenario_to_dict(first))


def test_invalid_json_reports_line_and_column(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"schema_version": 1,\n  "model": }')
    with pytest.raises(ScenarioParseError, match="line 2"):
        parse_scenario(str(path))


def test_missing_file_is_a_parse_error():
    with pytest.raises(ScenarioParseError, match="cannot read"):
        parse_scenario("/nonexistent/scenario.json")


@pytest.mark.parametrize("mutate, field", [
    (lambda d: d.pop("schema_version"), "schema_version"),
    (lambda d: d.update(schema_version=2), "schema_version"),
    (lambda d: d.update(model="duplex"), "model"),
    (lambda d: d.pop("system"), "system"),
    (lambda d: d["system"].update(alpha=1.5), "alpha"),
    (lambda d: d["system"].update(horizon_T=0), "horizon_T"),
    (lambda d: d["policy"].update(probs=[0.5]), "policy.probs"),
    (lambda d: d.update(policy={"source": "greedy"}), "policy.source"),
    (lambda d: d.update(plan={"source": "everywhere"}), "plan.source"),
    (lambda d: d.update(plan={"source": "uniform-subcarrier"}), "plan.source"),
    (lambda d: d.update(experiment={"name": "guess"}), "experiment.name"),
    pytest.param(lambda d: d.update(experiment={"name": ["exact"]}),
                 "experiment.name", id="list-experiment-name"),
    (lambda d: d.update(plan={"source": "middle-block", "target": True}),
     "plan.target"),
    (lambda d: d.update(experiment={"name": "montecarlo"}), "experiment.runs"),
    (lambda d: d.update(subcarrier_policy={"source": "uniform"}),
     "subcarrier_policy"),
])
def test_validation_error_names_the_field(mutate, field):
    doc = base_doc()
    mutate(doc)
    with pytest.raises(ScenarioValidationError, match=field.split(".")[-1]):
        scenario_from_dict(doc)


def test_diversity_model_needs_multiple_subcarriers():
    doc = base_doc(model="diversity")
    with pytest.raises(ScenarioValidationError, match="num_subcarriers"):
        scenario_from_dict(doc)


# ---------------------------------------------------------------- exact


def test_exact_writes_expected_trajectory_rows(tmp_path, capsys):
    path = write_scenario(tmp_path, base_doc())
    code = main(["exact", "--config", path, "--out-dir", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "trajectories.csv").read_text().splitlines()
    assert lines[0] == "user,slot,expected_age"
    assert lines[1:4] == ["0,1,1.0", "0,2,1.5", "0,3,1.75"]
    assert lines[4:7] == ["1,1,1.0", "1,2,1.5", "1,3,1.75"]
    assert "system average age" in capsys.readouterr().out
    assert (tmp_path / "scenario.json").exists()


def test_exact_diversity_model_runs(tmp_path):
    doc = base_doc(
        model="diversity",
        system={"horizon_T": 12, "num_users": 2, "alpha": 0.25,
                "num_subcarriers": 2},
        policy={"source": "uniform"},
        plan={"source": "uniform-subcarrier"},
    )
    path = write_scenario(tmp_path, doc)
    code = main(["exact", "--config", path, "--out-dir", str(tmp_path),
                 "--quiet"])
    assert code == 0
    rows = (tmp_path / "trajectories.csv").read_text().splitlines()
    assert len(rows) == 1 + 2 * 12


def test_quiet_suppresses_stdout(tmp_path, capsys):
    path = write_scenario(tmp_path, base_doc())
    main(["exact", "--config", path, "--out-dir", str(tmp_path), "--quiet"])
    assert capsys.readouterr().out == ""


def test_out_dir_env_fallback(tmp_path, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv("AOIJAM_OUT_DIR", str(target))
    path = write_scenario(tmp_path, base_doc())
    assert main(["exact", "--config", path, "--quiet"]) == 0
    assert (target / "trajectories.csv").exists()


# ---------------------------------------------------------------- exit codes


def test_malformed_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("not json at all {")
    code = main(["exact", "--config", str(path), "--out-dir", str(tmp_path)])
    assert code == 2
    assert "scenario error" in capsys.readouterr().err


def test_experiment_subcommand_mismatch_exits_2(tmp_path, capsys):
    doc = base_doc(experiment={"name": "exact"})
    path = write_scenario(tmp_path, doc)
    code = main(["simulate", "--config", path, "--out-dir", str(tmp_path)])
    assert code == 2
    assert "experiment.name" in capsys.readouterr().err


def test_oracle_on_oversized_instance_exits_3(tmp_path, capsys):
    doc = base_doc(system={"horizon_T": 400, "num_users": 3, "alpha": 0.5},
                   policy={"source": "uniform"})
    path = write_scenario(tmp_path, doc)
    code = main(["oracle", "--config", path, "--out-dir", str(tmp_path)])
    assert code == 3
    assert "runtime error" in capsys.readouterr().err


def test_equilibrium_subcommands_reject_diversity_model(tmp_path, capsys):
    doc = base_doc(
        model="diversity",
        system={"horizon_T": 20, "num_users": 2, "alpha": 0.25,
                "num_subcarriers": 2},
        plan={"source": "uniform-subcarrier"},
    )
    path = write_scenario(tmp_path, doc)
    code = main(["stackelberg", "--config", path, "--out-dir", str(tmp_path)])
    assert code == 2
    assert "no-diversity" in capsys.readouterr().err


def test_main_without_subcommand_raises_usage_error():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


# ---------------------------------------------------------------- simulate


def sim_doc(seed=11, runs=300):
    return base_doc(
        system={"horizon_T": 40, "num_users": 2, "alpha": 0.3},
        plan={"source": "middle-block", "target": 0},
        experiment={"name": "montecarlo", "runs": runs, "seed": seed},
    )


def test_same_seed_gives_byte_identical_sim_csv(tmp_path):
    path = write_scenario(tmp_path, sim_doc())
    for sub in ("a", "b"):
        assert main(["simulate", "--config", path, "--out-dir",
                     str(tmp_path / sub), "--quiet"]) == 0
    first = (tmp_path / "a" / "sim.csv").read_bytes()
    second = (tmp_path / "b" / "sim.csv").read_bytes()
    assert first == second
    header, row = first.decode().splitlines()
    assert header == "runs,mean,std_error,seed"
    assert row.startswith("300,") and row.endswith(",11")


def test_different_seed_changes_sim_csv(tmp_path):
    path_a = write_scenario(tmp_path, sim_doc(seed=11), "a.json")
    path_b = write_scenario(tmp_path, sim_doc(seed=12), "b.json")
    main(["simulate", "--config", path_a, "--out-dir", str(tmp_path / "a"),
          "--quiet"])
    main(["simulate", "--config", path_b, "--out-dir", str(tmp_path / "b"),
          "--quiet"])
    a = (tmp_path / "a" / "sim.csv").read_bytes()
    b = (tmp_path / "b" / "sim.csv").read_bytes()
    assert a != b


def test_seed_override_replaces_config_seed(tmp_path):
    path = write_scenario(tmp_path, sim_doc(seed=11))
    main(["simulate", "--config", path, "--out-dir", str(tmp_path),
          "--seed-override", "99", "--quiet"])
    row = (tmp_path / "sim.csv").read_text().splitlines()[1]
    assert row.endswith(",99")


def test_consecutive_main_calls_share_no_flags(tmp_path, capsys):
    # one parser serves every call in a process: a flag of one call must
    # not reach the next, whatever its subcommand
    path = write_scenario(tmp_path, sim_doc(seed=11))
    assert main(["simulate", "--config", path, "--out-dir",
                 str(tmp_path / "a"), "--seed-override", "99",
                 "--quiet"]) == 0
    assert capsys.readouterr().out == ""
    assert main(["exact", "--config", write_scenario(tmp_path, base_doc(),
                                                     "exact.json"),
                 "--out-dir", str(tmp_path / "b")]) == 0
    assert "system average age" in capsys.readouterr().out
    assert main(["simulate", "--config", path, "--out-dir",
                 str(tmp_path / "c")]) == 0
    assert "seed 11" in capsys.readouterr().out
    for sub, seed in (("a", "99"), ("c", "11")):
        row = (tmp_path / sub / "sim.csv").read_text().splitlines()[1]
        assert row.endswith("," + seed)


def test_seed_past_2_64_simulates_like_its_residue(tmp_path):
    rows = []
    for seed in (5, 2**64 + 5):
        out = tmp_path / str(seed)
        assert main(["simulate", "--config",
                     write_scenario(tmp_path, sim_doc(seed=seed)),
                     "--out-dir", str(out), "--quiet"]) == 0
        rows.append((out / "sim.csv").read_text().splitlines()[1].split(","))
    runs_mean_se = [row[:3] for row in rows]
    assert runs_mean_se[0] == runs_mean_se[1]
    assert [row[3] for row in rows] == ["5", str(2**64 + 5)]


@pytest.mark.parametrize("model", ["no-diversity", "diversity"])
def test_zero_one_plan_simulates_alike_under_either_label(tmp_path, model):
    # plan.mode only gates the input: a 0/1 matrix is the same plan
    matrix = [[0, 0, 0, 1, 1, 1, 0, 0, 0, 0], [0] * 6 + [1, 0, 0, 0]]
    system = {"horizon_T": 10, "num_users": 2, "alpha": 0.4}
    if model == "diversity":
        system["num_subcarriers"] = 2
    written = []
    for mode in ("deterministic", "randomized"):
        doc = base_doc(model=model, system=system,
                       experiment={"name": "montecarlo", "runs": 200,
                                   "seed": 3},
                       **explicit_plan(matrix, mode))
        out = tmp_path / mode
        assert main(["simulate", "--config", write_scenario(tmp_path, doc),
                     "--out-dir", str(out), "--quiet"]) == 0
        written.append((out / "sim.csv").read_bytes())
    assert written[0] == written[1]


def test_serialized_plan_is_labelled_by_its_entries():
    assert serialize_strategy(BlockingPlan(np.zeros((2, 2)))) == (
        "plan[deterministic]{}")
    assert serialize_strategy(BlockingPlan([[0.0, 1.0], [0.0, 0.0]])) == (
        "plan[deterministic]{0:1=1.0}")
    assert serialize_strategy(BlockingPlan([[0.0, 1.0], [0.5, 0.0]])) == (
        "plan[randomized]{0:1=1.0|1:0=0.5}")


def _per_cell_plan_text(plan):
    """serialize_strategy's plan text as it was first written: np.nonzero
    over the matrix, one repr per cell, np.isin for the label."""
    m = plan.block_prob
    rows, cols = np.nonzero(m)
    cells = [f"{r}:{t}={float(v)!r}" for r, t, v in zip(
        rows.tolist(), cols.tolist(), m[rows, cols].tolist())]
    mode = ("deterministic" if np.isin(m, (0.0, 1.0)).all()
            else "randomized")
    return f"plan[{mode}]{{{'|'.join(cells)}}}"


@pytest.mark.parametrize("seed", range(6))
def test_serialized_plan_matches_the_per_cell_reference(seed):
    rng = np.random.default_rng(5300 + seed)
    pool = [0.5, 0.25, 1 / 3, 1.0, 0.1, -0.0]  # repeated values
    for _ in range(40):
        channels, slots = int(rng.integers(1, 6)), int(rng.integers(0, 40))
        m = np.zeros((channels, slots))
        rows = rng.integers(channels, size=slots)
        if seed % 2:
            values = rng.choice(pool, size=slots)
        else:  # mostly distinct values
            values = rng.uniform(0.0, 1.0, size=slots)
            values[rng.uniform(size=slots) < 0.3] = 0.0
        m[rows, np.arange(slots)] = values
        if channels > 1 and slots:  # a column shared by two channels
            m[:, 0] = 0.0
            m[:2, 0] = [0.375, 0.625]
        plan = BlockingPlan(m)
        assert serialize_strategy(plan) == _per_cell_plan_text(plan)


@pytest.mark.parametrize("command, doc, line", [
    ("best-response", base_doc(
        system={"horizon_T": 1000, "num_users": 50, "alpha": 0.2},
        policy={"source": "uniform"},
        plan={"source": "middle-block", "target": 7}),
     "base-station best response to the plan: [0.019962 "),
    ("stackelberg", base_doc(
        system={"horizon_T": 200, "num_users": 4, "alpha": 0.2},
        policy={"source": "uniform"},
        experiment={"name": "stackelberg", "target": 1,
                    "certify_samples": 50, "seed": 3}),
     "leader policy: [0.25 0.25 0.25 0.25]\n"),
])
def test_quiet_runs_format_no_summary(tmp_path, monkeypatch, capsys,
                                      command, doc, line):
    path = write_scenario(tmp_path, doc)
    assert main([command, "--config", path, "--out-dir",
                 str(tmp_path / "loud")]) == 0
    assert line in capsys.readouterr().out

    def refuse(*args, **kwargs):
        raise AssertionError("a --quiet run formatted its summary")

    monkeypatch.setattr(np, "array2string", refuse)
    assert main([command, "--config", path, "--out-dir",
                 str(tmp_path / "quiet"), "--quiet"]) == 0
    assert capsys.readouterr().out == ""
    for name in ("equilibrium.csv", "scenario.json"):
        assert (tmp_path / "quiet" / name).read_bytes() == (
            tmp_path / "loud" / name).read_bytes()


# ---------------------------------------------------------------- analysis


def test_asymptotic_csv_and_summary(tmp_path, capsys):
    doc = base_doc(
        system={"horizon_T": 10_000, "num_users": 2, "alpha": 0.2},
        policy={"source": "explicit", "probs": [0.1, 0.9]},
        plan={"source": "middle-block", "target": 0},
    )
    path = write_scenario(tmp_path, doc)
    assert main(["asymptotic", "--config", path,
                 "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "asymptotic system age (user 0 blocked): 106.505556\n" in out
    lines = (tmp_path / "asymptotic.csv").read_text().splitlines()
    assert lines[0] == "user,asymptotic_age"
    blocked_age = float(lines[1].split(",")[1])
    assert blocked_age == pytest.approx((1.2 * 0.9) / 0.1 + 0.1 * 2001 + 1)


@pytest.mark.parametrize("target", [0, 1, 2])
def test_asymptotic_middle_block_warns_once(tmp_path, target):
    # T*min(p) = 40: the blocked user's own T*p_target is covered by it
    doc = base_doc(
        system={"horizon_T": 200, "num_users": 3, "alpha": 0.2},
        policy={"source": "explicit", "probs": [0.5, 0.3, 0.2]},
        plan={"source": "middle-block", "target": target},
    )
    path = write_scenario(tmp_path, doc)
    with pytest.warns(AsymptoticValidityWarning) as record:
        assert main(["asymptotic", "--config", path,
                     "--out-dir", str(tmp_path), "--quiet"]) == 0
    assert len(record) == 1
    assert "T*min(p) = 40 " in str(record[0].message)


def test_asymptotic_rejects_explicit_plan(tmp_path, capsys):
    doc = base_doc(plan={"source": "explicit", "mode": "deterministic",
                         "block_prob": [[0.0] * 3, [0.0] * 3]})
    path = write_scenario(tmp_path, doc)
    code = main(["asymptotic", "--config", path, "--out-dir", str(tmp_path)])
    assert code == 2
    assert "plan.source" in capsys.readouterr().err


def _asymptotic_ages(tmp_path, model, plan):
    """asymptotic.csv's ages for p = (0.4, 0.6), T = 1000, alpha = 0.3 and,
    in the diversity model, N_sub = 2."""
    system = {"horizon_T": 1000, "num_users": 2, "alpha": 0.3}
    if model == "diversity":
        system["num_subcarriers"] = 2
    path = write_scenario(tmp_path, base_doc(
        model=model, system=system, plan=plan,
        policy={"source": "explicit", "probs": [0.4, 0.6]}))
    assert main(["asymptotic", "--config", path, "--out-dir", str(tmp_path),
                 "--quiet"]) == 0
    lines = (tmp_path / "asymptotic.csv").read_text().splitlines()
    return [float(line.split(",")[1]) for line in lines[1:]]


@pytest.mark.parametrize("model", ["no-diversity", "diversity"])
def test_asymptotic_no_plan_gives_unblocked_ages(tmp_path, model):
    # no jamming: 1/p_i in either model, whatever N_sub is
    ages = _asymptotic_ages(tmp_path, model, {"source": "none"})
    assert ages == [1 / 0.4, 1 / 0.6]


def test_asymptotic_middle_block_gives_the_blocked_closed_form(tmp_path):
    ages = _asymptotic_ages(tmp_path, "no-diversity",
                            {"source": "middle-block", "target": 1})
    assert ages == pytest.approx(
        [1 / 0.4, 1.3 * 0.4 / 0.6 + 0.3 * 301 / 2 + 1], rel=1e-14)
    # the CSV row is the library's closed form, bit for bit
    assert repr(ages[1]) == repr(blocked_user_age(0.6, 0.3, 1000))


def test_asymptotic_uniform_subcarrier_gives_diversity_ages(tmp_path):
    ages = _asymptotic_ages(tmp_path, "diversity",
                            {"source": "uniform-subcarrier"})
    assert ages == pytest.approx(
        [0.7 / p + 0.3 / (p * 0.5) for p in (0.4, 0.6)], rel=1e-14)


def test_best_response_writes_both_players(tmp_path):
    doc = base_doc(system={"horizon_T": 100, "num_users": 3, "alpha": 0.5},
                   policy={"source": "explicit", "probs": [0.2, 0.5, 0.3]},
                   plan={"source": "middle-block", "target": 0})
    path = write_scenario(tmp_path, doc)
    assert main(["best-response", "--config", path, "--out-dir",
                 str(tmp_path), "--quiet"]) == 0
    lines = (tmp_path / "equilibrium.csv").read_text().splitlines()
    assert lines[0] == "kind,holds,payoff,witness-serialized"
    assert lines[1].startswith("adversary-best-response,,")
    assert "target=0" in lines[1]
    assert lines[2].startswith("bs-best-response,,")
    # the base station's row is the system age of its reply, as is the
    # adversary's
    config = SystemConfig(horizon_T=100, num_users=3, alpha=0.5)
    shares = make_middle_block(config, 0).block_prob.sum(axis=1) / 100
    reply = numeric_simplex_minimizer(1.0 + shares)
    assert lines[2].split(",")[2] == repr(
        reduced_payoff_for_split(reply, shares, 100))


def test_oracle_reports_gap(tmp_path, capsys):
    doc = base_doc(system={"horizon_T": 10, "num_users": 2, "alpha": 0.3},
                   policy={"source": "explicit", "probs": [0.7, 0.3]})
    path = write_scenario(tmp_path, doc)
    assert main(["oracle", "--config", path, "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "gap (oracle - structured)" in out
    lines = (tmp_path / "equilibrium.csv").read_text().splitlines()
    kinds = [line.split(",")[0] for line in lines[1:]]
    assert kinds == ["oracle-max", "structured-exact"]


def test_br_dynamics_alternates_targets(tmp_path):
    doc = base_doc(system={"horizon_T": 200, "num_users": 2, "alpha": 0.4},
                   experiment={"name": "br-dynamics", "iterations": 6})
    path = write_scenario(tmp_path, doc)
    assert main(["br-dynamics", "--config", path, "--out-dir", str(tmp_path),
                 "--quiet"]) == 0
    lines = (tmp_path / "dynamics.csv").read_text().splitlines()
    assert lines[0] == "iteration,blocked_user,p_vector,payoff"
    targets = [int(line.split(",")[1]) for line in lines[1:]]
    assert targets == [0, 1, 0, 1, 0, 1]


def test_br_dynamics_trace_and_csv_match_a_per_step_loop(tmp_path):
    # the dynamics build each distinct step once and format each distinct
    # policy once; the trace and the CSV are those of building every step
    n, alpha, horizon, iterations = 8, 0.2, 1000, 200
    game = SystemConfig(horizon_T=horizon, num_users=n, alpha=alpha)
    policy, expected = uniform_policy(n), []
    for it in range(iterations):
        target = int(np.argmin(policy.probs))
        shares = alpha * np.eye(n)[target]
        expected.append((it, target, policy.probs,
                         reduced_payoff_for_split(policy, shares, horizon)))
        policy = counter_block_policy(game, target)

    report = best_response_dynamics(game, iterations)
    assert len(report.trace) == iterations
    for step, (it, target, probs, payoff) in zip(report.trace, expected):
        assert (step.iteration, step.blocked_user) == (it, target)
        assert step.policy.probs.tobytes() == probs.tobytes()
        assert step.payoff.hex() == payoff.hex()

    reference = io.StringIO()
    writer = csv.writer(reference, lineterminator="\n")
    writer.writerow(("iteration", "blocked_user", "p_vector", "payoff"))
    writer.writerows(
        (it, target, "[" + ";".join(repr(v) for v in probs.tolist()) + "]",
         repr(payoff)) for it, target, probs, payoff in expected)
    doc = base_doc(system={"horizon_T": horizon, "num_users": n,
                           "alpha": alpha},
                   policy={"source": "uniform"},
                   experiment={"name": "br-dynamics",
                               "iterations": iterations})
    path = write_scenario(tmp_path, doc)
    assert main(["br-dynamics", "--config", path, "--out-dir", str(tmp_path),
                 "--quiet"]) == 0
    assert ((tmp_path / "dynamics.csv").read_bytes()
            == reference.getvalue().encode())


def test_stackelberg_known_payoff(tmp_path, capsys):
    doc = base_doc(system={"horizon_T": 100, "num_users": 2, "alpha": 0.5},
                   policy={"source": "uniform"})
    path = write_scenario(tmp_path, doc)
    assert main(["stackelberg", "--config", path,
                 "--out-dir", str(tmp_path)]) == 0
    assert "leader system age: 8.625000\n" in capsys.readouterr().out
    line = (tmp_path / "equilibrium.csv").read_text().splitlines()[1]
    kind, holds, payoff, _ = line.split(",", maxsplit=3)
    assert (kind, holds) == ("stackelberg", "")
    assert float(payoff) == pytest.approx(8.625)


def test_nash_verify_no_diversity_fails_with_witness(tmp_path, capsys):
    doc = base_doc(system={"horizon_T": 100, "num_users": 2, "alpha": 0.4},
                   policy={"source": "uniform"},
                   plan={"source": "middle-block", "target": 0})
    path = write_scenario(tmp_path, doc)
    assert main(["nash-verify", "--config", path,
                 "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "fails" in out
    line = (tmp_path / "equilibrium.csv").read_text().splitlines()[1]
    assert line.split(",", maxsplit=3)[1] == "false"
    assert "payoff" in line  # witness text carries the improvement


def test_nash_verify_diversity_point_holds(tmp_path):
    doc = base_doc(
        model="diversity",
        system={"horizon_T": 400, "num_users": 2, "alpha": 0.2,
                "num_subcarriers": 2},
        policy={"source": "uniform"},
        subcarrier_policy={"source": "uniform"},
        plan={"source": "uniform-subcarrier"},
        experiment={"name": "nash-verify", "bs_samples": 120,
                    "adv_samples": 120, "seed": 3},
    )
    path = write_scenario(tmp_path, doc)
    assert main(["nash-verify", "--config", path, "--out-dir", str(tmp_path),
                 "--quiet"]) == 0
    line = (tmp_path / "equilibrium.csv").read_text().splitlines()[1]
    kind, holds, _, witness = line.split(",", maxsplit=3)
    assert (kind, holds) == ("diversity-nash", "true")
    assert witness == ""


def test_nash_verify_runs_when_the_budget_exceeds_half_the_horizon(
        tmp_path, capsys):
    # B = 24 of T = 40: a two-window deviation once found no room for its
    # second window and the audit exited 3
    doc = div_doc(system={"horizon_T": 40, "num_users": 2, "alpha": 0.6,
                          "num_subcarriers": 2},
                  **seeded("nash-verify", 0, bs_samples=20, adv_samples=50))
    path = write_scenario(tmp_path, doc)
    assert main(["nash-verify", "--config", path, "--out-dir", str(tmp_path),
                 "--quiet"]) == 0, capsys.readouterr().err
    assert (tmp_path / "equilibrium.csv").exists()


def test_counter_block_policy_source(tmp_path):
    doc = base_doc(system={"horizon_T": 100, "num_users": 2, "alpha": 0.5},
                   policy={"source": "counter-block", "target": 1},
                   plan={"source": "middle-block", "target": 1})
    path = write_scenario(tmp_path, doc)
    assert main(["exact", "--config", path, "--out-dir", str(tmp_path),
                 "--quiet"]) == 0
    scenario = json.loads((tmp_path / "scenario.json").read_text())
    assert scenario["policy"] == {"source": "counter-block", "target": 1}


def test_run_scenario_uses_file_experiment_without_subcommand(tmp_path):
    doc = base_doc(experiment={"name": "exact"})
    path = write_scenario(tmp_path, doc)
    assert run_scenario(path, out_dir=str(tmp_path), quiet=True) == 0
    assert (tmp_path / "trajectories.csv").exists()


def test_run_scenario_without_any_experiment_exits_2(tmp_path, capsys):
    path = write_scenario(tmp_path, base_doc())
    assert run_scenario(path, out_dir=str(tmp_path)) == 2
    assert "experiment.name" in capsys.readouterr().err


def test_console_entry_point(tmp_path):
    path = write_scenario(tmp_path, base_doc())
    proc = subprocess.run(
        [sys.executable, "-m", "aoijam.cli", "exact", "--config", path,
         "--out-dir", str(tmp_path), "--quiet"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "trajectories.csv").exists()


def test_module_entry_point_is_silent():
    # runpy warns when the package has already imported aoijam.cli
    proc = subprocess.run([sys.executable, "-m", "aoijam.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_cli_import_leaves_scipy_unloaded():
    # numpy is the only dependency, the ordered leader solver included
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, aoijam, aoijam.cli; aoijam.ordered_kkt_solver("
         "aoijam.SystemConfig(horizon_T=10, num_users=4, alpha=0.3)); "
         "assert 'scipy' not in sys.modules"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------- field errors


def div_doc(**overrides):
    doc = base_doc(
        model="diversity",
        system={"horizon_T": 20, "num_users": 2, "alpha": 0.25,
                "num_subcarriers": 2},
        plan={"source": "uniform-subcarrier"},
    )
    doc.update(overrides)
    return doc


def explicit_plan(matrix, mode="deterministic"):
    return {"plan": {"source": "explicit", "mode": mode, "block_prob": matrix}}


def one_user(**overrides):
    return base_doc(**{
        "system": {"horizon_T": 3, "num_users": 1, "alpha": 0.4},
        "policy": {"source": "explicit", "probs": [1.0]}, **overrides})


def seeded(name, seed, **fields):
    return {"experiment": {"name": name, "seed": seed, **fields}}


_MC = {"runs": 20}
_NASH = {"bs_samples": 2, "adv_samples": 2}
BAD_SEEDS = {"string": "7", "float": 1.5, "bool": True, "negative": -1}
PLAN, POLICY = "plan.block_prob", "policy.probs"
# as many rows as entries expected, so only the vector's shape is wrong
NESTED = {"source": "explicit", "probs": [[0.25, 0.25], [0.25, 0.25]]}


def case(id, command, doc, field, *extra):
    return pytest.param(command, doc, list(extra), field, id=id)


def stray(section, spec, key, doc=base_doc):
    """An `exact` case whose `section` object holds a key its source never
    reads."""
    return case(f"stray-{section}-{spec['source']}-{key}", "exact",
                doc(**{section: spec}), f"{section}.{key}")


@pytest.mark.parametrize("command, doc, extra, field", [
    case("ragged-plan", "exact",
         base_doc(**explicit_plan([[0, 0, 0], [0, 0]])), PLAN),
    case("3d-plan", "exact",
         base_doc(**explicit_plan([[[0, 0, 0]], [[0, 0, 0]]])), PLAN),
    case("wrong-shape-plan", "exact",
         base_doc(**explicit_plan([[0, 0], [0, 0]])), PLAN),
    case("plan-above-1", "exact",
         base_doc(**explicit_plan([[1.5, 0, 0], [0, 0, 0]], "randomized")),
         PLAN),
    case("fractional-deterministic-plan", "exact",
         base_doc(**explicit_plan([[0.5, 0, 0], [0, 0, 0]])), PLAN),
    case("non-numeric-plan", "exact",
         base_doc(**explicit_plan([["x", 0, 0], [0, 0, 0]])), PLAN),
    case("over-budget-plan", "exact",
         base_doc(**explicit_plan([[1, 1, 0], [0, 0, 0]])), PLAN),
    case("non-numeric-policy", "exact",
         base_doc(policy={"source": "explicit", "probs": ["a", 0.5]}), POLICY),
    case("null-policy", "exact",
         base_doc(policy={"source": "explicit", "probs": [None, 1.0]}), POLICY),
    case("zero-policy", "exact",
         base_doc(policy={"source": "explicit", "probs": [0.0, 1.0]}), POLICY),
    case("unnormalized-policy", "exact",
         base_doc(policy={"source": "explicit", "probs": [0.3, 0.3]}), POLICY),
    case("non-numeric-subcarrier-policy", "exact",
         div_doc(subcarrier_policy={"source": "explicit", "probs": ["x", 0.5]}),
         "subcarrier_policy.probs"),
    # a bool or a numeric string is no JSON number, whatever numpy makes of
    # it, and an integer past the float range is no probability
    case("bool-policy", "exact",
         one_user(policy={"source": "explicit", "probs": [True]}), POLICY),
    case("string-policy", "exact",
         one_user(policy={"source": "explicit", "probs": ["1"]}), POLICY),
    case("string-entry-policy", "exact",
         base_doc(policy={"source": "explicit", "probs": [0.5, "0.5"]}),
         POLICY),
    case("huge-int-policy", "exact",
         one_user(policy={"source": "explicit", "probs": [10**400]}), POLICY),
    case("bool-subcarrier-policy", "exact",
         div_doc(subcarrier_policy={"source": "explicit",
                                    "probs": [True, False]}),
         "subcarrier_policy.probs"),
    case("bool-plan", "exact", one_user(**explicit_plan([[False, True, False]])),
         PLAN),
    case("string-plan", "exact",
         base_doc(**explicit_plan([[0, 1, 0], [0, "0", 0]])), PLAN),
    case("nested-policy", "exact", base_doc(policy=NESTED), POLICY),
    case("nested-policy-asymptotic", "asymptotic", base_doc(policy=NESTED),
         POLICY),
    case("nested-subcarrier-policy", "exact",
         div_doc(subcarrier_policy=NESTED), "subcarrier_policy.probs"),
    *[case(f"{kind}-seed-simulate", "simulate",
           base_doc(**seeded("montecarlo", seed, **_MC)), "experiment.seed")
      for kind, seed in BAD_SEEDS.items()],
    *[case(f"{kind}-seed-stackelberg", "stackelberg",
           base_doc(**seeded("stackelberg", seed)), "experiment.seed")
      for kind, seed in BAD_SEEDS.items()],
    *[case(f"{kind}-seed-nash-verify", "nash-verify",
           div_doc(**seeded("nash-verify", seed, **_NASH)), "experiment.seed")
      for kind, seed in BAD_SEEDS.items()],
    case("negative-seed-override", "simulate", base_doc(), "--seed-override",
         "--seed-override", "-1"),
    case("zero-bs-samples", "nash-verify",
         div_doc(**seeded("nash-verify", 0, bs_samples=0, adv_samples=2)),
         "experiment.bs_samples"),
    case("zero-adv-samples", "nash-verify",
         div_doc(**seeded("nash-verify", 0, bs_samples=2, adv_samples=0)),
         "experiment.adv_samples"),
    # plans without a closed form in their model
    case("asymptotic-diversity-middle-block", "asymptotic",
         div_doc(plan={"source": "middle-block", "target": 0}), "plan.source"),
    case("asymptotic-diversity-explicit-plan", "asymptotic",
         div_doc(**explicit_plan([[0] * 20, [0] * 20])), "plan.source"),
    case("asymptotic-oracle-plan", "asymptotic",
         base_doc(plan={"source": "oracle"}), "plan.source"),
    # no diversity plan middle-blocks a user: nothing for it to counter
    case("counter-block-diversity", "exact",
         div_doc(policy={"source": "counter-block"}), "policy.source"),
    # a misspelt key once fell back to its default without a word
    case("unknown-top-level-key", "exact",
         base_doc(polcy={"source": "uniform"}), "polcy"),
    case("unknown-system-key", "exact",
         base_doc(system={"horizon_T": 3, "num_users": 2, "alpha": 0.4,
                          "num_subcarrier": 2}), "system.num_subcarrier"),
    case("unknown-policy-key", "exact",
         base_doc(policy={"source": "uniform", "prob": [0.5, 0.5]}),
         "policy.prob"),
    case("unknown-subcarrier_policy-key", "exact",
         div_doc(subcarrier_policy={"source": "uniform", "target": 0}),
         "subcarrier_policy.target"),
    case("unknown-plan-key", "exact",
         base_doc(plan={"source": "middle-block", "taget": 1}), "plan.taget"),
    case("unknown-experiment-key", "stackelberg",
         base_doc(experiment={"name": "stackelberg", "certify_sample": 0,
                              "seeed": 3}), "experiment.certify_sample"),
    # a key that only another source reads once ran the source without it
    stray("policy", {"source": "uniform", "probs": [0.9, 0.1]}, "probs"),
    stray("policy", {"source": "explicit", "probs": [0.5, 0.5], "target": 1},
          "target"),
    stray("policy", {"source": "counter-block", "probs": [0.9, 0.1]},
          "probs"),
    stray("subcarrier_policy", {"source": "uniform", "probs": [0.9, 0.1]},
          "probs", div_doc),
    stray("subcarrier_policy",
          {"source": "explicit", "probs": [0.5, 0.5], "mode": "randomized"},
          "mode", div_doc),
    stray("plan", {"source": "none", "target": 1}, "target"),
    stray("plan", {"source": "middle-block", "mode": "randomized"}, "mode"),
    stray("plan", {"source": "uniform-subcarrier", "target": 0}, "target",
          div_doc),
    stray("plan", {"source": "explicit", "block_prob": [[0, 0, 0]] * 2,
                   "target": 0}, "target"),
    stray("plan", {"source": "oracle", "block_prob": [[0, 0, 0]] * 2},
          "block_prob"),
    # null or empty strategy objects never fall back to a default source
    case("policy-is-null", "exact", base_doc(policy=None), "policy"),
    case("plan-is-null", "exact", base_doc(plan=None), "plan"),
    case("policy-is-empty", "exact", base_doc(policy={}), "policy.source"),
    case("subcarrier_policy-is-empty", "exact",
         div_doc(subcarrier_policy={}), "subcarrier_policy.source"),
    # once a TypeError and an OverflowError traceback
    case("list-subcarrier-source", "exact",
         div_doc(subcarrier_policy={"source": ["uniform"]}),
         "subcarrier_policy.source"),
    case("huge-int-alpha", "exact",
         base_doc(system={"horizon_T": 3, "num_users": 2, "alpha": 10**400}),
         "system.alpha"),
])
def test_malformed_field_exits_2_and_names_it(tmp_path, capsys, command, doc,
                                              extra, field):
    path = write_scenario(tmp_path, doc)
    code = main([command, "--config", path, "--out-dir", str(tmp_path),
                 "--quiet", *extra])
    err = capsys.readouterr().err
    assert code == 2, err
    assert f"field '{field}'" in err
    assert "Traceback" not in err and "runtime error" not in err


@pytest.mark.parametrize("doc, field, problem", [
    (base_doc(**explicit_plan([[1, 1, 0], [0, 0, 0]])), PLAN,
     "blocking plan exceeds the adversary's budget"),
    (base_doc(**explicit_plan([[0.5, 0, 0], [0, 0, 0]])), PLAN,
     "deterministic plans admit only {0, 1} entries"),
    (div_doc(subcarrier_policy={"source": "explicit", "probs": ["x", 0.5]},
             **explicit_plan([[0] * 20, [0] * 20])),
     "subcarrier_policy.probs", "could not convert"),
    (one_user(policy={"source": "explicit", "probs": [True]}), POLICY,
     "could not convert True to a number"),
])
def test_explicit_plan_errors_name_one_field_once(tmp_path, capsys, doc,
                                                  field, problem):
    # the budget is the model's check (check_profile); no error is wrapped
    # twice on its way to the exit code
    path = write_scenario(tmp_path, doc)
    code = main(["exact", "--config", path, "--out-dir", str(tmp_path),
                 "--quiet"])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.count("field '") == 1
    assert f"field '{field}': " in err and problem in err


@pytest.mark.parametrize("doc", [
    div_doc(subcarrier_policy=None), base_doc(subcarrier_policy=None)],
    ids=["diversity", "no-diversity"])
def test_null_subcarrier_policy_counts_as_absent(tmp_path, doc):
    # `"subcarrier_policy": null` runs as if the key were missing: the
    # uniform q with diversity, no q without it
    absent = {k: v for k, v in doc.items() if k != "subcarrier_policy"}
    outputs = []
    for name, scenario in (("null", doc), ("absent", absent)):
        path = write_scenario(tmp_path, scenario, f"{name}.json")
        out_dir = tmp_path / name
        assert main(["exact", "--config", path, "--out-dir", str(out_dir),
                     "--quiet"]) == 0
        outputs.append([(out_dir / f).read_bytes()
                        for f in ("scenario.json", "trajectories.csv")])
    assert outputs[0] == outputs[1]
    stored = json.loads(outputs[0][0]).get("subcarrier_policy")
    assert stored == ({"source": "uniform"} if doc["model"] == "diversity"
                      else None)


def test_unused_strategies_are_not_validated(tmp_path):
    doc = base_doc(policy={"source": "explicit", "probs": ["a", 0.5]},
                   **explicit_plan([[0, 0, 0], [0, 0]]))
    path = write_scenario(tmp_path, doc)
    assert main(["stackelberg", "--config", path, "--out-dir", str(tmp_path),
                 "--quiet"]) == 0
    # the diversity closed form never reads q
    path = write_scenario(tmp_path, div_doc(subcarrier_policy=NESTED))
    assert main(["asymptotic", "--config", path, "--out-dir", str(tmp_path),
                 "--quiet"]) == 0


def test_plan_entry_within_tolerance_below_zero_runs(tmp_path, capsys):
    # stored clipped to 0: the plan's budget split is not negative
    doc = base_doc(**explicit_plan([[-1e-13, 0, 0], [0, 0.5, 0]],
                                   "randomized"))
    path = write_scenario(tmp_path, doc)
    assert main(["nash-verify", "--config", path, "--out-dir", str(tmp_path),
                 "--quiet"]) == 0, capsys.readouterr().err
    assert (tmp_path / "equilibrium.csv").exists()


def test_oversized_oracle_plan_source_exits_3(tmp_path, capsys):
    doc = base_doc(system={"horizon_T": 400, "num_users": 3, "alpha": 0.5},
                   policy={"source": "uniform"}, plan={"source": "oracle"})
    path = write_scenario(tmp_path, doc)
    assert main(["exact", "--config", path, "--out-dir", str(tmp_path)]) == 3
    assert "InstanceTooLargeError" in capsys.readouterr().err


def test_out_of_memory_exits_3(tmp_path, capsys):
    # a 2 x 1e17 plan needs 1.39 EiB, beyond any address space: the
    # allocation fails at once
    doc = base_doc(system={"horizon_T": 10**17, "num_users": 2, "alpha": 0.4})
    path = write_scenario(tmp_path, doc)
    assert main(["exact", "--config", path, "--out-dir", str(tmp_path)]) == 3
    assert "runtime error: MemoryError" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [
    base_doc(system={"horizon_T": 3, "num_users": 10**400, "alpha": 0.4},
             policy={"source": "uniform"}),
    div_doc(system={"horizon_T": 20, "num_users": 10**400, "alpha": 0.25,
                    "num_subcarriers": 2}, policy={"source": "uniform"}),
    base_doc(system={"horizon_T": 3, "num_users": 10**400, "alpha": 0.4},
             policy={"source": "counter-block"}),
], ids=["no-diversity-uniform", "diversity-uniform", "counter-block"])
def test_user_count_beyond_float_range_exits_3(tmp_path, capsys, doc):
    # 1.0 / N and N - 1 + sqrt(1 + alpha) overflow a float
    path = write_scenario(tmp_path, doc)
    assert main(["exact", "--config", path, "--out-dir", str(tmp_path),
                 "--quiet"]) == 3
    err = capsys.readouterr().err
    assert "runtime error: OverflowError" in err
    assert "Traceback" not in err


def test_simulate_without_experiment_block_uses_registry_defaults(tmp_path):
    path = write_scenario(tmp_path, base_doc())
    assert main(["simulate", "--config", path, "--out-dir", str(tmp_path),
                 "--quiet"]) == 0
    row = (tmp_path / "sim.csv").read_text().splitlines()[1]
    assert row.startswith("1000,") and row.endswith(",0")
    scenario = json.loads((tmp_path / "scenario.json").read_text())
    assert scenario["experiment"] == {"name": "montecarlo", "runs": 1000,
                                      "seed": 0}


def test_seed_override_leaves_scenario_json_seed(tmp_path):
    path = write_scenario(tmp_path, sim_doc(seed=11))
    assert main(["simulate", "--config", path, "--out-dir", str(tmp_path),
                 "--seed-override", "99", "--quiet"]) == 0
    scenario = json.loads((tmp_path / "scenario.json").read_text())
    assert scenario["experiment"]["seed"] == 11


def test_asymptotic_diversity_csv_matches_library(tmp_path):
    from aoijam import diversity_user_ages, validate_policy

    doc = div_doc(system={"horizon_T": 1000, "num_users": 3, "alpha": 0.3,
                          "num_subcarriers": 3},
                  policy={"source": "explicit", "probs": [0.2, 0.3, 0.5]})
    path = write_scenario(tmp_path, doc)
    assert main(["asymptotic", "--config", path, "--out-dir", str(tmp_path),
                 "--quiet"]) == 0
    lines = (tmp_path / "asymptotic.csv").read_text().splitlines()
    expected = diversity_user_ages(validate_policy([0.2, 0.3, 0.5]), 0.3, 3)
    assert lines == ["user,asymptotic_age"] + [
        f"{i},{float(v)!r}" for i, v in enumerate(expected)]


# ---------------------------------------------------------------- README


def _readme_source_rows():
    """(section, source) -> (keys with their README defaults, models,
    asymptotic models) from README's strategy-source table."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = iter(text.splitlines())
    for line in lines:
        if line.startswith("| section | `source` |"):
            break
    next(lines)  # the | --- | row

    def models(cell):
        if cell.startswith("either"):
            return set(MODELS)
        return set() if cell.startswith("none") else set(
            re.findall(r"`([^`]+)`", cell))

    rows = {}
    for line in lines:
        if not line.startswith("|"):
            break
        section, source, keys, needs, covers = [
            cell.strip() for cell in line.strip().strip("|").split("|")]
        key_defaults = dict(re.findall(r"`(\w+)`(?: \(([^)]*)\))?", keys))
        rows[(section.strip("`"), source.strip("`"))] = (
            key_defaults, models(needs), models(covers))
    return rows


def test_readme_source_table_matches_sources():
    rows = _readme_source_rows()
    assert set(rows) == {(section, name) for section, sources in
                         SOURCES.items() for name in sources}
    for section, sources in SOURCES.items():
        for name, entry in sources.items():
            keys, needs, covers = rows[(section, name)]
            assert keys == {
                key: "" if field.default is None else json.dumps(field.default)
                for key, field in entry.keys.items()}, (section, name)
            assert needs == set(entry.models), (section, name)
            assert covers == set(entry.asymptotic), (section, name)
