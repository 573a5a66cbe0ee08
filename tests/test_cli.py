"""Scenario-file front end: parsing, exit codes, CSV artifacts."""

import json
import subprocess
import sys

import numpy as np
import pytest

from aoijam.cli import (
    ScenarioConfig,
    main,
    parse_scenario,
    run_scenario,
    scenario_from_dict,
    scenario_to_dict,
    serialize_strategy,
)
from aoijam.errors import ScenarioParseError, ScenarioValidationError
from aoijam.model import BlockingPlan


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
    assert "reduced payoff" in out
    lines = (tmp_path / "asymptotic.csv").read_text().splitlines()
    assert lines[0] == "user,asymptotic_age"
    blocked_age = float(lines[1].split(",")[1])
    assert blocked_age == pytest.approx((1.2 * 0.9) / 0.1 + 0.1 * 2001 + 1)


def test_asymptotic_rejects_explicit_plan(tmp_path, capsys):
    doc = base_doc(plan={"source": "explicit", "mode": "deterministic",
                         "block_prob": [[0.0] * 3, [0.0] * 3]})
    path = write_scenario(tmp_path, doc)
    code = main(["asymptotic", "--config", path, "--out-dir", str(tmp_path)])
    assert code == 2
    assert "plan.source" in capsys.readouterr().err


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


def test_stackelberg_known_payoff(tmp_path, capsys):
    doc = base_doc(system={"horizon_T": 100, "num_users": 2, "alpha": 0.5},
                   policy={"source": "uniform"})
    path = write_scenario(tmp_path, doc)
    assert main(["stackelberg", "--config", path,
                 "--out-dir", str(tmp_path)]) == 0
    assert "17.25" in capsys.readouterr().out
    line = (tmp_path / "equilibrium.csv").read_text().splitlines()[1]
    kind, holds, payoff, _ = line.split(",", maxsplit=3)
    assert (kind, holds) == ("stackelberg", "")
    assert float(payoff) == pytest.approx(17.25)


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
         "import sys, aoijam, aoijam.cli; aoijam.ordered_kkt_solver(4, 0.3); "
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
