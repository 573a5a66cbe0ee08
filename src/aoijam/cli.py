"""Command-line front end.

A scenario lives in a single JSON document (versioned via schema_version)
naming the model, the system numbers, both players' strategies, and the
experiment to run.  Subcommands select the experiment; a small flag set
(--config, --out-dir, --seed-override, --quiet) wraps the file.  Results go
to stdout as a short human summary and to the output directory as CSV with
fixed schemas:

    trajectories.csv  user, slot, expected_age
    sim.csv           runs, mean, std_error, seed
    equilibrium.csv   kind, holds, payoff, witness-serialized
    dynamics.csv      iteration, blocked_user, p_vector, payoff
    asymptotic.csv    user, asymptotic_age

Each experiment is one REGISTRY entry: its subcommand, the models it
accepts, its experiment-block fields (validator and default) and its runner.

Exit codes: 0 success, 2 invalid scenario, 3 runtime error or out of memory.
"""

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .age_asymptotic import (
    blocked_user_age,
    diversity_user_ages,
    reduced_objective,
    system_age_no_diversity,
    unblocked_user_age,
)
from .age_exact import (
    expected_age_trajectory,
    expected_age_trajectory_diversity,
)
from .best_response import (
    adversary_best_response,
    adversary_oracle,
    counter_block_policy,
    numeric_simplex_minimizer,
)
from .montecarlo import estimate_average_age
from .equilibrium import (
    DeviationWitness,
    best_response_dynamics,
    is_nash_no_diversity,
    stackelberg_equilibrium,
    verify_diversity_nash,
)
from .errors import (
    AoijamError,
    NonPositiveEntryError,
    ScenarioParseError,
    ScenarioValidationError,
)
from .model import (
    BlockingPlan,
    SchedulingPolicy,
    SubcarrierPolicy,
    SystemConfig,
    check_profile,
    empty_plan,
    make_middle_block,
    make_uniform_subcarrier_block,
    uniform_policy,
    uniform_subcarrier_policy,
    validate_policy,
    validate_subcarrier_policy,
)

SCHEMA_VERSION = 1
OUT_DIR_ENV = "AOIJAM_OUT_DIR"

POLICY_SOURCES = ("uniform", "explicit", "counter-block")
PLAN_SOURCES = ("none", "middle-block", "uniform-subcarrier", "explicit",
                "oracle")


@dataclass(frozen=True)
class ScenarioConfig:
    """A parsed, validated scenario: everything an experiment needs."""

    model: str  # "no-diversity" | "diversity"
    system: SystemConfig
    policy_spec: dict
    subpolicy_spec: dict | None
    plan_spec: dict
    experiment: dict


# ===========================================================================
#  Parsing and validation
# ===========================================================================


def _fail(field: str, problem: str):
    raise ScenarioValidationError(f"field {field!r}: {problem}")


def _require_int(field, value, minimum=None, maximum=None):
    if not isinstance(value, int) or isinstance(value, bool):
        _fail(field, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        _fail(field, f"must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        _fail(field, f"must be <= {maximum}, got {value}")
    return value


def _require_number(obj, field):
    value = obj.get(field.split(".")[-1])
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        _fail(field, f"expected a number, got {value!r}")
    return float(value)


def scenario_from_dict(raw: dict) -> ScenarioConfig:
    """Validate a decoded JSON document into a ScenarioConfig."""
    if not isinstance(raw, dict):
        raise ScenarioValidationError("top level must be a JSON object")
    version = raw.get("schema_version")
    if version != SCHEMA_VERSION:
        _fail("schema_version", f"must be {SCHEMA_VERSION}, got {version!r}")

    model = raw.get("model", "no-diversity")
    if model not in ("no-diversity", "diversity"):
        _fail("model", f"must be 'no-diversity' or 'diversity', got {model!r}")

    system_raw = raw.get("system")
    if not isinstance(system_raw, dict):
        _fail("system", "required object is missing")
    horizon = _require_int("system.horizon_T", system_raw.get("horizon_T"), 1)
    users = _require_int("system.num_users", system_raw.get("num_users"), 1)
    alpha = _require_number(system_raw, "system.alpha")
    if not 0.0 < alpha < 1.0:
        _fail("system.alpha", f"must lie in (0, 1), got {alpha}")
    nsub = _require_int("system.num_subcarriers",
                        system_raw.get("num_subcarriers", 1), minimum=1)
    if model == "diversity" and nsub < 2:
        _fail("system.num_subcarriers", "diversity model needs >= 2")
    if model == "no-diversity" and nsub != 1:
        _fail("system.num_subcarriers", "no-diversity model needs exactly 1")
    system = SystemConfig(horizon_T=horizon, num_users=users, alpha=alpha,
                          num_subcarriers=nsub)

    policy_spec = raw.get("policy", {"source": "uniform"})
    if not isinstance(policy_spec, dict):
        _fail("policy", "must be an object")
    source = policy_spec.get("source")
    if source not in POLICY_SOURCES:
        _fail("policy.source", f"must be one of {POLICY_SOURCES}, got {source!r}")
    if source == "explicit":
        probs = policy_spec.get("probs")
        if not isinstance(probs, list) or len(probs) != users:
            _fail("policy.probs", f"need a list of {users} numbers")
    if source == "counter-block":
        _require_int("policy.target", policy_spec.get("target", 0), 0,
                     users - 1)

    subpolicy_spec = raw.get("subcarrier_policy")
    if subpolicy_spec is not None:
        if model != "diversity":
            _fail("subcarrier_policy", "only valid in the diversity model")
        if not isinstance(subpolicy_spec, dict):
            _fail("subcarrier_policy", "must be an object")
        sub_source = subpolicy_spec.get("source")
        if sub_source not in ("uniform", "explicit"):
            _fail("subcarrier_policy.source",
                  f"must be 'uniform' or 'explicit', got {sub_source!r}")
        if sub_source == "explicit":
            probs = subpolicy_spec.get("probs")
            if not isinstance(probs, list) or len(probs) != nsub:
                _fail("subcarrier_policy.probs",
                      f"need a list of {nsub} numbers")
    elif model == "diversity":
        subpolicy_spec = {"source": "uniform"}

    plan_spec = raw.get("plan", {"source": "none"})
    if not isinstance(plan_spec, dict):
        _fail("plan", "must be an object")
    plan_source = plan_spec.get("source")
    if plan_source not in PLAN_SOURCES:
        _fail("plan.source", f"must be one of {PLAN_SOURCES}, got {plan_source!r}")
    if plan_source == "middle-block":
        _require_int("plan.target", plan_spec.get("target", 0), 0,
                     system.num_channels - 1)
    if plan_source == "uniform-subcarrier" and model != "diversity":
        _fail("plan.source", "'uniform-subcarrier' needs the diversity model")
    if plan_source == "oracle" and model != "no-diversity":
        _fail("plan.source", "'oracle' needs the no-diversity model")
    if plan_source == "explicit":
        matrix = plan_spec.get("block_prob")
        if not isinstance(matrix, list):
            _fail("plan.block_prob", "need a channels x T matrix")
        if plan_spec.get("mode", "deterministic") not in (
                "deterministic", "randomized"):
            _fail("plan.mode", "must be 'deterministic' or 'randomized'")

    experiment = raw.get("experiment")
    if experiment is not None:
        experiment = _validate_experiment(experiment, model, system)

    return ScenarioConfig(model=model, system=system, policy_spec=policy_spec,
                          subpolicy_spec=subpolicy_spec, plan_spec=plan_spec,
                          experiment=experiment)


def _validate_experiment(exp, model: str, system: SystemConfig,
                         in_file: bool = True) -> dict:
    """Check an experiment block against its REGISTRY entry; fill defaults."""
    if not isinstance(exp, dict):
        _fail("experiment", "must be an object")
    name = exp.get("name")
    if not isinstance(name, str) or name not in REGISTRY:
        _fail("experiment.name",
              f"must be one of {tuple(REGISTRY)}, got {name!r}")
    models = REGISTRY[name].models
    if model not in models:
        _fail("experiment.name",
              f"{name!r} needs the {' or '.join(models)} model")
    out = {"name": name}
    for key, spec in REGISTRY[name].fields.items():
        field = f"experiment.{key}"
        if in_file and spec.required and key not in exp:
            _fail(field, "required in an experiment block")
        out[key] = spec.check(field, exp.get(key, spec.default), system)
    return out


def parse_scenario(path: str) -> ScenarioConfig:
    """Read and validate a scenario file; errors carry line/field context."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioParseError(f"cannot read {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    return scenario_from_dict(raw)


def scenario_to_dict(sc: ScenarioConfig) -> dict:
    """Inverse of scenario_from_dict (round-trips to an equivalent scenario)."""
    out = {
        "schema_version": SCHEMA_VERSION,
        "model": sc.model,
        "system": {
            "horizon_T": sc.system.horizon_T,
            "num_users": sc.system.num_users,
            "alpha": sc.system.alpha,
            "num_subcarriers": sc.system.num_subcarriers,
        },
        "policy": dict(sc.policy_spec),
        "plan": dict(sc.plan_spec),
    }
    if sc.subpolicy_spec is not None:
        out["subcarrier_policy"] = dict(sc.subpolicy_spec)
    if sc.experiment is not None:
        out["experiment"] = dict(sc.experiment)
    return out


# ===========================================================================
#  Strategy resolution
# ===========================================================================


def _explicit(field: str, build, raw):
    """build(raw as a float array); a model ValueError names `field`."""
    try:
        return build(np.asarray(raw, dtype=float))
    except (TypeError, ValueError) as exc:
        _fail(field, str(exc))


def resolve_policy(sc: ScenarioConfig) -> SchedulingPolicy:
    spec = sc.policy_spec
    if spec["source"] == "uniform":
        return uniform_policy(sc.system.num_users)
    if spec["source"] == "explicit":
        return _explicit("policy.probs", validate_policy, spec["probs"])
    return counter_block_policy(sc.system.num_users, sc.system.alpha,
                                spec.get("target", 0))


def resolve_subpolicy(sc: ScenarioConfig) -> SubcarrierPolicy | None:
    if sc.subpolicy_spec is None:
        return None
    if sc.subpolicy_spec["source"] == "uniform":
        return uniform_subcarrier_policy(sc.system.num_subcarriers)
    return _explicit("subcarrier_policy.probs", validate_subcarrier_policy,
                     sc.subpolicy_spec["probs"])


def resolve_plan(sc: ScenarioConfig, policy: SchedulingPolicy) -> BlockingPlan:
    spec = sc.plan_spec
    source = spec["source"]
    if source == "none":
        return empty_plan(sc.system)
    if source == "middle-block":
        return make_middle_block(sc.system, spec.get("target", 0))
    if source == "uniform-subcarrier":
        return make_uniform_subcarrier_block(sc.system)
    if source == "oracle":
        return adversary_oracle(policy, sc.system).plan
    subpolicy = resolve_subpolicy(sc)  # outside build: names its own field

    def build(matrix):
        plan = BlockingPlan(matrix)
        # the optional plan.mode only constrains this input, checked raw
        if (spec.get("mode", "deterministic") == "deterministic"
                and not np.isin(matrix, (0.0, 1.0)).all()):
            raise NonPositiveEntryError(
                "deterministic plans admit only {0, 1} entries")
        check_profile(policy, subpolicy, plan, sc.system)
        return plan
    return _explicit("plan.block_prob", build, spec["block_prob"])


# ===========================================================================
#  Serialization helpers
# ===========================================================================


def _fmt(x) -> str:
    return repr(float(x))


def _vec(values) -> str:
    return "[" + ";".join(_fmt(v) for v in values) + "]"


def serialize_strategy(obj) -> str:
    """Compact single-cell text form of a policy, plan, or witness."""
    if obj is None:
        return ""
    if isinstance(obj, SchedulingPolicy):
        return "p=" + _vec(obj.probs)
    if isinstance(obj, SubcarrierPolicy):
        return "q=" + _vec(obj.probs)
    if isinstance(obj, BlockingPlan):
        rows, cols = np.nonzero(obj.block_prob)  # row by row, slots ascending
        cells = [f"{r}:{t}={_fmt(v)}" for r, t, v in zip(
            rows.tolist(), cols.tolist(), obj.block_prob[rows, cols].tolist())]
        mode = "deterministic" if obj.is_deterministic else "randomized"
        return f"plan[{mode}]{{{'|'.join(cells)}}}"
    if isinstance(obj, tuple):
        return "&".join(serialize_strategy(o) for o in obj)
    if isinstance(obj, DeviationWitness):
        return (f"{obj.player}: {obj.description}; "
                f"payoff {_fmt(obj.payoff_before)}->{_fmt(obj.payoff_after)}; "
                f"{serialize_strategy(obj.strategy)}")
    return str(obj)


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_trajectories_csv(path, series):
    """One `user,slot,repr(age)` line per user-slot, one write per user.

    The bytes are those csv.writer gives for these rows.  A row's reprs are
    taken once per run of equal ages (ages settle within a few hundred
    slots) and once per distinct value; equal floats share a repr here
    because every age is >= 1, so 0.0 and -0.0 never meet.
    """
    horizon = series.horizon
    parts = [""] * (3 * horizon)  # user, ",slot,", "age\n" for every slot
    parts[1::3] = [f",{t}," for t in range(1, horizon + 1)]
    memo = {}
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("user,slot,expected_age\n")
        for user, row in enumerate(series.per_user):
            starts = np.flatnonzero(np.r_[True, row[1:] != row[:-1]])
            texts = []
            for age in row[starts].tolist():
                text = memo.get(age)
                if text is None:
                    text = memo[age] = f"{age!r}\n"
                texts.append(text)
            parts[0::3] = [str(user)] * horizon
            parts[2::3] = np.repeat(np.array(texts, dtype=object),
                                    np.diff(starts, append=horizon)).tolist()
            fh.write("".join(parts))


def write_sim_csv(path, result):
    _write_csv(path, ("runs", "mean", "std_error", "seed"),
               [(result.runs, _fmt(result.mean_system_age),
                 _fmt(result.std_error), result.seed)])


def write_equilibrium_csv(path, rows):
    """rows: iterable of (kind, holds-or-None, payoff, witness-text)."""
    out = []
    for kind, holds, payoff, witness in rows:
        holds_txt = "" if holds is None else str(bool(holds)).lower()
        out.append((kind, holds_txt, _fmt(payoff), witness))
    _write_csv(path, ("kind", "holds", "payoff", "witness-serialized"), out)


def write_dynamics_csv(path, trace):
    rows = [(s.iteration, s.blocked_user, _vec(s.policy.probs), _fmt(s.payoff))
            for s in trace]
    _write_csv(path, ("iteration", "blocked_user", "p_vector", "payoff"), rows)


# ===========================================================================
#  Experiments
# ===========================================================================


def _run_exact(sc, out_dir, emit):
    policy = resolve_policy(sc)
    plan = resolve_plan(sc, policy)
    if sc.model == "diversity":
        series = expected_age_trajectory_diversity(
            policy, resolve_subpolicy(sc), plan, sc.system)
    else:
        series = expected_age_trajectory(policy, plan, sc.system)
    write_trajectories_csv(os.path.join(out_dir, "trajectories.csv"), series)
    emit(f"exact system average age: {series.system_avg:.6f}")
    for i, avg in enumerate(series.per_user_avg):
        emit(f"  user {i}: time-average age {avg:.6f}")


def _run_asymptotic(sc, out_dir, emit):
    policy = resolve_policy(sc)
    system = sc.system
    if sc.model == "diversity":
        per_user = diversity_user_ages(policy, system.alpha,
                                       system.num_subcarriers)
        value = float(np.mean(per_user))
        emit(f"asymptotic diversity system age: {value:.6f}")
    else:
        source = sc.plan_spec["source"]
        per_user = [unblocked_user_age(p) for p in policy.probs]
        if source == "none":
            value = float(np.mean(per_user))
            emit(f"asymptotic system age (no blocking): {value:.6f}")
        elif source == "middle-block":
            target = sc.plan_spec.get("target", 0)
            value = system_age_no_diversity(
                policy, target, system.alpha, system.horizon_T)
            reduced = reduced_objective(
                policy, target, system.alpha, system.horizon_T)
            per_user[target] = blocked_user_age(
                policy.probs[target], system.alpha, system.horizon_T)
            emit(f"asymptotic system age (user {target} blocked): {value:.6f}")
            emit(f"reduced payoff: {reduced:.6f}")
        else:
            raise ScenarioValidationError(
                "field 'plan.source': asymptotic formulas cover 'none' and "
                f"'middle-block' plans, not {source!r}")
    rows = [(i, _fmt(v)) for i, v in enumerate(per_user)]
    _write_csv(os.path.join(out_dir, "asymptotic.csv"),
               ("user", "asymptotic_age"), rows)


def _run_montecarlo(sc, out_dir, emit):
    policy = resolve_policy(sc)
    plan = resolve_plan(sc, policy)
    exp = sc.experiment
    sim = estimate_average_age(policy, resolve_subpolicy(sc), plan, sc.system,
                               exp["runs"], exp["seed"])
    write_sim_csv(os.path.join(out_dir, "sim.csv"), sim)
    emit(f"simulated mean system age: {sim.mean_system_age:.6f} "
         f"(std error {sim.std_error:.2e}, {sim.runs} runs, seed {sim.seed})")


def _run_best_response(sc, out_dir, emit):
    policy = resolve_policy(sc)
    rows = []
    adv = adversary_best_response(policy, sc.system)
    rows.append(("adversary-best-response", None, adv.payoff,
                 f"target={adv.target}; " + serialize_strategy(adv.plan)))
    emit(f"adversary best response: middle-block user {adv.target}, "
         f"reduced payoff {adv.payoff:.6f}")
    plan = resolve_plan(sc, policy)
    weights = 1.0 + plan.block_prob.sum(axis=1) / sc.system.horizon_T
    bs = numeric_simplex_minimizer(weights)
    bs_payoff = float(np.sum(weights / bs.probs))
    rows.append(("bs-best-response", None, bs_payoff, serialize_strategy(bs)))
    emit(f"base-station best response to the plan: {np.array2string(bs.probs, precision=6)}")
    write_equilibrium_csv(os.path.join(out_dir, "equilibrium.csv"), rows)


def _run_oracle(sc, out_dir, emit):
    policy = resolve_policy(sc)
    oracle = adversary_oracle(policy, sc.system)
    structured = adversary_best_response(policy, sc.system)
    structured_exact = expected_age_trajectory(
        policy, structured.plan, sc.system).system_avg
    gap = oracle.payoff - structured_exact
    rows = [
        ("oracle-max", None, oracle.payoff, serialize_strategy(oracle.plan)),
        ("structured-exact", None, structured_exact,
         f"target={structured.target}; gap={_fmt(gap)}"),
    ]
    write_equilibrium_csv(os.path.join(out_dir, "equilibrium.csv"), rows)
    emit(f"oracle max exact age: {oracle.payoff:.9f} "
         f"({len(oracle.tied_actions)} tied maximizer(s))")
    emit(f"structured middle-block exact age: {structured_exact:.9f}")
    emit(f"gap (oracle - structured): {gap:.3e}")


def _run_br_dynamics(sc, out_dir, emit):
    exp = sc.experiment
    report = best_response_dynamics(
        sc.system.num_users, sc.system.alpha, sc.system.horizon_T,
        exp["iterations"])
    write_dynamics_csv(os.path.join(out_dir, "dynamics.csv"), report.trace)
    targets = [s.blocked_user for s in report.trace]
    emit(f"blocked-user sequence: {targets}")
    emit("simultaneous fixed point reached: "
         + ("yes" if report.holds else "no"))


def _run_stackelberg(sc, out_dir, emit):
    exp = sc.experiment
    leader, plan, payoff = stackelberg_equilibrium(
        sc.system.num_users, sc.system.alpha, sc.system.horizon_T,
        target=exp["target"], certify_samples=exp["certify_samples"],
        seed=exp["seed"])
    write_equilibrium_csv(
        os.path.join(out_dir, "equilibrium.csv"),
        [("stackelberg", None, payoff,
          serialize_strategy(leader) + "&" + serialize_strategy(plan))])
    emit(f"leader policy: {np.array2string(leader.probs, precision=6)}")
    emit(f"leader reduced payoff: {payoff:.6f}")


def _run_nash_verify(sc, out_dir, emit):
    policy = resolve_policy(sc)
    plan = resolve_plan(sc, policy)
    exp = sc.experiment
    if sc.model == "diversity":
        report = verify_diversity_nash(
            (policy, resolve_subpolicy(sc), plan), sc.system,
            exp["bs_samples"], exp["adv_samples"], seed=exp["seed"])
    else:
        report = is_nash_no_diversity(policy, plan, sc.system)
    write_equilibrium_csv(
        os.path.join(out_dir, "equilibrium.csv"),
        [(report.kind, report.holds, report.payoff,
          serialize_strategy(report.witness))])
    emit(f"equilibrium check ({report.kind}): "
         + ("holds" if report.holds else "fails"))
    if report.witness is not None:
        emit("witness: " + serialize_strategy(report.witness))


# ===========================================================================
#  Experiment registry and orchestration
# ===========================================================================


class Field(NamedTuple):
    """One experiment-block field: check(field, value, system) -> value."""

    check: Callable
    default: object
    required: bool = False  # a file `experiment` block must give it


class Experiment(NamedTuple):
    """What the CLI knows about one experiment."""

    command: str  # subcommand name
    run: Callable  # run(sc, out_dir, emit)
    models: tuple = ("no-diversity", "diversity")
    fields: dict = {}  # experiment-block key -> Field


def _count(minimum):
    return lambda field, value, system: _require_int(field, value, minimum)


def _user_index(field, value, system):
    return _require_int(field, value, 0, system.num_users - 1)


_NO_DIVERSITY = ("no-diversity",)
_SEED = Field(_count(0), 0)
_SAMPLES = Field(_count(0), 500)

# experiment name -> entry; argparse lists the subcommands in this order
REGISTRY = {
    "exact": Experiment("exact", _run_exact),
    "asymptotic": Experiment("asymptotic", _run_asymptotic),
    "montecarlo": Experiment("simulate", _run_montecarlo, fields={
        "runs": Field(_count(2), 1000, required=True), "seed": _SEED}),
    "best-response": Experiment("best-response", _run_best_response,
                                _NO_DIVERSITY),
    "oracle": Experiment("oracle", _run_oracle, _NO_DIVERSITY),
    "br-dynamics": Experiment("br-dynamics", _run_br_dynamics, _NO_DIVERSITY,
                              {"iterations": Field(_count(2), 20)}),
    "stackelberg": Experiment("stackelberg", _run_stackelberg, _NO_DIVERSITY,
                              {"target": Field(_user_index, 0),
                               "certify_samples": Field(_count(1), 200),
                               "seed": _SEED}),
    "nash-verify": Experiment("nash-verify", _run_nash_verify, fields={
        "bs_samples": _SAMPLES, "adv_samples": _SAMPLES, "seed": _SEED}),
}


def run_scenario(path: str, out_dir: str | None = None,
                 seed_override: int | None = None, quiet: bool = False,
                 experiment: str | None = None) -> int:
    """Execute a scenario file; returns the process exit code.

    `experiment` (from the subcommand) must agree with the file's experiment
    name when both are present; either alone suffices.  `seed_override`
    replaces the seed of experiments that have one, after scenario.json.
    """
    def emit(line):
        if not quiet:
            print(line)

    if out_dir is None:
        out_dir = os.environ.get(OUT_DIR_ENV, ".")
    try:
        if seed_override is not None:
            _SEED.check("--seed-override", seed_override, None)
        sc = parse_scenario(path)
        name = sc.experiment["name"] if sc.experiment else None
        if experiment is not None and name not in (None, experiment):
            _fail("experiment.name", f"file says {name!r} but the "
                  f"subcommand runs {experiment!r}")
        if name is None:
            if experiment is None:
                _fail("experiment.name", "missing (no subcommand context)")
            sc = replace(sc, experiment=_validate_experiment(
                {"name": experiment}, sc.model, sc.system, in_file=False))
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "scenario.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(scenario_to_dict(sc), fh, indent=2, sort_keys=True)
            fh.write("\n")
        if seed_override is not None and "seed" in sc.experiment:
            sc = replace(sc, experiment={**sc.experiment,
                                         "seed": seed_override})
        REGISTRY[sc.experiment["name"]].run(sc, out_dir, emit)
    except (ScenarioParseError, ScenarioValidationError) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except (AoijamError, OSError, ValueError, MemoryError) as exc:
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="aoijam",
        description="Age-of-information scheduling under an adversarial "
                    "jammer: exact/asymptotic ages, simulation, best "
                    "responses, and equilibrium analysis.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, entry in REGISTRY.items():
        p = sub.add_parser(entry.command)
        p.set_defaults(experiment=name)
        p.add_argument("--config", required=True,
                       help="path to the scenario JSON file")
        p.add_argument("--out-dir", default=None,
                       help=f"output directory (default: ${OUT_DIR_ENV} or .)")
        p.add_argument("--seed-override", type=int, default=None,
                       help="replace the experiment's seed (an integer >= 0)")
        p.add_argument("--quiet", action="store_true",
                       help="suppress the stdout summary")
    args = parser.parse_args(argv)
    return run_scenario(args.config, out_dir=args.out_dir,
                        seed_override=args.seed_override, quiet=args.quiet,
                        experiment=args.experiment)


if __name__ == "__main__":
    sys.exit(main())
