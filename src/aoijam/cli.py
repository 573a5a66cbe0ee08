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
Each strategy source is one SOURCES entry under its section: its builder,
the keys it reads (validator and default), the models it admits and those
whose asymptotic closed forms cover it.

Exit codes: 0 success, 2 invalid scenario, 3 runtime error or out of memory.
"""

import argparse
import csv
import functools
import json
import os
import sys
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .age_asymptotic import (
    _diversity_ages,
    _middle_block_payoff,
    _reduced_payoff,
    _warn_if_small_horizon,
    unblocked_user_age,
)
from .age_exact import (
    expected_age_trajectory,
    expected_age_trajectory_diversity,
)
from .best_response import (
    _plan_reply,
    adversary_best_response,
    adversary_oracle,
    counter_block_policy,
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
MODELS = ("no-diversity", "diversity")
_NO_DIVERSITY, _DIVERSITY = MODELS[:1], MODELS[1:]


@dataclass(frozen=True)
class ScenarioConfig:
    """A parsed, validated scenario: everything an experiment needs.  A
    strategy section holds its spec, None in a model without the section."""

    model: str  # "no-diversity" | "diversity"
    system: SystemConfig
    policy: dict
    subcarrier_policy: dict | None
    plan: dict
    experiment: dict


# ===========================================================================
#  Parsing and validation
# ===========================================================================


def _fail(field: str, problem: str):
    raise ScenarioValidationError(f"field {field!r}: {problem}")


class Field(NamedTuple):
    """One key of a scenario object: check(field, value, system) -> value."""

    check: Callable
    default: object
    required: bool = False  # a file `experiment` block must give it


def _int(minimum, size=None):
    """A check of an integer >= minimum and, if `size` names a system
    attribute, below it."""
    def check(field, value, system):
        if not isinstance(value, int) or isinstance(value, bool):
            _fail(field, f"expected an integer, got {value!r}")
        if value < minimum:
            _fail(field, f"must be >= {minimum}, got {value}")
        if size is not None and value >= getattr(system, size):
            _fail(field, f"must be <= {getattr(system, size) - 1}, got {value}")
        return value
    return check


def _need(ok, problem):
    """A check that fails with `problem`, formatted with the value and the
    system, unless ok(value, system)."""
    def check(field, value, system):
        if not ok(value, system):
            _fail(field, problem.format(value=value, system=system))
        return value
    return check


def _vector(size):
    """A list as long as the system's `size` attribute (entries: build)."""
    return _need(lambda value, system: isinstance(value, list)
                 and len(value) == getattr(system, size),
                 f"need a list of {{system.{size}}} numbers")


# the `system` object's keys in check order; no integer lies in (0, 1)
_SYSTEM = {
    "horizon_T": Field(_int(1), None),
    "num_users": Field(_int(1), None),
    "alpha": Field(_need(lambda value, _: isinstance(value, float)
                         and 0.0 < value < 1.0,
                         "must be a number in (0, 1), got {value!r}"), None),
    "num_subcarriers": Field(_int(1), 1),
}


def _check_fields(section, obj, head_key, fields, system, in_file=True):
    """Reject any key of `obj` but `head_key` and `fields`, then return each
    field's checked value (its default when missing)."""
    for key in obj:
        if key != head_key and key not in fields:
            _fail(f"{section}.{key}", "unknown field")
    out = {}
    for key, spec in fields.items():
        field = f"{section}.{key}"
        if in_file and spec.required and key not in obj:
            _fail(field, "required in an experiment block")
        out[key] = spec.check(field, obj.get(key, spec.default), system)
    return out


def scenario_from_dict(raw: dict) -> ScenarioConfig:
    """Validate a decoded JSON document into a ScenarioConfig."""
    if not isinstance(raw, dict):
        raise ScenarioValidationError("top level must be a JSON object")
    for key in raw:
        if key not in ("schema_version", "model", "system", *SOURCES,
                       "experiment"):
            _fail(key, "unknown field")
    version = raw.get("schema_version")
    if version != SCHEMA_VERSION:
        _fail("schema_version", f"must be {SCHEMA_VERSION}, got {version!r}")

    model = raw.get("model", "no-diversity")
    if model not in MODELS:
        _fail("model", f"must be 'no-diversity' or 'diversity', got {model!r}")

    system_raw = raw.get("system")
    if not isinstance(system_raw, dict):
        _fail("system", "required object is missing")
    system = SystemConfig(
        **_check_fields("system", system_raw, None, _SYSTEM, None))
    if model == "diversity" and system.num_subcarriers < 2:
        _fail("system.num_subcarriers", "diversity model needs >= 2")
    if model == "no-diversity" and system.num_subcarriers != 1:
        _fail("system.num_subcarriers", "no-diversity model needs exactly 1")

    specs = {}
    for section, sources in SOURCES.items():
        # a missing section takes its first source, and exists in the
        # models that source admits; null counts as missing only in a
        # section that some model lacks
        first = next(iter(sources))
        admits = sources[first].models
        spec = raw.get(section)
        if section not in raw or (spec is None and admits != MODELS):
            specs[section] = {"source": first} if model in admits else None
            continue
        if model not in admits:
            _fail(section, f"only valid in the {' or '.join(admits)} model")
        if not isinstance(spec, dict):
            _fail(section, "must be an object")
        name = spec.get("source")
        if not isinstance(name, str) or name not in sources:
            _fail(f"{section}.source",
                  f"must be one of {tuple(sources)}, got {name!r}")
        _check_fields(section, spec, "source", sources[name].keys, system)
        if model not in sources[name].models:
            _fail(f"{section}.source", f"{name!r} needs the "
                  f"{' or '.join(sources[name].models)} model")
        specs[section] = spec

    experiment = raw.get("experiment")
    if experiment is not None:
        experiment = _validate_experiment(experiment, model, system)

    return ScenarioConfig(model=model, system=system, experiment=experiment,
                          **specs)


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
    return {"name": name, **_check_fields(
        "experiment", exp, "name", REGISTRY[name].fields, system, in_file)}


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
        "system": {key: getattr(sc.system, key) for key in _SYSTEM},
    }
    for section in (*SOURCES, "experiment"):
        if getattr(sc, section) is not None:
            out[section] = dict(getattr(sc, section))
    return out


# ===========================================================================
#  Strategy sources
# ===========================================================================


class Source(NamedTuple):
    """One way a scenario section names its strategy."""

    build: Callable  # build(sc, spec with defaults, policy) -> strategy
    keys: dict = {}  # key the source reads besides "source" -> Field
    models: tuple = MODELS  # the models that admit the source
    asymptotic: tuple = ()  # the models whose closed forms cover the plan


def _explicit(field: str, build, raw):
    """build(raw as a float array); an entry that is no number, one past
    the float range or a model ValueError names `field`."""
    _check_numbers(field, raw)
    try:
        return build(np.asarray(raw, dtype=float))
    except (TypeError, ValueError, OverflowError) as exc:
        _fail(field, str(exc))


def _check_numbers(field: str, raw: list):
    """Fail `field` at an entry of the nested lists `raw` that is not a
    JSON int or float: a bool or a numeric string is no number."""
    for entry in raw:
        if isinstance(entry, list):
            _check_numbers(field, entry)
        elif isinstance(entry, bool) or not isinstance(entry, (int, float)):
            _fail(field, f"could not convert {entry!r} to a number")


def _explicit_plan(sc, spec, policy) -> BlockingPlan:
    subpolicy = resolve(sc, "subcarrier_policy")  # names its own field

    def build(matrix):
        plan = BlockingPlan(matrix)
        # the optional plan.mode only constrains this input, checked raw
        if (spec["mode"] == "deterministic"
                and not np.isin(matrix, (0.0, 1.0)).all()):
            raise NonPositiveEntryError(
                "deterministic plans admit only {0, 1} entries")
        check_profile(policy, subpolicy, plan, sc.system)
        return plan
    return _explicit("plan.block_prob", build, spec["block_prob"])


# section -> source name -> entry; a section's first source is its default
SOURCES = {
    "policy": {
        "uniform": Source(lambda sc, *_: uniform_policy(sc.system.num_users)),
        "explicit": Source(
            lambda sc, spec, _: _explicit("policy.probs", validate_policy,
                                          spec["probs"]),
            {"probs": Field(_vector("num_users"), None)}),
        "counter-block": Source(
            lambda sc, spec, _: counter_block_policy(sc.system,
                                                     spec["target"]),
            {"target": Field(_int(0, "num_users"), 0)},
            models=_NO_DIVERSITY),
    },
    "subcarrier_policy": {
        "uniform": Source(lambda sc, *_: uniform_subcarrier_policy(
            sc.system.num_subcarriers), models=_DIVERSITY),
        "explicit": Source(
            lambda sc, spec, _: _explicit("subcarrier_policy.probs",
                                          validate_subcarrier_policy,
                                          spec["probs"]),
            {"probs": Field(_vector("num_subcarriers"), None)}, _DIVERSITY),
    },
    "plan": {
        "none": Source(lambda sc, *_: empty_plan(sc.system),
                       asymptotic=MODELS),
        # a user index without diversity, a sub-carrier index with it
        "middle-block": Source(
            lambda sc, spec, _: make_middle_block(sc.system, spec["target"]),
            {"target": Field(_int(0, "num_channels"), 0)},
            asymptotic=_NO_DIVERSITY),
        "uniform-subcarrier": Source(
            lambda sc, *_: make_uniform_subcarrier_block(sc.system),
            models=_DIVERSITY, asymptotic=_DIVERSITY),
        "explicit": Source(_explicit_plan, {
            "block_prob": Field(_need(lambda value, _: isinstance(value, list),
                                      "need a channels x T matrix"), None),
            "mode": Field(_need(
                lambda value, _: value in ("deterministic", "randomized"),
                "must be 'deterministic' or 'randomized'"), "deterministic")}),
        "oracle": Source(
            lambda sc, _, policy: adversary_oracle(policy, sc.system).plan,
            models=_NO_DIVERSITY),
    },
}


def _spec(sc: ScenarioConfig, section: str) -> dict:
    """`sc`'s spec for `section`, missing keys set to their defaults."""
    spec = getattr(sc, section)
    keys = SOURCES[section][spec["source"]].keys
    return {**{key: field.default for key, field in keys.items()}, **spec}


def resolve(sc: ScenarioConfig, section: str, policy=None):
    """The strategy `sc` names for `section`, None in a model without the
    section; a plan is built against the scheduling `policy`."""
    if getattr(sc, section) is None:
        return None
    spec = _spec(sc, section)
    return SOURCES[section][spec["source"]].build(sc, spec, policy)


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
        m, horizon = obj.block_prob, obj.horizon
        at = np.flatnonzero(m != 0.0)  # row by row, slots ascending
        texts = {}  # value -> repr, once per distinct value
        cells = []
        for k, v in zip(at.tolist(), m.ravel()[at].tolist()):
            if v not in texts:
                texts[v] = _fmt(v)
            r, t = divmod(k, horizon)
            cells.append(f"{r}:{t}={texts[v]}")
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


# a run of at least this many equal ages, or a ramp of at least this many
# ages each exactly 1.0 above the last, is written as numpy byte blocks;
# about where one block per run starts to beat str.join per slot
SETTLED_RUN = 64


def _slot_digits(width, horizon):
    """The ASCII digits of slots 10**(width-1) .. min(10**width - 1, horizon),
    one slot per column of a (width, count) uint8 matrix.

    In order, those slots are lead digit 1, 2, ... each followed by every
    (width-1)-digit suffix, so digit k's ten characters are broadcast
    along axis k of a (lead, 10, ..., 10) grid, which is then cut to the
    count.
    """
    first = 10 ** (width - 1)
    count = min(10 * first - 1, horizon) - first + 1
    lead = -(-count // first)  # lead digits 1..lead cover the count
    grid = np.empty((width, lead) + (10,) * (width - 1), dtype=np.uint8)
    grid[0] = np.arange(49, 49 + lead, dtype=np.uint8).reshape(
        (lead,) + (1,) * (width - 1))
    for k in range(1, width):
        grid[k] = np.arange(48, 58, dtype=np.uint8).reshape(
            (1,) * k + (10,) + (1,) * (width - 1 - k))
    return grid.reshape(width, -1)[:, :count]


def _digits(slot_digits, lo, hi):
    """The digits of lo..hi, integers of one width, one integer per row."""
    first = 10 ** (len(str(lo)) - 1)
    return slot_digits(len(str(lo)))[:, lo - first:hi - first + 1].T


def _line_blocks(user_text, age_text, step, a, b, slot_digits):
    """The lines of slots a+1..b as uint8 blocks: the line template tiled,
    then the digit columns copied from the `slot_digits(width)` tables.

    With step 0 every line holds `age_text`.  With step 1 that is slot
    a+1's age and each later age is 1.0 more: its integer part (at most
    the horizon, so the slot tables hold it) is copied in, its fraction
    digits stay.  A block ends where the slot's or the age integer's digit
    width changes.
    """
    col = len(user_text) + 1
    head = age_text[:age_text.index(".")] if step else ""
    tail = age_text[len(head):]
    lift = int(head) - a - 1 if step else 0  # slot s's age integer: s + lift
    s = a + 1
    while s <= b:
        width, age_width = len(str(s)), 0
        hi = min(b, 10 ** width - 1)
        if step:
            age_width = len(str(s + lift))
            hi = min(hi, 10 ** age_width - 1 - lift)
        line = np.frombuffer(
            f"{user_text},{'0' * width},{'0' * age_width}{tail}".encode(),
            dtype=np.uint8)
        block = np.tile(line, hi - s + 1).reshape(hi - s + 1, line.size)
        block[:, col:col + width] = _digits(slot_digits, s, hi)
        if step:
            at = col + width + 1
            block[:, at:at + age_width] = _digits(
                slot_digits, s + lift, hi + lift)
        yield block.data
        s = hi + 1


def write_trajectories_csv(path, series):
    """One `user,slot,repr(age)` line per user-slot, written user by user.

    The bytes are those csv.writer gives for these rows.  A row is cut
    into runs of equal ages.  Two kinds of stretch are written as numpy
    byte blocks (_line_blocks): a run of at least SETTLED_RUN slots (ages
    settle within a few hundred slots), and a ramp of at least SETTLED_RUN
    one-slot runs, each age exactly 1.0 above the last (a surely blocked
    window), all in one binade, at least 1 and at most the horizon.  The
    rest (an unsettled prefix, a short ramp, every slot of a row at a small
    delivery rate) is joined as str parts, with slot texts built once per
    call for the slots it covers.  Each distinct age outside the ramps and
    each ramp's first age is repr'd once per call; equal floats share a
    repr here because every age is >= 1, so 0.0 and -0.0 never meet.

    A ramp's later texts are computed: repr(x + k) is repr(x) with k added
    to its integer part.  A horizon is far below 2**51, so in the binade of
    an age at most the horizon the gap u between neighbouring floats is at
    most 1/2 and x + k is exact.  The interval of reals that round to
    x + k is then that of x moved by k, and k/u is even, so the significand
    keeps its parity, which decides whether the interval's ends round to
    it.  repr picks the shortest, then closest, decimal in that interval;
    moving the interval by k moves that decimal by k and keeps its
    fraction digits.  (A first age at the bottom of its binade has a
    lopsided interval, but it is a power of two, so it and the ages after
    it are integers, written as `<integer>.0`.)
    """
    ages = series.per_user
    n, horizon = ages.shape
    change = np.ones((n, horizon), dtype=bool)  # slot 1 starts every row
    np.not_equal(ages[:, 1:], ages[:, :-1], out=change[:, 1:])
    starts = np.flatnonzero(change)  # runs, in (user, slot) order
    lengths = np.diff(starts, append=n * horizon)
    values = ages.ravel()[starts]
    # runs i and i + 1 are one-slot steps of one ramp
    linked = ((lengths[:-1] == 1) & (lengths[1:] == 1)
              & (starts[1:] % horizon != 0) & (np.diff(values) == 1.0)
              & (values[:-1] >= 1.0) & (values[1:] <= horizon)
              & (np.frexp(values[:-1])[1] == np.frexp(values[1:])[1]))
    lo, hi = np.flatnonzero(np.diff(
        linked, prepend=False, append=False)).reshape(-1, 2).T
    long = hi - lo + 1 >= SETTLED_RUN
    lo, hi = lo[long], hi[long] + 1  # ramp runs lo..hi-1
    bounds = np.zeros(len(starts) + 1, dtype=np.intp)
    bounds[lo] += 1
    bounds[hi] -= 1
    in_ramp = np.cumsum(bounds[:-1]) > 0
    settled = lengths >= SETTLED_RUN
    need = ~in_ramp  # runs whose text is repr'd: all but the ramp steps
    need[lo] = True
    distinct, which = np.unique(values[need], return_inverse=True)
    texts = np.empty(len(starts), dtype=object)
    texts[need] = np.array([f"{v!r}\n" for v in distinct.tolist()],
                           dtype=object)[which]
    # each block's (first run, end run, step), in run order
    settled_runs = np.flatnonzero(settled)
    blocks = np.concatenate([
        np.stack([settled_runs, settled_runs + 1,
                  np.zeros_like(settled_runs)], axis=1),
        np.stack([lo, hi, np.ones_like(lo)], axis=1)])
    blocks = blocks[np.argsort(blocks[:, 0])]
    row_runs = np.searchsorted(starts, np.arange(n + 1) * horizon)
    row_blocks = np.split(blocks, np.searchsorted(blocks[:, 0],
                                                  row_runs[1:-1]))
    parts = [""] * (3 * horizon)  # user, ",slot,", "age\n" for every slot
    short = np.repeat(~(settled | in_ramp), lengths).reshape(
        n, horizon).any(axis=0)
    edges = np.flatnonzero(np.diff(short, prepend=False, append=False))
    for a, b in edges.reshape(-1, 2).tolist():
        parts[3 * a + 1:3 * b:3] = [f",{t}," for t in range(a + 1, b + 1)]
    starts = starts.tolist() + [n * horizon]
    slot_digits = functools.cache(
        functools.partial(_slot_digits, horizon=horizon))
    with open(path, "wb") as fh:
        fh.write(b"user,slot,expected_age\n")
        for user, (k, stop) in enumerate(zip(row_runs[:-1].tolist(),
                                             row_runs[1:].tolist())):
            base, user_text = user * horizon, str(user)
            # each block of runs j..e-1 after the short runs before it, then
            # the short runs after the last one
            for j, e, step in row_blocks[user].tolist() + [[stop, stop, 0]]:
                if k < j:  # runs k..j-1 are short
                    a, b = starts[k] - base, starts[j] - base
                    parts[3 * a:3 * b:3] = [user_text] * (b - a)
                    parts[3 * a + 2:3 * b:3] = np.repeat(
                        texts[k:j], lengths[k:j]).tolist()
                    fh.write("".join(parts[3 * a:3 * b]).encode())
                if j < stop:
                    fh.writelines(_line_blocks(
                        user_text, texts[j], step, starts[j] - base,
                        starts[e] - base, slot_digits))
                k = e


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
    vectors = {}  # probs bytes -> p_vector text, once per distinct policy
    rows = []
    for s in trace:
        key = s.policy.probs.tobytes()
        if key not in vectors:
            vectors[key] = _vec(s.policy.probs)
        rows.append((s.iteration, s.blocked_user, vectors[key],
                     _fmt(s.payoff)))
    _write_csv(path, ("iteration", "blocked_user", "p_vector", "payoff"), rows)


# ===========================================================================
#  Experiments
# ===========================================================================


def _run_exact(sc, out_dir, emit):
    policy = resolve(sc, "policy")
    plan = resolve(sc, "plan", policy)
    if sc.model == "diversity":
        series = expected_age_trajectory_diversity(
            policy, resolve(sc, "subcarrier_policy"), plan, sc.system)
    else:
        series = expected_age_trajectory(policy, plan, sc.system)
    write_trajectories_csv(os.path.join(out_dir, "trajectories.csv"), series)
    emit(f"exact system average age: {series.system_avg:.6f}")
    for i, avg in enumerate(series.per_user_avg):
        emit(f"  user {i}: time-average age {avg:.6f}")


def _run_asymptotic(sc, out_dir, emit):
    policy = resolve(sc, "policy")
    share, T = sc.system.blocked_share, sc.system.horizon_T
    spec = _spec(sc, "plan")
    source = spec["source"]
    if sc.model not in SOURCES["plan"][source].asymptotic:
        covered = tuple(name for name, entry in SOURCES["plan"].items()
                        if sc.model in entry.asymptotic)
        _fail("plan.source", f"asymptotic formulas cover {covered} plans in "
              f"the {sc.model} model, not {source!r}")
    per_user = [unblocked_user_age(p) for p in policy.probs]
    if source == "none":
        value = float(np.mean(per_user))
        emit(f"asymptotic system age (no blocking): {value:.6f}")
    elif source == "uniform-subcarrier":
        per_user = _diversity_ages(policy.probs, share,
                                   sc.system.num_subcarriers)
        value = float(np.mean(per_user))
        emit(f"asymptotic diversity system age: {value:.6f}")
    else:  # middle-block, no-diversity model
        target = spec["target"]
        # the one AsymptoticValidityWarning: T*min(p) covers the target
        _warn_if_small_horizon(T, float(policy.probs.min()))
        value = _middle_block_payoff(policy.probs.tolist(), target, share, T)
        per_user[target] = _reduced_payoff([policy.probs[target]], [share], T)
        emit(f"asymptotic system age (user {target} blocked): {value:.6f}")
    rows = [(i, _fmt(v)) for i, v in enumerate(per_user)]
    _write_csv(os.path.join(out_dir, "asymptotic.csv"),
               ("user", "asymptotic_age"), rows)


def _run_montecarlo(sc, out_dir, emit):
    policy = resolve(sc, "policy")
    plan = resolve(sc, "plan", policy)
    exp = sc.experiment
    sim = estimate_average_age(policy, resolve(sc, "subcarrier_policy"), plan,
                               sc.system, exp["runs"], exp["seed"])
    write_sim_csv(os.path.join(out_dir, "sim.csv"), sim)
    emit(f"simulated mean system age: {sim.mean_system_age:.6f} "
         f"(std error {sim.std_error:.2e}, {sim.runs} runs, seed {sim.seed})")


def _run_best_response(sc, out_dir, emit):
    policy = resolve(sc, "policy")
    adv = adversary_best_response(policy, sc.system)
    emit(f"adversary best response: middle-block user {adv.target}, "
         f"system age {adv.payoff:.6f}")
    bs, bs_payoff = _plan_reply(resolve(sc, "plan", policy), sc.system)
    write_equilibrium_csv(os.path.join(out_dir, "equilibrium.csv"), [
        ("adversary-best-response", None, adv.payoff,
         f"target={adv.target}; " + serialize_strategy(adv.plan)),
        ("bs-best-response", None, bs_payoff, serialize_strategy(bs))])
    emit(lambda: "base-station best response to the plan: "
         + np.array2string(bs.probs, precision=6))


def _run_oracle(sc, out_dir, emit):
    policy = resolve(sc, "policy")
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
    report = best_response_dynamics(sc.system, exp["iterations"])
    write_dynamics_csv(os.path.join(out_dir, "dynamics.csv"), report.trace)
    targets = [s.blocked_user for s in report.trace]
    emit(f"blocked-user sequence: {targets}")
    emit("simultaneous fixed point reached: "
         + ("yes" if report.holds else "no"))


def _run_stackelberg(sc, out_dir, emit):
    exp = sc.experiment
    leader, plan, payoff = stackelberg_equilibrium(
        sc.system, target=exp["target"],
        certify_samples=exp["certify_samples"], seed=exp["seed"])
    write_equilibrium_csv(
        os.path.join(out_dir, "equilibrium.csv"),
        [("stackelberg", None, payoff,
          serialize_strategy(leader) + "&" + serialize_strategy(plan))])
    emit(lambda: "leader policy: "
         + np.array2string(leader.probs, precision=6))
    emit(f"leader system age: {payoff:.6f}")


def _run_nash_verify(sc, out_dir, emit):
    policy = resolve(sc, "policy")
    plan = resolve(sc, "plan", policy)
    exp = sc.experiment
    if sc.model == "diversity":
        report = verify_diversity_nash(
            (policy, resolve(sc, "subcarrier_policy"), plan), sc.system,
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


class Experiment(NamedTuple):
    """What the CLI knows about one experiment."""

    command: str  # subcommand name
    run: Callable  # run(sc, out_dir, emit)
    models: tuple = MODELS
    fields: dict = {}  # experiment-block key -> Field


_SEED = Field(_int(0), 0)
_SAMPLES = Field(_int(1), 500)

# experiment name -> entry; argparse lists the subcommands in this order
REGISTRY = {
    "exact": Experiment("exact", _run_exact),
    "asymptotic": Experiment("asymptotic", _run_asymptotic),
    "montecarlo": Experiment("simulate", _run_montecarlo, fields={
        "runs": Field(_int(2), 1000, required=True), "seed": _SEED}),
    "best-response": Experiment("best-response", _run_best_response,
                                _NO_DIVERSITY),
    "oracle": Experiment("oracle", _run_oracle, _NO_DIVERSITY),
    "br-dynamics": Experiment("br-dynamics", _run_br_dynamics, _NO_DIVERSITY,
                              {"iterations": Field(_int(2), 20)}),
    "stackelberg": Experiment("stackelberg", _run_stackelberg, _NO_DIVERSITY,
                              {"target": Field(_int(0, "num_users"), 0),
                               "certify_samples": Field(_int(1), 200),
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
        """Print a summary line; a callable is called for its line only
        when the line is printed."""
        if not quiet:
            print(line() if callable(line) else line)

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
    except (AoijamError, OSError, ValueError, OverflowError,
            MemoryError) as exc:
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The console script's parser, built once per process: building it
    costs about twenty parses, and parse_args keeps no state between
    calls, so in-process callers of main share one."""
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
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return run_scenario(args.config, out_dir=args.out_dir,
                        seed_override=args.seed_override, quiet=args.quiet,
                        experiment=args.experiment)


if __name__ == "__main__":
    sys.exit(main())
