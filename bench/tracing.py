"""Span tracing around aoijam's public functions, and per-layer metrics.

install() wraps every public function of the seven layer modules in every
aoijam module namespace that bound it by name (`cli` and `equilibrium`
import `expected_age_trajectory*` themselves, `age_exact` imports
`blocking_feasible`, ...), so each call made through any of those names
opens a span.  `montecarlo.simulate_run` is patched in its own module, so
every Monte Carlo run gets a span.  Classes are not wrapped: a wrapped
`BlockingPlan` would break `isinstance` in `cli.serialize_strategy`, which
means dense plans built inside `equilibrium` count as `equilibrium` self
time.

Spans are kept in memory as [name, layer, start_ns, end_ns, parent] and
written out when the run ends.  A layer's self time is its spans' time minus
the time of their child spans.

Which end-to-end metric each layer's metrics should move, and where:
  cli            exact_s, export_rows_per_s on trajectory-export only
  model          simulate_s on mc-estimate (blocking_feasible once per run),
                 peak_rss_mb on trajectory-export (dense plans)
  age_exact      nash_verify_s on game-audit; exact_s on trajectory-export
                 only by its share; nothing on mc-estimate
  age_asymptotic stackelberg_s on game-audit
  montecarlo     simulate_s, mc_runs_per_s on mc-estimate only
  best_response  oracle_s, best_response_s on game-audit
  equilibrium    nash_verify_s, stackelberg_s on game-audit
"""

import functools
import gzip
import inspect
import json
import os
import sys
import time
from collections import defaultdict

LAYERS = ("model", "age_exact", "age_asymptotic", "montecarlo",
          "best_response", "equilibrium", "cli")


def _write_rows(args, result):
    """(data rows, bytes) of a cli.write_*_csv call."""
    if "series" in args:
        rows = args["series"].num_users * args["series"].horizon
    elif "result" in args:
        rows = 1
    else:
        rows = len(args["rows"] if "rows" in args else args["trace"])
    return rows, os.path.getsize(args["path"])


def _plan_bytes(args, result):
    return result.block_prob.nbytes


def _user_slots(args, result):
    return result.per_user.size


def _oracle_plans(args, result):
    from aoijam.best_response import oracle_plan_count

    count = inspect.unwrap(oracle_plan_count)
    config = args["config"]
    return count(args["policy"].n, config.horizon_T, config.budget_B)


# span name -> what the span's call did, read from its arguments and result
_MEASURES = {
    "cli.write_trajectories_csv": _write_rows,
    "cli.write_sim_csv": _write_rows,
    "cli.write_equilibrium_csv": _write_rows,
    "cli.write_dynamics_csv": _write_rows,
    "model.make_middle_block": _plan_bytes,
    "model.make_uniform_subcarrier_block": _plan_bytes,
    "model.empty_plan": _plan_bytes,
    "age_exact.expected_age_trajectory": _user_slots,
    "age_exact.expected_age_trajectory_diversity": _user_slots,
    "best_response.adversary_oracle": _oracle_plans,
}

_PLAN_BUILDS = ("model.make_middle_block",
                "model.make_uniform_subcarrier_block", "model.empty_plan")
_DESCENT = ("best_response.numeric_simplex_minimizer",
            "best_response.ordered_kkt_solver")
_NASH_CHECKS = ("equilibrium.verify_diversity_nash",
                "equilibrium.is_nash_no_diversity")
_STACKELBERG = "equilibrium.stackelberg_equilibrium"


class Tracer:
    """Records a span for every call of a wrapped aoijam function."""

    def __init__(self):
        self.spans = []  # [name, layer, start_ns, end_ns, parent index]
        self.extras = {}  # span index -> measure of that call
        self._stack = []
        self._patched = []

    def _wrap(self, fn, name, layer):
        spans, extras, stack = self.spans, self.extras, self._stack
        now = time.perf_counter_ns
        measure = _MEASURES.get(name)
        signature = inspect.signature(fn) if measure else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            span = [name, layer, 0, 0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(sid)
            span[2] = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = now()
                stack.pop()
            if measure is not None:
                extras[sid] = measure(
                    signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def install(self):
        """Wrap the public functions in every loaded aoijam namespace."""
        layer_modules = {f"aoijam.{layer}": layer for layer in LAYERS}
        wrappers = {}
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "aoijam" or n.startswith("aoijam.")]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or value.__module__ not in layer_modules):
                    continue
                if value not in wrappers:
                    layer = layer_modules[value.__module__]
                    wrappers[value] = self._wrap(
                        value, f"{layer}.{value.__name__}", layer)
                self._patched.append((module, attr, value))
                setattr(module, attr, wrappers[value])

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path: str, meta: dict):
        """Write every span as one JSON line after a header line."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({**meta, "fields": [
                "id", "name", "start_ns", "end_ns", "parent"]}) + "\n")
            for sid, (name, _, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps([sid, name, start, end, parent]) + "\n")

    def layer_metrics(self, first: int, speed: float) -> dict:
        """Per-layer metrics over the spans recorded since index `first`,
        times scaled to reference seconds by `speed`."""
        spans, extras = self.spans, self.extras
        stop = len(spans)
        child_ns = defaultdict(int)
        for name, layer, start, end, parent in spans[first:stop]:
            if parent >= 0:
                child_ns[parent] += end - start
        watched = {}  # span index -> child-name counts, for audit spans
        self_ns = dict.fromkeys(LAYERS, 0)
        calls = dict.fromkeys(LAYERS, 0)
        total_ns = defaultdict(int)  # name -> inclusive time of its spans
        count = defaultdict(int)
        extra = defaultdict(int)
        write_rows = write_bytes = 0
        for sid in range(first, stop):
            name, layer, start, end, parent = spans[sid]
            self_ns[layer] += end - start - child_ns[sid]
            if parent < 0 or spans[parent][1] != layer:
                calls[layer] += 1
            total_ns[name] += end - start
            count[name] += 1
            if name in _NASH_CHECKS or name == _STACKELBERG:
                watched[sid] = defaultdict(int)
            if parent in watched:
                watched[parent][name] += 1
            if sid in extras:
                if name.startswith("cli.write_"):
                    write_rows += extras[sid][0]
                    write_bytes += extras[sid][1]
                else:
                    extra[name] += extras[sid]

        deviations = certify = 0
        nash_ns = stackelberg_ns = 0
        for sid, children in watched.items():
            name, _, start, end, _ = spans[sid]
            if name == _STACKELBERG:
                certify += children["equilibrium.follower_aware_payoff"]
                stackelberg_ns += end - start
                continue
            nash_ns += end - start
            if name == "equilibrium.verify_diversity_nash":
                # one pricing of the candidate per side; the rest deviate
                deviations += (
                    max(children["age_asymptotic.diversity_system_age"] - 1, 0)
                    + max(children[
                        "age_exact.expected_age_trajectory_diversity"] - 1, 0))
            else:
                deviations += (children["model.make_middle_block"]
                               + children[
                                   "best_response.numeric_simplex_minimizer"])

        def secs(ns):
            return ns * speed / 1e9

        def ratio(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        write_s = secs(sum(total_ns[n] for n in total_ns
                           if n.startswith("cli.write_")))
        user_slots = (extra["age_exact.expected_age_trajectory"]
                      + extra["age_exact.expected_age_trajectory_diversity"])
        runs = count["montecarlo.simulate_run"]
        oracle_plans = extra["best_response.adversary_oracle"]
        oracle_s = secs(total_ns["best_response.adversary_oracle"])
        out = {
            "cli.parse_s": secs(total_ns["cli.parse_scenario"]),
            "cli.write_s": write_s,
            "cli.write_rows": write_rows,
            "cli.write_bytes": write_bytes,
            "cli.write_rows_per_s": ratio(write_rows, write_s),
            "model.plan_builds": sum(count[n] for n in _PLAN_BUILDS),
            "model.plan_build_s": secs(sum(total_ns[n] for n in _PLAN_BUILDS)),
            "model.feasible_calls": count["model.blocking_feasible"],
            "model.feasible_s": secs(total_ns["model.blocking_feasible"]),
            "model.plan_bytes_computed": sum(extra[n] for n in _PLAN_BUILDS),
            "age_exact.calls": calls["age_exact"],
            "age_exact.user_slots": user_slots,
            "age_exact.ns_per_user_slot": ratio(
                secs(self_ns["age_exact"]), user_slots, 1e9),
            "age_asymptotic.calls": calls["age_asymptotic"],
            "montecarlo.runs": runs,
            "montecarlo.us_per_run": ratio(
                secs(self_ns["montecarlo"]), runs, 1e6),
            "best_response.oracle_plans": oracle_plans,
            "best_response.oracle_s": oracle_s,
            "best_response.oracle_us_per_plan": ratio(
                oracle_s, oracle_plans, 1e6),
            "best_response.descent_calls": sum(count[n] for n in _DESCENT),
            "best_response.descent_s": secs(
                sum(total_ns[n] for n in _DESCENT)),
            "equilibrium.deviations": deviations,
            "equilibrium.us_per_deviation": ratio(
                secs(nash_ns), deviations, 1e6),
            "equilibrium.certify_samples": certify,
            "equilibrium.us_per_certify_sample": ratio(
                secs(stackelberg_ns), certify, 1e6),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = secs(self_ns[layer])
        return out
