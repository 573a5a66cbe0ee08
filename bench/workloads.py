"""Seeded workloads: scenario files, reference values and checks.

A workload is a fixed list of CLI calls.  Every input the program receives
is a scenario file written here from the benchmark seed: the policies, the
jammed user, the Monte Carlo seeds and the audit seeds are all drawn from
it.  Reference values for the checks are computed here, once, before the
timed loop starts.

Each workload runs its focus calls at the sizes that stress its layers.  The
benchmark reports every end-to-end metric on every workload, so a workload
that has no focus call for a per-call metric (say `oracle_s` on
trajectory-export) runs that subcommand as a small probe instead: probes
take about a tenth of a workload's time and leave the focus layers dominant.
No focus call takes much more than half a second, so the calibration that
brackets each call (see calibration.py) follows the machine's speed, and a
run repeats the list often enough for its medians to settle.
"""

import json
import os
import zlib
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from aoijam.age_asymptotic import blocked_user_age, unblocked_user_age
from aoijam.age_exact import (
    expected_age_trajectory,
    expected_age_trajectory_diversity,
)
from aoijam.best_response import adversary_best_response
from aoijam.model import (
    SystemConfig,
    make_middle_block,
    make_uniform_subcarrier_block,
    validate_policy,
    validate_subcarrier_policy,
)

import checks

# end-to-end metrics timed per call; each workload has calls for all of them
PER_CALL_METRICS = ("exact_s", "simulate_s", "nash_verify_s", "oracle_s",
                    "stackelberg_s", "best_response_s")
PROBE_REPEATS = 2  # probe calls per iteration, so their medians settle


@dataclass
class Call:
    """One CLI call of a workload iteration and the check of its output."""

    subcommand: str
    config: str
    out_dir: str
    metric: str | None  # per-call metric this call is timed under, if any
    check: Callable[[str], str | None]
    rows: int = 0  # trajectories.csv rows the call writes
    runs: int = 0  # Monte Carlo runs the call simulates

    @property
    def argv(self) -> list[str]:
        return [self.subcommand, "--config", self.config,
                "--out-dir", self.out_dir, "--quiet"]


class _Inputs:
    """Writes scenario files under `work_dir`, one stream of draws per name."""

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir
        os.makedirs(work_dir, exist_ok=True)

    def rng(self, name: str) -> np.random.Generator:
        return np.random.default_rng([self.seed, zlib.crc32(name.encode())])

    def call(self, name, subcommand, scenario, metric, check, **counts):
        out_dir = os.path.join(self.work_dir, name)
        path = os.path.join(self.work_dir, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"schema_version": 1, **scenario}, fh)
        return Call(subcommand, path, out_dir, metric, check, **counts)


def _probs(rng, n: int, floor: float) -> list[float]:
    """A scheduling policy with every entry >= floor."""
    return [float(x) for x in floor + (1 - n * floor) * rng.dirichlet(
        np.ones(n))]


def _system(T, N, alpha, nsub=1):
    out = {"horizon_T": T, "num_users": N, "alpha": alpha}
    if nsub > 1:
        out["num_subcarriers"] = nsub
    return out


# ---------------------------------------------------------------------------
#  Calls
# ---------------------------------------------------------------------------

def exact_no_diversity(inp, name, N, T, alpha, floor):
    """Middle block on a drawn user; floor keeps T*min(p) large enough for the
    closed forms to be within the check's tolerance."""
    rng = inp.rng(name)
    probs = _probs(rng, N, floor)
    target = int(rng.integers(N))
    expected = [unblocked_user_age(p) for p in probs]
    expected[target] = blocked_user_age(probs[target], alpha, T)
    return inp.call(
        name, "exact",
        {"model": "no-diversity", "system": _system(T, N, alpha),
         "policy": {"source": "explicit", "probs": probs},
         "plan": {"source": "middle-block", "target": target}},
        "exact_s", checks.exact_trajectories(N, T, expected), rows=N * T)


def exact_diversity(inp, name, N, nsub, T, alpha, floor):
    rng = inp.rng(name)
    probs = _probs(rng, N, floor)
    q = [float(x) for x in rng.dirichlet(np.ones(nsub))]
    p = np.array(probs)
    # per-user diversity closed form; its mean is diversity_system_age
    expected = (1 - alpha) / p + alpha / (p * (1 - 1 / nsub))
    return inp.call(
        name, "exact",
        {"model": "diversity", "system": _system(T, N, alpha, nsub),
         "policy": {"source": "explicit", "probs": probs},
         "subcarrier_policy": {"source": "explicit", "probs": q},
         "plan": {"source": "uniform-subcarrier"}},
        "exact_s", checks.exact_trajectories(N, T, expected), rows=N * T)


def simulate(inp, name, probs, T, alpha, runs, nsub=1, target=0):
    seed = int(inp.rng(name).integers(2**31))
    policy = validate_policy(probs)
    if nsub > 1:
        config = SystemConfig(T, len(probs), alpha, nsub)
        exact = expected_age_trajectory_diversity(
            policy, validate_subcarrier_policy(np.full(nsub, 1 / nsub)),
            make_uniform_subcarrier_block(config), config).system_avg
        scenario = {"model": "diversity",
                    "system": _system(T, len(probs), alpha, nsub),
                    "plan": {"source": "uniform-subcarrier"}}
    else:
        config = SystemConfig(T, len(probs), alpha)
        exact = expected_age_trajectory(
            policy, make_middle_block(config, target), config).system_avg
        scenario = {"model": "no-diversity",
                    "system": _system(T, len(probs), alpha),
                    "plan": {"source": "middle-block", "target": target}}
    scenario["policy"] = {"source": "explicit", "probs": list(probs)}
    scenario["experiment"] = {"name": "montecarlo", "runs": runs, "seed": seed}
    return inp.call(name, "simulate", scenario, "simulate_s",
                    checks.simulate(runs, seed, exact), runs=runs)


def nash_verify_diversity(inp, name, N, nsub, T, alpha, bs, adv):
    seed = int(inp.rng(name).integers(2**31))
    return inp.call(
        name, "nash-verify",
        {"model": "diversity", "system": _system(T, N, alpha, nsub),
         "policy": {"source": "uniform"},
         "subcarrier_policy": {"source": "uniform"},
         "plan": {"source": "uniform-subcarrier"},
         "experiment": {"name": "nash-verify", "bs_samples": bs,
                        "adv_samples": adv, "seed": seed}},
        "nash_verify_s", checks.nash_holds("diversity-nash"))


def nash_verify_no_diversity(inp, name, N, T, alpha):
    """Uniform policy against a middle block: not an equilibrium."""
    target = int(inp.rng(name).integers(N))
    return inp.call(
        name, "nash-verify",
        {"model": "no-diversity", "system": _system(T, N, alpha),
         "policy": {"source": "uniform"},
         "plan": {"source": "middle-block", "target": target}},
        None, checks.nash_fails_with_witness("base-station"))


def oracle(inp, name, T, alpha):
    x = float(inp.rng(name).uniform(0.2, 0.8))
    probs = [x, 1 - x]
    config = SystemConfig(T, 2, alpha)
    policy = validate_policy(probs)
    structured = adversary_best_response(policy, config)
    structured_exact = expected_age_trajectory(
        policy, structured.plan, config).system_avg
    return inp.call(
        name, "oracle",
        {"model": "no-diversity", "system": _system(T, 2, alpha),
         "policy": {"source": "explicit", "probs": probs},
         "plan": {"source": "none"}},
        "oracle_s", checks.oracle(structured_exact))


def stackelberg(inp, name, N, T, alpha, samples):
    rng = inp.rng(name)
    seed, target = int(rng.integers(2**31)), int(rng.integers(N))
    return inp.call(
        name, "stackelberg",
        {"model": "no-diversity", "system": _system(T, N, alpha),
         "experiment": {"name": "stackelberg", "target": target,
                        "certify_samples": samples, "seed": seed}},
        "stackelberg_s", checks.stackelberg_uniform(N))


def best_response(inp, name, N, T, alpha, floor):
    rng = inp.rng(name)
    probs = _probs(rng, N, floor)
    plan_target = int(rng.integers(N))
    weights = np.ones(N)
    weights[plan_target] += SystemConfig(T, N, alpha).budget_B / T
    return inp.call(
        name, "best-response",
        {"model": "no-diversity", "system": _system(T, N, alpha),
         "policy": {"source": "explicit", "probs": probs},
         "plan": {"source": "middle-block", "target": plan_target}},
        "best_response_s", checks.best_response(
            int(np.argmin(probs)), np.sqrt(weights) / np.sqrt(weights).sum()))


def br_dynamics(inp, name, N, T, alpha, iterations):
    return inp.call(
        name, "br-dynamics",
        {"model": "no-diversity", "system": _system(T, N, alpha),
         "experiment": {"name": "br-dynamics", "iterations": iterations}},
        None, checks.no_fixed_point(iterations))


def asymptotic(inp, name, N, T, alpha, floor):
    rng = inp.rng(name)
    probs = _probs(rng, N, floor)
    target = int(rng.integers(N))
    expected = [unblocked_user_age(p) for p in probs]
    expected[target] = blocked_user_age(probs[target], alpha, T)
    return inp.call(
        name, "asymptotic",
        {"model": "no-diversity", "system": _system(T, N, alpha),
         "policy": {"source": "explicit", "probs": probs},
         "plan": {"source": "middle-block", "target": target}},
        None, checks.asymptotic(expected))


# ---------------------------------------------------------------------------
#  Workloads
# ---------------------------------------------------------------------------

CRITERION_04_PROBS = [0.5, 0.3, 0.2]


def _repeated(call: Call, times: int) -> list[Call]:
    """`times` copies of a call with the same inputs and check.  Each has its
    own output directory, because an iteration's outputs are checked after
    all of its calls have run."""
    return [replace(call, out_dir=f"{call.out_dir}-{k}" if k else call.out_dir)
            for k in range(times)]


def _trajectory_export(inp):
    """640k trajectories.csv rows per iteration: the CSV writer dominates,
    the exact recursion runs at large T."""
    return [
        exact_no_diversity(inp, "exact-no-diversity", 4, 80_000, 0.2, 0.1),
        exact_diversity(inp, "exact-diversity", 4, 3, 80_000, 0.2, 0.1),
    ]


def _game_audit(inp):
    """Medium-size exact evaluations (201 per diversity audit), the 87k-plan
    oracle and the descent solvers; only short CSVs are written."""
    return [
        nash_verify_diversity(inp, "nash-verify-diversity", 4, 3, 5000,
                              0.2, 500, 200),
        # the oracle and best-response calls run more than once per
        # iteration, so that the medians of these short calls settle
        *_repeated(oracle(inp, "oracle", 20, 0.2), 2),
        stackelberg(inp, "stackelberg", 6, 1000, 0.2, 2000),
        *_repeated(best_response(inp, "best-response", 50, 1000, 0.2, 0.005),
                   3),
        br_dynamics(inp, "br-dynamics", 8, 1000, 0.2, 200),
        nash_verify_no_diversity(inp, "nash-verify-no-diversity", 8, 1000,
                                 0.2),
        asymptotic(inp, "asymptotic", 4, 100_000, 0.2, 0.05),
    ]


def _mc_estimate(inp):
    """Monte Carlo at T=500 on the acceptance-criterion-04 scenario, plus a
    randomized plan that draws from the adversary stream; no exact
    recursion or CSV writer outside the probes."""
    return [
        simulate(inp, "simulate-no-diversity", CRITERION_04_PROBS, 500, 0.3,
                 7500, target=2),
        simulate(inp, "simulate-diversity", CRITERION_04_PROBS, 500, 0.3,
                 2500, nsub=3),
    ]


FOCUS = {
    "trajectory-export": _trajectory_export,
    "game-audit": _game_audit,
    "mc-estimate": _mc_estimate,
}

PROBES = {
    "exact_s": lambda inp: exact_no_diversity(
        inp, "probe-exact", 2, 5000, 0.2, 0.4),
    "simulate_s": lambda inp: simulate(
        inp, "probe-simulate", CRITERION_04_PROBS, 500, 0.3, 100, target=2),
    "nash_verify_s": lambda inp: nash_verify_diversity(
        inp, "probe-nash-verify", 3, 3, 2000, 0.2, 50, 10),
    "oracle_s": lambda inp: oracle(inp, "probe-oracle", 12, 0.25),
    "stackelberg_s": lambda inp: stackelberg(
        inp, "probe-stackelberg", 4, 1000, 0.2, 200),
    "best_response_s": lambda inp: best_response(
        inp, "probe-best-response", 50, 1000, 0.2, 0.005),
}


def build(workload: str, seed: int, work_dir: str) -> list[Call]:
    """The calls of one iteration of `workload`, inputs drawn from `seed`."""
    inp = _Inputs(seed, work_dir)
    calls = FOCUS[workload](inp)
    covered = {c.metric for c in calls}
    for metric in PER_CALL_METRICS:
        if metric not in covered:
            calls.extend(_repeated(PROBES[metric](inp), PROBE_REPEATS))
    return calls
