"""Output checks for the benchmark's subcommand calls.

Each check reads the files one CLI call wrote and returns None when they are
right, or a one-line reason when they are not.  Reference values are computed
before the timed loop starts (see workloads.py), so a check only reads files
and compares numbers: it never calls into aoijam, which keeps the traced run's
per-layer counters free of checking work.
"""

import csv
import math
import os

import numpy as np

EXACT_REL_TOL = 1e-3  # exact per-user means vs long-horizon closed forms
SIM_MAX_SE = 5.0  # Monte Carlo mean vs exact recursion, in standard errors
ORACLE_SLACK = 1e-9  # oracle payoff may not fall below the structured plan
STRUCTURED_REL_TOL = 1e-12  # CLI's structured-plan payoff vs the reference
UNIFORM_TOL = 1e-12  # leader policy entries vs 1/N
DESCENT_TOL = 1e-8  # base-station reply vs the closed form sqrt(w)/sum sqrt(w)
ASYMPTOTIC_REL_TOL = 1e-12  # asymptotic.csv vs the closed forms


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _read_rows(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _parse_vector(text: str) -> np.ndarray:
    """'[0.1;0.2]' (cli._vec) -> array."""
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"not a vector: {text[:40]!r}")
    return np.array([float(v) for v in text[1:-1].split(";")])


def exact_trajectories(num_users: int, horizon: int, expected_means):
    """trajectories.csv has N*T rows in (user, slot) order and per-user means
    within EXACT_REL_TOL of the closed forms in `expected_means`."""
    expected_means = np.asarray(expected_means, dtype=float)

    def check(out_dir: str) -> str | None:
        path = os.path.join(out_dir, "trajectories.csv")
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip()
            if header != "user,slot,expected_age":
                return f"trajectories.csv header is {header!r}"
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        if data.shape != (num_users * horizon, 3):
            return (f"trajectories.csv has {data.shape[0]} data rows, "
                    f"expected {num_users * horizon}")
        if not (np.array_equal(data[:, 0], np.repeat(np.arange(num_users),
                                                     horizon))
                and np.array_equal(data[:, 1], np.tile(
                    np.arange(1, horizon + 1), num_users))):
            return "trajectories.csv rows are not in (user, slot) order"
        means = data[:, 2].reshape(num_users, horizon).mean(axis=1)
        worst = max(_rel(m, e) for m, e in zip(means, expected_means))
        if not worst <= EXACT_REL_TOL:
            return (f"per-user mean age off the closed form by relative "
                    f"{worst:.3e} > {EXACT_REL_TOL:g}")
        return None

    return check


def simulate(runs: int, seed: int, exact_mean: float):
    """sim.csv reports the requested runs and seed, a mean within SIM_MAX_SE
    standard errors of the exact recursion, and the same bytes on every call
    with this scenario."""
    first_bytes = []

    def check(out_dir: str) -> str | None:
        path = os.path.join(out_dir, "sim.csv")
        with open(path, "rb") as fh:
            raw = fh.read()
        if not first_bytes:
            first_bytes.append(raw)
        elif raw != first_bytes[0]:
            return "sim.csv differs from the first call with the same seed"
        rows = _read_rows(path)
        if len(rows) != 1:
            return f"sim.csv has {len(rows)} data rows, expected 1"
        row = rows[0]
        if int(row["runs"]) != runs or int(row["seed"]) != seed:
            return f"sim.csv reports runs={row['runs']} seed={row['seed']}"
        mean, se = float(row["mean"]), float(row["std_error"])
        if not (se > 0 and abs(mean - exact_mean) <= SIM_MAX_SE * se):
            return (f"simulated mean {mean:.6f} is "
                    f"{abs(mean - exact_mean) / se:.2f} standard errors "
                    f"from the exact {exact_mean:.6f}")
        return None

    return check


def _single_equilibrium_row(out_dir: str) -> dict:
    rows = _read_rows(os.path.join(out_dir, "equilibrium.csv"))
    if len(rows) != 1:
        raise ValueError(f"equilibrium.csv has {len(rows)} data rows")
    return rows[0]


def nash_holds(kind: str):
    """equilibrium.csv reports that the `kind` check holds."""
    def check(out_dir: str) -> str | None:
        row = _single_equilibrium_row(out_dir)
        if row["kind"] != kind or row["holds"] != "true":
            return (f"equilibrium check {row['kind']} holds={row['holds']}, "
                    f"expected {kind} to hold")
        return None

    return check


def nash_fails_with_witness(player: str):
    """equilibrium.csv reports a failed nash-check with a `player` witness."""
    def check(out_dir: str) -> str | None:
        row = _single_equilibrium_row(out_dir)
        if row["kind"] != "nash-check" or row["holds"] != "false":
            return (f"equilibrium check {row['kind']} holds={row['holds']}, "
                    "expected nash-check to fail")
        if not row["witness-serialized"].startswith(player + ":"):
            return f"witness is not a {player} deviation"
        return None

    return check


def oracle(structured_exact: float):
    """The oracle's payoff is at least the structured plan's exact payoff."""
    def check(out_dir: str) -> str | None:
        rows = {r["kind"]: r for r in _read_rows(
            os.path.join(out_dir, "equilibrium.csv"))}
        best = float(rows["oracle-max"]["payoff"])
        structured = float(rows["structured-exact"]["payoff"])
        if _rel(structured, structured_exact) > STRUCTURED_REL_TOL:
            return (f"structured-plan payoff {structured!r} differs from "
                    f"the reference {structured_exact!r}")
        if not best >= structured_exact - ORACLE_SLACK:
            return (f"oracle payoff {best!r} is below the structured plan's "
                    f"{structured_exact!r}")
        return None

    return check


def stackelberg_uniform(num_users: int):
    """The leader policy in equilibrium.csv is uniform."""
    def check(out_dir: str) -> str | None:
        row = _single_equilibrium_row(out_dir)
        leader = row["witness-serialized"].split("&", 1)[0]
        if not leader.startswith("p="):
            return f"no leader policy in {leader[:40]!r}"
        probs = _parse_vector(leader[2:])
        if probs.size != num_users or np.max(
                np.abs(probs - 1.0 / num_users)) > UNIFORM_TOL:
            return f"leader policy {probs.tolist()} is not uniform"
        return None

    return check


def best_response(target: int, expected_bs_probs):
    """The jammer targets the least-scheduled user and the base station's
    reply matches the closed form sqrt(w)/sum sqrt(w)."""
    expected_bs_probs = np.asarray(expected_bs_probs, dtype=float)

    def check(out_dir: str) -> str | None:
        rows = {r["kind"]: r for r in _read_rows(
            os.path.join(out_dir, "equilibrium.csv"))}
        adv = rows["adversary-best-response"]["witness-serialized"]
        if not adv.startswith(f"target={target};"):
            return f"jammer reply {adv[:20]!r}, expected target={target}"
        bs = rows["bs-best-response"]["witness-serialized"]
        probs = _parse_vector(bs[2:])
        if probs.shape != expected_bs_probs.shape or np.max(
                np.abs(probs - expected_bs_probs)) > DESCENT_TOL:
            return "base-station reply differs from the closed form"
        return None

    return check


def no_fixed_point(iterations: int):
    """dynamics.csv has one row per iteration and the blocked user changes
    every round, so best-response dynamics never reach a fixed point."""
    def check(out_dir: str) -> str | None:
        rows = _read_rows(os.path.join(out_dir, "dynamics.csv"))
        if len(rows) != iterations:
            return f"dynamics.csv has {len(rows)} rows, expected {iterations}"
        targets = [r["blocked_user"] for r in rows]
        if any(a == b for a, b in zip(targets, targets[1:])):
            return "best-response dynamics blocked one user twice in a row"
        return None

    return check


def asymptotic(expected_ages):
    """asymptotic.csv lists each user's closed-form age."""
    def check(out_dir: str) -> str | None:
        rows = _read_rows(os.path.join(out_dir, "asymptotic.csv"))
        ages = [float(r["asymptotic_age"]) for r in rows]
        if len(ages) != len(expected_ages) or any(
                not math.isfinite(a) or _rel(a, e) > ASYMPTOTIC_REL_TOL
                for a, e in zip(ages, expected_ages)):
            return f"asymptotic ages {ages} differ from {list(expected_ages)}"
        return None

    return check
