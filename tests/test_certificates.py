"""Certificates raise CertificateError, also under `python -O`.

Each internal consistency check is forced to fail by monkeypatching the
value it compares against.  (The EquilibriumReport witness invariant is
covered in test_equilibrium.py; here it is the check run under `-O`.)
"""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import aoijam
import aoijam.age_exact as age_exact
import aoijam.best_response as best_response
import aoijam.equilibrium as equilibrium
import aoijam.errors as errors
from aoijam import (
    AoijamError,
    CertificateError,
    SystemConfig,
    adversary_oracle,
    empty_plan,
    expected_age_trajectory,
    stackelberg_equilibrium,
    validate_policy,
)


def test_package_has_no_assert_statements():
    # `python -O` strips assert statements, so a check written as one
    # vanishes; checks raise typed errors instead
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(aoijam.__file__).parent.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_every_package_raise_names_a_package_error():
    # `except AoijamError` catches every failure the package reports; a bare
    # `raise` re-raises what an except clause caught and is left alone
    untyped = []
    for path in sorted(Path(aoijam.__file__).parent.rglob("*.py")):
        module = importlib.import_module(
            "aoijam" if path.stem == "__init__" else f"aoijam.{path.stem}")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            cls = getattr(module, getattr(exc, "id", ""), None)
            if not (isinstance(cls, type) and issubclass(cls, AoijamError)):
                untyped.append(f"{path.name}:{node.lineno}")
    assert untyped == []


# every error class with its stdlib base, so `except ValueError` and
# `except IndexError` callers keep catching what they caught before
ERROR_BASES = {
    "NonPositiveEntryError": ValueError,
    "NotNormalizedError": ValueError,
    "NoDiversityError": ValueError,
    "DimensionMismatchError": ValueError,
    "IndexOutOfRangeError": IndexError,
    "InvalidAlphaError": ValueError,
    "ConvergenceFailureError": RuntimeError,
    "CertificateError": RuntimeError,
    "InsufficientRunsError": ValueError,
    "InstanceTooLargeError": ValueError,
    "ScenarioParseError": ValueError,
    "ScenarioValidationError": ValueError,
}


def test_error_classes_keep_their_stdlib_bases():
    defined = {name: cls for name, cls in vars(errors).items()
               if isinstance(cls, type) and issubclass(cls, Exception)}
    assert defined.pop("AoijamError") is AoijamError
    assert set(defined) == set(ERROR_BASES)
    for name, cls in defined.items():
        assert cls.__bases__ == (AoijamError, ERROR_BASES[name]), name
    exported = {name for name in aoijam.__all__ if name.endswith("Error")}
    assert exported == set(ERROR_BASES) | {"AoijamError"}


def test_certificate_error_is_a_package_runtime_error():
    assert issubclass(CertificateError, AoijamError)
    assert issubclass(CertificateError, RuntimeError)


def _zero_ages(row, *runs):
    """A broken run core: every age it writes is 0."""
    row[:] = 0.0


def test_age_range_check_fires(monkeypatch):
    cfg = SystemConfig(horizon_T=4, num_users=2, alpha=0.25)
    monkeypatch.setattr(age_exact, "_run_ages", _zero_ages)
    with pytest.raises(CertificateError, match=r"outside \[1, t\]"):
        expected_age_trajectory(validate_policy([0.5, 0.5]), empty_plan(cfg),
                                cfg)


def test_age_range_check_fires_above_t(monkeypatch):
    # age T in every slot stays below the horizon but exceeds t before T
    cfg = SystemConfig(horizon_T=4, num_users=2, alpha=0.25)
    monkeypatch.setattr(age_exact, "_run_ages",
                        lambda row, *runs: row.fill(row.size))
    with pytest.raises(CertificateError, match=r"outside \[1, t\]"):
        expected_age_trajectory(validate_policy([0.5, 0.5]), empty_plan(cfg),
                                cfg)


@pytest.mark.parametrize("subcarriers", [1, 3])
def test_age_range_check_covers_every_priced_row(monkeypatch, subcarriers):
    # only the last row priced comes back as zeros: user 2 in both models,
    # as users 0 and 1 share one row under diversity
    cfg = SystemConfig(horizon_T=6, num_users=3, alpha=0.2,
                       num_subcarriers=subcarriers)
    policy = validate_policy([0.25, 0.25, 0.5])
    subpolicy = (None if subcarriers == 1 else
                 aoijam.validate_subcarrier_policy([0.5, 0.3, 0.2]))
    priced = []
    real = age_exact._run_ages

    def zero_last_row(row, *runs):
        real(row, *runs)
        priced.append(row)
        if len(priced) == 3 - (subpolicy is not None):
            row[:] = 0.0

    monkeypatch.setattr(age_exact, "_run_ages", zero_last_row)
    with pytest.raises(CertificateError, match=r"outside \[1, t\]"):
        age_exact._profile_series(policy, subpolicy, empty_plan(cfg), cfg)


def _skewed_diversity_audit():
    """A diversity audit the adversary side refutes (a heavy sub-carrier)."""
    cfg = SystemConfig(horizon_T=200, num_users=2, alpha=0.4,
                       num_subcarriers=4)
    p, _, plan = equilibrium.diversity_nash_point(cfg)
    skew = aoijam.validate_subcarrier_policy([0.7, 0.1, 0.1, 0.1])
    return lambda: equilibrium.verify_diversity_nash(
        (p, skew, plan), cfg, 20, 60, seed=9)


def test_audit_age_range_check_fires(monkeypatch):
    audit = _skewed_diversity_audit()
    assert audit().witness.player == "adversary"
    monkeypatch.setattr(age_exact, "_run_ages", _zero_ages)
    with pytest.raises(CertificateError, match=r"outside \[1, t\]"):
        audit()


def test_audit_dense_sample_age_range_check_fires(monkeypatch):
    # the candidate is priced as before; only the evaluator call that
    # prices an adversary sample, the second, writes zero ages
    plans = []
    real_series, real_ages = age_exact._profile_series, age_exact._run_ages

    def series(policy, subpolicy, plan, config):
        plans.append(plan)
        return real_series(policy, subpolicy, plan, config)

    def zero_second_call(row, *runs):
        real_ages(row, *runs)
        if len(plans) == 2:
            row[:] = 0.0

    monkeypatch.setattr(age_exact, "_profile_series", series)
    monkeypatch.setattr(age_exact, "_run_ages", zero_second_call)
    with pytest.raises(CertificateError,
                       match=r"outside \[1, t\]") as caught:
        _skewed_diversity_audit()()
    assert len(plans) == 2 and plans[1] is not plans[0]
    assert caught.traceback[-2].name == "_profile_series"


_VERTEX0, _THIRDS = np.array([1.0, 0.0, 0.0]), np.full(3, 1.0 / 3.0)
# explicit pieces (a one-slot window, an s = 1 ramp under q on sub-carrier
# 0) and copied runs (the clear stretches, the uniform window)
_SCREEN_SAMPLE = [(50, 51, _VERTEX0), (100, 140, _VERTEX0),
                  (200, 260, _THIRDS)]


def _screen_sample():
    return age_exact._window_screen(
        validate_policy([0.5, 0.5]),
        aoijam.validate_subcarrier_policy(_VERTEX0), [_SCREEN_SAMPLE], 400)


@pytest.mark.parametrize("bad", [0.5, 1e9], ids=["below-1", "above-t"])
@pytest.mark.parametrize("piece", ["explicit", "copied"])
def test_screen_age_range_check_fires(monkeypatch, piece, bad):
    # the run walker hands the screen one kind of piece with a bad age
    real = age_exact._walk_runs
    kinds = set()

    def walk(*args):
        for values, fill, repeat, head in real(*args):
            kind = "explicit" if head is None else "copied"
            kinds.add(kind)
            if kind == piece:
                values, fill = np.full(len(values), bad), bad
            yield values, fill, repeat, head

    assert _screen_sample().size == 1
    monkeypatch.setattr(age_exact, "_walk_runs", walk)
    with pytest.raises(CertificateError, match=r"outside \[1, t\]"):
        _screen_sample()
    assert piece in kinds


def test_audit_screen_margin_check_fires(monkeypatch):
    # screened values pushed 1e-7 up: the samples priced densely now sit
    # farther from their screened value than the rounding margin
    real = equilibrium._window_screen
    monkeypatch.setattr(equilibrium, "_window_screen",
                        lambda *args: real(*args) + 1e-7)
    with pytest.raises(CertificateError, match="rounding margin"):
        _skewed_diversity_audit()()


_OPTIMIZED_SCREEN_CHECKS = """
import numpy as np
import aoijam.age_exact as age_exact
import aoijam.equilibrium as equilibrium
from aoijam import (CertificateError, SystemConfig, validate_policy,
                    validate_subcarrier_policy)

real_walk, real_screen = age_exact._walk_runs, equilibrium._window_screen

def walk(*args):
    for values, fill, repeat, head in real_walk(*args):
        yield np.zeros(len(values)), 0.0, repeat, head

age_exact._walk_runs = walk
try:
    age_exact._window_screen(
        validate_policy([0.5, 0.5]), validate_subcarrier_policy([0.5, 0.5]),
        [[(3, 9, np.array([0.5, 0.5]))]], 20)
except CertificateError as exc:
    print("range", exc)
age_exact._walk_runs = real_walk

equilibrium._window_screen = lambda *args: real_screen(*args) + 1e-7
cfg = SystemConfig(horizon_T=200, num_users=2, alpha=0.4, num_subcarriers=4)
p, _, plan = equilibrium.diversity_nash_point(cfg)
skew = validate_subcarrier_policy([0.7, 0.1, 0.1, 0.1])
try:
    equilibrium.verify_diversity_nash((p, skew, plan), cfg, 20, 60, seed=9)
except CertificateError as exc:
    print("margin", "rounding margin" in str(exc))
"""


def test_screen_checks_survive_optimized_mode():
    proc = subprocess.run([sys.executable, "-O", "-c",
                           _OPTIMIZED_SCREEN_CHECKS],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "range expected age outside [1, t]", "margin True"]


def test_oracle_reevaluation_check_fires(monkeypatch):
    cfg = SystemConfig(horizon_T=4, num_users=2, alpha=0.25)
    policy = validate_policy([0.6, 0.4])
    real = best_response.expected_age_trajectory

    def off_by_one(*args):
        series = real(*args)
        return age_exact.AgeSeries(series.per_user, series.per_user_avg,
                                   series.system_avg + 1.0)

    monkeypatch.setattr(best_response, "expected_age_trajectory", off_by_one)
    with pytest.raises(CertificateError, match="oracle payoff"):
        adversary_oracle(policy, cfg)


def test_stackelberg_dominance_check_fires(monkeypatch):
    monkeypatch.setattr(equilibrium, "_follower_aware_payoffs",
                        lambda probs, alpha, T: np.zeros(len(probs)))
    first = equilibrium._certification_policies(3, 4, 0)[0]
    with pytest.raises(CertificateError, match="uniform leader") as caught:
        stackelberg_equilibrium(
            SystemConfig(horizon_T=200, num_users=3, alpha=0.3),
            certify_samples=4)
    assert f"sampled policy {first} gives the leader 0.0," in str(
        caught.value)


def test_certificate_survives_optimized_mode():
    code = ("from aoijam import CertificateError, EquilibriumReport\n"
            "try:\n"
            "    EquilibriumReport(kind='nash-check', holds=False)\n"
            "except CertificateError:\n"
            "    print('raised')\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "raised"
