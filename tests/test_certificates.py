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


def test_age_range_check_fires(monkeypatch):
    cfg = SystemConfig(horizon_T=4, num_users=2, alpha=0.25)
    monkeypatch.setattr(age_exact, "_recurse_ages",
                        lambda delivery: np.zeros(delivery.shape))
    with pytest.raises(CertificateError, match=r"outside \[1, t\]"):
        expected_age_trajectory(validate_policy([0.5, 0.5]), empty_plan(cfg),
                                cfg)


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
    monkeypatch.setattr(equilibrium, "follower_aware_payoff",
                        lambda policy, alpha, T: 0.0)
    with pytest.raises(CertificateError, match="uniform leader"):
        stackelberg_equilibrium(3, 0.3, 200, certify_samples=4)


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
