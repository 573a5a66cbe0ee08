"""Golden outputs: the bytes the CLI writes for a few small scenarios.

Each scenario's output files and stdout are pinned by sha256.  A change to
any of them is a change to the seed-to-output mapping, which has to be
announced, and the pins updated, in the same change.  The trajectory writer
is also checked against the plain csv.writer form it must reproduce.
"""

import csv
import hashlib
import json

import numpy as np
import pytest

from aoijam.age_exact import AgeSeries, expected_age_trajectory
from aoijam.cli import run_scenario, write_trajectories_csv
from aoijam.model import SystemConfig, empty_plan, validate_policy

SCENARIOS = {
    "exact-no-diversity": {
        "model": "no-diversity",
        "system": {"horizon_T": 300, "num_users": 3, "alpha": 0.3},
        "policy": {"source": "explicit", "probs": [0.5, 0.3, 0.2]},
        "plan": {"source": "middle-block", "target": 1},
        "experiment": {"name": "exact"},
    },
    "exact-diversity": {
        "model": "diversity",
        "system": {"horizon_T": 300, "num_users": 2, "alpha": 0.4,
                   "num_subcarriers": 3},
        "policy": {"source": "explicit", "probs": [0.35, 0.65]},
        "subcarrier_policy": {"source": "explicit", "probs": [0.2, 0.5, 0.3]},
        "plan": {"source": "uniform-subcarrier"},
        "experiment": {"name": "exact"},
    },
    "best-response": {
        "model": "no-diversity",
        "system": {"horizon_T": 60, "num_users": 3, "alpha": 0.2},
        "policy": {"source": "explicit", "probs": [0.2, 0.5, 0.3]},
        "plan": {"source": "middle-block", "target": 0},
        "experiment": {"name": "best-response"},
    },
    "stackelberg": {
        "model": "no-diversity",
        "system": {"horizon_T": 100, "num_users": 3, "alpha": 0.25},
        "experiment": {"name": "stackelberg", "target": 2,
                       "certify_samples": 50, "seed": 5},
    },
    "nash-verify-diversity": {
        "model": "diversity",
        "system": {"horizon_T": 400, "num_users": 2, "alpha": 0.2,
                   "num_subcarriers": 2},
        "policy": {"source": "uniform"},
        "subcarrier_policy": {"source": "uniform"},
        "plan": {"source": "uniform-subcarrier"},
        "experiment": {"name": "nash-verify", "bs_samples": 40,
                       "adv_samples": 40, "seed": 3},
    },
    # no blocking is not a best response: the witness is a multi-row plan
    "nash-verify-diversity-witness": {
        "model": "diversity",
        "system": {"horizon_T": 40, "num_users": 2, "alpha": 0.2,
                   "num_subcarriers": 2},
        "policy": {"source": "uniform"},
        "subcarrier_policy": {"source": "uniform"},
        "plan": {"source": "none"},
        "experiment": {"name": "nash-verify", "bs_samples": 10,
                       "adv_samples": 10, "seed": 4},
    },
}

# sha256 of each output file and of stdout
GOLDEN = {
    "best-response": {
        "equilibrium.csv": "8c0737937177de8531112104cd3444ff4097d110f887e9f88a550011e9f1957b",
        "scenario.json": "1633b86b75195bdbbcb3b2ba1acf460a4d41442dcba813c5b61d07cc280f1daa",
        "stdout": "9c091eb4da4b2b6d9ede988884b7bb6bdf098485d48563c07ed52936d63f8a8b",
    },
    "exact-diversity": {
        "scenario.json": "ee4bb8ae9473b8b7e7ed7186a8cc5c573f091f1bc163248c823f2f93d65d0acd",
        "trajectories.csv": "6262e5dd48d938937723cf7362f4036027538dff83e4e733b58d0cb773cc0900",
        "stdout": "aa6c15172ff1cdcc01af247d0dba77b26dcb000f34a6969c5132d671def9af6b",
    },
    "exact-no-diversity": {
        "scenario.json": "b19fb2b50dc557617166bc1fc698321948115e93d0a433e30db0640857e83ec2",
        "trajectories.csv": "736f2ff29d500cd68cf0b1c9050a6194e22b073c6ab0d6f30d5be67a54b9f968",
        "stdout": "2c433aaf586d4903262c4f339e59de7f889432d18eba013a0776a3e80f15423c",
    },
    "nash-verify-diversity": {
        "equilibrium.csv": "3cbd890eb08cc085a36cf304446c5fe77f3940a02c9b643bc4334327056fd906",
        "scenario.json": "fcfb6bf08dbb6c78d06b2dd7abe7e99d9df94a54273dd7200af2862c9c02703f",
        "stdout": "1f02aee43be720cf728518cf1b20ebe8e10321b8cdedd191c98483bf8e0dfd0b",
    },
    "nash-verify-diversity-witness": {
        "equilibrium.csv": "c3180d36d6870ba1b973524c1c8eca1e57d158ac7e00e429715739893d3af964",
        "scenario.json": "c7c39165db8b0fbe727e4b866f5862a2f8479bfd7fc26667f7cec456b105243d",
        "stdout": "6d0426d20d486c97431ad382640922badf0dd4c5152142252f378b123a6515b7",
    },
    "stackelberg": {
        "equilibrium.csv": "fc839e2df780ca2008cfbfb56d1a2760b4243bda199360bb9794d5b79a096d75",
        "scenario.json": "501413ce3bb37ac263c5610f110980c029e582e6f94564b24dc9e6468e7a08ad",
        "stdout": "9ed7d2c8815f8954356e5ab0c1ecd3d62b2ac998188dcd063485e23da323df45",
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_cli_outputs_match_golden_bytes(name, tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"schema_version": 1, **SCENARIOS[name]}))
    out_dir = tmp_path / "out"
    assert run_scenario(str(path), out_dir=str(out_dir)) == 0
    got = {f.name: _sha(f.read_bytes()) for f in sorted(out_dir.iterdir())}
    got["stdout"] = _sha(capsys.readouterr().out.encode())
    assert got == GOLDEN[name]


# ===========================================================================
#  write_trajectories_csv against the csv.writer form
# ===========================================================================


def _csv_writer_reference(path, series):
    """The csv.writer form of trajectories.csv: one row per (user, slot)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("user", "slot", "expected_age"))
        writer.writerows(
            (user, slot + 1, repr(float(series.per_user[user, slot])))
            for user in range(series.num_users)
            for slot in range(series.horizon))


def _series(per_user) -> AgeSeries:
    per_user = np.asarray(per_user, dtype=float)
    avg = per_user.mean(axis=1)
    return AgeSeries(per_user, avg, float(avg.mean()))


def _distinct_rows():
    rng = np.random.default_rng(11)
    return np.cumsum(1.0 + rng.random((2, 500)), axis=1)


def _settling_rows():
    cfg = SystemConfig(horizon_T=2000, num_users=2, alpha=0.1)
    return expected_age_trajectory(
        validate_policy([0.6, 0.4]), empty_plan(cfg), cfg).per_user


@pytest.mark.parametrize("rows", [
    pytest.param(_distinct_rows, id="all-distinct"),
    pytest.param(_settling_rows, id="settles-to-constant"),
    pytest.param(lambda: [[1.0], [1.0]], id="T=1"),
])
def test_trajectory_writer_matches_csv_writer(rows, tmp_path):
    series = _series(rows())
    write_trajectories_csv(tmp_path / "new.csv", series)
    _csv_writer_reference(tmp_path / "ref.csv", series)
    assert (tmp_path / "new.csv").read_bytes() == (
        tmp_path / "ref.csv").read_bytes()
