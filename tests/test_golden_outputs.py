"""Golden outputs: the bytes the CLI writes for small scenarios, at least
one per subcommand and, where a subcommand takes both, one per model.

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
    "simulate-no-diversity": {
        "model": "no-diversity",
        "system": {"horizon_T": 120, "num_users": 3, "alpha": 0.25},
        "policy": {"source": "explicit", "probs": [0.5, 0.3, 0.2]},
        "plan": {"source": "middle-block", "target": 2},
        "experiment": {"name": "montecarlo", "runs": 70, "seed": 9},
    },
    # fractional plan entries: the adversary draws its own stream
    "simulate-diversity": {
        "model": "diversity",
        "system": {"horizon_T": 120, "num_users": 2, "alpha": 0.3,
                   "num_subcarriers": 3},
        "policy": {"source": "explicit", "probs": [0.45, 0.55]},
        "subcarrier_policy": {"source": "explicit", "probs": [0.5, 0.3, 0.2]},
        "plan": {"source": "uniform-subcarrier"},
        "experiment": {"name": "montecarlo", "runs": 70, "seed": 10},
    },
    "asymptotic-no-diversity": {
        "model": "no-diversity",
        "system": {"horizon_T": 1000, "num_users": 3, "alpha": 0.3},
        "policy": {"source": "explicit", "probs": [0.5, 0.3, 0.2]},
        "plan": {"source": "middle-block", "target": 2},
        "experiment": {"name": "asymptotic"},
    },
    "asymptotic-diversity": {
        "model": "diversity",
        "system": {"horizon_T": 1000, "num_users": 3, "alpha": 0.3,
                   "num_subcarriers": 2},
        "policy": {"source": "explicit", "probs": [0.5, 0.3, 0.2]},
        "experiment": {"name": "asymptotic"},
    },
    "oracle": {
        "model": "no-diversity",
        "system": {"horizon_T": 8, "num_users": 2, "alpha": 0.25},
        "policy": {"source": "explicit", "probs": [0.6, 0.4]},
        "experiment": {"name": "oracle"},
    },
    "br-dynamics": {
        "model": "no-diversity",
        "system": {"horizon_T": 500, "num_users": 3, "alpha": 0.35},
        "experiment": {"name": "br-dynamics", "iterations": 6},
    },
    # no blocking is not a best response: the witness is a middle block
    "nash-verify-no-diversity-witness": {
        "model": "no-diversity",
        "system": {"horizon_T": 200, "num_users": 3, "alpha": 0.2},
        "policy": {"source": "explicit", "probs": [0.5, 0.3, 0.2]},
        "plan": {"source": "none"},
        "experiment": {"name": "nash-verify"},
    },
    "exact-counter-block-explicit-plan": {
        "model": "no-diversity",
        "system": {"horizon_T": 6, "num_users": 3, "alpha": 0.5},
        "policy": {"source": "counter-block", "target": 1},
        "plan": {"source": "explicit", "mode": "randomized",
                 "block_prob": [[0.0, 0.5, 0.25, 0.0, 0.0, 0.0],
                                [0.0, 0.25, 0.5, 0.75, 0.0, 0.0],
                                [0.0, 0.0, 0.0, 0.25, 0.5, 0.0]]},
        "experiment": {"name": "exact"},
    },
}

# sha256 of each output file and of stdout
GOLDEN = {
    "asymptotic-diversity": {
        "asymptotic.csv": "2797983d28b8f8004bb6588ab7d9181049ec0105267063e3c233f2eca5867252",
        "scenario.json": "a9f3f8670ba515ef9269082cb3957e339c552ac13c6dd80a674f8558f52b3a2f",
        "stdout": "ee0c7e854f467b6f79cf2575234a65d91adaf8f99184294d18e0d8a97007fa32",
    },
    "asymptotic-no-diversity": {
        "asymptotic.csv": "8858f626f26eff98b638e5c5b97ac4bc5597ee7ba205f9098af643e63e54cd9a",
        "scenario.json": "5beaa601ae813e9b377cf79f5a1b25cc2b4d59791e71b42b15af56c35fb775fe",
        "stdout": "70f9ea287dffb85b7c5bdf40ea8bf5eafb5c99939b657f7e2bdf2f2a9f226add",
    },
    "best-response": {
        "equilibrium.csv": "8c0737937177de8531112104cd3444ff4097d110f887e9f88a550011e9f1957b",
        "scenario.json": "1633b86b75195bdbbcb3b2ba1acf460a4d41442dcba813c5b61d07cc280f1daa",
        "stdout": "9c091eb4da4b2b6d9ede988884b7bb6bdf098485d48563c07ed52936d63f8a8b",
    },
    "br-dynamics": {
        "dynamics.csv": "6d034e4577a7a238bd7a0ad2327832e3919df7e8203e52700e384fc954bb5ee3",
        "scenario.json": "bfb0443bf4f77f184178d46001e148a1c8f9694fbd1f6aacce7fa7dc94651beb",
        "stdout": "c2a0d00ed8624ffdb7c63a7f15d049a2058fe981678259fbcb6b210055b2ca47",
    },
    "exact-counter-block-explicit-plan": {
        "scenario.json": "ef4244eaeafddb182011b07885b31fb7d06cfaa57696014e48fb5e5b0ca527a8",
        "trajectories.csv": "7f20fd89cfd85653dd464d83b75adad7f1c4ad0b1a1c94362b6e3699465a7f00",
        "stdout": "7e7f735224ba5069c30f4b858d20e757e25d08f538f7ce7fdfa1ef080134a113",
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
    "nash-verify-no-diversity-witness": {
        "equilibrium.csv": "4e72c3bf081acf1f6e159e8c9bfc686bf2c2d76326895bf0558f1b87a4b772ff",
        "scenario.json": "1f5d81e30dbf327fd27e82882696231cb8d3b0898dfb3e894d131dc089adbf18",
        "stdout": "5c8f5234a71c3e23e39dce0963b539f659be9aabe0edf990d93c874b45bcccb4",
    },
    "oracle": {
        "equilibrium.csv": "c0bcd0dfd726c99ca3691f010fdde64e1b8da673de2bd9c6e5e680d7eecc2fa0",
        "scenario.json": "8fb79036a81d4d18bea87355bbf00aa6d28d63a9f5f6d8a1fd09877b4354b16c",
        "stdout": "7618f5b237f56cce0b4c907446cf67e006f2a6c57021ec54ea8d3531fdfef0a9",
    },
    "simulate-diversity": {
        "scenario.json": "a655e3e01f7dc43597e028b8b3cab74d04ac52cce7588948fe177c91dddc4290",
        "sim.csv": "eaa1c05b9e9daedc2225fa144bdde7dfc7f9354a432c58a75e84eeeb8bd38ab4",
        "stdout": "54ada7a26d94694d193e9cd1f1b9b9eefac1adf3046fd9e8c9717fc8fa226aee",
    },
    "simulate-no-diversity": {
        "scenario.json": "634875e1577e960cf9876ea39676b3a09e319311b75f20d25e9cc40fd3a383ab",
        "sim.csv": "ecbcf8ab0fe1eeeaf439e416c6480edd5ba7c8f8c2263bdd998bbae550240ece",
        "stdout": "bbcf091afaeb29fb0374c7cc03051851dcb2b355a3292d5099d582b70b8f9768",
    },
    "stackelberg": {
        "equilibrium.csv": "c368135dca9ff8e080b93656a22d23be553ded15a0e6fda4789a9ee9aad97bf9",
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
