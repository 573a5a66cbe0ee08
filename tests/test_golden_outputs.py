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
from aoijam.cli import (
    SETTLED_RUN,
    _slot_digits,
    run_scenario,
    write_trajectories_csv,
)
from aoijam.model import (
    SystemConfig,
    empty_plan,
    make_middle_block,
    validate_policy,
)

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
    # a skewed p loses to uniform p: the base-station witness, re-priced
    # as the policy it reports
    "nash-verify-diversity-bs-witness": {
        "model": "diversity",
        "system": {"horizon_T": 300, "num_users": 6, "alpha": 0.3,
                   "num_subcarriers": 3},
        "policy": {"source": "explicit",
                   "probs": [0.3, 0.2, 0.15, 0.15, 0.1, 0.1]},
        "plan": {"source": "uniform-subcarrier"},
        "experiment": {"name": "nash-verify", "bs_samples": 30,
                       "adv_samples": 10, "seed": 2},
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
    # T = 70,000 spans two Monte Carlo slot chunks; the randomized plan
    # draws all three streams in both
    "simulate-long-horizon": {
        "model": "diversity",
        "system": {"horizon_T": 70000, "num_users": 3, "alpha": 0.2,
                   "num_subcarriers": 3},
        "policy": {"source": "explicit", "probs": [0.5, 0.3, 0.2]},
        "subcarrier_policy": {"source": "explicit", "probs": [0.5, 0.3, 0.2]},
        "plan": {"source": "uniform-subcarrier"},
        "experiment": {"name": "montecarlo", "runs": 3, "seed": 12},
    },
    "asymptotic-no-diversity": {
        "model": "no-diversity",
        "system": {"horizon_T": 1000, "num_users": 3, "alpha": 0.3},
        "policy": {"source": "explicit", "probs": [0.5, 0.3, 0.2]},
        "plan": {"source": "middle-block", "target": 2},
        "experiment": {"name": "asymptotic"},
    },
    # no plan: every user's unblocked age 1/p_i
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
    # a middle block is no Nash point: the witness is the base station's
    # closed-form reply
    "nash-verify-no-diversity-bs-witness": {
        "model": "no-diversity",
        "system": {"horizon_T": 200, "num_users": 3, "alpha": 0.2},
        "policy": {"source": "uniform"},
        "plan": {"source": "middle-block", "target": 1},
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
    # the exhaustive oracle as the plan an experiment evaluates
    "exact-oracle-plan": {
        "model": "no-diversity",
        "system": {"horizon_T": 8, "num_users": 2, "alpha": 0.25},
        "policy": {"source": "explicit", "probs": [0.6, 0.4]},
        "plan": {"source": "oracle"},
        "experiment": {"name": "exact"},
    },
    # counter-block without `target` replies to jamming user 0
    "exact-counter-block-default-target": {
        "model": "no-diversity",
        "system": {"horizon_T": 50, "num_users": 3, "alpha": 0.3},
        "policy": {"source": "counter-block"},
        "plan": {"source": "middle-block", "target": 1},
        "experiment": {"name": "exact"},
    },
    # middle-block without `target` blocks user 0
    "exact-middle-block-default-target": {
        "model": "no-diversity",
        "system": {"horizon_T": 50, "num_users": 3, "alpha": 0.3},
        "policy": {"source": "explicit", "probs": [0.5, 0.3, 0.2]},
        "plan": {"source": "middle-block"},
        "experiment": {"name": "exact"},
    },
    "asymptotic-middle-block-default-target": {
        "model": "no-diversity",
        "system": {"horizon_T": 1000, "num_users": 3, "alpha": 0.3},
        "policy": {"source": "explicit", "probs": [0.5, 0.3, 0.2]},
        "plan": {"source": "middle-block"},
        "experiment": {"name": "asymptotic"},
    },
    # an explicit plan without `mode` is checked as deterministic
    "exact-explicit-plan-default-mode": {
        "model": "no-diversity",
        "system": {"horizon_T": 6, "num_users": 2, "alpha": 0.5},
        "policy": {"source": "explicit", "probs": [0.4, 0.6]},
        "plan": {"source": "explicit",
                 "block_prob": [[0, 1, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0]]},
        "experiment": {"name": "exact"},
    },
    # no `subcarrier_policy` key: the uniform q
    "exact-diversity-default-subcarrier-policy": {
        "model": "diversity",
        "system": {"horizon_T": 60, "num_users": 2, "alpha": 0.3,
                   "num_subcarriers": 3},
        "policy": {"source": "explicit", "probs": [0.35, 0.65]},
        "plan": {"source": "uniform-subcarrier"},
        "experiment": {"name": "exact"},
    },
}

# sha256 of each output file and of stdout
GOLDEN = {
    "asymptotic-diversity": {
        "asymptotic.csv": "f772a17fe581353b8c5d61c7b97d08e2836b5b4fc523cde30d09b24fbc01f8d8",
        "scenario.json": "a9f3f8670ba515ef9269082cb3957e339c552ac13c6dd80a674f8558f52b3a2f",
        "stdout": "7529a0d5133442bf7592fb9d7e7ea575b189bef1d0ea2d3ad02f28db232685ad",
    },
    "asymptotic-middle-block-default-target": {
        "asymptotic.csv": "b217ccfd2a4da7cf8f44341fcd5dffdf832a213adbab94df2e97bdf7c681aa24",
        "scenario.json": "aded7f05e170c7b837123e1fc684ec0711c9df9da9f02eba29e2f982f06404a6",
        "stdout": "b727bdb6a0b0c511f9a8bc02a9f5a43e3139d6e322ce1e20d52870edf7698da5",
    },
    "asymptotic-no-diversity": {
        "asymptotic.csv": "8858f626f26eff98b638e5c5b97ac4bc5597ee7ba205f9098af643e63e54cd9a",
        "scenario.json": "5beaa601ae813e9b377cf79f5a1b25cc2b4d59791e71b42b15af56c35fb775fe",
        "stdout": "ca53b21e7acd427217b9fa815fb6bd70b133fdaa604caa1f3e7aa945a3ae710c",
    },
    "best-response": {
        "equilibrium.csv": "53470f99a35df00698974d4583ec0209517b63c719f5b8ac6144d1e848933cc4",
        "scenario.json": "1633b86b75195bdbbcb3b2ba1acf460a4d41442dcba813c5b61d07cc280f1daa",
        "stdout": "e30028717869f06dfb655fb58c9181154d37ca99784ed065594cdd9e59b979cc",
    },
    "br-dynamics": {
        "dynamics.csv": "835dcb8b571e3a6b729f98ee219ae16b7bf0b3a464279a0f8d10d094f3c7275f",
        "scenario.json": "bfb0443bf4f77f184178d46001e148a1c8f9694fbd1f6aacce7fa7dc94651beb",
        "stdout": "c2a0d00ed8624ffdb7c63a7f15d049a2058fe981678259fbcb6b210055b2ca47",
    },
    "exact-counter-block-default-target": {
        "scenario.json": "da2cfa20f9d5fef450474a79453f3bc84b5812cac3a3b0a2d78be7cfe8b58a08",
        "stdout": "268fce342e710864b38b6739b7b6e16911385837b896bc70ee688baa8a62d613",
        "trajectories.csv": "4d0b5869c21a75e731a71e16b2620c175e4fcf5bc059c66528cec0c4a0bf0384",
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
    "exact-diversity-default-subcarrier-policy": {
        "scenario.json": "ff494717abc83cb038f58a64512ced918bde88577fdca50d00eeefee418196a3",
        "stdout": "a743368e36bdb55d3e3ac424fa2639b3a201cf15b569b7102cc577d270d7726b",
        "trajectories.csv": "bae2962495d88a390147cb914f622d0e8aa2efb7c75aa0b2a4bd931622531935",
    },
    "exact-explicit-plan-default-mode": {
        "scenario.json": "c6f4bfeb8ac50514825a21e8a9f9ffc22ccaf0fca571b2ed05d5442a108590c3",
        "stdout": "7ae42fff59dc80518549899f77e9d48991441239eeb698f194201690952c944b",
        "trajectories.csv": "9ab2d1452354527fc60fff9ad7356043a11a28019f4e730ea51fcf9202fc9e0f",
    },
    "exact-middle-block-default-target": {
        "scenario.json": "aaf5f747cb231bd94875cd0413fd1154bbb095c9c0f8f53a0329d187e0700fad",
        "stdout": "6f9b93d67152ce7fe23e8eb794348b048d3227eb89910f3a95ba7c2c5d09b54c",
        "trajectories.csv": "f4f52c56c669ffe9f93215fe833226878224924319d852152cf27ba6f5b6f204",
    },
    "exact-no-diversity": {
        "scenario.json": "b19fb2b50dc557617166bc1fc698321948115e93d0a433e30db0640857e83ec2",
        "trajectories.csv": "736f2ff29d500cd68cf0b1c9050a6194e22b073c6ab0d6f30d5be67a54b9f968",
        "stdout": "2c433aaf586d4903262c4f339e59de7f889432d18eba013a0776a3e80f15423c",
    },
    "exact-oracle-plan": {
        "scenario.json": "5d6474529f0ecdbb3bc13947f45abb6b63d74e5fd751f0b49c86b71cb7d2bc35",
        "stdout": "6816c9c377c95e7347fa8985ca24d2bb87113e3d6d6471a916799b2dba4b3d48",
        "trajectories.csv": "311ea19bad507e5d1074117d53ba76e43992d5f87e8f512cc5723f7b640c4fca",
    },
    "nash-verify-diversity": {
        "equilibrium.csv": "3cbd890eb08cc085a36cf304446c5fe77f3940a02c9b643bc4334327056fd906",
        "scenario.json": "fcfb6bf08dbb6c78d06b2dd7abe7e99d9df94a54273dd7200af2862c9c02703f",
        "stdout": "1f02aee43be720cf728518cf1b20ebe8e10321b8cdedd191c98483bf8e0dfd0b",
    },
    "nash-verify-diversity-bs-witness": {
        "equilibrium.csv": "714e9e097065f522bef59e9aa1f81f0a639fd5d32afd4deb1c00e2212adf7a74",
        "scenario.json": "146c9011b1f887619764c36a1fb7ee92d8557edb2e48435106bc106109677392",
        "stdout": "ac9cbd0c192f62c42573cf6897814bb52554752e4d5a27f5f55ce4bfe4a61b1e",
    },
    "nash-verify-diversity-witness": {
        "equilibrium.csv": "daa9941411b44fc158fb3013036f3cc79cc34f99eb485e346d534b5f9ff40ee6",
        "scenario.json": "c7c39165db8b0fbe727e4b866f5862a2f8479bfd7fc26667f7cec456b105243d",
        "stdout": "a302991064be900132f1660a5e00fa83c02796bfa980119f831585c00dcf7c16",
    },
    "nash-verify-no-diversity-bs-witness": {
        "equilibrium.csv": "bfbf4caf7e4fa67a33408e3a07aaa8ff73bded3cdb59e49fabc24469ca937cd9",
        "scenario.json": "e8070fff1056de13746a2691676063d27e734ab4f0d5c3a2a8851c1fb5cd63d1",
        "stdout": "131b92c2161e12d4be98ca8f068c2a2d1a9b76e39d1e6604c309c7cc717ef433",
    },
    "nash-verify-no-diversity-witness": {
        "equilibrium.csv": "8e5520186564b150c729f98f8d187f87c6cfeadb8d73368d3a85a9fb90ded2a5",
        "scenario.json": "1f5d81e30dbf327fd27e82882696231cb8d3b0898dfb3e894d131dc089adbf18",
        "stdout": "e7695d106935277920e1ec21a855c9ba914754083dec33463842522d36e72378",
    },
    "oracle": {
        "equilibrium.csv": "c0bcd0dfd726c99ca3691f010fdde64e1b8da673de2bd9c6e5e680d7eecc2fa0",
        "scenario.json": "8fb79036a81d4d18bea87355bbf00aa6d28d63a9f5f6d8a1fd09877b4354b16c",
        "stdout": "7618f5b237f56cce0b4c907446cf67e006f2a6c57021ec54ea8d3531fdfef0a9",
    },
    "simulate-diversity": {
        "scenario.json": "a655e3e01f7dc43597e028b8b3cab74d04ac52cce7588948fe177c91dddc4290",
        "sim.csv": "5875293396f42bd07ec3312914248295d50b527c281b3f357a40abda165883e8",
        "stdout": "9a0c6f7a42691b4835f8b14a94a0c8519425611e1a91c4a40186cc7eca69b078",
    },
    "simulate-long-horizon": {
        "scenario.json": "ea4a15c3910e6f583e6a8d66052c5ff7462a6acd16b2e48b647c2d4b98c355f5",
        "sim.csv": "d9d62af60eee703cc692a6d487c4c8bed044f0b304075138ca849ebe58a4ac63",
        "stdout": "23a2c62d0999357b6623b589f642fd212aae7497268d45107e622e417edb0800",
    },
    "simulate-no-diversity": {
        "scenario.json": "634875e1577e960cf9876ea39676b3a09e319311b75f20d25e9cc40fd3a383ab",
        "sim.csv": "6a36e640583836edffd01a22694a3450908970389cea9bc5a4fb2408f3dbb22d",
        "stdout": "ab454b2126da895df7e17277af7360eb520de034698b7e3d9629436ffeb428ac",
    },
    "stackelberg": {
        "equilibrium.csv": "bc0c9488f00affdd37c4e8ba5ad4e78f57e6df2ec4a95443b80fc469647029ed",
        "scenario.json": "501413ce3bb37ac263c5610f110980c029e582e6f94564b24dc9e6468e7a08ad",
        "stdout": "479493e004d5f1eb50a46c9cbcad89d054b9ea31168be2046964176ad4d9d9f9",
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


def _runs(*runs):
    """One row of (age, slots) runs."""
    return np.concatenate([np.full(length, age) for age, length in runs])


def _width_crossing_rows():
    # row 0 is one constant run over every slot width from 1 to 6; row 1
    # starts a settled run just before each width change
    horizon = 100_100
    row1 = np.full(horizon, 7.25)
    for k, edge in enumerate((9, 99, 9_999, 99_999)):
        row1[edge - 5:] = 3.0 + k / 3
    return np.array([_runs((1.0, 1), (2.5, horizon - 1)), row1])


def _two_digit_user_rows():
    # every row holds a settled run, so users 10 and 11 write two-digit
    # ids into numpy blocks; user 11's run is cut in two
    rows = np.tile(_runs((1.0, 1), (1.75, 3), (4.5, 296)), (12, 1))
    rows[11, 150:] = 1.0 / 3.0 + 2.0
    return rows


def _run_length_rows():
    # a run of SETTLED_RUN slots is written as a block, one slot shorter
    # through the str parts, each between distinct ages
    edge = SETTLED_RUN
    return np.array([
        _runs((1.0, 1), (1.5, edge), (2.0, 1), (1.5, edge - 1), (3.0, 1)),
        _runs((1.0, 1), (1.5, edge - 1), (2.0, 1), (1.5, edge), (3.0, 1))])


def _middle_block_rows(users, horizon):
    def rows():
        cfg = SystemConfig(horizon_T=horizon, num_users=users, alpha=0.2)
        policy = validate_policy(np.full(users, 1 / users))
        return expected_age_trajectory(
            policy, make_middle_block(cfg, users - 1), cfg).per_user
    return rows


def _ramp(anchor, length):
    """`length` ages from `anchor`, each the last plus 1.0, summed in
    sequence as the exact recursion does."""
    return np.cumsum(np.r_[anchor, np.ones(length - 1)])


def _binade_crossing_rows():
    # row 0 ramps from slot 1 past the horizon, so its last age is repr'd;
    # row 1 ramps from slot 20 with slot and age widths changing apart.
    # Both cross binades, where a +1.0 step rounds and the fraction changes
    horizon = 10_050
    return np.array([_ramp(4 / 3, horizon),
                     np.r_[np.full(19, 1.0), _ramp(1.1, horizon - 19)]])


def _ramp_length_rows():
    # ramps inside [64, 128) of SETTLED_RUN lines and of one line fewer;
    # rows 2 and 3 split one ramp of SETTLED_RUN ages between two users
    edge = SETTLED_RUN
    return np.array([
        np.r_[1.0, _ramp(64.5, edge), 2.0, _ramp(64.5, edge - 1), 3.0],
        np.r_[1.0, _ramp(64.5, edge - 1), 2.0, _ramp(64.5, edge), 3.0],
        np.r_[np.full(90, 1.0), _ramp(64.5, 40)],
        np.r_[_ramp(104.5, edge - 40), np.full(106, 1.0)]])


def _near_integer_rows():
    # anchors one float off an integer: row 0 from the float after 9.0,
    # rows 1 and 2 from either side of 9000.0, through 9,999 -> 10,000
    return np.array([_ramp(np.nextafter(9.0, 10.0), 12_000),
                     np.r_[np.full(999, 1.0), _ramp(np.nextafter(
                         9000.0, 10_000.0), 11_001)],
                     np.r_[np.full(999, 1.0), _ramp(np.nextafter(
                         9000.0, 0.0), 11_001)]])


def _repr_fallback_rows():
    # +1.0 steps near 2**53, inexact past it, with ages far above the
    # horizon, and steps through negative ages: every line is repr'd
    return np.array([_ramp(2.0**53 - 150.0, 300),
                     2.0**53 - 150.5 + np.arange(300.0),
                     _ramp(-200.5, 300)])


@pytest.mark.parametrize("rows", [
    pytest.param(_distinct_rows, id="all-distinct"),
    pytest.param(_settling_rows, id="settles-to-constant"),
    pytest.param(lambda: [[1.0], [1.0]], id="T=1"),
    pytest.param(_width_crossing_rows, id="run-crosses-slot-widths"),
    pytest.param(_two_digit_user_rows, id="two-digit-users"),
    pytest.param(_run_length_rows, id="runs-of-SETTLED_RUN-and-one-less"),
    # user 2 ramps through the block, then settles
    pytest.param(_middle_block_rows(3, 4000), id="middle-block"),
    # at p = 1/50 no row settles within 1000 slots
    pytest.param(_middle_block_rows(50, 1000), id="N=50-all-distinct"),
    pytest.param(lambda: [_runs((1.0, 1), (2.0, 999))], id="T=1000"),
    pytest.param(lambda: np.full((2, 10_000), 1.0), id="T=10000"),
    # at p = 1/2 the blocked user's ages run 3.0, 4.0, ... through the block
    pytest.param(_middle_block_rows(2, 2000), id="integer-ramp"),
    pytest.param(_binade_crossing_rows, id="ramp-crosses-binades-and-widths"),
    pytest.param(_ramp_length_rows, id="ramps-of-SETTLED_RUN-and-one-less"),
    pytest.param(lambda: [np.arange(1.0, 301.0)], id="ramp-from-slot-1"),
    pytest.param(_near_integer_rows, id="near-integer-anchors"),
    pytest.param(_repr_fallback_rows, id="near-2**53-and-negative"),
])
def test_trajectory_writer_matches_csv_writer(rows, tmp_path):
    series = _series(rows())
    write_trajectories_csv(tmp_path / "new.csv", series)
    _csv_writer_reference(tmp_path / "ref.csv", series)
    assert (tmp_path / "new.csv").read_bytes() == (
        tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("horizon", [1, 9, 10, 12_000, 80_000, 99_999,
                                     100_100])
def test_slot_digit_tables_spell_the_slot_numbers(horizon):
    # every width up to the horizon's, the last one cut at the horizon
    for width in range(1, len(str(horizon)) + 1):
        first = 10 ** (width - 1)
        slots = range(first, min(10 * first - 1, horizon) + 1)
        table = _slot_digits(width, horizon)
        assert table.dtype == np.uint8
        assert table.T.tobytes() == "".join(map(str, slots)).encode()


def test_ramp_step_adds_to_the_integer_part_of_repr():
    # the rule the ramp blocks rely on: in one binade below 2**51,
    # repr(x + k) is repr(x) with k added to its integer part.  Anchors are
    # the binade's first float, random floats, an integer and the floats
    # either side of it; k runs to the binade's end, at most 2,000 steps
    rng = np.random.default_rng(29)
    for e in range(41):
        low = 2.0**e
        whole = np.floor(low * (1 + rng.random()))
        anchors = np.r_[low, low * (1 + rng.random(2)), whole,
                        np.nextafter(whole, 0.0), np.nextafter(whole, 2**52)]
        for x in anchors[(anchors >= low) & (anchors < 2 * low)].tolist():
            head, frac = repr(x).split(".")
            steps = range(1, min(int(np.ceil(2 * low - x)), 2001))
            assert [repr(x + k) for k in steps] == [
                f"{int(head) + k}.{frac}" for k in steps], x
