"""Byte-identity gate: every preset at 200 cells, run to its full t_end and
written by the CLI, must hash to the committed SHA-256. A case named
'preset+key=value' adds that override; no preset relaxes by projection, so
one case covers that path.

A change that moves a hash on purpose updates it here and states by how much
the fields moved. The hashes were taken with numpy GOLDEN_NUMPY; another numpy
or libm may move the last printed digit, so a mismatch names both versions.
"""

import hashlib

import numpy as np
import pytest

from demflow.cli import main

GOLDEN_NUMPY = "2.4.6"
GOLDEN_SHA256 = {
    "t1_uniform_vf": "bf3d74cb4d5b6d49edcb07fac8b63fa31f84e6ef99d11e185eb725fe3978bc37",
    "t2_uniform_vf_relaxed": "6c0cbcea6d3dce1a0da2fa66b8f12165a02475c40811f45d1ab36102cfd15903",
    "t3_pure_phases": "e081cb786f385cdc4d9aa69412e2ecc8464cb0335ba8ca4789dca87e39bafbf0",
    "t4_cavitation": "0f762eb7b76acff4a18026d93fc2d9f1c35ea674a0978158e2de94bb66117f39",
    "t5_piecewise_r": "3651ed7cb424d920910587859e1af201f3f31bf1dabac2283cef039be7563e4e",
    "t6_dense_dilute": "5355d36f219bad19bc8e31b4b44258d9fec24ed07ccbb97d4e5000836e701fd7",
    "t6_dense_dilute+relaxation=projection":
        "8ee417ae22e01e6d8a2aa3f8226fcca427fa6723ba3c04569ee3880b8f399cb2",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_preset_snapshot_matches_golden_hash(name, tmp_path):
    preset, *overrides = name.split("+")
    out = tmp_path / "golden.csv"
    args = ["preset", preset, "--override", "n_cells=200", "-o", str(out)]
    for override in overrides:
        args += ["--override", override]
    assert main(args) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == GOLDEN_SHA256[name], (
        f"{name} snapshot hash {digest} differs from the golden "
        f"{GOLDEN_SHA256[name]} (golden taken with numpy {GOLDEN_NUMPY}, "
        f"running numpy {np.__version__})")
