"""Byte-identity gate: every preset at 200 cells, run to its full t_end and
written by the CLI, must hash to the committed SHA-256. A case named
'preset+key=value+...' adds those overrides, applied after n_cells=200; no
preset relaxes by projection, so one case covers that path, and one case of
9000 cells spans three snapshot write blocks (every other case is one).

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
    "t1_uniform_vf": "1abc95a757515c3be8720a809641c9d59f1838eb038c203bcdc72947b3ce5015",
    "t2_uniform_vf_relaxed": "02d9ad9a6745710b2617361cfb18684224ae8bce8792a5a84ba3abdb3d740512",
    "t3_pure_phases": "d95646c127206ac68e370f6d86c906c6b63e44925ca94a9df80231b40dd01da8",
    "t4_cavitation": "53337693b6b10c023f3efcaa7e082c13ec2709b3200d748ca2d6ad4b1d1c5602",
    "t5_piecewise_r": "7f2bc3fe9fa46e94167514f6563d69e9c333dec10a08125393ef80256d860a14",
    "t6_dense_dilute": "d1718780432338699fd8dcc181c4f0de9c957fba2a25657307a910cd252bedee",
    "t6_dense_dilute+relaxation=projection":
        "a002007c0f7144a5d7a664f462a87e3df7ddc0be478e31b562499f0cfa16598d",
    "t6_dense_dilute+relaxation=projection+n_cells=9000+t_end=2e-6":
        "09e921db3dfebdc6430bb7a35700b9c86c8ca0d5238922bf3ed9665cdb3fccb3",
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
