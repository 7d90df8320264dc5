import io
import re
import warnings

import numpy as np
import pytest

from demflow import snapshots
from demflow.cli import main
from demflow.config import (EPS_VF, PhaseSideInit, available_presets,
                            parse_config, preset_config)
from demflow.errors import ConfigError
from demflow.regime import ConstantRegime, PiecewiseRegime, StochasticRegime
from demflow.scheme import run
from demflow.snapshots import (SNAPSHOT_COLUMNS, compare_oracle,
                               oracle_from_string, read_snapshot, snapshot_meta,
                               snapshot_table, write_snapshot)

MINIMAL = """
# two-chamber tube
x_min = -1
x_max = 1
n_cells = 16
t_end = 1e-5
gamma1 = 1.4
pi_inf1 = 0
gamma2 = 4.4
pi_inf2 = 6e8
left_alpha1 = 0.5
left_rho1 = 50
left_u1 = 0
left_p1 = 1e6
left_alpha2 = 0.5
left_rho2 = 1000
left_u2 = 0
left_p2 = 1e6
right_alpha1 = 0.5
right_rho1 = 50
right_u1 = 0
right_p1 = 1e5
right_alpha2 = 0.5
right_rho2 = 1000
right_u2 = 0
right_p2 = 1e5
"""


def test_parse_minimal_config_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.n_cells == 16
    assert cfg.cfl == 0.9
    assert cfg.diaphragm == 0.0
    assert cfg.relaxation == "none"
    assert cfg.regime_policy == ConstantRegime(0.0)
    assert cfg.seed == 0
    assert cfg.output is None


# each passed the parser at one time: t_end=nan ran to t = 0, t_end=inf ran
# until killed, x_min=-inf ran with a NaN x column, left_u1=inf failed in
# the first step as a pressure fault, regime_breakpoints=nan ran with r = 0
# everywhere and regime_epsilon=nan failed in step 1 on the r range
@pytest.mark.parametrize("preset, override", [
    ("t1_uniform_vf", "t_end=nan"),
    ("t1_uniform_vf", "t_end=inf"),
    ("t1_uniform_vf", "x_min=-inf"),
    ("t1_uniform_vf", "left_u1=inf"),
    ("t5_piecewise_r", "regime_breakpoints=nan"),
    ("t6_dense_dilute", "regime_epsilon=nan"),
    ("t5_piecewise_r", "regime_values=0.1,-inf,1,0.5"),
    ("t1_uniform_vf", "snapshots=1e-5,NaN"),
])
def test_config_rejects_non_finite_numbers_naming_the_override(preset, override):
    key, _, raw = override.partition("=")
    message = re.escape(f"override {override}: {key} must be finite, got '{raw}'")
    with pytest.raises(ConfigError, match=f"^{message}$"):
        preset_config(preset, [override])


# each value type checks its own fields; the config names the key a failing
# rule reads (gamma1=0.5 once named nothing, and the three piecewise values
# passed the config and failed in init_field, naming nothing; a breakpoint
# outside the domain was caught only in init_field, naming nothing)
@pytest.mark.parametrize("preset, override", [
    ("t1_uniform_vf", "gamma1=0.5"),
    ("t1_uniform_vf", "pi_inf2=-1"),
    ("t5_piecewise_r", "regime_values=0.1,0.2,1.5,0.3"),
    ("t5_piecewise_r", "regime_breakpoints=0.5,0.2,0.7"),
    ("t5_piecewise_r", "regime_values=0.1,0.2"),
    ("t5_piecewise_r", "regime_breakpoints=-0.52,0.395,3"),
])
def test_value_type_errors_name_the_override(preset, override):
    with pytest.raises(ConfigError, match=f"^override {re.escape(override)}: "):
        preset_config(preset, [override])


def test_config_rejects_non_finite_numbers_naming_the_line():
    with pytest.raises(ConfigError, match=r"^line 6: t_end must be finite, got 'inf'$"):
        parse_config(MINIMAL.replace("t_end = 1e-5", "t_end = inf"))


def test_unknown_key_reports_line_number():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("x_min = -1\nx_max = 1\nbogus_key = 2\n")


def test_malformed_value_reports_line_number():
    bad = MINIMAL.replace("left_rho1 = 50", "left_rho1 = fifty")
    with pytest.raises(ConfigError, match="left_rho1"):
        parse_config(bad)


def test_missing_required_key_rejected():
    bad = "\n".join(line for line in MINIMAL.splitlines() if "right_p2" not in line)
    with pytest.raises(ConfigError, match="right_p2"):
        parse_config(bad)


def test_saturation_violation_rejected():
    bad = MINIMAL.replace("left_alpha2 = 0.5", "left_alpha2 = 0.6")
    with pytest.raises(ConfigError, match="saturate"):
        parse_config(bad)


def test_volume_fraction_floor_enforced():
    bad = MINIMAL.replace("left_alpha1 = 0.5", "left_alpha1 = 1e-9")
    bad = bad.replace("left_alpha2 = 0.5", "left_alpha2 = 0.999999999")
    with pytest.raises(ConfigError, match="alpha1"):
        parse_config(bad)
    assert EPS_VF == 1e-6


def test_inadmissible_state_rejected():
    bad = MINIMAL.replace("left_p2 = 1e6", "left_p2 = -7e8")
    with pytest.raises(ConfigError, match="inadmissible") as info:
        parse_config(bad)
    assert "at cell" not in str(info.value)


def test_inadmissible_initial_state_cites_its_key():
    # a density fault cites the density line, a pressure fault the pressure line
    lines = MINIMAL.splitlines()
    for old, new in (("left_rho1 = 50", "left_rho1 = -5"), ("right_p2 = 1e5", "right_p2 = -7e8")):
        with pytest.raises(ConfigError) as info:
            parse_config(MINIMAL.replace(old, new))
        assert str(info.value).startswith(f"line {lines.index(old) + 1}: ")
    with pytest.raises(ConfigError, match=r"^line 4: left phase 1 state inadmissible: "
                                          r"non-positive or non-finite density$"):
        parse_config("preset = t1_uniform_vf\nn_cells = 8\nt_end = 0\nleft_rho1 = -5\n")
    with pytest.raises(ConfigError, match=r"^override left_rho1=-5: left phase 1 state"):
        preset_config("t1_uniform_vf", ["left_rho1=-5"])
    with pytest.raises(ConfigError, match=r"^unknown preset 'nope'"):
        preset_config("nope")


def test_preset_t1_matches_reference_data():
    cfg = preset_config("t1_uniform_vf")
    assert cfg.n_cells == 1000
    assert cfg.t_end == 100e-6
    assert cfg.eos1 == pytest.approx((1.4, 0.0)) or cfg.eos1.gamma == 1.4
    assert cfg.eos1.pi_inf == 0.0
    assert cfg.eos2.gamma == 4.4 and cfg.eos2.pi_inf == 6e8
    assert cfg.left1 == PhaseSideInit(0.5, 50.0, 0.0, 1e9)
    assert cfg.right1 == PhaseSideInit(0.5, 50.0, 0.0, 1e5)
    assert cfg.left2 == PhaseSideInit(0.5, 1000.0, 0.0, 1e9)
    assert cfg.right2 == PhaseSideInit(0.5, 1000.0, 0.0, 1e5)
    assert cfg.relaxation == "none"
    assert cfg.regime_policy == ConstantRegime(0.0)


def test_preset_t3_and_t4_reference_data():
    t3 = preset_config("t3_pure_phases")
    assert t3.left1.alpha == 1e-6 and t3.left1.p == 2e8
    assert t3.right1.p == 1e5
    assert t3.t_end == 229e-6
    t4 = preset_config("t4_cavitation")
    assert t4.left1.alpha == 1e-2
    assert t4.left1.u == -10.0 and t4.right1.u == 10.0
    assert t4.n_cells == 2000 and t4.t_end == 2e-3


def test_preset_t5_piecewise_values():
    cfg = preset_config("t5_piecewise_r")
    assert isinstance(cfg.regime_policy, PiecewiseRegime)
    assert cfg.regime_policy.breakpoints == (-0.52, 0.395, 0.761)
    assert cfg.regime_policy.values == (0.13, 0.47, 1.0, 0.69)


def test_preset_overrides_apply():
    cfg = preset_config("t1_uniform_vf", ["n_cells=250", "regime_r=1", "seed=9"])
    assert cfg.n_cells == 250
    assert cfg.regime_policy == ConstantRegime(1.0)
    assert cfg.seed == 9


def test_config_file_with_preset_expansion():
    cfg = parse_config("preset=t6_dense_dilute\nregime_epsilon=1e-2\nn_cells=100\n")
    assert isinstance(cfg.regime_policy, StochasticRegime)
    assert cfg.regime_policy.epsilon == 1e-2
    assert cfg.n_cells == 100


def test_duplicate_keys_last_wins():
    cfg = parse_config(MINIMAL + "\ncfl=0.5\ncfl=0.8\n")
    assert cfg.cfl == 0.8


def test_uniform_regime_policy_through_config():
    from demflow.regime import UniformRandomRegime
    cfg = parse_config(MINIMAL + "\nregime=uniform\nseed=4\n")
    assert cfg.regime_policy == UniformRandomRegime(seed=4)
    snaps = run(cfg)
    assert np.all((snaps[-1].regime_values >= 0.0) & (snaps[-1].regime_values <= 1.0))


def small_run_config(**kw):
    overrides = [f"{k}={v}" for k, v in kw.items()]
    return preset_config("t1_uniform_vf", ["n_cells=32", "t_end=5e-6", *overrides])


@pytest.mark.parametrize("name", available_presets())
def test_every_preset_runs_at_reduced_scale(name):
    cfg = preset_config(name, ["n_cells=48", "t_end=2e-6"])
    snap = run(cfg)[-1]
    a1 = np.asarray(snap.grid.cells.phase1.alpha)
    a2 = np.asarray(snap.grid.cells.phase2.alpha)
    assert np.max(np.abs(a1 + a2 - 1.0)) <= 1e-12
    assert np.all(np.isfinite(snap.grid.state))


def test_run_zero_end_time_returns_initial_condition():
    cfg = small_run_config(t_end=0)
    snaps = run(cfg)
    assert len(snaps) == 1
    assert snaps[0].t == 0.0
    v = np.asarray(snaps[0].grid.cells.phase1.cons.mass)
    assert np.all(v == 50.0)


def test_run_hits_snapshot_times_exactly():
    cfg = small_run_config(snapshots="1e-6,3e-6")
    snaps = run(cfg)
    assert [s.t for s in snaps] == [1e-6, 3e-6, 5e-6]


def test_run_emits_requested_initial_snapshot():
    cfg = small_run_config(snapshots="0,2e-6")
    snaps = run(cfg)
    assert [s.t for s in snaps] == [0.0, 2e-6, 5e-6]


def test_run_wraps_errors_with_time_context(monkeypatch):
    from demflow import scheme
    from demflow.errors import InvalidStateError

    def boom(*args, **kwargs):
        raise InvalidStateError("synthetic failure")

    monkeypatch.setattr(scheme, "hyperbolic_step", boom)
    with pytest.raises(InvalidStateError, match=r"at t = .* step 1"):
        run(small_run_config())


def test_snapshot_round_trip_is_bit_exact(tmp_path):
    cfg = small_run_config()
    snap = run(cfg)[-1]
    table = snapshot_table(snap.grid, snap.regime_values, cfg.eos1, cfg.eos2)
    path = tmp_path / "snap.csv"
    write_snapshot(path, snap.grid, snap.t, snap.regime_values,
                   snapshot_meta(cfg, snap.t), cfg.eos1, cfg.eos2)
    meta, data = read_snapshot(path)
    assert float(meta["t"]) == snap.t
    assert meta["seed"] == "0" and meta["relaxation"] == "none"
    assert meta["rng"] == "numpy-pcg64"
    assert len(data) == 12
    for j, name in enumerate(SNAPSHOT_COLUMNS):
        assert np.array_equal(data[name], table[:, j]), name


def test_uniform_grid_gives_constant_columns():
    uniform = MINIMAL.replace("left_p1 = 1e6", "left_p1 = 1e5")
    uniform = uniform.replace("left_p2 = 1e6", "left_p2 = 1e5")
    cfg = parse_config(uniform)
    snap = run(cfg)[-1]
    table = snapshot_table(snap.grid, snap.regime_values, cfg.eos1, cfg.eos2)
    for j in range(1, table.shape[1]):  # every column except x
        assert np.ptp(table[:, j]) == 0.0


def test_run_determinism_bitwise(tmp_path):
    paths = []
    for tag in ("a", "b"):
        cfg = preset_config("t6_dense_dilute",
                            ["n_cells=64", "t_end=2e-6", "seed=11"])
        snap = run(cfg)[-1]
        path = tmp_path / f"{tag}.csv"
        write_snapshot(path, snap.grid, snap.t, snap.regime_values,
                       snapshot_meta(cfg, snap.t), cfg.eos1, cfg.eos2)
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]


def test_compare_oracle_zero_for_exact_samples(tmp_path):
    # write a snapshot whose fields are the cell-averaged exact solution
    cfg = small_run_config()
    snaps = run(cfg)
    spec = oracle_from_string("phases:t1_uniform_vf")
    spec = type(spec)(mode="phases", config=cfg)
    meta = {"t": f"{snaps[-1].t:.17g}"}
    from demflow.snapshots import _cell_average
    from demflow.riemann import exact_rp
    from demflow.state import Primitive
    x = snaps[-1].grid.cell_centers()
    dx = snaps[-1].grid.dx
    data = {"x": x}
    for tag, (l, r), eos in (("1", (cfg.left1, cfg.right1), cfg.eos1),
                             ("2", (cfg.left2, cfg.right2), cfg.eos2)):
        sol = exact_rp(Primitive(l.rho, l.u, l.p), Primitive(r.rho, r.u, r.p), eos, eos)
        exact = _cell_average(sol, x - cfg.diaphragm, dx, snaps[-1].t)
        data[f"rho{tag}"] = np.asarray(exact.rho)
        data[f"u{tag}"] = np.asarray(exact.u)
        data[f"p{tag}"] = np.asarray(exact.p)
    report = compare_oracle(data, meta, spec)
    for err in report.values():
        assert err.l1 == 0.0 and err.linf == 0.0


def test_compare_oracle_rejects_grid_mismatch():
    spec = oracle_from_string("phases:t1_uniform_vf")
    # node-centered coordinates do not match the domain's cell centers
    with pytest.raises(ConfigError, match="domain"):
        compare_oracle({"x": np.linspace(-1, 1, 10)}, {"t": "1e-4"}, spec)
    # wrong domain entirely
    with pytest.raises(ConfigError, match="domain"):
        compare_oracle({"x": np.linspace(0.05, 0.95, 10)}, {"t": "1e-4"}, spec)


# ----------------------------------------------------------------- CLI

def test_cli_preset_run_and_compare(tmp_path, capsys):
    out = tmp_path / "t1.csv"
    code = main(["preset", "t1_uniform_vf",
                 "--override", "n_cells=64", "--override", "t_end=5e-6",
                 "-o", str(out)])
    assert code == 0
    assert out.exists()
    meta, data = read_snapshot(out)
    assert meta["n_cells"] == "64"
    # the snapshot fixes the resolution; comparison works at any mesh size
    assert main(["compare", str(out), "phases:t1_uniform_vf"]) == 0
    report = capsys.readouterr().out
    for field in ("rho1", "u1", "p1", "rho2", "u2", "p2"):
        assert field in report


def test_cli_run_config_file(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(MINIMAL + f"\noutput={tmp_path / 'out.csv'}\n")
    assert main(["run", str(cfg_path)]) == 0
    assert (tmp_path / "out.csv").exists()


def test_cli_run_multiple_snapshot_files(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(MINIMAL + "\nsnapshots=2e-6,6e-6\n")
    assert main(["run", str(cfg_path), "-o", str(tmp_path / "series.csv")]) == 0
    names = sorted(p.name for p in tmp_path.glob("series_*.csv"))
    assert names == ["series_000.csv", "series_001.csv", "series_002.csv"]
    meta, _ = read_snapshot(tmp_path / "series_002.csv")
    assert float(meta["t"]) == 1e-5


def test_cli_riemann_query(capsys):
    assert main(["riemann", "1,0,1", "0.125,0,0.1", "--sample", "0,0.5"]) == 0
    out = capsys.readouterr().out
    assert "p_star = 0.30313" in out
    assert "left wave: rarefaction" in out
    assert "right wave: shock" in out
    # a list starting with '-' is written with '=', or argparse reads an option
    assert main(["riemann", "1,0,1", "0.125,0,0.1", "--sample=-1,0,1"]) == 0
    rows = capsys.readouterr().out.split("xi,rho,u,p\n")[1].splitlines()
    assert [row.split(",")[0] for row in rows] == ["-1", "0", "1"]


# each ran at one time: inf gamma, pi_inf or velocity failed to bracket the
# exact solver's root (inf pi_inf with a RuntimeWarning), a nan sample printed
# a row for xi = nan
@pytest.mark.parametrize("args, error", [
    (["50,inf,1e5", "1000,0,1e5"], "left state: non-finite velocity, got inf"),
    (["50,0,1e5", "1000,-inf,1e5"], "right state: non-finite velocity, got -inf"),
    (["1,0,1", "0.125,0,0.1", "--gamma-left=inf"], "gamma must be finite and exceed 1, got inf"),
    (["1,0,1", "0.125,0,0.1", "--pi-left=inf"], "pi_inf must be finite and non-negative, got inf"),
    (["1,0,1", "0.125,0,0.1", "--sample=nan,0"], "--sample must be finite, got 'nan'"),
], ids=["velocity_left", "velocity_right", "gamma", "pi_inf", "sample"])
def test_cli_riemann_rejects_non_finite_numbers(args, error, capsys):
    assert main(["riemann", *args]) == 1
    assert capsys.readouterr() == ("", f"error: {error}\n")


def test_cli_riemann_rejects_inadmissible_side(capsys):
    # a single state has no cell index to report
    for left, right, expected in (("1,0,-1", "0.125,0,0.1", "left state: pressure below"),
                                  ("1,0,1", "0.125,0,-0.1", "right state: pressure below"),
                                  ("1,0,1", "0,0,0.1", "right state: non-positive or "
                                                       "non-finite density")):
        assert main(["riemann", left, right]) == 1
        err = capsys.readouterr().err
        assert f"error: {expected}" in err and "at cell" not in err


def test_cli_override_errors_name_the_override(capsys):
    # an override is no line of any file: its errors name the override
    assert main(["preset", "t1_uniform_vf", "--override", "left_p2=-7e8"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: override left_p2=-7e8: left phase 2 state inadmissible")
    assert "line " not in err and "at cell" not in err
    assert main(["preset", "t1_uniform_vf", "--override", "t_end=1e-6",
                 "--override", "n_cells=abc"]) == 1
    err = capsys.readouterr().err
    assert err == "error: override n_cells=abc: cannot parse n_cells='abc'\n"


@pytest.mark.parametrize("overrides", [["seed=-1"], ["regime=uniform", "seed=-1"]],
                         ids=["stochastic", "uniform"])
def test_cli_negative_seed_names_the_override(overrides, capsys):
    # numpy's generator takes no negative seed: a random policy rejects it
    # where it is built, before any run starts
    args = [a for o in overrides for a in ("--override", o)]
    assert main(["preset", "t6_dense_dilute", *args]) == 1
    assert capsys.readouterr().err == (
        "error: override seed=-1: regime seed must be non-negative, got -1\n")


def test_config_negative_seed_names_its_line():
    with pytest.raises(ConfigError, match=r"^line 2: regime seed must be non-negative"):
        parse_config("preset = t6_dense_dilute\nseed = -2\n")
    # a constant regime never reads its seed
    assert parse_config("preset = t1_uniform_vf\nseed = -2\n").seed == -2


def test_cli_sweep_r(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(MINIMAL)
    assert main(["sweep-r", str(cfg_path), "--values", "0,1",
                 "-o", str(tmp_path / "sweep.csv")]) == 0
    assert (tmp_path / "sweep_r0.csv").exists()
    assert (tmp_path / "sweep_r1.csv").exists()


def test_cli_sweep_r_rejects_values_sharing_a_file_name(tmp_path, capsys):
    # file names carry 6 significant digits: two values that agree in them
    # would write one file, so nothing runs
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(MINIMAL)
    out = tmp_path / "sw.csv"
    assert main(["sweep-r", str(cfg_path), "--values", "0.5,0.1234561,0.1234564",
                 "-o", str(out)]) == 1
    assert capsys.readouterr().err == (f"error: --values 0.1234561 and 0.1234564 both write "
                                       f"{tmp_path / 'sw_r0.123456.csv'}\n")
    assert not list(tmp_path.glob("sw*"))


def test_cli_sweep_r_rejects_unparsable_value(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(MINIMAL)
    assert main(["sweep-r", str(cfg_path), "--values", "0,abc",
                 "-o", str(tmp_path / "sweep.csv")]) == 1
    assert capsys.readouterr().err == "error: cannot parse --values entry 'abc'\n"
    assert not list(tmp_path.glob("sweep*"))


def test_cli_sweep_r_rejects_value_outside_unit_range_before_running(tmp_path, capsys):
    # the valid value listed first must not run either
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(MINIMAL)
    assert main(["sweep-r", str(cfg_path), "--values", "0.5,1.5",
                 "-o", str(tmp_path / "sw.csv")]) == 1
    assert capsys.readouterr().err == (
        "error: --values 1.5: regime value 1.5 outside [0, 1]\n")
    assert not list(tmp_path.glob("sw*"))


def test_cli_riemann_rejects_unparsable_sample(capsys):
    assert main(["riemann", "1,0,1", "0.125,0,0.1", "--sample", "0,x"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: cannot parse --sample entry 'x'\n"


def test_cli_reports_errors_with_nonzero_exit(tmp_path, capsys):
    missing = tmp_path / "nope.cfg"
    assert main(["run", str(missing)]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["preset", "no_such_preset"]) == 1
    # unwritable output path surfaces as a diagnostic, not a traceback
    assert main(["preset", "t1_uniform_vf", "--override", "n_cells=8",
                 "--override", "t_end=0", "-o",
                 str(tmp_path / "no_dir" / "out.csv")]) == 1


def test_cli_compare_rejects_malformed_snapshot(tmp_path, capsys):
    good = tmp_path / "good.csv"
    assert main(["preset", "t1_uniform_vf", "--override", "n_cells=8",
                 "--override", "t_end=1e-6", "-o", str(good)]) == 0
    lines = good.read_text().splitlines()
    first_row = lines.index(",".join(SNAPSHOT_COLUMNS)) + 1
    non_numeric = lines.copy()
    non_numeric[first_row + 2] = non_numeric[first_row + 2].replace(",", ",abc,", 1)
    ragged = lines.copy()
    ragged[first_row + 3] += ",1.0"
    for tag, text in (("non_numeric", non_numeric), ("ragged", ragged)):
        bad = tmp_path / f"{tag}.csv"
        bad.write_text("\n".join(text) + "\n")
        with pytest.raises(ConfigError, match="malformed snapshot table"):
            read_snapshot(bad)
        assert main(["compare", str(bad), "phases:t1_uniform_vf"]) == 1
        assert f"{tag}.csv" in capsys.readouterr().err


@pytest.mark.parametrize("header, got", [
    (None, "'no t line'"),
    ("# t=abc", "'abc'"),
    ("# t=nan", "'nan'"),
], ids=["missing", "unparsable", "nan"])
def test_cli_compare_rejects_a_bad_time_header(tmp_path, capsys, header, got):
    good = tmp_path / "good.csv"
    assert main(["preset", "t1_uniform_vf", "--override", "n_cells=8",
                 "--override", "t_end=1e-6", "-o", str(good)]) == 0
    lines = [line for line in good.read_text().splitlines() if not line.startswith("# t=")]
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines if header is None else [header, *lines]) + "\n")
    capsys.readouterr()
    assert main(["compare", str(bad), "phases:t1_uniform_vf"]) == 1
    assert capsys.readouterr() == ("", "error: oracle comparison needs the snapshot header t "
                                       f"to be a finite time > 0, got {got}\n")


def test_write_snapshot_rows_match_savetxt(tmp_path, monkeypatch):
    # block-formatted rows are byte for byte what np.savetxt writes, across
    # block boundaries and for signed zeros, subnormals and extreme exponents
    rng = np.random.default_rng(5)
    rows = 2 * snapshots._WRITE_BLOCK + 3
    table = rng.standard_normal((rows, len(SNAPSHOT_COLUMNS))) * 10.0 ** rng.integers(
        -300, 300, (rows, len(SNAPSHOT_COLUMNS)))
    table[0, :4] = (-0.0, 0.0, 5e-324, -1.7976931348623157e308)
    monkeypatch.setattr(snapshots, "snapshot_table", lambda *args: table)
    path = tmp_path / "rows.csv"
    write_snapshot(path, None, 0.0, None, {"t": "0"}, None, None)
    expected = io.StringIO()
    np.savetxt(expected, table, fmt="%.17g", delimiter=",")
    header = "# t=0\n" + ",".join(SNAPSHOT_COLUMNS) + "\n"
    assert path.read_text() == header + expected.getvalue()
    _, data = read_snapshot(path)
    assert np.column_stack([data[c] for c in SNAPSHOT_COLUMNS]).tobytes() == table.tobytes()


def test_read_snapshot_header_only_raises_config_error(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# t=0\n" + ",".join(SNAPSHOT_COLUMNS) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="malformed snapshot table"):
            read_snapshot(path)


def test_cli_preset_list(capsys):
    assert main(["preset", "--list"]) == 0
    out = capsys.readouterr().out
    assert "t1_uniform_vf" in out and "t6_dense_dilute" in out
    assert available_presets() == sorted(available_presets())
