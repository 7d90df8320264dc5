"""Command-line driver.

Subcommands: run a config file, expand a named preset with overrides, query a
single exact Riemann problem, compare a snapshot against its exact solution,
and sweep a run over constant regime values. Exit code 0 on success; any
package error prints a diagnostic and returns 1.
"""

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

from .config import available_presets, parse_config, preset_config
from .eos import EosParams
from .errors import ConfigError, DemflowError
from .regime import ConstantRegime
from .riemann import exact_rp
from .scheme import run
from .snapshots import (compare_oracle, oracle_from_string, read_snapshot,
                        snapshot_meta, write_snapshot)
from .state import Primitive


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="demflow",
        description="1D compressible two-phase flow solver with a one-parameter "
                    "stratified/disperse regime family.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a config file")
    p_run.add_argument("config", help="path to a key=value config file")
    p_run.add_argument("-o", "--output", help="output CSV path (overrides config)")

    p_pre = sub.add_parser("preset", help="run a bundled experiment preset")
    p_pre.add_argument("name", nargs="?", help="preset name (omit with --list)")
    p_pre.add_argument("--override", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key (repeatable)")
    p_pre.add_argument("--list", action="store_true", help="list available presets")
    p_pre.add_argument("-o", "--output", help="output CSV path")

    p_rp = sub.add_parser("riemann", help="solve one exact Riemann problem")
    p_rp.add_argument("left", help="left state as rho,u,p")
    p_rp.add_argument("right", help="right state as rho,u,p")
    p_rp.add_argument("--gamma-left", type=float, default=1.4)
    p_rp.add_argument("--pi-left", type=float, default=0.0)
    p_rp.add_argument("--gamma-right", type=float, default=1.4)
    p_rp.add_argument("--pi-right", type=float, default=0.0)
    p_rp.add_argument("--sample", metavar="XI1,XI2,...",
                      help="sample the solution at these x/t values; write a list "
                           "that starts with '-' as --sample=-1,0,1")

    p_cmp = sub.add_parser("compare", help="compare a snapshot to its exact solution")
    p_cmp.add_argument("snapshot", help="snapshot CSV path")
    p_cmp.add_argument("oracle", help="oracle spec: phases:<preset> or mixture:<preset>")

    p_swp = sub.add_parser("sweep-r", help="repeat a run across constant r values")
    p_swp.add_argument("config", help="path to a key=value config file")
    p_swp.add_argument("--values", required=True, metavar="R1,R2,...",
                       help="comma-separated constant regime values")
    p_swp.add_argument("-o", "--output", help="output prefix (overrides config output)")
    return parser


def _load_config(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config(text)


def _write_all(config, snapshots, output):
    if output is None:
        raise ConfigError("no output path: set output= in the config or pass -o")
    paths = []
    base = Path(output)
    for index, snap in enumerate(snapshots):
        if len(snapshots) == 1:
            path = base
        else:
            path = base.with_name(f"{base.stem}_{index:03d}{base.suffix or '.csv'}")
        meta = snapshot_meta(config, snap.t)
        write_snapshot(path, snap.grid, snap.t, snap.regime_values, meta,
                       config.eos1, config.eos2)
        paths.append((path, snap.t))
    return paths


def _cmd_run(config, output):
    snapshots = run(config)
    for path, t in _write_all(config, snapshots, output or config.output):
        print(f"wrote {path} (t = {t:.9e} s)")
    return 0


def _parse_state(text, label):
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError(f"{label} state must be rho,u,p, got {text!r}")
    try:
        rho, u, p = (float(tok) for tok in parts)
    except ValueError:
        raise ConfigError(f"cannot parse {label} state {text!r}") from None
    return Primitive(rho, u, p)


def _float_list(text, option):
    """The floats of a comma-separated option value, empty entries skipped;
    each must be finite, as in a config."""
    values = []
    for tok in filter(str.strip, text.split(",")):
        try:
            values.append(float(tok))
        except ValueError:
            raise ConfigError(f"cannot parse {option} entry {tok!r}") from None
        if not math.isfinite(values[-1]):
            raise ConfigError(f"{option} must be finite, got {tok!r}")
    return values


def _cmd_riemann(args):
    left = _parse_state(args.left, "left")
    right = _parse_state(args.right, "right")
    samples = _float_list(args.sample or "", "--sample")
    sol = exact_rp(left, right,
                   EosParams(args.gamma_left, args.pi_left),
                   EosParams(args.gamma_right, args.pi_right))
    print(f"p_star = {sol.p_star:.12g}")
    print(f"u_star = {sol.u_star:.12g}")
    for side, (kind, head, tail) in (("left", sol.left_wave), ("right", sol.right_wave)):
        if kind == "shock":
            print(f"{side} wave: shock, speed {head:.12g}")
        else:
            print(f"{side} wave: rarefaction, head {head:.12g}, tail {tail:.12g}")
    print(f"iterations = {sol.iterations}, residual = {sol.residual:.3e}")
    if samples:
        print("xi,rho,u,p")
        for xi in samples:
            v = sol(xi)
            print(f"{xi:.17g},{float(v.rho):.17g},{float(v.u):.17g},{float(v.p):.17g}")
    return 0


def _cmd_compare(args):
    meta, data = read_snapshot(args.snapshot)
    report = compare_oracle(data, meta, oracle_from_string(args.oracle))
    for field, err in report.items():
        print(f"{field}: l1 = {err.l1:.6e}, linf = {err.linf:.6e}, "
              f"rel_l1 = {err.l1_rel:.6e}")
    return 0


def _cmd_sweep(args):
    config = _load_config(args.config)
    output = args.output or config.output
    if output is None:
        raise ConfigError("no output prefix: set output= in the config or pass -o")
    base = Path(output)
    values = _float_list(args.values, "--values")
    if not values:
        raise ConfigError("sweep-r needs at least one value")
    # one file per value, named by its 6 significant digits ({:g}); -0 is
    # run and named as 0. A value outside [0, 1] and values that share a name
    # are rejected before any member runs
    members = {}
    for value in values:
        path = base.with_name(f"{base.stem}_r{value + 0.0:g}{base.suffix or '.csv'}")
        if path in members:
            raise ConfigError(f"--values {members[path][0]!r} and {value!r} both write {path}")
        try:
            members[path] = value, ConstantRegime(value + 0.0)
        except ConfigError as exc:
            raise ConfigError(str(exc), where=f"--values {value!r}") from None
    for path, (_, policy) in members.items():
        cfg = replace(config, regime_policy=policy)
        _write_all(cfg, run(cfg)[-1:], path)
        print(f"wrote {path} (r = {policy.value:g})")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(_load_config(args.config), args.output)
        if args.command == "preset":
            if args.list or args.name is None:
                for name in available_presets():
                    print(name)
                return 0
            config = preset_config(args.name, args.override)
            return _cmd_run(config, args.output)
        if args.command == "riemann":
            return _cmd_riemann(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "sweep-r":
            return _cmd_sweep(args)
        raise ConfigError(f"unknown command {args.command!r}")
    except (DemflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
