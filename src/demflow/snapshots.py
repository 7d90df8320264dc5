"""Snapshot CSV output, the matching reader, and exact-solution comparison.

A snapshot is '# key=value' header lines followed by one comma-separated row
per cell, every float printed with 17 significant digits so re-reading is
bit-exact. The writer converts each distinct value of a block of rows once
and reuses its text; the output is still byte for byte what
np.savetxt(fmt="%.17g", delimiter=",") writes. compare_oracle measures
discrete L1 and Linf distances between a snapshot and the appropriate exact
Riemann solution, sampling the latter as cell averages (finite-volume cells
hold averages, not point values).
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .config import RunConfig, preset_config
from .errors import ConfigError
from .regime import RNG_ALGORITHM
from .riemann import exact_rp
from .state import Primitive, mixture_quantities, phase_primitives

SNAPSHOT_COLUMNS = (
    "x", "alpha1", "rho1", "u1", "p1", "rho2", "u2", "p2",
    "rho_mix", "u_mix", "p_mix", "r_left_interface",
)

# midpoint sub-samples per cell when averaging the exact solution
ORACLE_SUBSAMPLES = 9

# rows go out in blocks of _WRITE_BLOCK, which bounds the rows and text held
# in memory at once
_WRITE_BLOCK = 4096


def _fmt(v):
    return f"{float(v):.17g}"


def snapshot_meta(config: RunConfig, t: float) -> dict:
    """A snapshot's header; `seed` is the policy's (0 for one that draws nothing)."""
    policy = config.regime_policy
    return {
        "t": _fmt(t),
        "n_cells": str(config.n_cells),
        "seed": str(getattr(policy, "seed", 0)),
        "cfl": _fmt(config.cfl),
        "relaxation": config.relaxation,
        "regime": policy.describe(),
        "rng": RNG_ALGORITHM,
        "x_min": _fmt(config.x_min),
        "x_max": _fmt(config.x_max),
        "diaphragm": _fmt(config.diaphragm),
    }


def snapshot_columns(grid, regime_values, eos1, eos2) -> list:
    """The 12 snapshot columns, each a float array of n_cells."""
    cells = grid.cells
    v1, v2 = phase_primitives(cells, eos1, eos2)
    columns = (grid.cell_centers(), cells.phase1.alpha, v1.rho, v1.u, v1.p, v2.rho, v2.u, v2.p,
               *mixture_quantities(cells, eos1, eos2), np.asarray(regime_values)[:-1])
    return [np.asarray(c, dtype=float) for c in columns]


def write_snapshot(path, grid, t, regime_values, meta: dict, eos1, eos2):
    """Write one snapshot; meta rows come first as '# key=value' lines. Rows
    are stacked one block at a time, so no whole (n_cells, 12) table is held."""
    columns = snapshot_columns(grid, regime_values, eos1, eos2)
    with open(path, "w", encoding="utf-8") as handle:
        for key, value in meta.items():
            handle.write(f"# {key}={value}\n")
        handle.write(",".join(SNAPSHOT_COLUMNS) + "\n")
        for start in range(0, len(columns[0]), _WRITE_BLOCK):
            block = np.column_stack([c[start:start + _WRITE_BLOCK] for c in columns])
            handle.write(_block_text(block))


def _block_text(block):
    """The rows of a block as text, each distinct value converted once.

    Values are keyed by bit pattern, so -0.0 and 0.0 keep their own text. The
    last column ends its row with a newline, not a comma, so it has its own
    keys.
    """
    rows, last = block.shape[0], block.shape[1] - 1
    bits = block.view(np.uint64)
    keys, inverse = np.unique(bits[:, :last], return_inverse=True)
    last_keys, last_inverse = np.unique(bits[:, last], return_inverse=True)
    cells = np.empty(block.shape, dtype=object)
    # the inverse of a 2-D input is flat or 2-D depending on the numpy version
    cells[:, :last] = _texts(keys, ",")[inverse.reshape(rows, last)]
    cells[:, last] = _texts(last_keys, "\n")[last_inverse.reshape(rows)]
    return "".join(cells.ravel().tolist())


def _texts(keys, end):
    """Each float bit pattern of `keys` as '%.17g' text followed by `end`, in
    an object array that indexes like `keys`."""
    values = tuple(keys.view(np.float64).tolist())
    return np.array(((f"%.17g{end}\0" * len(values)) % values).split("\0")[:-1], dtype=object)


def read_snapshot(path):
    """Read a snapshot back: (meta dict, column dict of float arrays)."""
    meta = {}
    names = None
    with open(path, "r", encoding="utf-8") as handle:
        for raw in handle:  # header lines up to and including the column names
            line = raw.strip()
            if line.startswith("#"):
                key, _, value = line.lstrip("# ").partition("=")
                meta[key.strip()] = value.strip()
            elif line:
                names = tuple(line.split(","))
                break
        if names != SNAPSHOT_COLUMNS:
            raise ConfigError(f"unexpected snapshot columns {names!r}")
        try:
            with warnings.catch_warnings():
                # an empty table is reported below, not as numpy's UserWarning
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(handle, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ConfigError(f"malformed snapshot table in {path}: {exc}") from None
    if data.shape[0] == 0 or data.shape[1] != len(SNAPSHOT_COLUMNS):
        raise ConfigError(f"malformed snapshot table in {path}")
    return meta, {name: data[:, j] for j, name in enumerate(SNAPSHOT_COLUMNS)}


@dataclass(frozen=True)
class FieldError:
    """Discrete error norms of one field against the oracle."""

    l1: float
    linf: float
    l1_rel: float


@dataclass(frozen=True)
class OracleSpec:
    """Which exact solution to compare against.

    mode 'phases': each phase against its own single-material Riemann
    solution (decoupled runs). mode 'mixture': mixture fields against the
    two-material Riemann solution between the majority materials.
    """

    mode: str
    config: RunConfig


def oracle_from_string(text: str) -> OracleSpec:
    """Parse 'phases:<preset>' or 'mixture:<preset>'."""
    mode, sep, preset = text.partition(":")
    if not sep or mode not in ("phases", "mixture"):
        raise ConfigError(f"oracle spec must be phases:<preset> or mixture:<preset>, got {text!r}")
    return OracleSpec(mode=mode, config=preset_config(preset))


def _cell_average(solution, x, dx, t, n_sub=ORACLE_SUBSAMPLES):
    offsets = (np.arange(n_sub) + 0.5) / n_sub - 0.5
    xs = (x[:, None] + dx * offsets[None, :]).ravel()
    sampled = solution(xs / t)
    def avg(field):
        return np.mean(np.asarray(field).reshape(len(x), n_sub), axis=1)
    return Primitive(avg(sampled.rho), avg(sampled.u), avg(sampled.p))


def compare_oracle(data: dict, meta: dict, spec: OracleSpec) -> dict:
    """Per-field L1 = sum |q - q_exact| dx, Linf, and relative L1
    (sum |q - q_exact| / sum |q_exact|; where q_exact is 0 in every cell, inf
    if q differs from it and 0 if not)."""
    cfg = spec.config
    try:
        t = float(meta.get("t", "nan"))
    except ValueError:
        t = float("nan")
    if not (np.isfinite(t) and t > 0.0):
        raise ConfigError("oracle comparison needs the snapshot header t to be a "
                          f"finite time > 0, got {meta.get('t', 'no t line')!r}")
    x = np.asarray(data["x"], dtype=float)
    # the snapshot fixes the resolution; the oracle config must cover the
    # same domain (initial states, EOS and diaphragm come from the config)
    dx = (cfg.x_max - cfg.x_min) / x.size
    span = cfg.x_max - cfg.x_min
    if (abs(x[0] - (cfg.x_min + 0.5 * dx)) > 1e-9 * span
            or abs(x[-1] - (cfg.x_max - 0.5 * dx)) > 1e-9 * span):
        raise ConfigError("snapshot grid does not cover the oracle config's domain")
    x0 = x - cfg.diaphragm

    def prim(init):
        return Primitive(init.rho, init.u, init.p)

    comparisons = []
    if spec.mode == "phases":
        sol1 = exact_rp(prim(cfg.left1), prim(cfg.right1), cfg.eos1, cfg.eos1)
        sol2 = exact_rp(prim(cfg.left2), prim(cfg.right2), cfg.eos2, cfg.eos2)
        for sol, tag in ((sol1, "1"), (sol2, "2")):
            exact = _cell_average(sol, x0, dx, t)
            comparisons += [(f"rho{tag}", exact.rho), (f"u{tag}", exact.u),
                            (f"p{tag}", exact.p)]
    else:
        left = cfg.left1 if cfg.left1.alpha >= 0.5 else cfg.left2
        right = cfg.right1 if cfg.right1.alpha >= 0.5 else cfg.right2
        eos_left = cfg.eos1 if left is cfg.left1 else cfg.eos2
        eos_right = cfg.eos1 if right is cfg.right1 else cfg.eos2
        sol = exact_rp(prim(left), prim(right), eos_left, eos_right)
        exact = _cell_average(sol, x0, dx, t)
        comparisons += [("rho_mix", exact.rho), ("u_mix", exact.u), ("p_mix", exact.p)]

    report = {}
    for field, exact in comparisons:
        diff = np.abs(data[field] - exact)
        total, scale = float(np.sum(diff)), float(np.sum(np.abs(exact)))
        report[field] = FieldError(
            l1=total * dx,
            linf=float(np.max(diff)),
            l1_rel=total / scale if scale else (np.inf if total else 0.0),
        )
    return report
