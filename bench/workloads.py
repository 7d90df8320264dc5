"""The benchmark's workloads: inputs made from a seed, the set-up a user pays
before the first step, one closed-loop job, and the checks that gate it.

Each workload stresses a different layer of demflow:

* sweep_small: t1_uniform_vf at 100 cells, no relaxation, one run per
  constant r as `demflow sweep-r` does. Python per-call overhead dominates
  and relaxation is never reached, so batching the Riemann solves or
  recovering primitives once shows here while relaxation changes must not.
* cavitation_relaxed: t4_cavitation at 500 cells to the full 2 ms with
  continuous relaxation (strategy A). The damped-Newton relaxation takes
  about 40 % of the time with the water in tension, so a closed-form
  relaxation shows here.
* large_grid_io: t6_dense_dilute (stochastic r walk) at 1e5 cells with
  projection relaxation (strategy B) for 18 steps, writing an intermediate
  and a final snapshot and reading the final one back. Memory traffic and
  snapshot I/O (about half the job) dominate; per-call batching gains fade.

Only the public library API is used. `dm` is the imported demflow package,
passed in so that this module (stdlib only) can be imported before demflow:
the set-up probe times `import demflow` itself. Counted runs are the members
of a sweep; each raises or passes its checks on its own. A workload's
precheck (cavitation_relaxed: the relaxer conserves what it must) runs once
per benchmark run, before the measured jobs, and counts as one run.
"""

import hashlib
import random
import sys
import time
import traceback
from dataclasses import dataclass, field

# sweep_small: the r = 0 member plus members with r drawn one per equal bin
# of [SWEEP_R_MIN, 1]. Below ~0.2 the CFL step count climbs from ~32 towards
# the 42 of r = 0, so keeping seeded draws above it keeps the work per job
# nearly independent of the seed.
SWEEP_MEMBERS = 8
SWEEP_R_MIN = 0.25
SWEEP_CELLS = 100
# cavitation_relaxed: expansion speed 10 m/s (the preset's) scaled by
# 1 + U(-0.05, 0.05); 909 steps and ~3.6 Newton iterations per step
# throughout this band.
CAVITATION_CELLS = 500
CAVITATION_U = 10.0
CAVITATION_U_JITTER = 0.05
LARGE_CELLS = 100_000
LARGE_T_END = "6e-8"
LARGE_T_MID = "3e-8"

# Correctness tolerances, set before any optimisation so that legitimate
# last-digit changes pass. Measured values on the seed commit are in
# parentheses.
# Max over rho, u, p of both phases of the relative L1 error of the r = 0
# sweep member against the exact single-phase solutions (0.170, from u2).
L1_REL_TOL = 0.25
# Per-phase mass where no scheme term exchanges it and waves stay inside the
# tube: every flux difference telescopes (0 relative drift).
MASS_RTOL_EXACT = 1e-12
# Per-phase mass under projection relaxation, which drifts at second order
# in the pre-relaxation pressure disequilibrium (6.8e-7 relative).
MASS_RTOL_PROJECTION = 1e-5
# Mirror symmetry of the t4 final state, per field, relative to the field's
# largest magnitude (3.8e-13 for rho1; alpha1 7.4e-15 absolute).
SYMMETRY_RTOL = 1e-9
# Relaxed equilibrium: |p1 - p2| relative to max|p| + max(pi_inf)
# (6.1e-7 Pa over 6e8 Pa), |u1 - u2| relative to max|u| (1.8e-15 m/s over
# 10 m/s). The Newton stop test itself allows 1e-10 of the pressure scale.
EQUILIBRIUM_RTOL = 1e-9
# The relaxer applied to the first hyperbolic step's output must keep, per
# cell, each alpha_k rho_k, the mixture momentum and the mixture total
# energy, each relative to its largest magnitude (4.7e-16 at most).
CONSERVATION_RTOL = 1e-12


class CheckFailed(Exception):
    """A correctness check of a run's output failed."""


@dataclass
class Setup:
    """What a user has once configs are parsed, grids built and regime
    fields initialised: one config per counted run, each run's initial
    per-phase mass, and (sweep_small) the parsed oracle."""

    configs: list
    masses: list
    oracle: object = None


@dataclass
class JobResult:
    """One closed-loop job. Times cover only the library calls: wall_s all
    of them, solve_s the solver's."""

    runs: int = 0
    failures: list = field(default_factory=list)
    wall_s: float = 0.0
    solve_s: float = 0.0
    bytes_written: int = 0
    sha256: dict = field(default_factory=dict)
    l1_rel_err: float | None = None

    def timed(self, fn, *args, solve=False):
        start = time.perf_counter()
        out = fn(*args)
        elapsed = time.perf_counter() - start
        self.wall_s += elapsed
        if solve:
            self.solve_s += elapsed
        return out

    def attempt(self, label, fn, *args):
        """Count one run of fn; an exception is its failure, not the job's."""
        self.runs += 1
        try:
            fn(*args)
        except Exception as exc:  # one failed run must not stop the job
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    preset: str
    make_inputs: object  # seed -> dict of plain values
    make_overrides: object  # inputs -> list of override lists, one per run
    member: object  # (dm, setup, index, workdir, result) -> None
    oracle: str | None = None
    precheck: object = None  # (dm, setup) -> None, once per benchmark run

    def inputs(self, seed):
        return self.make_inputs(random.Random(seed))

    def setup(self, dm, inputs):
        configs = [dm.preset_config(self.preset, ov)
                   for ov in self.make_overrides(inputs)]
        masses = []
        for cfg in configs:
            grid = dm.initial_grid(cfg)
            dm.init_field(cfg.regime_policy, grid)
            masses.append(phase_masses(grid))
        oracle = dm.oracle_from_string(self.oracle) if self.oracle else None
        return Setup(configs, masses, oracle)

    def job(self, dm, setup, workdir):
        result = JobResult()
        for index in range(len(setup.configs)):
            result.attempt(f"{self.name} run {index}", self.member,
                           dm, setup, index, workdir, result)
        return result

    def check(self, dm, setup):
        """The precheck, if any, counted as one run. It calls hooked library
        functions, so it runs outside the measured jobs."""
        result = JobResult()
        if self.precheck is not None:
            result.attempt(f"{self.name} precheck", self.precheck, dm, setup)
        return result


def phase_masses(grid):
    """Sum over cells of alpha_k rho_k for both phases (the dx factor is
    common and omitted)."""
    import numpy as np
    cells = grid.cells
    return tuple(float(np.sum(np.asarray(ph.alpha, dtype=float)
                              * np.asarray(ph.cons.mass, dtype=float)))
                 for ph in (cells.phase1, cells.phase2))


def check_mass(grid, initial, rtol):
    for phase, (m0, m1) in enumerate(zip(initial, phase_masses(grid)), start=1):
        drift = abs(m1 - m0) / abs(m0)
        if not drift <= rtol:
            raise CheckFailed(f"phase {phase} mass drifted by {drift:.3e} "
                              f"(relative), limit {rtol:g}")


def write_snapshot(dm, cfg, snap, path, result):
    meta = dm.snapshots.snapshot_meta(cfg, snap.t)
    result.timed(dm.write_snapshot, path, snap.grid, snap.t,
                 snap.regime_values, meta, cfg.eos1, cfg.eos2)
    data = path.read_bytes()
    result.bytes_written += len(data)
    result.sha256[path.name] = hashlib.sha256(data).hexdigest()


# -- sweep_small ------------------------------------------------------------

def _sweep_inputs(rng):
    width = (1.0 - SWEEP_R_MIN) / (SWEEP_MEMBERS - 1)
    draws = [SWEEP_R_MIN + (i + rng.random()) * width
             for i in range(SWEEP_MEMBERS - 1)]
    return {"r_values": [0.0] + draws}


def _sweep_overrides(inputs):
    return [[f"n_cells={SWEEP_CELLS}", f"regime_r={r!r}"]
            for r in inputs["r_values"]]


def _sweep_member(dm, setup, index, workdir, result):
    cfg = setup.configs[index]
    final = result.timed(dm.run, cfg, solve=True)[-1]
    path = workdir / f"sweep_{index}.csv"
    write_snapshot(dm, cfg, final, path, result)
    check_mass(final.grid, setup.masses[index], MASS_RTOL_EXACT)
    if index == 0:  # r = 0: the phases decouple and have exact solutions
        meta, data = result.timed(dm.read_snapshot, path)
        report = result.timed(dm.compare_oracle, data, meta, setup.oracle)
        result.l1_rel_err = max(err.l1_rel for err in report.values())
        if not result.l1_rel_err <= L1_REL_TOL:
            raise CheckFailed(f"r=0 relative L1 error {result.l1_rel_err:.4g} "
                              f"exceeds {L1_REL_TOL}")


# -- cavitation_relaxed -----------------------------------------------------

def _cavitation_inputs(rng):
    scale = 1.0 + CAVITATION_U_JITTER * (2.0 * rng.random() - 1.0)
    return {"u": CAVITATION_U * scale}


def _cavitation_overrides(inputs):
    u = inputs["u"]
    return [[f"n_cells={CAVITATION_CELLS}",
             f"left_u1={-u!r}", f"left_u2={-u!r}",
             f"right_u1={u!r}", f"right_u2={u!r}"]]


def _max_rel(diff, scale):
    import numpy as np
    return float(np.max(np.abs(diff)) / scale) if scale > 0.0 else 0.0


def check_mirror_and_equilibrium(dm, cfg, grid):
    """The symmetric expansion must stay mirror symmetric (velocities
    antisymmetric) and the relaxed state must share p and u."""
    import numpy as np
    cells = grid.cells
    v1 = dm.cons_to_prim(cells.phase1.cons, cfg.eos1)
    v2 = dm.cons_to_prim(cells.phase2.cons, cfg.eos2)
    alpha1 = np.asarray(cells.phase1.alpha, dtype=float)
    fields = {"alpha1": (alpha1, 1), "rho1": (v1.rho, 1), "p1": (v1.p, 1),
              "u1": (v1.u, -1), "rho2": (v2.rho, 1), "p2": (v2.p, 1),
              "u2": (v2.u, -1)}
    for name, (values, parity) in fields.items():
        values = np.asarray(values, dtype=float)
        err = _max_rel(values - parity * values[::-1], np.max(np.abs(values)))
        if not err <= SYMMETRY_RTOL:
            raise CheckFailed(f"mirror symmetry of {name} broken by {err:.3e} "
                              f"(relative), limit {SYMMETRY_RTOL:g}")
    p_scale = (max(np.max(np.abs(v1.p)), np.max(np.abs(v2.p)))
               + max(cfg.eos1.pi_inf, cfg.eos2.pi_inf))
    u_scale = max(np.max(np.abs(v1.u)), np.max(np.abs(v2.u)))
    for name, diff, scale in (("p1 - p2", v1.p - v2.p, p_scale),
                              ("u1 - u2", v1.u - v2.u, u_scale)):
        err = _max_rel(diff, scale)
        if not err <= EQUILIBRIUM_RTOL:
            raise CheckFailed(f"relaxed state out of equilibrium: |{name}| is "
                              f"{err:.3e} of its scale, limit {EQUILIBRIUM_RTOL:g}")


def _mixture_sums(cells):
    """Per-cell alpha_k rho_k, mixture momentum and mixture total energy."""
    import numpy as np
    (a1, c1), (a2, c2) = [(np.asarray(ph.alpha, dtype=float), ph.cons)
                          for ph in (cells.phase1, cells.phase2)]
    return {"alpha1 rho1": a1 * c1.mass, "alpha2 rho2": a2 * c2.mass,
            "momentum": a1 * c1.momentum + a2 * c2.momentum,
            "total energy": a1 * c1.energy + a2 * c2.energy}


def check_relaxer_conserves(dm, setup):
    """Apply the configured relaxer to the first hyperbolic step's output,
    which is out of pressure and velocity equilibrium near the initial
    discontinuity; nothing it conserves may change in any cell."""
    import numpy as np
    for cfg in setup.configs:
        grid = dm.initial_grid(cfg)
        regime = dm.init_field(cfg.regime_policy, grid)
        dt = dm.cfl_dt(grid, cfg.cfl, cfg.eos1, cfg.eos2)
        cells = dm.hyperbolic_step(grid, regime, dt, cfg.eos1, cfg.eos2).cells
        relax = getattr(dm, f"relax_{cfg.relaxation}")
        before = _mixture_sums(cells)
        after = _mixture_sums(relax(cells, cfg.eos1, cfg.eos2))
        for name, values in before.items():
            err = _max_rel(after[name] - values, np.max(np.abs(values)))
            if not err <= CONSERVATION_RTOL:
                raise CheckFailed(f"relax_{cfg.relaxation} changed the {name} of a "
                                  f"cell by {err:.3e} (relative), limit "
                                  f"{CONSERVATION_RTOL:g}")


def _cavitation_member(dm, setup, index, workdir, result):
    cfg = setup.configs[index]
    final = result.timed(dm.run, cfg, solve=True)[-1]
    write_snapshot(dm, cfg, final, workdir / "cavitation.csv", result)
    check_mirror_and_equilibrium(dm, cfg, final.grid)


# -- large_grid_io ----------------------------------------------------------

def _large_inputs(rng):
    return {"regime_seed": rng.randrange(2**31)}


def _large_overrides(inputs):
    return [[f"n_cells={LARGE_CELLS}", "relaxation=projection",
             f"t_end={LARGE_T_END}", f"snapshots={LARGE_T_MID}",
             f"seed={inputs['regime_seed']}"]]


def check_round_trip(dm, cfg, snap, meta, data):
    """Every column read back must equal, bit for bit, the value the solver
    state gives for it."""
    import numpy as np
    cells = snap.grid.cells
    v1 = dm.cons_to_prim(cells.phase1.cons, cfg.eos1)
    v2 = dm.cons_to_prim(cells.phase2.cons, cfg.eos2)
    rho_mix, u_mix, p_mix = dm.mixture_quantities(cells, cfg.eos1, cfg.eos2)
    expected = {
        "x": snap.grid.cell_centers(), "alpha1": cells.phase1.alpha,
        "rho1": v1.rho, "u1": v1.u, "p1": v1.p,
        "rho2": v2.rho, "u2": v2.u, "p2": v2.p,
        "rho_mix": rho_mix, "u_mix": u_mix, "p_mix": p_mix,
        "r_left_interface": np.asarray(snap.regime_values)[:-1],
    }
    if float(meta.get("t", "nan")) != snap.t:
        raise CheckFailed("snapshot time did not survive the round trip")
    for name, values in expected.items():
        if name not in data or not np.array_equal(
                np.asarray(data[name]), np.asarray(values, dtype=float)):
            raise CheckFailed(f"snapshot column {name} did not round-trip "
                              "bit-exactly")


def _large_member(dm, setup, index, workdir, result):
    cfg = setup.configs[index]
    snaps = result.timed(dm.run, cfg, solve=True)
    if len(snaps) != 2:
        raise CheckFailed(f"expected 2 snapshots, got {len(snaps)}")
    write_snapshot(dm, cfg, snaps[0], workdir / "large_mid.csv", result)
    path = workdir / "large_final.csv"
    write_snapshot(dm, cfg, snaps[1], path, result)
    meta, data = result.timed(dm.read_snapshot, path)
    check_round_trip(dm, cfg, snaps[1], meta, data)
    check_mass(snaps[1].grid, setup.masses[index], MASS_RTOL_PROJECTION)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="sweep_small",
        why="t1 tube at 100 cells, 8-member constant-r sweep, no relaxation: "
            "Python per-call overhead dominates and relaxation is bypassed",
        preset="t1_uniform_vf",
        make_inputs=_sweep_inputs, make_overrides=_sweep_overrides,
        member=_sweep_member, oracle="phases:t1_uniform_vf"),
    Workload(
        name="cavitation_relaxed",
        why="t4 cavitation at 500 cells to 2 ms with Newton relaxation, "
            "~40% of the time in relaxation with the water in tension",
        preset="t4_cavitation",
        make_inputs=_cavitation_inputs, make_overrides=_cavitation_overrides,
        member=_cavitation_member, precheck=check_relaxer_conserves),
    Workload(
        name="large_grid_io",
        why="t6 stochastic-r tube at 1e5 cells with projection relaxation "
            "and 2 writes + 1 read of 18 MB snapshots: memory traffic and I/O",
        preset="t6_dense_dilute",
        make_inputs=_large_inputs, make_overrides=_large_overrides,
        member=_large_member),
)}
