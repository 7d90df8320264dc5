"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. The whole suite takes a couple of minutes; the
cavitation run dominates.
"""

import numpy as np
import pytest

from demflow.config import preset_config
from demflow.probability import check_consistency, convex_quad, extract_r
from demflow.regime import ConstantRegime, init_field
from demflow.relaxation import (kernel_range_vectors, projection_matrix,
                                reduced_jacobian, relax_continuous,
                                relax_projection)
from demflow.scheme import (Grid1D, cfl_dt, hyperbolic_step, initial_grid,
                            interface_fluxes, ensemble_flux, run)
from demflow.snapshots import OracleSpec, compare_oracle, snapshot_table, SNAPSHOT_COLUMNS
from demflow.state import (MixtureCell, PhaseCellState, Primitive, cell_rows,
                           cons_to_prim, prim_to_cons)

EPS = np.finfo(float).eps


def report(ok, label, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def snapshot_data(snap, cfg):
    table = snapshot_table(snap.grid, snap.regime_values, cfg.eos1, cfg.eos2)
    return {name: table[:, j] for j, name in enumerate(SNAPSHOT_COLUMNS)}


def oracle_report(snap, cfg, mode):
    data = snapshot_data(snap, cfg)
    return compare_oracle(data, {"t": f"{snap.t:.17g}"}, OracleSpec(mode, cfg))


def test_criterion_1_stratified_decoupling():
    """T1, r=0, no relaxation: each phase matches its own exact solution and
    the error decreases monotonically with resolution."""
    errors = {}
    for m in (250, 500, 1000):
        cfg = preset_config("t1_uniform_vf", [f"n_cells={m}"])
        snap = run(cfg)[-1]
        rep = oracle_report(snap, cfg, "phases")
        errors[m] = (rep["rho1"].l1_rel, rep["rho2"].l1_rel)
    gas = [errors[m][0] for m in (250, 500, 1000)]
    liq = [errors[m][1] for m in (250, 500, 1000)]
    ok = (errors[1000][0] < 0.05 and errors[1000][1] < 0.05
          and gas[0] > gas[1] > gas[2] and liq[0] > liq[1] > liq[2])
    report(ok, "criterion 1 (stratified decoupling)",
           f"rel-L1 rho errors gas={[f'{e:.4f}' for e in gas]}, "
           f"liquid={[f'{e:.4f}' for e in liq]} over M=(250,500,1000)")


def _disperse_diagnostics(m):
    cfg = preset_config("t1_uniform_vf", [f"n_cells={m}", "regime_r=1"])
    snap = run(cfg)[-1]
    g = snap.grid
    v1 = cons_to_prim(g.cells.phase1.cons, cfg.eos1)
    v2 = cons_to_prim(g.cells.phase2.cons, cfg.eos2)
    x = g.cell_centers()
    p_mix = 0.5 * np.asarray(v1.p) + 0.5 * np.asarray(v2.p)
    shock = int(np.argmax(np.abs(np.diff(p_mix))))
    coalescence = np.abs(np.asarray(v1.p) - np.asarray(v2.p)) / (1e9 - 1e5)
    mask = np.ones(m, dtype=bool)
    mask[max(0, shock - 10):shock + 11] = False
    rho1 = np.asarray(v1.rho)
    plateau_window = (x >= x[shock] - 0.045) & (x <= x[shock] - 0.025)
    overshoot = float(np.max(rho1) - np.median(rho1[plateau_window]))
    return float(np.max(coalescence[mask])), overshoot


def test_criterion_2_disperse_coupling():
    """T1, r=1, no relaxation: phase pressures coalesce away from the shock
    and the gas-density overshoot shrinks under refinement."""
    coal_1000, over_1000 = _disperse_diagnostics(1000)
    coal_3000, over_3000 = _disperse_diagnostics(3000)
    ok = coal_1000 < 0.02 and coal_3000 < 0.02 and over_1000 > over_3000
    report(ok, "criterion 2 (disperse coupling)",
           f"pressure coalescence {coal_1000:.4f} (M=1000), {coal_3000:.4f} (M=3000); "
           f"density overshoot {over_1000:.3f} -> {over_3000:.3f}")


def test_criterion_3_relaxed_equilibrium():
    """Either relaxation strategy leaves every cell on the equilibrium variety
    after every step, preserving alpha*rho (A exactly; B to second order)."""
    worst = {"u": 0.0, "p": 0.0, "m": 0.0}
    for strategy in (relax_continuous, relax_projection):
        cfg = preset_config("t1_uniform_vf", ["n_cells=100"])
        grid = initial_grid(cfg)
        field = init_field(ConstantRegime(0.5), grid)
        for _ in range(25):
            dt = cfl_dt(grid, 0.9, cfg.eos1, cfg.eos2)
            grid = hyperbolic_step(grid, field, dt, cfg.eos1, cfg.eos2)
            m1_pre = np.asarray(grid.cells.phase1.alpha) * np.asarray(grid.cells.phase1.cons.mass)
            m2_pre = np.asarray(grid.cells.phase2.alpha) * np.asarray(grid.cells.phase2.cons.mass)
            cells = strategy(grid.cells, cfg.eos1, cfg.eos2)
            grid = Grid1D(grid.x_min, grid.x_max, cell_rows(cells))
            v1 = cons_to_prim(cells.phase1.cons, cfg.eos1)
            v2 = cons_to_prim(cells.phase2.cons, cfg.eos2)
            worst["u"] = max(worst["u"], float(np.max(np.abs(v1.u - v2.u)
                                                      / (np.abs(v1.u) + 1.0))))
            worst["p"] = max(worst["p"], float(np.max(np.abs(v1.p - v2.p)
                                                      / np.maximum(v1.p, v2.p))))
            if strategy is relax_continuous:
                m1 = np.asarray(cells.phase1.alpha) * np.asarray(cells.phase1.cons.mass)
                m2 = np.asarray(cells.phase2.alpha) * np.asarray(cells.phase2.cons.mass)
                worst["m"] = max(worst["m"],
                                 float(np.max(np.abs(m1 - m1_pre) / m1_pre)),
                                 float(np.max(np.abs(m2 - m2_pre) / m2_pre)))

    # strategy B's alpha*rho drift is second order: halving the disequilibrium
    # divides the drift by ~4
    def drift(dp):
        cell = MixtureCell(
            PhaseCellState(0.5, prim_to_cons(Primitive(50.0, 0.0, 1e7 + dp), preset_config("t1_uniform_vf").eos1)),
            PhaseCellState(0.5, prim_to_cons(Primitive(1000.0, 0.0, 1e7 - dp), preset_config("t1_uniform_vf").eos2)),
        )
        cfg = preset_config("t1_uniform_vf")
        out = relax_projection(cell, cfg.eos1, cfg.eos2)
        m_post = out.phase1.alpha * cons_to_prim(out.phase1.cons, cfg.eos1).rho
        return abs(m_post - 25.0) / 25.0

    ratio = drift(2e5) / drift(1e5)
    ok = (worst["u"] <= 8 * EPS and worst["p"] <= 1e-9
          and worst["m"] <= 1e-12 and 3.5 <= ratio <= 4.5)
    report(ok, "criterion 3 (relaxed equilibrium)",
           f"max|u1-u2|/(|u|+1)={worst['u']:.2e}, max|p1-p2|/p={worst['p']:.2e}, "
           f"strategy-A mass drift={worst['m']:.2e}, B scaling ratio={ratio:.2f}")


def test_criterion_4_pure_phase_reproduction():
    """T3: mixture fields match the two-material exact solution for r=0 and
    r=1, and the two variants nearly coincide."""
    reps = {}
    data = {}
    for r in (0, 1):
        cfg = preset_config("t3_pure_phases", [f"regime_r={r}"])
        snap = run(cfg)[-1]
        reps[r] = oracle_report(snap, cfg, "mixture")
        data[r] = snapshot_data(snap, cfg)
    worst_err = max(reps[r][f].l1_rel for r in (0, 1)
                    for f in ("rho_mix", "u_mix", "p_mix"))
    # distance between the two variants, relative to the exact-field magnitude
    variant_gap = 0.0
    for field in ("rho_mix", "u_mix", "p_mix"):
        num = np.sum(np.abs(data[0][field] - data[1][field]))
        den = np.sum(np.abs(data[0][field]))
        variant_gap = max(variant_gap, float(num / den))
    ok = worst_err < 0.05 and variant_gap < 0.01
    report(ok, "criterion 4 (pure phases)",
           f"worst mixture rel-L1 error={worst_err:.4f}, r-variant gap={variant_gap:.5f}")


def test_criterion_5_probability_algebra():
    """Consistency identities, bounds, r round trip and phase symmetry over
    randomized volume-fraction/regime triples."""
    rng = np.random.default_rng(2024)
    n = 120_000
    al, ar = rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 1.0, n)
    r = rng.uniform(0.0, 1.0, n)
    quad = convex_quad(al, ar, r)
    rep = check_consistency(quad, al, ar, tol=1e-14)
    four_way = rep.slack["four_way_sum"]

    back = extract_r(quad, al, ar)
    lo = np.maximum(al - ar, 0.0)
    hi = np.minimum(al, 1.0 - ar)
    clear = hi - lo > 1e-3
    round_trip = float(np.max(np.abs(back[clear] - r[clear])))

    bl, br = 1.0 - al, 1.0 - ar
    r_l = extract_r(quad[::-1, ::-1], bl, br)
    lo_l = np.maximum(bl - br, 0.0)
    hi_l = np.minimum(bl, 1.0 - br)
    both = clear & (hi_l - lo_l > 1e-3)
    symmetry = float(np.max(np.abs(back[both] - r_l[both])))

    ok = (rep.ok and four_way <= 1e-14 and round_trip < 1e-12 and symmetry < 1e-12)
    report(ok, "criterion 5 (probability algebra)",
           f"violations={rep.violations()}, sum slack={four_way:.1e}, "
           f"r round-trip={round_trip:.1e}, phase symmetry={symmetry:.1e} "
           f"({n} triples, non-degenerate width > 1e-3)")


def test_criterion_6_sandwich_property():
    """Constant-r hyperbolic updates stay between the r=0 and r=1 updates."""
    cfg = preset_config("t1_uniform_vf", ["n_cells=12"])
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(1000):
        n = 12
        a1 = rng.uniform(0.05, 0.95, n)
        v1 = Primitive(rng.uniform(1.0, 80.0, n), rng.uniform(-40.0, 40.0, n),
                       rng.uniform(1e5, 5e6, n))
        v2 = Primitive(rng.uniform(700.0, 1300.0, n), rng.uniform(-40.0, 40.0, n),
                       rng.uniform(1e5, 5e6, n))
        grid = Grid1D(-1.0, 1.0, cell_rows(MixtureCell(
            PhaseCellState(a1, prim_to_cons(v1, cfg.eos1)),
            PhaseCellState(1.0 - a1, prim_to_cons(v2, cfg.eos2)))))
        dt = 0.9 * cfl_dt(grid, 0.9, cfg.eos1, cfg.eos2)

        def states(r):
            s = hyperbolic_step(grid, init_field(ConstantRegime(r), grid), dt,
                                cfg.eos1, cfg.eos2).state
            return np.vstack([s[:1], s[:1] * s[1:4], s[4:5], s[4:5] * s[5:]])

        lo, hi = states(0.0), states(1.0)
        scale = np.abs(lo) + np.abs(hi) + 1e-30
        for r in (0.25, 0.5, 0.75):
            mid = states(r)
            below = (np.minimum(lo, hi) - mid) / scale
            above = (mid - np.maximum(lo, hi)) / scale
            worst = max(worst, float(np.max(below)), float(np.max(above)))
    ok = worst <= 1e-12
    report(ok, "criterion 6 (sandwich property)",
           f"worst relative excursion outside [min,max] = {worst:.2e} over 1000 grids")


def test_criterion_7_conservation_bookkeeping():
    """Per-phase mass drift equals the boundary flux each step; strategy-A
    relaxation conserves mixture momentum and energy per cell."""
    cfg = preset_config("t1_uniform_vf", ["n_cells=64"])
    grid = initial_grid(cfg)
    field = init_field(ConstantRegime(0.4), grid)
    worst_mass = 0.0
    worst_mom = 0.0
    worst_energy = 0.0
    for _ in range(30):
        dt = cfl_dt(grid, 0.9, cfg.eos1, cfg.eos2)
        e1, e2 = ensemble_flux(interface_fluxes(grid, field, cfg.eos1, cfg.eos2))
        totals_pre = [float(np.sum(np.asarray(p.alpha) * np.asarray(p.cons.mass)))
                      for p in (grid.cells.phase1, grid.cells.phase2)]
        grid = hyperbolic_step(grid, field, dt, cfg.eos1, cfg.eos2)
        for pre, phase, e in zip(totals_pre,
                                 (grid.cells.phase1, grid.cells.phase2), (e1, e2)):
            post = float(np.sum(np.asarray(phase.alpha) * np.asarray(phase.cons.mass)))
            boundary = -dt / grid.dx * (e[0, -1] - e[0, 0])
            worst_mass = max(worst_mass, abs(post - pre - boundary) / abs(pre))

        # strategy-A relaxation conserves per cell
        def cellwise(cells):
            m1 = np.asarray(cells.phase1.alpha) * np.asarray(cells.phase1.cons.mass)
            m2 = np.asarray(cells.phase2.alpha) * np.asarray(cells.phase2.cons.mass)
            w1 = cons_to_prim(cells.phase1.cons, cfg.eos1)
            w2 = cons_to_prim(cells.phase2.cons, cfg.eos2)
            mom = (np.asarray(cells.phase1.alpha) * np.asarray(cells.phase1.cons.momentum)
                   + np.asarray(cells.phase2.alpha) * np.asarray(cells.phase2.cons.momentum))
            E = (np.asarray(cells.phase1.alpha) * np.asarray(cells.phase1.cons.energy)
                 + np.asarray(cells.phase2.alpha) * np.asarray(cells.phase2.cons.energy))
            return m1 + m2, mom, E

        mass_pre, mom_pre, E_pre = cellwise(grid.cells)
        relaxed = relax_continuous(grid.cells, cfg.eos1, cfg.eos2)
        mass_post, mom_post, E_post = cellwise(relaxed)
        mom_scale = np.abs(mom_pre) + mass_pre * 1.0
        worst_mom = max(worst_mom, float(np.max(np.abs(mom_post - mom_pre) / mom_scale)))
        worst_energy = max(worst_energy, float(np.max(np.abs(E_post - E_pre) / E_pre)))
        grid = Grid1D(grid.x_min, grid.x_max, cell_rows(relaxed))
    ok = worst_mass < 1e-10 and worst_mom < 1e-12 and worst_energy < 1e-9
    report(ok, "criterion 7 (conservation bookkeeping)",
           f"mass drift vs boundary flux={worst_mass:.2e}, relaxation momentum "
           f"drift={worst_mom:.2e}, energy drift={worst_energy:.2e}")


def test_criterion_8_cavitation():
    """T4: the expansion opens a gas pocket at the diaphragm."""
    cfg = preset_config("t4_cavitation")
    snap = run(cfg)[-1]
    alpha1 = np.asarray(snap.grid.cells.phase1.alpha)
    x = snap.grid.cell_centers()
    peak = int(np.argmax(alpha1))
    ok = alpha1[peak] >= 2e-2 and abs(x[peak]) <= 10 * snap.grid.dx
    report(ok, "criterion 8 (cavitation)",
           f"max alpha1={alpha1[peak]:.4f} at x={x[peak]:+.4f} "
           f"(threshold 0.02 within 10 cells of 0)")


def test_criterion_9_dense_to_dilute_convergence():
    """Smaller stochastic-regime amplitude pulls the solution toward the
    stratified (r=0) one, monotonically."""
    base_overrides = ["n_cells=300", "seed=3"]
    cfg0 = preset_config("t1_uniform_vf", base_overrides + ["relaxation=continuous"])
    ref = snapshot_data(run(cfg0)[-1], cfg0)
    distances = []
    for eps in (1e-2, 1e-3, 1e-4):
        cfg = preset_config("t6_dense_dilute",
                            base_overrides + [f"regime_epsilon={eps}"])
        data = snapshot_data(run(cfg)[-1], cfg)
        dist = sum(float(np.sum(np.abs(data[f] - ref[f])) / np.sum(np.abs(ref[f])))
                   for f in ("rho1", "rho2", "p1", "u2"))
        distances.append(dist)
    ok = distances[0] > distances[1] > distances[2]
    report(ok, "criterion 9 (dense-to-dilute convergence)",
           f"L1 distance to the r=0 solution: "
           + ", ".join(f"eps=1e-{i+2}: {d:.3e}" for i, d in enumerate(distances)))


def test_criterion_10_projection_identities():
    """The projection matrix restricts to the identity on reduced variables
    and annihilates the linearized source range."""
    rng = np.random.default_rng(11)
    n = 10_000
    cfg = preset_config("t1_uniform_vf")
    alpha1 = rng.uniform(0.02, 0.98, n)
    v1 = Primitive(rng.uniform(0.5, 200.0, n), rng.uniform(-100.0, 100.0, n),
                   rng.uniform(1e4, 1e9, n))
    v2 = Primitive(rng.uniform(300.0, 2000.0, n), rng.uniform(-100.0, 100.0, n),
                   rng.uniform(1e4, 1e9, n))
    cell = MixtureCell(PhaseCellState(alpha1, prim_to_cons(v1, cfg.eos1)),
                       PhaseCellState(1.0 - alpha1, prim_to_cons(v2, cfg.eos2)))
    pi = projection_matrix(cell, cfg.eos1, cfg.eos2)
    identity_resid = float(np.max(np.abs(
        np.einsum("nij,jk->nik", pi, reduced_jacobian()) - np.eye(6))))
    w1, w2 = kernel_range_vectors(cell, cfg.eos1, cfg.eos2)
    range_resid = 0.0
    for w in (w1, w2):
        out = np.einsum("nij,nj->ni", pi, w)
        scale = np.max(np.abs(w), axis=-1, keepdims=True)
        range_resid = max(range_resid, float(np.max(np.abs(out) / scale)))
    ok = identity_resid < 1e-10 and range_resid < 1e-10
    report(ok, "criterion 10 (projection identities)",
           f"|Pi dM - I|={identity_resid:.2e}, |Pi T(M)V|/|V|={range_resid:.2e} "
           f"on {n} random states")
