import os
import re
import sys
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import demflow
from demflow import scheme, state
from demflow.config import preset_config
from demflow.eos import EosParams
from demflow.errors import InvalidStateError, SolverError
from demflow.probability import convex_quad
from demflow.regime import ConstantRegime, init_field
from demflow.relaxation import relax_continuous, relax_projection
from demflow.riemann import hllc, thermo_state
from demflow.scheme import (Grid1D, boundary_lagrangian, cfl_dt, hyperbolic_step,
                            initial_grid, ensemble_flux, run, volume_fraction_rhs)
from demflow.snapshots import snapshot_columns
from demflow.state import (MixtureCell, PhaseCellState, Primitive, cell_rows,
                           cons_to_prim, mixture_quantities, phase_primitives, prim_to_cons)
from oracles import interface_fluxes, kernel_range_vectors, projection_matrix
from test_state import PRECEDENCE, precedence_rows, rows_cells

GAS = EosParams(1.4, 0.0)
LIQUID = EosParams(4.4, 6.0e8)


def make_grid(a1, v1, v2, x_min=-1.0, x_max=1.0, eos1=GAS, eos2=LIQUID):
    a1 = np.asarray(a1, dtype=float)
    return Grid1D(x_min, x_max, cell_rows(MixtureCell(
        PhaseCellState(alpha=a1, cons=prim_to_cons(v1, eos1)),
        PhaseCellState(alpha=1.0 - a1, cons=prim_to_cons(v2, eos2)),
    )))


def uniform_primitive(n, rho, u, p):
    return Primitive(np.full(n, float(rho)), np.full(n, float(u)), np.full(n, float(p)))


def random_grid(n, seed=0):
    rng = np.random.default_rng(seed)
    a1 = rng.uniform(0.1, 0.9, n)
    v1 = Primitive(rng.uniform(1.0, 100.0, n), rng.uniform(-30.0, 30.0, n),
                   rng.uniform(2e5, 1e6, n))
    v2 = Primitive(rng.uniform(800.0, 1200.0, n), rng.uniform(-30.0, 30.0, n),
                   rng.uniform(2e5, 1e6, n))
    return make_grid(a1, v1, v2)


def supersonic_grid(n, seed=0):
    """random_grid with the gas streaming supersonically through its first
    and last quarters (|u1| > a1 there), to the right and to the left, so
    that some phase-1 fans see x/t = 0 outside the star region."""
    rng = np.random.default_rng(seed)
    state = random_grid(n, seed=seed).state.copy()
    q = n // 4
    # gas at rho in [50, 100], p in [2e5, 3e5]: sound speed below 90 m/s
    rho = rng.uniform(50.0, 100.0, n)
    u = np.concatenate([rng.uniform(300.0, 400.0, q), np.zeros(n - 2 * q),
                        rng.uniform(-400.0, -300.0, q)])
    cons = prim_to_cons(Primitive(rho, u, rng.uniform(2e5, 3e5, n)), GAS)
    for row, x in zip((1, 2, 3), (cons.mass, cons.momentum, cons.energy)):
        state[row, :q], state[row, -q:] = x[:q], x[-q:]
    return Grid1D(-1.0, 1.0, state)


def count_supersonic_calls(monkeypatch):
    """Wrap scheme.hllc; the returned list gets, per call, whether any of its
    interfaces had x/t = 0 outside the star region (s_L >= 0 or s_R < 0)."""
    seen = []

    def watched(left, right, *args, solve=scheme.hllc):
        fan = solve(left, right, *args)
        seen.append(bool(np.any((fan.s_left >= 0.0) | (fan.s_right < 0.0))))
        return fan

    monkeypatch.setattr(scheme, "hllc", watched)
    return seen


def constant_field(grid, r):
    return init_field(ConstantRegime(r), grid)


def phase_prims(grid):
    return (np.asarray(grid.cells.phase1.alpha),
            cons_to_prim(grid.cells.phase1.cons, GAS),
            np.asarray(grid.cells.phase2.alpha),
            cons_to_prim(grid.cells.phase2.cons, LIQUID))


def lagrangian_flux(fan):
    """The star region's F* - sigma U* = p* [0, 1, sigma] of a scalar fan."""
    return np.array([0.0, fan.p_star, fan.p_star * fan.sigma])


def reference_step(grid, r_values, dt, eos1=GAS, eos2=LIQUID):
    """Scalar-loop transliteration of the semi-discrete scheme, as the oracle
    for the vectorized assembly. Phase 2's terms are written out from the
    generic formulas rather than reusing phase 1's negation."""
    n = grid.n_cells
    a = {1: np.asarray(grid.cells.phase1.alpha, float),
         2: np.asarray(grid.cells.phase2.alpha, float)}
    v = {1: cons_to_prim(grid.cells.phase1.cons, eos1),
         2: cons_to_prim(grid.cells.phase2.cons, eos2)}
    eos = {1: eos1, 2: eos2}

    def val(arr, i):
        return float(np.asarray(arr)[min(max(i, 0), n - 1)])

    def prim(k, i):
        return Primitive(val(v[k].rho, i), val(v[k].u, i), val(v[k].p, i))

    E = {k: np.zeros((3, n + 1)) for k in (1, 2)}
    plus = {k: np.zeros((3, n + 1)) for k in (1, 2)}
    minus = {k: np.zeros((3, n + 1)) for k in (1, 2)}
    vplus = {k: np.zeros(n + 1) for k in (1, 2)}
    vminus = {k: np.zeros(n + 1) for k in (1, 2)}

    for j in range(n + 1):
        il, ir = j - 1, j
        fan = {}
        for kl in (1, 2):
            for kr in (1, 2):
                fan[kl, kr] = hllc(thermo_state(prim(kl, il), eos[kl]),
                                   thermo_state(prim(kr, ir), eos[kr]))
        P = convex_quad(val(a[1], il), val(a[1], ir), r_values[j])
        prob = {(kl, kr): float(P[kl - 1, kr - 1]) for kl in (1, 2) for kr in (1, 2)}
        b = {(kl, kr): (1.0 if fan[kl, kr].sigma >= 0.0 else -1.0)
             for kl in (1, 2) for kr in (1, 2)}
        for k in (1, 2):
            l = 3 - k
            E[k][:, j] = (prob[k, k] * fan[k, k].flux0
                          + max(b[k, l], 0.0) * prob[k, l] * fan[k, l].flux0
                          + max(-b[l, k], 0.0) * prob[l, k] * fan[l, k].flux0)
            flag_lk = lagrangian_flux(fan[l, k])
            flag_kl = lagrangian_flux(fan[k, l])
            plus[k][:, j] = (max(b[l, k], 0.0) * prob[l, k] * flag_lk
                             - max(b[k, l], 0.0) * prob[k, l] * flag_kl)
            minus[k][:, j] = (max(-b[l, k], 0.0) * prob[l, k] * flag_lk
                              - max(-b[k, l], 0.0) * prob[k, l] * flag_kl)
            vplus[k][j] = (max(b[l, k], 0.0) * prob[l, k] * -fan[l, k].sigma
                           - max(b[k, l], 0.0) * prob[k, l] * -fan[k, l].sigma)
            vminus[k][j] = (max(-b[l, k], 0.0) * prob[l, k] * -fan[l, k].sigma
                            - max(-b[k, l], 0.0) * prob[k, l] * -fan[k, l].sigma)

    lam = dt / grid.dx
    out = {}
    for k in (1, 2):
        U = grid.state[4 * k - 3:4 * k]
        aU = a[k] * U - lam * (E[k][:, 1:] - E[k][:, :-1]) \
            + lam * (plus[k][:, :-1] + minus[k][:, 1:])
        alpha_new = a[k] + lam * (vplus[k][:-1] + vminus[k][1:])
        out[k] = (alpha_new, aU / alpha_new)
    return out


# ------------------------------------------------------ cross-pair switches

def test_cross_pair_switches_are_on_at_zero_contact_speed():
    # gas and liquid at rest at equal pressure: both cross-pair contacts
    # stand still (sigma is -0.0), and a contact at 0 counts as >= 0, so its
    # sampled state belongs to the left phase
    n = 4
    grid = make_grid(np.full(n, 0.5), uniform_primitive(n, 1.2, 0.0, 1e5),
                     uniform_primitive(n, 1000.0, 0.0, 1e5))
    ifs = interface_fluxes(grid, constant_field(grid, 0.5), GAS, LIQUID)
    for pairing, on in (((0, 1), ifs.on[0]), ((1, 0), ifs.on[1])):
        assert np.all(ifs.fan.sigma[pairing] == 0.0)
        assert on.dtype == float and np.all(on == 1.0)


def edge_copied_sides(v, n):
    """Primitives of the cells left and right of each of the n + 1
    interfaces, the outer cells copies of the edge cells."""
    cols = np.arange(-1, n + 1).clip(0, n - 1)
    rho, u, p = (np.asarray(x)[cols] for x in (v.rho, v.u, v.p))
    return Primitive(rho[:-1], u[:-1], p[:-1]), Primitive(rho[1:], u[1:], p[1:])


def two_gas_grid(n, seed=0):
    """Two gases streaming supersonically to the right through the first
    third, resting in the middle third and streaming to the left through the
    last, so that every pairing has interfaces on both sides of the fan."""
    rng = np.random.default_rng(seed)
    third = n // 3
    sign = np.concatenate([np.ones(third), np.zeros(n - 2 * third), -np.ones(third)])
    # rho in [50, 100], p in [2e5, 3e5]: sound speeds below 90 m/s
    v1, v2 = (Primitive(rng.uniform(50.0, 100.0, n), sign * rng.uniform(300.0, 400.0, n),
                        rng.uniform(2e5, 3e5, n)) for _ in range(2))
    return make_grid(rng.uniform(0.1, 0.9, n), v1, v2, eos2=GAS)


@pytest.mark.parametrize("case, supersonic_pairings", [
    ("t1_uniform_vf", 1), ("t3_pure_phases", 1), ("two_gases", 4), ("at_rest", 0)])
def test_four_pairing_call_equals_four_calls_bitwise(case, supersonic_pairings):
    # the step's one (2, 2, m) hllc call against four separate calls on the
    # edge-copied cells of each phase: the final t1 and t3 states have
    # supersonic gas interfaces (one pairing needs the physical flux, the
    # others not), two gases have them in every pairing, and gas and liquid
    # at rest give sigma = -0.0 across phases
    if case in ("two_gases", "at_rest"):
        n = 30
        grid = (two_gas_grid(n) if case == "two_gases" else
                make_grid(np.full(n, 0.5), uniform_primitive(n, 1.2, 0.0, 1e5),
                          uniform_primitive(n, 1000.0, 0.0, 1e5)))
        eos = (GAS, GAS) if case == "two_gases" else (GAS, LIQUID)
        field = constant_field(grid, 0.5)
    else:
        cfg = preset_config(case, ["n_cells=200"])
        grid = run(cfg)[-1].grid
        field, eos = init_field(cfg.regime_policy, grid), (cfg.eos1, cfg.eos2)
    ifs = interface_fluxes(grid, field, *eos)
    sides = [edge_copied_sides(v, grid.n_cells)
             for v in state.phase_primitives(grid.cells, *eos)]
    supersonic = 0
    for k in (0, 1):
        for l in (0, 1):
            fan = hllc(thermo_state(sides[k][0], eos[k]), thermo_state(sides[l][1], eos[l]))
            beyond = (fan.s_left >= 0.0) | (fan.s_right < 0.0)
            supersonic += bool(np.any(beyond)) and not np.all(beyond)
            for name in ("flux0", "sigma", "p_star", "s_left", "s_right"):
                got = getattr(ifs.fan, name)[..., k, l, :]
                assert got.tobytes() == getattr(fan, name).tobytes(), (k, l, name)
            if case == "at_rest" and k != l:
                assert np.all(fan.sigma == 0.0) and np.all(np.signbit(fan.sigma))
    assert supersonic == supersonic_pairings


# ----------------------------------------------------- cross fans without weight

# gas, and liquid in tension, both streaming left: between them HLLC puts
# the contact at 1166 m/s, right of s_R = 1077 m/s (exact_rp finds vacuum)
FAN_GAS = (16.05, -908.0, 5.5e5)
FAN_LIQUID = (304.6, -139.0, -4.98e8)


def expansion_grid(n, alpha1):
    """FAN_GAS / FAN_LIQUID left of the middle, mirrored (u -> -u) right of it."""
    sign = np.where(np.arange(n) < n // 2, 1.0, -1.0)
    v1, v2 = (Primitive(np.full(n, rho), sign * u, np.full(n, p))
              for rho, u, p in (FAN_GAS, FAN_LIQUID))
    return make_grid(np.full(n, alpha1), v1, v2)


def test_cross_fan_without_weight_does_not_stop_the_step():
    # r = 0 and equal fractions: p_kl = p_lk = 0, so the gas/liquid fans,
    # whose contact left the wave fan, count in no term and the phases
    # decouple into two single-phase Godunov updates (criterion 1)
    grid = expansion_grid(12, 0.01)
    dt = 0.5 * cfl_dt(grid, 0.9, GAS, LIQUID)
    out = hyperbolic_step(grid, constant_field(grid, 0.0), dt, GAS, LIQUID)
    assert np.all(out.state[0] == 0.01) and np.all(out.state[4] == 0.99)
    for got, v, eos in ((out.state[1:4], cons_to_prim(grid.cells.phase1.cons, GAS), GAS),
                        (out.state[5:], cons_to_prim(grid.cells.phase2.cons, LIQUID), LIQUID)):
        expected = godunov_update(v, eos, dt, grid.dx)
        assert np.max(np.abs(got - expected) / (np.abs(expected) + 1.0)) < 1e-11


def test_strong_expansion_without_relaxation_completes_decoupled():
    # r = 0 and alpha1 = 0.01 everywhere: no cross fan has weight, so no
    # volume moves between the phases while the expansion runs into tension
    cfg = preset_config("t4_cavitation", ["left_u1=-1000", "left_u2=-1000", "right_u1=1000",
                                          "right_u2=1000", "relaxation=none", "n_cells=200"])
    grid = run(cfg)[-1].grid
    assert np.all(np.isfinite(grid.state))
    assert np.all(grid.state[0] == 0.01)


def test_weighted_fan_outside_its_wave_fan_names_interface_pairing_and_states(monkeypatch):
    # r = 0.5 from interface `face` on gives the same fans weight there: the
    # error names that interface of the grid, in a later block too, the
    # first failing pairing there and both of its states
    left = r"\(rho, u, p\) = \(16\.05, 908, 550000\)"
    right = r"\(rho, u, p\) = \(304\.6, 139, -498000000\)"
    for n, block, face in ((12, scheme._BLOCK_CELLS, 7), (40, 8, 29)):
        monkeypatch.setattr(scheme, "_BLOCK_CELLS", block)
        grid = expansion_grid(n, 0.01)
        r = np.where(np.arange(n + 1) >= face, 0.5, 0.0)
        field = replace(constant_field(grid, 0.0), values=r)
        with pytest.raises(SolverError, match=rf"^HLLC contact speed left the wave fan "
                                              rf"at interface {face}, pairing 12: "
                                              rf"left {left}, right {right}$"):
            hyperbolic_step(grid, field, 1e-9, GAS, LIQUID)


# ------------------------------------------------- fixed points / limits

def p_noise(eos, p):
    # pressure reconstructed from conserved storage wobbles by ulps of the
    # shifted energy scale, amplified by gamma*pi_inf/p for stiff liquids
    return 64 * np.finfo(float).eps * (p + eos.gamma * eos.pi_inf)


@pytest.mark.parametrize("u", [0.0, 57.0])
def test_uniform_mechanical_equilibrium_is_fixed_point(u):
    n = 16
    grid = make_grid(np.full(n, 0.3), uniform_primitive(n, 50.0, u, 3e5),
                     uniform_primitive(n, 1000.0, u, 3e5))
    for r in (0.0, 0.4, 1.0):
        dt = cfl_dt(grid, 0.9, GAS, LIQUID)
        out = hyperbolic_step(grid, constant_field(grid, r), dt, GAS, LIQUID)
        a1, v1, a2, v2 = phase_prims(out)
        assert np.allclose(a1, 0.3, atol=1e-14)
        assert np.allclose(v1.rho, 50.0, rtol=1e-13)
        assert np.allclose(v2.rho, 1000.0, rtol=1e-13)
        assert np.allclose(v1.p, 3e5, atol=p_noise(GAS, 3e5))
        assert np.allclose(v2.p, 3e5, atol=p_noise(LIQUID, 3e5))
        assert np.max(np.abs(v1.u - u)) < 1e-10
        assert np.max(np.abs(v2.u - u)) < 1e-10


def test_stationary_volume_fraction_jump_is_fixed_point():
    # u = 0 and uniform p: the cross-phase Lagrangian terms must balance the
    # alpha-weighted conservative flux differences exactly
    n = 12
    a1 = np.where(np.arange(n) < n // 2, 0.3, 0.7)
    grid = make_grid(a1, uniform_primitive(n, 50.0, 0.0, 2e5),
                     uniform_primitive(n, 1000.0, 0.0, 2e5))
    for r in (0.0, 0.5, 1.0):
        dt = cfl_dt(grid, 0.9, GAS, LIQUID)
        out = hyperbolic_step(grid, constant_field(grid, r), dt, GAS, LIQUID)
        oa1, v1, _, v2 = phase_prims(out)
        assert np.allclose(oa1, a1, atol=1e-14)
        assert np.allclose(v1.rho, 50.0, rtol=1e-12)
        assert np.allclose(v2.rho, 1000.0, rtol=1e-12)
        assert np.max(np.abs(v1.u)) < 1e-11
        assert np.max(np.abs(v2.u)) < 1e-11


def godunov_update(v, eos, dt, dx):
    n = len(v.rho)
    flux = np.zeros((3, n + 1))
    for j in range(n + 1):
        il, ir = max(j - 1, 0), min(j, n - 1)
        fan = hllc(thermo_state(Primitive(v.rho[il], v.u[il], v.p[il]), eos),
                   thermo_state(Primitive(v.rho[ir], v.u[ir], v.p[ir]), eos))
        flux[:, j] = fan.flux0
    c = prim_to_cons(v, eos)
    return np.array([c.mass, c.momentum, c.energy]) - dt / dx * (flux[:, 1:] - flux[:, :-1])


@pytest.mark.parametrize("r", [0.0, 0.6, 1.0])
def test_pure_phase_reduces_to_single_phase_godunov(r):
    # alpha1 = 1 exactly: phase 1 sees plain Godunov-HLLC, phase 2 passes through
    rng = np.random.default_rng(8)
    n = 24
    v1 = Primitive(rng.uniform(1.0, 5.0, n), rng.uniform(-20.0, 20.0, n),
                   rng.uniform(1e5, 4e5, n))
    v2 = uniform_primitive(n, 1000.0, 0.0, 1e5)
    grid = make_grid(np.ones(n), v1, v2)
    dt = 0.5 * cfl_dt(grid, 0.9, GAS, LIQUID)
    out = hyperbolic_step(grid, constant_field(grid, r), dt, GAS, LIQUID)
    a1, _, a2, _ = phase_prims(out)
    assert np.all(a1 == 1.0) and np.all(a2 == 0.0)
    expected = godunov_update(v1, GAS, dt, grid.dx)
    got = out.state[1:4]
    assert np.max(np.abs(got - expected) / (np.abs(expected) + 1.0)) < 1e-13
    # virtual phase untouched
    assert np.array_equal(out.state[5:], grid.state[5:])


def test_uniform_alpha_r0_decouples_the_phases():
    rng = np.random.default_rng(9)
    n = 20
    v1 = Primitive(rng.uniform(1.0, 5.0, n), rng.uniform(-10.0, 10.0, n),
                   rng.uniform(1e5, 4e5, n))
    v2 = Primitive(rng.uniform(900.0, 1100.0, n), rng.uniform(-10.0, 10.0, n),
                   rng.uniform(1e5, 4e5, n))
    grid = make_grid(np.full(n, 0.5), v1, v2)
    dt = 0.5 * cfl_dt(grid, 0.9, GAS, LIQUID)
    out = hyperbolic_step(grid, constant_field(grid, 0.0), dt, GAS, LIQUID)
    a1, _, _, _ = phase_prims(out)
    assert np.allclose(a1, 0.5, atol=1e-15)
    for got, v, eos in ((out.state[1:4], v1, GAS), (out.state[5:], v2, LIQUID)):
        expected = godunov_update(v, eos, dt, grid.dx)
        assert np.max(np.abs(got - expected) / (np.abs(expected) + 1.0)) < 1e-11


# ----------------------------------------------------- reference oracle

@pytest.mark.parametrize("seed", [0, 1, 2])
def test_step_matches_scalar_reference(seed):
    # supersonic_grid's scalar fans sample the physical flux at some interfaces
    for make in (random_grid, supersonic_grid):
        rng = np.random.default_rng(100 + seed)
        grid = make(8, seed=seed)
        r_values = rng.uniform(0.0, 1.0, grid.n_cells + 1)
        field = init_field(ConstantRegime(0.0), grid)
        field = type(field)(values=r_values, policy=field.policy, rng=None)
        dt = 0.8 * cfl_dt(grid, 0.9, GAS, LIQUID)
        out = hyperbolic_step(grid, field, dt, GAS, LIQUID)
        ref = reference_step(grid, r_values, dt)
        for k, phase in ((1, out.cells.phase1), (2, out.cells.phase2)):
            alpha_ref, U_ref = ref[k]
            assert np.max(np.abs(np.asarray(phase.alpha) - alpha_ref)) < 1e-13
            got = out.state[4 * k - 3:4 * k]
            assert np.max(np.abs(got - U_ref) / (np.abs(U_ref) + 1.0)) < 1e-12


# ------------------------------------------------------------ invariants

def test_saturation_preserved_each_step():
    grid = random_grid(32, seed=4)
    field = constant_field(grid, 0.7)
    for _ in range(5):
        dt = cfl_dt(grid, 0.9, GAS, LIQUID)
        grid = hyperbolic_step(grid, field, dt, GAS, LIQUID)
        a1 = np.asarray(grid.cells.phase1.alpha)
        a2 = np.asarray(grid.cells.phase2.alpha)
        assert np.max(np.abs(a1 + a2 - 1.0)) <= 1e-12


def step_state(grid, r, dt):
    s = hyperbolic_step(grid, constant_field(grid, r), dt, GAS, LIQUID).state
    return np.vstack([s[:1], s[:1] * s[1:4], s[4:5], s[4:5] * s[5:]])


def test_update_affine_in_r_and_sandwiched():
    for seed in range(6):
        grid = random_grid(12, seed=20 + seed)
        dt = 0.9 * cfl_dt(grid, 0.9, GAS, LIQUID)
        lo = step_state(grid, 0.0, dt)
        hi = step_state(grid, 1.0, dt)
        scale = np.abs(lo) + np.abs(hi) + 1e-30
        for r in (0.25, 0.5, 0.75):
            mid = step_state(grid, r, dt)
            affine = r * hi + (1.0 - r) * lo
            assert np.max(np.abs(mid - affine) / scale) < 1e-12
            slack = 1e-12 * scale
            assert np.all(mid >= np.minimum(lo, hi) - slack)
            assert np.all(mid <= np.maximum(lo, hi) + slack)


def mirror(grid):
    """Reflect x -> -x: reverse the cells and negate the momenta."""
    sign = np.array([1.0, 1.0, -1.0, 1.0, 1.0, 1.0, -1.0, 1.0])[:, None]
    return Grid1D(grid.x_min, grid.x_max, sign * grid.state[:, ::-1])


def test_one_step_mirror_symmetry_with_random_r():
    # both outer interfaces are treated alike: stepping the reflected grid
    # (reversed per-interface r) and reflecting back reproduces the step
    worst = 0.0
    for seed in range(40):
        grid = random_grid(16, seed=100 + seed)
        r = np.random.default_rng(seed).uniform(0.0, 1.0, grid.n_cells + 1)
        field = replace(constant_field(grid, 0.0), values=r)
        dt = 0.9 * cfl_dt(grid, 0.9, GAS, LIQUID)
        direct = hyperbolic_step(grid, field, dt, GAS, LIQUID)
        mirrored = mirror(hyperbolic_step(mirror(grid), replace(field, values=r[::-1]),
                                          dt, GAS, LIQUID))
        for x, y in zip(direct.state, mirrored.state):
            worst = max(worst, np.max(np.abs(x - y)) / np.max(np.abs(x)))
    assert worst < 1e-12


def test_interior_mass_conservation_bookkeeping():
    # per-phase mass, and mixture momentum and energy, change only by the
    # boundary fluxes: the cross-phase Lagrangian terms cancel between phases
    grid = random_grid(32, seed=5)
    field = constant_field(grid, 0.35)

    def alpha_u(grid):
        # alpha_k U_k per cell, shape (2, 3, n): phase k's rows start at 0 and 4
        return np.array([grid.state[row] * grid.state[row + 1:row + 4] for row in (0, 4)])

    for _ in range(4):
        dt = cfl_dt(grid, 0.9, GAS, LIQUID)
        # recompute the interface data the step sees to read boundary fluxes
        e1, e2 = ensemble_flux(interface_fluxes(grid, field, GAS, LIQUID))
        before = alpha_u(grid)
        grid = hyperbolic_step(grid, field, dt, GAS, LIQUID)
        total0, total1 = (np.sum(x, axis=-1) * grid.dx for x in (before, alpha_u(grid)))
        boundary = -dt * np.array([e[:, -1] - e[:, 0] for e in (e1, e2)])
        for k in (0, 1):
            change = total1[k, 0] - total0[k, 0]
            assert abs(change - boundary[k, 0]) < 1e-10 * abs(total0[k, 0])
        # mixture momentum and energy, relative to sum |alpha_k U_k| dx
        change = np.sum(total1 - total0, axis=0)[1:]
        gap = np.abs(change - np.sum(boundary, axis=0)[1:])
        scale = np.sum(np.abs(before[:, 1:]), axis=(0, 2)) * grid.dx
        assert np.all(gap < 1e-13 * scale)


# -------------------------------------------------------------- blocking

def step_fields(grid):
    return [x for ph in (grid.cells.phase1, grid.cells.phase2)
            for x in (ph.alpha, ph.cons.mass, ph.cons.momentum, ph.cons.energy)]


def assert_same_bits(a, b):
    for x, y in zip(step_fields(a), step_fields(b), strict=True):
        x, y = np.asarray(x), np.asarray(y)
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes()


def test_step_solves_each_block_in_one_call(monkeypatch):
    # per block: one equation-of-state evaluation, one hllc call for the
    # four pairings and one sum each for the cross fans' Lagrangian and
    # volume-fraction terms
    calls = {"thermo_state": 0, "hllc": 0, "boundary_lagrangian": 0,
             "volume_fraction_rhs": 0}
    for name in calls:
        def counted(*args, fn=getattr(scheme, name), name=name):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(scheme, name, counted)
    monkeypatch.setattr(scheme, "_BLOCK_CELLS", 7)
    grid = random_grid(50, seed=9)
    hyperbolic_step(grid, constant_field(grid, 0.4), 1e-7, GAS, LIQUID)
    assert calls == {"thermo_state": 8, "hllc": 8, "boundary_lagrangian": 8,
                     "volume_fraction_rhs": 8}


def test_blocked_step_matches_one_block_bitwise(monkeypatch):
    # each interface reads its two cells and its r, each cell its two
    # interfaces, so every split of the cells gives the same bits
    n = 50
    for seed in range(4):
        grid = random_grid(n, seed=200 + seed)
        r = np.random.default_rng(seed).uniform(0.0, 1.0, n + 1)
        field = replace(constant_field(grid, 0.0), values=r)
        dt = 0.9 * cfl_dt(grid, 0.9, GAS, LIQUID)
        monkeypatch.setattr(scheme, "_BLOCK_CELLS", n)
        whole = hyperbolic_step(grid, field, dt, GAS, LIQUID)
        for block in (1, 7, n - 1, 2 * n):
            monkeypatch.setattr(scheme, "_BLOCK_CELLS", block)
            assert_same_bits(hyperbolic_step(grid, field, dt, GAS, LIQUID), whole)
    # supersonic blocks sample the physical flux, subsonic ones do not
    grid = supersonic_grid(n, seed=7)
    field = constant_field(grid, 0.4)
    dt = 0.9 * cfl_dt(grid, 0.9, GAS, LIQUID)
    seen = count_supersonic_calls(monkeypatch)
    monkeypatch.setattr(scheme, "_BLOCK_CELLS", n)
    whole = hyperbolic_step(grid, field, dt, GAS, LIQUID)
    assert any(seen)
    monkeypatch.setattr(scheme, "_BLOCK_CELLS", 7)
    seen.clear()
    assert_same_bits(hyperbolic_step(grid, field, dt, GAS, LIQUID), whole)
    assert any(seen) and not all(seen)
    cfg = preset_config("t4_cavitation", ["n_cells=40"])
    assert cfg.relaxation == "continuous"
    monkeypatch.setattr(scheme, "_BLOCK_CELLS", 40)
    whole = run(cfg)[-1]
    monkeypatch.setattr(scheme, "_BLOCK_CELLS", 7)
    split = run(cfg)[-1]
    assert split.t == whole.t
    assert_same_bits(split.grid, whole.grid)


def with_alpha1(grid, cell, value):
    state = grid.state.copy()
    state[0, cell] = value
    return replace(grid, state=state)


def test_step_fraction_errors_name_phase_and_global_cell(monkeypatch):
    grid = with_alpha1(random_grid(8, seed=11), 3, 1.2)
    field = constant_field(grid, 0.3)
    message = r"^phase 1: volume fraction left \[0, 1\] at cell 3$"
    with pytest.raises(InvalidStateError, match=message):
        interface_fluxes(grid, field, GAS, LIQUID)
    with pytest.raises(InvalidStateError, match=message):
        hyperbolic_step(grid, field, 1e-9, GAS, LIQUID)
    # a fault in a later block still names its cell of the grid
    monkeypatch.setattr(scheme, "_BLOCK_CELLS", 8)
    grid = with_alpha1(random_grid(40, seed=12), 29, -0.1)
    with pytest.raises(InvalidStateError, match=r"^phase 1: .* at cell 29$"):
        hyperbolic_step(grid, constant_field(grid, 0.3), 1e-9, GAS, LIQUID)


def test_step_rejects_regime_values_outside_unit_range(monkeypatch):
    # one block, then a bad r in the last of five blocks
    for n, face, block in ((8, 6, scheme._BLOCK_CELLS), (40, 33, 8)):
        monkeypatch.setattr(scheme, "_BLOCK_CELLS", block)
        grid = random_grid(n, seed=13)
        for bad in (np.nan, 1.5, -np.inf):
            r = np.full(grid.n_cells + 1, 0.5)
            r[face] = bad
            field = replace(constant_field(grid, 0.0), values=r)
            with pytest.raises(InvalidStateError, match=r"regime parameter r outside"):
                hyperbolic_step(grid, field, 1e-9, GAS, LIQUID)


def test_grid_checks_its_state_shape_and_views_its_rows():
    state = random_grid(7, seed=14).state
    # 7 rows, 1-D, 0-d, 3-D, fewer than 3 cells
    for bad in (state[:7], state[0], 0.5, state[None], state[:, :2]):
        with pytest.raises(SolverError, match=re.escape(f"has shape {np.shape(bad)},")):
            Grid1D(-1.0, 1.0, bad)
    grid = Grid1D(-1.0, 1.0, state)
    assert grid.n_cells == 7
    assert grid.cells is grid.cells
    for row, leaf in zip(state, step_fields(grid), strict=True):
        assert leaf.shape == (7,) and np.shares_memory(leaf, row)
        assert np.array_equal(leaf, row)
    # rows are contiguous whatever the input's layout; an F-ordered state
    # would make every row strided, and the step's output inherits it
    assert Grid1D(-1.0, 1.0, np.asfortranarray(state)).state.flags.c_contiguous
    assert initial_grid(preset_config("t1_uniform_vf", ["n_cells=50"])).state.flags.c_contiguous


def fingerprint(cells):
    """Bytes of a cells object's eight leaves, then of the primitives
    memoised on it, in the order they were recovered."""
    leaves = [x for ph in (cells.phase1, cells.phase2)
              for x in (ph.alpha, ph.cons.mass, ph.cons.momentum, ph.cons.energy)]
    memo = [x for phases in cells.__dict__.get("_primitives", {}).values()
            for x in (phases.v.rho, phases.v.u, phases.v.p)]
    return [np.asarray(x).tobytes() for x in leaves + memo]


@pytest.mark.parametrize("relaxation", ["none", "continuous", "projection"])
def test_run_never_writes_a_state_it_was_given_or_handed_on(monkeypatch, relaxation):
    # phase_primitives keeps each recovery on its cells object: a step, a
    # relaxer or the time loop that wrote a grid's state in place would
    # corrupt that memo and every snapshot taken before
    seen = []
    make_snapshot = scheme.Snapshot

    def watched(fn):
        def call(first, *args):
            cells = first.cells if isinstance(first, Grid1D) else first
            seen.append((cells, fingerprint(cells)))
            return fn(first, *args)
        return call

    def snapshot(t, grid, values):
        seen.append((grid.cells, fingerprint(grid.cells)))
        return make_snapshot(t, grid, values)

    monkeypatch.setattr(scheme, "hyperbolic_step", watched(scheme.hyperbolic_step))
    for mode in ("continuous", "projection"):
        monkeypatch.setitem(scheme._RELAXERS, mode, watched(scheme._RELAXERS[mode]))
    monkeypatch.setattr(scheme, "Snapshot", snapshot)
    cfg = preset_config("t6_dense_dilute", ["n_cells=100", "t_end=1e-4", "snapshots=0,5e-5",
                                            f"relaxation={relaxation}"])
    snaps = run(cfg)
    assert len(snaps) == 3 and len(seen) > 10
    for cells, before in seen:
        assert fingerprint(cells)[:len(before)] == before
    assert snaps[0].grid.state.tobytes() == initial_grid(cfg).state.tobytes()


# ------------------------------------------------------------- utilities

def test_cfl_dt_hand_value():
    # a = 100 m/s at rest: dt = 0.9 * dx / 100
    n = 3
    p = 1e4 / 1.4
    grid = make_grid(np.full(n, 0.5), uniform_primitive(n, 1.0, 0.0, p),
                     uniform_primitive(n, 1.0, 0.0, p),
                     x_min=0.0, x_max=3.0, eos2=GAS)
    assert cfl_dt(grid, 0.9, GAS, GAS) == pytest.approx(0.009, rel=1e-12)
    # quadrupling p doubles the sound speed and halves dt
    grid4 = make_grid(np.full(n, 0.5), uniform_primitive(n, 1.0, 0.0, 4 * p),
                      uniform_primitive(n, 1.0, 0.0, 4 * p),
                      x_min=0.0, x_max=3.0, eos2=GAS)
    assert cfl_dt(grid4, 0.9, GAS, GAS) == pytest.approx(0.0045, rel=1e-12)


def test_cfl_dt_monotone_as_states_steepen():
    n = 8
    dts = []
    for u_amp in (0.0, 50.0, 200.0):
        v = Primitive(np.full(n, 1.0), np.linspace(-u_amp, u_amp, n), np.full(n, 1e5))
        grid = make_grid(np.full(n, 0.5), v, v, eos2=GAS)
        dts.append(cfl_dt(grid, 0.9, GAS, GAS))
    assert dts[0] >= dts[1] >= dts[2]
    assert dts[0] > dts[2]


def test_outer_interfaces_solve_edge_cell_against_itself():
    grid = random_grid(6, seed=6)
    ifs = interface_fluxes(grid, constant_field(grid, 0.3), GAS, LIQUID)
    assert ifs.fan.flux0.shape == (3, 2, 2, 7)
    for phase, eos, flux0 in ((grid.cells.phase1, GAS, ifs.fan.flux0[:, 0, 0]),
                              (grid.cells.phase2, LIQUID, ifs.fan.flux0[:, 1, 1])):
        v = cons_to_prim(phase.cons, eos)
        for cell, face in ((0, 0), (-1, -1)):
            edge = thermo_state(Primitive(v.rho[cell], v.u[cell], v.p[cell]), eos)
            assert np.array_equal(flux0[:, face], hllc(edge, edge).flux0)
    a1 = np.asarray(grid.cells.phase1.alpha)
    assert np.array_equal(ifs.weight[0, 0, [0, -1]],
                          convex_quad(a1[[0, -1]], a1[[0, -1]], 0.3)[0, 0])


def test_ensemble_flux_reduces_to_alpha_weighted_godunov_at_r0():
    # uniform alpha, r=0: the phase flux is alpha * F(U, U) with no cross terms
    n = 5
    v1 = uniform_primitive(n, 3.0, 12.0, 5e5)
    v2 = uniform_primitive(n, 950.0, -2.0, 5e5)
    grid = make_grid(np.full(n, 0.4), v1, v2)
    e1, e2 = ensemble_flux(interface_fluxes(grid, constant_field(grid, 0.0),
                                            GAS, LIQUID))
    # uniform data: every interface solves the same pair of equal states
    w1 = cons_to_prim(grid.cells.phase1.cons, GAS)
    w2 = cons_to_prim(grid.cells.phase2.cons, LIQUID)
    s1, s2 = thermo_state(w1, GAS), thermo_state(w2, LIQUID)
    f11 = hllc(s1, s1).flux0[:, :1]
    f22 = hllc(s2, s2).flux0[:, :1]
    assert np.array_equal(e1, np.broadcast_to(0.4 * f11, e1.shape))
    assert np.array_equal(e2, np.broadcast_to(0.6 * f22, e2.shape))


def test_boundary_flux_equals_interior_under_uniform_data():
    n = 8
    grid = make_grid(np.full(n, 0.4), uniform_primitive(n, 2.0, 5.0, 2e5),
                     uniform_primitive(n, 1000.0, 5.0, 2e5))
    e1, _ = ensemble_flux(interface_fluxes(grid, constant_field(grid, 0.3),
                                           GAS, LIQUID))
    assert np.array_equal(e1[:, 0], e1[:, 1])
    assert np.array_equal(e1[:, -1], e1[:, -2])


def test_lagrangian_terms_local_to_material_interface():
    # single interior alpha jump, r=0, mechanical disequilibrium across it:
    # the step is the conservative flux difference plus the cross-phase
    # Lagrangian and volume-fraction sums, added to phase 1 and subtracted
    # from phase 2 bit for bit, and those sums are zero away from the jump
    n = 6
    a1 = np.array([0.8, 0.8, 0.8, 0.2, 0.2, 0.2])
    v1 = Primitive(np.full(n, 2.0), np.full(n, 15.0), np.full(n, 4e5))
    v2 = Primitive(np.full(n, 1000.0), np.full(n, -5.0), np.full(n, 2e5))
    grid = make_grid(a1, v1, v2)
    field = constant_field(grid, 0.0)
    dt = 0.5 * cfl_dt(grid, 0.9, GAS, LIQUID)
    lam = dt / grid.dx
    ifs = interface_fluxes(grid, field, GAS, LIQUID)
    e = ensemble_flux(ifs)
    lag = lam * boundary_lagrangian(ifs)
    frac = lam * volume_fraction_rhs(ifs)
    # rows alpha, momentum, energy; the jump sits between cells 2 and 3, and
    # each row reaches at least one of them
    terms = np.concatenate([frac[None], lag])
    assert np.all(np.any(terms[:, 2:4] != 0.0, axis=1))
    assert np.all(terms[:, [0, 1, 4, 5]] == 0.0)
    step = hyperbolic_step(grid, field, dt, GAS, LIQUID)
    old, new = grid.state.reshape(2, 4, n), step.state.reshape(2, 4, n)
    alpha, u_old = old[:, 0], old[:, 1:]
    # the step's update, in its operation order, with phase 2's terms negated
    # and no term in the mass rows
    alpha_new = alpha + np.array((frac, -frac))
    alpha_u = alpha[:, None] * u_old - lam * (e[..., 1:] - e[..., :-1])
    alpha_u[:, 1:] += np.array((lag, -lag))
    assert new[:, 0].tobytes() == alpha_new.tobytes()
    assert new[:, 1:].tobytes() == (alpha_u / alpha_new[:, None]).tobytes()


def test_step_rejects_regime_shape_mismatch():
    grid = random_grid(8, seed=7)
    bad = init_field(ConstantRegime(0.1), random_grid(12, seed=7))
    with pytest.raises(SolverError):
        hyperbolic_step(grid, bad, 1e-6, GAS, LIQUID)


def test_step_reports_invalid_states_with_cell_index():
    grid = random_grid(8, seed=3)
    field = constant_field(grid, 0.0)
    huge_dt = 1e4 * cfl_dt(grid, 0.9, GAS, LIQUID)
    with pytest.raises(InvalidStateError, match="cell"):
        hyperbolic_step(grid, field, huge_dt, GAS, LIQUID)


# admissible runs whose relaxed states exist but are far from the
# pre-relaxation ones: strong expansion with the water driven into tension,
# and a pressure disequilibrium of four decades inside one cell
@pytest.mark.parametrize("name, overrides", [
    ("t4_cavitation", ["left_u1=-300", "left_u2=-300", "right_u1=300",
                       "right_u2=300", "n_cells=40", "t_end=2e-4"]),
    ("t1_uniform_vf", ["left_p1=1e5", "left_p2=1e9", "relaxation=continuous",
                       "n_cells=100", "t_end=2e-5"]),
], ids=["t4_strong_expansion", "t1_pressure_disequilibrium"])
def test_continuous_relaxation_completes_admissible_runs(name, overrides):
    cfg = preset_config(name, overrides)
    grid = run(cfg)[-1].grid
    a1 = np.asarray(grid.cells.phase1.alpha)
    a2 = np.asarray(grid.cells.phase2.alpha)
    assert np.max(np.abs(a1 + a2 - 1.0)) <= 1e-12
    v1 = cons_to_prim(grid.cells.phase1.cons, cfg.eos1)
    v2 = cons_to_prim(grid.cells.phase2.cons, cfg.eos2)
    assert np.max(np.abs(v1.u - v2.u) / (np.abs(v1.u) + 1.0)) < 1e-12
    assert np.max(np.abs(v1.p - v2.p) / (np.abs(v1.p) + cfg.eos2.pi_inf)) < 1e-12


def count_calls(monkeypatch, names):
    """Count calls of the named demflow functions wherever a demflow module
    holds them (modules read each other's functions from their globals), and
    of the relaxers through scheme._RELAXERS, which `run` reads them from."""
    counts = dict.fromkeys(names, 0)

    def counted(name, fn):
        def call(*args):
            counts[name] += 1
            return fn(*args)
        return call

    originals = {name: getattr(sys.modules[f"demflow.{name.split('.')[0]}"], name.split(".")[1])
                 for name in names if "." in name}
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] != "demflow":
            continue
        for name, fn in originals.items():
            attr = name.split(".")[1]
            if getattr(module, attr, None) is fn:
                monkeypatch.setattr(module, attr, counted(name, fn))
    for mode, fn in scheme._RELAXERS.items():
        if fn is not None and mode in counts:
            monkeypatch.setitem(scheme._RELAXERS, mode, counted(mode, fn))
    return counts


@pytest.mark.parametrize("name, overrides, per_step", [
    ("t1_uniform_vf", ["n_cells=100"], 1),
    ("t4_cavitation", ["n_cells=40"], 2),
], ids=["t1_no_relaxation", "t4_continuous_relaxation"])
def test_run_recovers_each_state_once(monkeypatch, name, overrides, per_step):
    # each step makes one new cells object, two with relaxation; each is
    # recovered once, by its validation, in one cons_to_prim call on both
    # phases' rows, and CFL, fluxes and relaxation reuse that recovery; the
    # initial grid adds one
    counts = count_calls(monkeypatch, ["state.cons_to_prim", "scheme.hyperbolic_step"])
    run(preset_config(name, overrides))
    assert counts["scheme.hyperbolic_step"] > 10
    assert counts["state.cons_to_prim"] == per_step * counts["scheme.hyperbolic_step"] + 1


@pytest.mark.parametrize("case", ["pressure1_before_density2", "density1_before_density2"])
def test_check_of_a_failing_state_recovers_once(monkeypatch, case):
    # a state whose density fails is recovered in the same one cons_to_prim
    # call as a state that passes, and its error still names the first
    # broken rule, phase and cell
    edits, message = PRECEDENCE[case]
    cfg, rows = precedence_rows(edits)
    counts = count_calls(monkeypatch, ["state.cons_to_prim"])
    with pytest.raises(InvalidStateError) as info:
        phase_primitives(rows_cells(rows), cfg.eos1, cfg.eos2)
    assert str(info.value) == message
    assert counts["state.cons_to_prim"] == 1


@pytest.mark.parametrize("overrides, per_step", [
    (["n_cells=100"], 1),
    (["n_cells=100", "relaxation=continuous"], 2),
], ids=["t1_no_relaxation", "t1_continuous_relaxation"])
def test_run_checks_each_state_once(monkeypatch, overrides, per_step):
    # phase_primitives checks both phases' fractions and saturation once per
    # cells object, in one _check_fractions call: one object per step, two
    # with relaxation (maxwellian builds the relaxed fractions unchecked,
    # and run's validation checks them); the initial grid adds one
    counts = count_calls(monkeypatch, ["state._check_fractions", "scheme.hyperbolic_step"])
    run(preset_config("t1_uniform_vf", overrides))
    assert counts["scheme.hyperbolic_step"] > 10
    assert counts["state._check_fractions"] == per_step * counts["scheme.hyperbolic_step"] + 1


@pytest.mark.parametrize("relaxation", ["none", "continuous", "projection"])
def test_run_calls_cfl_step_and_relaxer_once_per_step(monkeypatch, relaxation):
    counts = count_calls(monkeypatch, ["scheme.cfl_dt", "scheme.hyperbolic_step",
                                       "continuous", "projection"])
    run(preset_config("t1_uniform_vf", ["n_cells=100", f"relaxation={relaxation}"]))
    steps = counts["scheme.hyperbolic_step"]
    assert steps > 10
    assert counts["scheme.cfl_dt"] == steps
    for mode in ("continuous", "projection"):
        assert counts[mode] == (steps if mode == relaxation else 0)


def demflow_calls(cfg):
    """Calls of functions whose code lives in the demflow package ("call"
    events of sys.setprofile) during run(cfg): (all, of hyperbolic_step).
    Comprehension frames are not counted: CPython 3.12 inlines them (PEP 709)."""
    package = os.path.dirname(demflow.__file__) + os.sep
    step = scheme.hyperbolic_step.__code__
    inlined = {"<listcomp>", "<dictcomp>", "<setcomp>"}
    counts = Counter()

    def profile(frame, event, arg):
        code = frame.f_code
        if (event == "call" and code.co_filename.startswith(package)
                and code.co_name not in inlined):
            counts[code is step] += 1

    sys.setprofile(profile)
    try:
        run(cfg)
    finally:
        sys.setprofile(None)
    return counts[False] + counts[True], counts[True]


# the step's Python calls, pinned: a per-call regression too small for the
# timed benchmark shows here exactly. The count per step is the difference
# of two run lengths, so set-up drops out, and a first run fills
# eos_columns' cache. Without comprehension frames, the counts hold on
# CPython 3.11, which CI runs, and on 3.12 and later alike
@pytest.mark.parametrize("relaxation, per_step", [
    ("none", 52), ("continuous", 86), ("projection", 88),
])
def test_step_makes_a_pinned_number_of_python_calls(relaxation, per_step):
    cfg = preset_config("t1_uniform_vf", ["n_cells=100", "regime_r=0.3",
                                          f"relaxation={relaxation}"])
    run(replace(cfg, t_end=2e-5))
    calls, steps = demflow_calls(replace(cfg, t_end=2e-5))
    more_calls, more_steps = demflow_calls(replace(cfg, t_end=4e-5))
    assert more_steps > steps > 0
    assert more_calls - calls == per_step * (more_steps - steps)


def unsaturated_grid():
    # a 10-cell t1 grid with alpha2 = 0.7 against alpha1 = 0.5 at cell 3:
    # both fractions lie in [0, 1] and both phases are admissible
    grid = initial_grid(preset_config("t1_uniform_vf", ["n_cells=10"]))
    bad = grid.state.copy()
    bad[4, 3] = 0.7
    return replace(grid, state=bad)


@pytest.mark.parametrize("read", [
    lambda g: cfl_dt(g, 0.9, GAS, LIQUID),
    lambda g: hyperbolic_step(g, constant_field(g, 0.5), 1e-9, GAS, LIQUID),
    lambda g: interface_fluxes(g, constant_field(g, 0.5), GAS, LIQUID),
    lambda g: relax_continuous(g.cells, GAS, LIQUID),
    lambda g: relax_projection(g.cells, GAS, LIQUID),
    lambda g: projection_matrix(g.cells, GAS, LIQUID),
    lambda g: kernel_range_vectors(g.cells, GAS, LIQUID),
    lambda g: mixture_quantities(g.cells, GAS, LIQUID),
    lambda g: snapshot_columns(g, np.zeros(g.n_cells + 1), GAS, LIQUID),
], ids=["cfl_dt", "hyperbolic_step", "interface_fluxes", "relax_continuous",
        "relax_projection", "projection_matrix",
        "kernel_range_vectors", "mixture_quantities", "snapshot_columns"])
def test_every_reader_rejects_an_unsaturated_grid(read):
    # each reader gets its primitives from phase_primitives, which checks
    # the cells before it recovers them, and keeps nothing when they fail
    grid = unsaturated_grid()
    for _ in range(2):
        with pytest.raises(InvalidStateError, match=r"^saturation violated at cell 3$"):
            read(grid)
