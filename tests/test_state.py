import re

import numpy as np
import pytest

from demflow import scheme
from demflow.config import preset_config
from demflow.eos import EosParams, eos_columns
from demflow.errors import InvalidStateError
from demflow.relaxation import ReducedEquilibrium, maxwellian
from demflow.scheme import Grid1D, initial_grid, run
from demflow.state import (Conserved, MixtureCell, PhaseCellState, Primitive,
                           cons_to_prim, mixture_quantities, phase_primitives,
                           prim_to_cons, validate_mixture)

GAS = EosParams(1.4, 0.0)
LIQUID = EosParams(4.4, 6.0e8)


def random_primitives(n, eos, seed=0):
    rng = np.random.default_rng(seed)
    return Primitive(
        rho=10.0 ** rng.uniform(-2.0, 3.5, n),
        u=rng.uniform(-500.0, 500.0, n),
        p=rng.uniform(-0.9 * eos.pi_inf, 1e9, n),
    )


def test_prim_to_cons_hand_value():
    c = prim_to_cons(Primitive(1.0, 0.0, 1.0), GAS)
    assert c.mass == pytest.approx(1.0)
    assert c.momentum == 0.0
    assert c.energy == pytest.approx(2.5, rel=1e-14)


def test_zero_velocity_means_zero_momentum():
    c = prim_to_cons(Primitive(123.0, 0.0, 4.5e6), LIQUID)
    assert c.momentum == 0.0
    assert cons_to_prim(c, LIQUID).u == 0.0


def test_round_trip_prim_cons():
    for eos, seed in ((GAS, 0), (LIQUID, 1)):
        v = random_primitives(100_000, eos, seed)
        back = cons_to_prim(prim_to_cons(v, eos), eos)
        assert np.max(np.abs(back.rho - v.rho) / v.rho) < 1e-12
        u_scale = np.maximum(np.abs(v.u), 1.0)
        assert np.max(np.abs(back.u - v.u) / u_scale) < 1e-12
        p_scale = np.maximum(np.abs(v.p), eos.pi_inf + 1.0)
        assert np.max(np.abs(back.p - v.p) / p_scale) < 1e-12


def test_cons_to_prim_rejects_bad_states():
    with pytest.raises(InvalidStateError):
        cons_to_prim(Conserved(-1.0, 0.0, 1.0), GAS)
    # a zero density, or a blown-up cell, is named, not divided by (a
    # RuntimeWarning is an error)
    for bad in (Conserved(0.0, 1.0, 1.0), Conserved(np.inf, np.inf, np.inf)):
        with pytest.raises(InvalidStateError, match="density"):
            cons_to_prim(bad, GAS)
    # kinetic energy exceeding total energy gives negative internal energy
    with pytest.raises(InvalidStateError):
        cons_to_prim(Conserved(1.0, 10.0, 1.0), GAS)
    # a cell whose density passes but whose momentum and energy are infinite
    # recovers inf - inf internal energy: named, not warned about, alone and
    # behind another phase's bad density
    inf = np.inf
    for bad, eos, text in (
        (Conserved(np.array([1.0, 2.0]), np.array([0.0, inf]), np.array([2.5e5, inf])), GAS,
         "pressure below stiffened-gas admissibility limit (p + pi_inf <= 0) "
         "or non-finite pressure at cell 1"),
        (Conserved(np.array([[0.0, 1.0], [1000.0, 1000.0]]), np.array([[0.0, 0.0], [0.0, inf]]),
                   np.array([[1.0, 2.5e5], [1e12, inf]])), eos_columns(GAS, LIQUID, 1),
         "phase 1: non-positive or non-finite density at cell 0"),
    ):
        with pytest.raises(InvalidStateError, match=f"^{re.escape(text)}$"):
            cons_to_prim(bad, eos)


def test_cons_to_prim_rejects_non_finite_states_naming_the_cell():
    nan = float("nan")
    with pytest.raises(InvalidStateError, match="pressure at cell 1"):
        cons_to_prim(Conserved(np.array([1.0, 1.0]), np.zeros(2),
                               np.array([2.5e5, nan])), GAS)
    with pytest.raises(InvalidStateError, match="density at cell 2"):
        cons_to_prim(Conserved(np.array([1.0, 1.0, nan]), np.zeros(3),
                               np.full(3, 2.5e5)), GAS)
    with pytest.raises(InvalidStateError, match="pressure at cell 0"):
        cons_to_prim(Conserved(np.ones(2), np.zeros(2),
                               np.array([float("inf"), 2.5e5])), GAS)
    with pytest.raises(InvalidStateError, match="density at cell 1"):
        cons_to_prim(Conserved(np.array([1.0, 0.0, 1.0]), np.ones(3),
                               np.full(3, 2.5e5)), GAS)


def mixture(alpha1, v1, v2):
    return MixtureCell(
        phase1=PhaseCellState(alpha=alpha1, cons=prim_to_cons(v1, GAS)),
        phase2=PhaseCellState(alpha=1.0 - np.asarray(alpha1), cons=prim_to_cons(v2, LIQUID)),
    )


def test_mixture_identity_case():
    v = Primitive(800.0, 3.0, 2e6)
    cell = MixtureCell(
        phase1=PhaseCellState(alpha=0.3, cons=prim_to_cons(v, GAS)),
        phase2=PhaseCellState(alpha=0.7, cons=prim_to_cons(v, GAS)),
    )
    rho, u, p = mixture_quantities(cell, GAS, GAS)
    assert rho == pytest.approx(800.0, rel=1e-13)
    assert u == pytest.approx(3.0, rel=1e-13)
    assert p == pytest.approx(2e6, rel=1e-13)


def test_mixture_hand_value():
    cell = mixture(0.5, Primitive(50.0, 0.0, 1e5), Primitive(1000.0, 0.0, 1e5))
    rho, _, _ = mixture_quantities(cell, GAS, LIQUID)
    assert rho == pytest.approx(525.0, rel=1e-13)


def test_mixture_velocity_symmetry():
    # equal phase masses, u1 = 0, u2 = 10 -> mixture velocity 5
    cell = mixture(0.5, Primitive(100.0, 0.0, 1e5), Primitive(100.0, 10.0, 1e5))
    _, u, _ = mixture_quantities(cell, GAS, LIQUID)
    assert u == pytest.approx(5.0, rel=1e-13)


def test_mixture_linearity_in_alpha():
    rng = np.random.default_rng(3)
    v1 = Primitive(50.0, 2.0, 3e5)
    v2 = Primitive(1000.0, -1.0, 3e5)
    alphas = rng.uniform(0.05, 0.95, 64)
    rho, _, p = mixture_quantities(mixture(alphas, v1, v2), GAS, LIQUID)
    # rho_mix and p_mix are affine in alpha1 at fixed phase primitives
    coef_rho = np.polyfit(alphas, rho, 1)
    assert np.max(np.abs(np.polyval(coef_rho, alphas) - rho)) < 1e-9 * np.max(rho)
    coef_p = np.polyfit(alphas, p, 1)
    assert np.max(np.abs(np.polyval(coef_p, alphas) - p)) < 1e-9 * np.max(p)


def test_validate_mixture_reports_cell_and_phase():
    v1 = Primitive(np.full(4, 50.0), np.zeros(4), np.full(4, 1e5))
    v2 = Primitive(np.full(4, 1000.0), np.zeros(4), np.full(4, 1e5))
    a1 = np.array([0.5, 0.5, 1.2, 0.5])
    cell = MixtureCell(
        phase1=PhaseCellState(alpha=a1, cons=prim_to_cons(v1, GAS)),
        phase2=PhaseCellState(alpha=1.0 - a1, cons=prim_to_cons(v2, LIQUID)),
    )
    with pytest.raises(InvalidStateError, match="cell 2"):
        validate_mixture(cell, GAS, LIQUID)


# states that break two rules at once, as edits of a valid 6-cell t1 state
# (rows alpha1, mass1, momentum1, energy1, alpha2, ...); each error names the
# rule, phase and cell that come first in the check's order: both fractions
# (phase 1 first), saturation, then phase 1's density and pressure before
# phase 2's, whatever the cell index
_PRESSURE = ("pressure below stiffened-gas admissibility limit (p + pi_inf <= 0) "
             "or non-finite pressure")
_DENSITY = "non-positive or non-finite density"
PRECEDENCE = {
    "fraction2_before_density1": (
        {(1, 1): -1.0, (4, 4): 1.5},
        "phase 2: volume fraction left [0, 1] at cell 4"),
    "saturation_before_pressure1": (
        {(3, 1): -1e30, (4, 3): 0.7},
        "saturation violated at cell 3"),
    "pressure1_before_density2": (
        {(3, 4): -1e30, (5, 2): 0.0},
        f"phase 1: {_PRESSURE} at cell 4"),
    "density1_before_density2": (
        {(1, 5): float("nan"), (5, 0): -1.0},
        f"phase 1: {_DENSITY} at cell 5"),
}


def precedence_rows(edits):
    cfg = preset_config("t1_uniform_vf", ["n_cells=6"])
    rows = initial_grid(cfg).state.copy()
    for at, value in edits.items():
        rows[at] = value
    return cfg, rows


def rows_cells(rows):
    return Grid1D(0.0, 1.0, rows).cells


@pytest.mark.parametrize("case", PRECEDENCE)
def test_check_names_the_first_broken_rule_of_a_state_that_breaks_two(monkeypatch, case):
    edits, message = PRECEDENCE[case]
    cfg, rows = precedence_rows(edits)
    with pytest.raises(InvalidStateError) as info:
        phase_primitives(rows_cells(rows), cfg.eos1, cfg.eos2)
    assert str(info.value) == message
    with pytest.raises(InvalidStateError) as info:
        validate_mixture(rows_cells(rows), cfg.eos1, cfg.eos2, "after hyperbolic step")
    assert str(info.value) == f"{message} (after hyperbolic step)"
    # the same state handed back by the relaxer of a run's first step
    monkeypatch.setitem(scheme._RELAXERS, "continuous",
                        lambda cells, eos1, eos2: rows_cells(rows.copy()))
    with pytest.raises(InvalidStateError) as info:
        run(preset_config("t1_uniform_vf", ["n_cells=6", "relaxation=continuous"]))
    assert str(info.value) == (f"continuous relaxation: {message} (after relaxation) "
                               "(at t = 0.000000000e+00 s, step 1)")


def test_maxwellian_names_phase_1_pressure_before_phase_2_density():
    # the shared pressure -1e5 Pa is below phase 1's limit (the gas's
    # pi_inf = 0) and above phase 2's (the liquid's 6e8); phase 2's density
    # fails at a lower cell
    def red(p):
        return ReducedEquilibrium(alpha=np.full((2, 4), 0.5),
                                  rho=np.array([[50.0] * 4, [1000.0, -1.0, 1000.0, 1000.0]]),
                                  u=np.zeros(4), p=p)
    with pytest.raises(InvalidStateError) as info:
        maxwellian(red(np.array([1e5, 1e5, -1e5, 1e5])), GAS, LIQUID)
    assert str(info.value) == f"phase 1: {_PRESSURE} at cell 2"
    with pytest.raises(InvalidStateError) as info:
        maxwellian(red(np.full(4, 1e5)), GAS, LIQUID)
    assert str(info.value) == f"phase 2: {_DENSITY} at cell 1"
