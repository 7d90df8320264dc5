import hashlib

import numpy as np
import pytest

from demflow import scheme
from demflow.config import preset_config
from demflow.eos import EosParams, internal_energy
from demflow.errors import InvalidStateError
from demflow.relaxation import ReducedEquilibrium, maxwellian, relax_continuous, relax_projection
from demflow.scheme import run
from demflow.state import (Conserved, MixtureCell, PhaseCellState, Primitive,
                           cell_rows, cons_to_prim, mixture_quantities, phase_primitives,
                           prim_to_cons, validate_mixture)
from oracles import kernel_range_vectors, projection_matrix, reduced_jacobian

GAS = EosParams(1.4, 0.0)
LIQUID = EosParams(4.4, 6.0e8)


def make_cell(alpha1, v1, v2):
    alpha1 = np.asarray(alpha1, dtype=float) if np.ndim(alpha1) else alpha1
    return MixtureCell(
        phase1=PhaseCellState(alpha=alpha1, cons=prim_to_cons(v1, GAS)),
        phase2=PhaseCellState(alpha=1.0 - np.asarray(alpha1), cons=prim_to_cons(v2, LIQUID)),
    )


def random_cells(n, seed=0, dis_p=0.3, dis_u=30.0):
    """Cells with moderate pressure/velocity disequilibrium."""
    rng = np.random.default_rng(seed)
    alpha1 = rng.uniform(0.05, 0.95, n)
    p_base = 10.0 ** rng.uniform(5.0, 8.0, n)
    u_base = rng.uniform(-50.0, 50.0, n)
    v1 = Primitive(rho=rng.uniform(0.5, 100.0, n),
                   u=u_base + rng.uniform(-dis_u, dis_u, n),
                   p=p_base * (1.0 + rng.uniform(-dis_p, dis_p, n)))
    v2 = Primitive(rho=rng.uniform(500.0, 1500.0, n),
                   u=u_base + rng.uniform(-dis_u, dis_u, n),
                   p=p_base * (1.0 + rng.uniform(-dis_p, dis_p, n)))
    return make_cell(alpha1, v1, v2)


def phase_fields(cell):
    v1 = cons_to_prim(cell.phase1.cons, GAS)
    v2 = cons_to_prim(cell.phase2.cons, LIQUID)
    return cell.phase1.alpha, v1, cell.phase2.alpha, v2


def mixture_energy(cell):
    a1, v1, a2, v2 = phase_fields(cell)
    E1 = internal_energy(v1.rho, v1.p, GAS) + 0.5 * v1.u**2
    E2 = internal_energy(v2.rho, v2.p, LIQUID) + 0.5 * v2.u**2
    return a1 * v1.rho * E1 + a2 * v2.rho * E2


def mixture_momentum(cell):
    a1, v1, a2, v2 = phase_fields(cell)
    return a1 * v1.rho * v1.u + a2 * v2.rho * v2.u


# ------------------------------------------------------------ maxwellian

def test_maxwellian_reduce_round_trip():
    red = ReducedEquilibrium(alpha1=0.3, rho1=20.0, u=4.0, p=2e6,
                             alpha2=0.7, rho2=990.0)
    cell = maxwellian(red, GAS, LIQUID)
    v1, v2 = phase_primitives(cell, GAS, LIQUID)
    back = (cell.phase1.alpha, v1.rho, v1.u, v1.p, cell.phase2.alpha, v2.rho, v2.u, v2.p)
    assert back == pytest.approx((red.alpha1, red.rho1, red.u, red.p,
                                  red.alpha2, red.rho2, red.u, red.p), rel=1e-13)


def test_maxwellian_enforces_equilibrium_exactly():
    red = ReducedEquilibrium(0.4, 15.0, -3.0, 5e5, 0.6, 1100.0)
    cell = maxwellian(red, GAS, LIQUID)
    _, v1, _, v2 = phase_fields(cell)
    assert v1.u == v2.u
    assert v1.p == pytest.approx(v2.p, rel=1e-13)
    # alpha*rho of the rebuilt cell equals the reduced inputs
    assert cell.phase1.alpha * v1.rho == pytest.approx(0.4 * 15.0, rel=1e-14)
    assert cell.phase2.alpha * v2.rho == pytest.approx(0.6 * 1100.0, rel=1e-14)


def test_maxwellian_rejects_bad_alpha():
    # maxwellian builds the fractions as given; phase_primitives rejects them
    cell = maxwellian(ReducedEquilibrium(1.2, 1.0, 0.0, 1e5, -0.2, 1000.0), GAS, LIQUID)
    with pytest.raises(InvalidStateError, match=r"^phase 1: volume fraction left \[0, 1\]$"):
        phase_primitives(cell, GAS, LIQUID)


# ------------------------------------------------------ continuous (A)

def test_relax_continuous_fixed_point():
    cell = make_cell(0.4, Primitive(30.0, 6.0, 3e6), Primitive(900.0, 6.0, 3e6))
    out = relax_continuous(cell, GAS, LIQUID)
    a1, v1, a2, v2 = phase_fields(out)
    assert a1 == pytest.approx(0.4, abs=1e-12)
    assert v1.rho == pytest.approx(30.0, rel=1e-12)
    assert v2.rho == pytest.approx(900.0, rel=1e-12)
    assert v1.p == pytest.approx(3e6, rel=1e-12)
    assert v1.u == pytest.approx(6.0, rel=1e-12)


def test_relax_continuous_t1_left_state_unchanged():
    # equal pressures and velocities already: residual vanishes at the guess
    cell = make_cell(0.5, Primitive(50.0, 0.0, 1e9), Primitive(1000.0, 0.0, 1e9))
    out = relax_continuous(cell, GAS, LIQUID)
    _, v1, _, v2 = phase_fields(out)
    assert v1.rho == pytest.approx(50.0, rel=1e-12)
    assert v2.rho == pytest.approx(1000.0, rel=1e-12)
    assert v1.p == pytest.approx(1e9, rel=1e-12)


def test_relax_continuous_velocity_symmetry():
    # equal phase masses, u = 0 and 10 -> common velocity 5
    cell = make_cell(0.5, Primitive(100.0, 0.0, 1e6), Primitive(100.0, 10.0, 1e6))
    cell = MixtureCell(phase1=cell.phase1,
                       phase2=PhaseCellState(alpha=0.5,
                                             cons=prim_to_cons(Primitive(100.0, 10.0, 1e6), LIQUID)))
    out = relax_continuous(cell, GAS, LIQUID)
    _, v1, _, v2 = phase_fields(out)
    assert v1.u == pytest.approx(5.0, rel=1e-12)
    assert v1.u == v2.u


def deep_tension_cell():
    """One cell of two stiffened gases, both in tension: p + pi_inf is 1000 Pa
    in either phase."""
    eos1, eos2 = EosParams(3.0, 3e7), EosParams(2.85, 3.4e6)
    v1, v2 = Primitive(1700.0, 76.5, 1000.0 - 3e7), Primitive(0.0016, 80.0, 1000.0 - 3.4e6)
    return MixtureCell(PhaseCellState(0.92, prim_to_cons(v1, eos1)),
                       PhaseCellState(1.0 - 0.92, prim_to_cons(v2, eos2))), eos1, eos2


def test_deep_tension_cell_is_admissible():
    validate_mixture(*deep_tension_cell())


# the relaxed fractions scale with p + pi_inf (0.09 / 0.012 Pa here): a root
# carried as unshifted p, whose ulp near -3.4e6 Pa is 5.6e-12 of p + pi_2,
# missed saturation by 1.09e-12, above SATURATION_TOL
def test_relax_continuous_keeps_saturation_in_deep_tension():
    cell, eos1, eos2 = deep_tension_cell()
    validate_mixture(relax_continuous(cell, eos1, eos2), eos1, eos2)


def test_relax_continuous_pins_its_bits_with_both_pi_inf_positive():
    # every preset pairs an ideal gas with the liquid, so its pressure root
    # is shifted by min(pi_1, pi_2) = 0 and no golden hash covers a shift
    # s > 0. These cells, from 1e3 Pa above -pi_inf up, pin its bits (taken
    # with numpy 2.4.6, as the golden hashes)
    eos1, eos2 = EosParams(3.0, 3e7), EosParams(2.85, 3.4e6)
    rng = np.random.default_rng(31)
    n = 200
    alpha1 = rng.uniform(0.05, 0.95, n)
    v1 = Primitive(rng.uniform(500.0, 1500.0, n), rng.uniform(-50.0, 50.0, n),
                   10.0 ** rng.uniform(3.0, 8.0, n) - 3e7)
    v2 = Primitive(rng.uniform(1e-3, 10.0, n), rng.uniform(-50.0, 50.0, n),
                   10.0 ** rng.uniform(3.0, 8.0, n) - 3.4e6)
    cell = MixtureCell(PhaseCellState(alpha1, prim_to_cons(v1, eos1)),
                       PhaseCellState(1.0 - alpha1, prim_to_cons(v2, eos2)))
    out = relax_continuous(cell, eos1, eos2)
    validate_mixture(out, eos1, eos2)
    assert hashlib.sha256(cell_rows(out).tobytes()).hexdigest() == \
        "0156cbcd11ecea328bb3b5c3c9895bb5d6e3f30f40b725ea76a9b23c18eb1ace"


def test_relax_continuous_postconditions_on_random_cells():
    # wide disequilibrium: near-pure fractions, pressures up to 1e9 Pa with the
    # liquid in tension down to -3e8 Pa, |u1 - u2| up to 600 m/s
    rng = np.random.default_rng(6)
    n = 500
    wide = make_cell(rng.uniform(0.01, 0.99, n),
                     Primitive(rho=rng.uniform(0.5, 100.0, n), u=rng.uniform(-300.0, 300.0, n),
                               p=10.0 ** rng.uniform(4.0, 9.0, n)),
                     Primitive(rho=rng.uniform(500.0, 1500.0, n), u=rng.uniform(-300.0, 300.0, n),
                               p=rng.uniform(-3e8, 1e9, n)))
    for cell in (random_cells(500, seed=1), wide):
        pre_m1 = cell.phase1.alpha * cons_to_prim(cell.phase1.cons, GAS).rho
        pre_m2 = cell.phase2.alpha * cons_to_prim(cell.phase2.cons, LIQUID).rho
        pre_mom = mixture_momentum(cell)
        pre_E = mixture_energy(cell)
        out = relax_continuous(cell, GAS, LIQUID)
        a1, v1, a2, v2 = phase_fields(out)
        # equilibrium variety: one assigned u and p; reconstruction from conserved
        # storage leaves at most a few ulps between the phases
        assert np.max(np.abs(v1.u - v2.u)) <= 4 * np.finfo(float).eps * np.max(np.abs(v1.u))
        assert np.max(np.abs(v1.p - v2.p) / np.maximum(v1.p, v2.p)) < 1e-9
        # saturation restored to state tolerance
        assert np.max(np.abs(a1 + a2 - 1.0)) < 1e-12
        # conservation: per-phase mass, mixture momentum, mixture energy
        assert np.max(np.abs(a1 * v1.rho - pre_m1) / pre_m1) < 1e-12
        assert np.max(np.abs(a2 * v2.rho - pre_m2) / pre_m2) < 1e-12
        mom_scale = np.abs(pre_mom) + (pre_m1 + pre_m2) * 1.0
        assert np.max(np.abs(mixture_momentum(out) - pre_mom) / mom_scale) < 1e-13
        assert np.max(np.abs(mixture_energy(out) - pre_E) / pre_E) < 1e-12


def test_relax_continuous_idempotent():
    cell = random_cells(200, seed=2)
    once = relax_continuous(cell, GAS, LIQUID)
    twice = relax_continuous(once, GAS, LIQUID)
    for phase in ("phase1", "phase2"):
        p_once = getattr(once, phase)
        p_twice = getattr(twice, phase)
        assert np.max(np.abs(p_twice.alpha - p_once.alpha)) < 1e-10
        assert np.max(np.abs(p_twice.cons.mass - p_once.cons.mass)
                      / p_once.cons.mass) < 1e-10


def test_relax_continuous_requires_both_phases():
    cell = MixtureCell(
        phase1=PhaseCellState(alpha=0.0, cons=prim_to_cons(Primitive(1.0, 0.0, 1e5), GAS)),
        phase2=PhaseCellState(alpha=1.0, cons=prim_to_cons(Primitive(1000.0, 0.0, 1e5), LIQUID)),
    )
    with pytest.raises(InvalidStateError):
        relax_continuous(cell, GAS, LIQUID)


def test_relaxation_errors_name_cell_and_phase():
    a1 = np.full(6, 0.4)
    a1[3] = 0.0
    cell = make_cell(a1, Primitive(np.full(6, 30.0), np.zeros(6), np.full(6, 3e6)),
                     Primitive(np.full(6, 900.0), np.zeros(6), np.full(6, 3e6)))
    for relax in (relax_continuous, relax_projection):
        with pytest.raises(InvalidStateError, match=r"phase 1 .* at cell 3"):
            relax(cell, GAS, LIQUID)
    # a gas energy so large that the pressure quadratic's discriminant overflows
    p1 = np.full(6, 3e6)
    p1[2] = 1e300
    cell = make_cell(np.full(6, 0.4), Primitive(np.full(6, 30.0), np.zeros(6), p1),
                     Primitive(np.full(6, 900.0), np.zeros(6), np.full(6, 3e6)))
    with np.errstate(over="ignore"), pytest.raises(
            InvalidStateError, match=r"discriminant inf at cell 2; .* = \(0\.4, 30, 0, 1e\+300, 0\.6,"):
        relax_continuous(cell, GAS, LIQUID)
    # a liquid pressure whose squared sound speed overflows the impedance d
    p2 = np.full(6, 3e6)
    p2[4] = 5e307
    cell = make_cell(np.full(6, 0.4), Primitive(np.full(6, 30.0), np.zeros(6), np.full(6, 3e6)),
                     Primitive(np.full(6, 900.0), np.zeros(6), p2))
    with np.errstate(over="ignore"), pytest.raises(
            InvalidStateError, match=r"^degenerate acoustic impedances .* at cell 4$"):
        relax_projection(cell, GAS, LIQUID)
    # a scalar cell has no index: its errors name no cell
    cell = make_cell(1.0, Primitive(30.0, 0.0, 3e6), Primitive(900.0, 0.0, 3e6))
    for relax in (relax_continuous, relax_projection):
        with pytest.raises(InvalidStateError, match=r"phase 1 has alpha = 1$"):
            relax(cell, GAS, LIQUID)
    cell = make_cell(0.4, Primitive(30.0, 0.0, 1e300), Primitive(900.0, 0.0, 3e6))
    with np.errstate(over="ignore"), pytest.raises(
            InvalidStateError, match=r"discriminant inf; .* = \(0\.4, 30, 0, 1e\+300, 0\.6,"):
        relax_continuous(cell, GAS, LIQUID)


def test_relaxer_recovery_errors_name_phase_and_cell():
    cell = make_cell(np.full(6, 0.4), Primitive(np.full(6, 30.0), np.zeros(6), np.full(6, 3e6)),
                     Primitive(np.full(6, 900.0), np.zeros(6), np.full(6, 3e6)))
    # liquid energy below the kinetic energy of its momentum at cell 3
    momentum = np.array(cell.phase2.cons.momentum, dtype=float)
    momentum[3] = 1e9
    cell = MixtureCell(cell.phase1, PhaseCellState(cell.phase2.alpha, Conserved(
        cell.phase2.cons.mass, momentum, cell.phase2.cons.energy)))
    for relax in (relax_continuous, relax_projection):
        with pytest.raises(InvalidStateError, match=r"^phase 2: .* at cell 3$"):
            relax(cell, GAS, LIQUID)


def test_maxwellian_volume_fraction_errors_name_phase_and_cell():
    # maxwellian builds fractions outside [0, 1] as given; the cells object's
    # one check, phase_primitives, rejects them
    alpha1 = np.array([0.5, 0.5, 1.5])
    red = ReducedEquilibrium(alpha1=alpha1, rho1=np.full(3, 1.0), u=np.zeros(3),
                             p=np.full(3, 1e5), alpha2=1.0 - alpha1,
                             rho2=np.full(3, 1000.0))
    with pytest.raises(InvalidStateError,
                       match=r"^phase 1: volume fraction left \[0, 1\] at cell 2$"):
        phase_primitives(maxwellian(red, GAS, LIQUID), GAS, LIQUID)


def test_maxwellian_errors_name_phase_and_cell():
    # the common pressure at cell 2 is admissible for the liquid (phase 1)
    # but below the gas limit p > 0 (phase 2)
    p = np.full(5, 1e5)
    p[2] = -1e5
    red = ReducedEquilibrium(alpha1=np.full(5, 0.5), rho1=np.full(5, 1000.0),
                             u=np.zeros(5), p=p,
                             alpha2=np.full(5, 0.5), rho2=np.full(5, 1.0))
    with pytest.raises(InvalidStateError,
                       match=r"^phase 2: pressure below .* at cell 2$"):
        maxwellian(red, LIQUID, GAS)


# ------------------------------------------------------ projection (B)

def test_projection_failure_names_itself_and_its_validity_bound():
    # the linearized update rho1 (1 - a2 (p1 - p2) / d) turns negative past
    # the bound: at +-20 m/s the first step's water tension crosses it
    cfg = preset_config("t4_cavitation", ["left_u1=-20", "left_u2=-20", "right_u1=20",
                                          "right_u2=20", "relaxation=projection",
                                          "n_cells=200"])
    with pytest.raises(InvalidStateError, match=(
            r"^projection relaxation: outside its validity bound at cell 99: "
            r"p1 - p2 = [-+.e0-9]+ Pa, a2 \(p1 - p2\) / d = [-+.e0-9]+ >= 1 "
            r"\(at t = 0\.000000000e\+00 s, step 1\)$")):
        run(cfg)


def test_projection_bound_names_the_largest_failing_ratio():
    # liquid (phase 2) at -5e8 Pa against gas at 1e5 Pa: at alpha1 = 0.9 only
    # the liquid fraction's factor 1 - a1 (p1 - p2) / d turns negative, at
    # alpha1 = 0.1 the gas density's factor 1 - a2 (p1 - p2) / d turns the
    # most negative
    for alpha1, ratio in ((0.9, "a1"), (0.1, "a2")):
        cell = make_cell(alpha1, Primitive(1.0, 0.0, 1e5), Primitive(1000.0, 0.0, -5e8))
        with pytest.raises(InvalidStateError, match=(
                rf"^outside its validity bound: p1 - p2 = 500100000 Pa, "
                rf"{ratio} \(p1 - p2\) / d = [0-9.]+ >= 1$")):
            relax_projection(cell, GAS, LIQUID)


@pytest.mark.parametrize("relaxation", ["continuous", "projection"])
def test_run_names_the_relaxer_of_a_relaxation_error_once(monkeypatch, relaxation):
    def failing(cells, eos1, eos2):
        raise InvalidStateError("phase 2: pressure below its limit at cell 3")

    monkeypatch.setitem(scheme._RELAXERS, relaxation, failing)
    cfg = preset_config("t1_uniform_vf", ["n_cells=20", f"relaxation={relaxation}"])
    with pytest.raises(InvalidStateError) as info:
        run(cfg)
    assert str(info.value) == (f"{relaxation} relaxation: phase 2: pressure below its limit "
                               "at cell 3 (at t = 0.000000000e+00 s, step 1)")
    assert str(info.value).count("relaxation") == 1


def test_relax_projection_fixed_point():
    cell = make_cell(0.25, Primitive(12.0, -2.0, 8e5), Primitive(1050.0, -2.0, 8e5))
    out = relax_projection(cell, GAS, LIQUID)
    a1, v1, _, v2 = phase_fields(out)
    assert a1 == pytest.approx(0.25, abs=1e-14)
    assert v1.rho == pytest.approx(12.0, rel=1e-13)
    assert v2.rho == pytest.approx(1050.0, rel=1e-13)
    assert v1.p == pytest.approx(8e5, rel=1e-13)


def test_relax_projection_equilibrates_and_is_idempotent():
    cell = random_cells(300, seed=3, dis_p=0.05, dis_u=5.0)
    out = relax_projection(cell, GAS, LIQUID)
    _, v1, _, v2 = phase_fields(out)
    assert np.max(np.abs(v1.u - v2.u)) <= 4 * np.finfo(float).eps * np.max(np.abs(v1.u))
    # p reconstruction through the stiffened-gas energy loses ~gamma*pi/p ulps
    assert np.max(np.abs(v1.p - v2.p) / np.maximum(v1.p, v2.p)) < 1e-10
    again = relax_projection(out, GAS, LIQUID)
    assert np.max(np.abs(cons_to_prim(again.phase1.cons, GAS).p - v1.p) / v1.p) < 1e-12


def test_relax_projection_mass_drift_is_second_order():
    # halving the pressure disequilibrium cuts the alpha*rho drift ~4x
    def drift(dp):
        cell = make_cell(0.5, Primitive(50.0, 0.0, 1e7 + dp), Primitive(1000.0, 0.0, 1e7 - dp))
        m_pre = 0.5 * 50.0
        out = relax_projection(cell, GAS, LIQUID)
        m_post = out.phase1.alpha * cons_to_prim(out.phase1.cons, GAS).rho
        return abs(m_post - m_pre) / m_pre

    ratio = drift(2e5) / drift(1e5)
    assert 3.5 < ratio < 4.5


def test_projection_consistent_with_continuous_to_second_order():
    # post-states of the two strategies differ by O(delta^2)
    def gap(scale):
        cell = make_cell(0.5,
                         Primitive(50.0, 2.0 * scale, 1e7 * (1 + 0.02 * scale)),
                         Primitive(1000.0, -2.0 * scale, 1e7 * (1 - 0.02 * scale)))
        a = relax_continuous(cell, GAS, LIQUID)
        b = relax_projection(cell, GAS, LIQUID)
        pa = cons_to_prim(a.phase1.cons, GAS).p
        pb = cons_to_prim(b.phase1.cons, GAS).p
        return abs(pa - pb)

    ratio = gap(1.0) / gap(0.5)
    assert 3.0 < ratio < 5.0


# ------------------------------------------------- projection identities

def test_projection_matrix_annihilates_source_range():
    cell = random_cells(10_000, seed=4)
    pi = projection_matrix(cell, GAS, LIQUID)
    dm = reduced_jacobian()
    prod = np.einsum("nij,jk->nik", pi, dm)
    assert np.max(np.abs(prod - np.eye(6))) < 1e-10
    v1, v2 = kernel_range_vectors(cell, GAS, LIQUID)
    for v in (v1, v2):
        out = np.einsum("nij,nj->ni", pi, v)
        scale = np.max(np.abs(v), axis=-1, keepdims=True)
        assert np.max(np.abs(out) / scale) < 1e-10
    # a scalar cell gives one 6x8 matrix and two 8-vectors: its entries of the batch
    def row(phase, i=7):
        c = phase.cons
        return PhaseCellState(phase.alpha[i], Conserved(c.mass[i], c.momentum[i], c.energy[i]))
    one = MixtureCell(row(cell.phase1), row(cell.phase2))
    assert np.array_equal(projection_matrix(one, GAS, LIQUID), pi[7])
    for got, batch in zip(kernel_range_vectors(one, GAS, LIQUID), (v1, v2)):
        assert np.array_equal(got, batch[7])


def test_relax_projection_matches_matrix_route():
    cell = random_cells(100, seed=5, dis_p=0.05, dis_u=5.0)
    a1, v1, a2, v2 = phase_fields(cell)
    v0 = np.stack([a1, v1.rho, v1.u, v1.p, a2, v2.rho, v2.u, v2.p], axis=-1)
    reduced = np.einsum("nij,nj->ni", projection_matrix(cell, GAS, LIQUID), v0)
    out = relax_projection(cell, GAS, LIQUID)
    oa1, ov1, oa2, ov2 = phase_fields(out)
    got = np.stack([oa1, ov1.rho, ov1.u, ov1.p, oa2, ov2.rho], axis=-1)
    scale = np.max(np.abs(reduced), axis=0)
    assert np.max(np.abs(got - reduced) / scale) < 1e-12
