"""Property tests of hllc and exact_rp over drawn admissible stiffened-gas
states: near-vacuum densities, strong pressures and water in tension
(p < 0 < p + pi_inf)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from demflow.eos import EosParams, sound_speed
from demflow.errors import SolverError
from demflow.riemann import exact_rp, hllc, thermo_state
from demflow.state import Primitive, prim_to_cons

GAS = EosParams(1.4, 0.0)
LIQUID = EosParams(4.4, 6.0e8)
reproducible = settings(derandomize=True, database=None, deadline=None, max_examples=300)

eos_params = st.one_of(
    st.sampled_from((GAS, LIQUID)),
    st.builds(EosParams, st.floats(1.01, 5.0), st.sampled_from((0.0, 1e5, 3e9))),
)


@st.composite
def sides(draw):
    """An EOS and an admissible state of it. The density reaches down to
    1e-6 kg/m^3; p + pi_inf is drawn, so a large pi_inf puts p below 0."""
    eos = draw(eos_params)
    rho = 10.0 ** draw(st.floats(-6.0, 3.5))
    u = draw(st.floats(-500.0, 500.0))
    p = 10.0 ** draw(st.floats(3.0, 9.5)) - eos.pi_inf
    return eos, Primitive(rho, u, p)


@reproducible
@given(sides())
def test_hllc_of_equal_states_is_the_physical_flux(side):
    # the error is scaled by |F| + a |U|, as in test_riemann: the star state
    # is built from mass fluxes of size rho a
    eos, v = side
    state = thermo_state(v, eos)
    flux = hllc(state, state).flux0
    c = prim_to_cons(v, eos)
    scale = np.abs(state.F) + state.a * np.abs([c.mass, c.momentum, c.energy])
    assert np.all(np.abs(flux - state.F) <= 8 * np.finfo(float).eps * scale)


@reproducible
@given(sides(), sides())
def test_hllc_contact_lies_in_the_fan_with_positive_star_densities(left, right):
    (eos_l, v_l), (eos_r, v_r) = left, right
    try:
        fan = hllc(thermo_state(v_l, eos_l), thermo_state(v_r, eos_r))
    except SolverError:
        return
    assert fan.s_left <= fan.sigma <= fan.s_right
    # rho*_K = rho_K (s_K - u_K) / (s_K - sigma), the densities either side
    # of the contact
    rho_star_l = v_l.rho * (fan.s_left - v_l.u) / (fan.s_left - fan.sigma)
    rho_star_r = v_r.rho * (fan.s_right - v_r.u) / (fan.s_right - fan.sigma)
    assert rho_star_l > 0.0 and rho_star_r > 0.0


# both sides may have pi_inf > 0, so the vacuum floor p = -min(pi_inf) can lie
# far below 0 and far from either side's own floor
exact_eos = st.builds(EosParams, st.floats(1.2, 4.5),
                      st.sampled_from((0.0, 1e5, 3.4e6, 3e7, 6e8)))
above_floor = st.floats(0.0, np.log10(3e9)).map(lambda e: 10.0 ** e)


@st.composite
def riemann_problems(draw):
    """Two EOS and a state of each, 1 Pa to 3e9 Pa above its -pi_inf; or a
    contact: equal p and u, 1 Pa to 3e9 Pa above -min(pi_inf)."""
    eos_l, eos_r = draw(exact_eos), draw(exact_eos)
    rho_l, rho_r = (10.0 ** draw(st.floats(-3.0, 3.5)) for _ in range(2))
    u_l = draw(st.floats(-500.0, 500.0))
    if draw(st.booleans()):
        p = draw(above_floor) - min(eos_l.pi_inf, eos_r.pi_inf)
        left, right = Primitive(rho_l, u_l, p), Primitive(rho_r, u_l, p)
    else:
        left = Primitive(rho_l, u_l, draw(above_floor) - eos_l.pi_inf)
        right = Primitive(rho_r, draw(st.floats(-500.0, 500.0)),
                          draw(above_floor) - eos_r.pi_inf)
    return left, right, eos_l, eos_r


@settings(derandomize=True, database=None, deadline=None, max_examples=1500)
@given(riemann_problems())
def test_exact_rp_converges_or_names_vacuum(problem):
    left, right, eos_l, eos_r = problem
    try:
        sol = exact_rp(*problem)
    except SolverError as exc:
        assert "forms vacuum" in str(exc)
        return
    assert sol.residual <= 1e-10
    assert sol.p_star + min(eos_l.pi_inf, eos_r.pi_inf) >= 0.0


@st.composite
def near_vacuum_problems(draw):
    """Two EOS and a state of each, 1 Pa to 3e9 Pa above -min(pi_inf), and
    u_R placed so that the pressure function lies 1e-14 to 1 m/s below 0 at
    that vacuum floor, where both waves are rarefactions: f(0) = u_R - u_L
    - sum_K 2 a_K / (gamma_K - 1) (1 - (d_K / (p_K + pi_K))^z_K), with
    d_K = pi_K - min(pi_inf) and z_K = (gamma_K - 1) / (2 gamma_K). The sum
    rounds to about 1e-16 of its size, so the smallest gaps may land on either
    side of vacuum."""
    eos_l, eos_r = draw(exact_eos), draw(exact_eos)
    s = min(eos_l.pi_inf, eos_r.pi_inf)
    states = [Primitive(10.0 ** draw(st.floats(-3.0, 3.5)), draw(st.floats(-500.0, 500.0)),
                        draw(above_floor) - s) for _ in range(2)]
    to_floor = 0.0
    for v, eos in zip(states, (eos_l, eos_r)):
        g = eos.gamma
        ratio = (eos.pi_inf - s) / (v.p + eos.pi_inf)
        to_floor += 2.0 * sound_speed(v.rho, v.p, eos) / (g - 1.0) \
            * (1.0 - ratio ** ((g - 1.0) / (2.0 * g)))
    gap = 10.0 ** -draw(st.floats(0.0, 14.0))
    left, right = states
    return left, Primitive(right.rho, left.u + to_floor - gap, right.p), eos_l, eos_r


@settings(derandomize=True, database=None, deadline=None, max_examples=1000)
@given(near_vacuum_problems())
def test_exact_rp_near_vacuum_converges_with_monotone_fans(problem):
    left, right, eos_l, eos_r = problem
    try:
        sol = exact_rp(*problem)
    except SolverError as exc:
        assert "forms vacuum" in str(exc)
        return
    assert sol.residual <= 1e-10
    # u* is off by half of |f| at x*, at most 5e-11 of this scale by the
    # residual bound; the fan's u carries the rounding of the side's u and a
    scale = max(sound_speed(left.rho, left.p, eos_l), sound_speed(right.rho, right.p, eos_r),
                abs(right.u - left.u))
    tol = 1e-10 * scale
    for (kind, lo, hi), u_side in ((sol.left_wave, left.u), (sol.right_wave, right.u)):
        if kind != "rarefaction":
            continue
        u = sol(np.linspace(lo, hi, 101)).u
        assert np.all(np.diff(u) >= -tol)
        assert np.all(u >= min(u_side, sol.u_star) - tol)
        assert np.all(u <= max(u_side, sol.u_star) + tol)
