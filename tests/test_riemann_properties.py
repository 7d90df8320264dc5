"""Property tests of hllc over drawn admissible stiffened-gas states: near-vacuum
densities, strong pressures and water in tension (p < 0 < p + pi_inf)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from demflow.eos import EosParams
from demflow.errors import SolverError
from demflow.riemann import hllc, thermo_state
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
