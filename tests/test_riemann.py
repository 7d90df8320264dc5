import numpy as np
import pytest

from demflow.eos import EosParams, eos_columns, internal_energy, sound_speed
from demflow.errors import SolverError
from demflow.riemann import ThermoState, exact_rp, hllc, thermo_state
from demflow.state import Primitive, prim_to_cons
from oracles import interfacial_decomposition

GAS = EosParams(1.4, 0.0)
LIQUID = EosParams(4.4, 6.0e8)

# strong two-material shock tube data: high-pressure gas against water
T1_GAS_LEFT = Primitive(50.0, 0.0, 1e9)
T1_LIQ_RIGHT = Primitive(1000.0, 0.0, 1e5)


def random_pairs(n, eos_l, eos_r, seed=0, u_span=200.0):
    rng = np.random.default_rng(seed)
    def states(eos):
        return Primitive(
            rho=10.0 ** rng.uniform(-1.0, 3.2, n),
            u=rng.uniform(-u_span, u_span, n),
            p=rng.uniform(1e4, 1e9, n),
        )
    return states(eos_l), states(eos_r)


def total_energy(v, eos):
    return internal_energy(v.rho, v.p, eos) + 0.5 * v.u**2


def star_state_at_origin(fan, left, right, eos_l, eos_r):
    """Godunov state at x/t = 0 inside the star region, from the HLLC star
    state U*_K = rho_K (s_K - u_K)/(s_K - sigma) [1, sigma, E_K + (sigma - u_K)
    (sigma + p_K/(rho_K (s_K - u_K)))]; the contact at 0 takes the left one."""
    def star(v, eos, s):
        q = v.rho * (s - v.u)
        fac = q / (s - fan.sigma)
        return np.stack([fac, fac * fan.sigma,
                         fac * (total_energy(v, eos)
                                + (fan.sigma - v.u) * (fan.sigma + v.p / q))])
    return np.where(fan.sigma >= 0.0, star(left, eos_l, fan.s_left),
                    star(right, eos_r, fan.s_right))


# ---------------------------------------------------------------- hllc

def test_hllc_consistency_equal_states():
    for v, eos in ((Primitive(1.2, 30.0, 2e5), GAS),
                   (Primitive(998.0, -4.0, 3e6), LIQUID)):
        side = thermo_state(v, eos)
        fan = hllc(side, side)
        exact = side.F
        assert np.max(np.abs(fan.flux0 - exact) /
                      np.maximum(np.abs(exact), 1.0)) < 1e-12
        assert fan.sigma == pytest.approx(v.u, abs=1e-12 * max(1.0, abs(v.u)))
    # random batches: the error is scaled by |F| + a |U|, U from prim_to_cons:
    # the star state is built from mass fluxes rho (s - u) of size rho a, so
    # its round-off grows with a |U| (|F| alone can be tiny where u is near 0)
    for eos, seed in ((GAS, 13), (LIQUID, 14)):
        v, _ = random_pairs(5000, eos, eos, seed=seed)
        side = thermo_state(v, eos)
        fan = hllc(side, side)
        c = prim_to_cons(v, eos)
        scale = np.abs(side.F) + side.a * np.abs([c.mass, c.momentum, c.energy])
        assert np.max(np.abs(fan.flux0 - side.F) / scale) < 1e-13
        assert np.max(np.abs(fan.sigma - v.u) / np.maximum(1.0, np.abs(v.u))) < 1e-12


def test_hllc_symmetric_compression():
    # mirror-symmetric colliding states force a standing contact
    v_l = Primitive(10.0, 25.0, 5e5)
    v_r = Primitive(10.0, -25.0, 5e5)
    fan = hllc(thermo_state(v_l, GAS), thermo_state(v_r, GAS))
    assert abs(fan.sigma) < 1e-10
    assert fan.p_star > 5e5


def test_hllc_two_material_strong_shock_tube():
    fan = hllc(thermo_state(T1_GAS_LEFT, GAS), thermo_state(T1_LIQ_RIGHT, LIQUID))
    assert fan.sigma > 0.0
    assert 1e5 < fan.p_star < 1e9
    # cross-check against the exact two-material solver (HLLC is approximate)
    exact = exact_rp(T1_GAS_LEFT, T1_LIQ_RIGHT, GAS, LIQUID)
    assert fan.p_star == pytest.approx(exact.p_star, rel=0.10)


def test_hllc_fan_ordering_and_star_mass_flux():
    left, right = random_pairs(5000, GAS, LIQUID, seed=7)
    fan = hllc(thermo_state(left, GAS), thermo_state(right, LIQUID))
    assert np.all(fan.s_left <= fan.sigma) and np.all(fan.sigma <= fan.s_right)
    # wherever x/t = 0 falls inside the star region, the sampled state moves
    # with sigma: mass flux minus sigma * density vanishes
    star = (fan.s_left < 0.0) & (fan.s_right > 0.0)
    u_star = star_state_at_origin(fan, left, right, GAS, LIQUID)
    resid = fan.flux0[0] - fan.sigma * u_star[0]
    scale = np.abs(u_star[0] * fan.sigma) + np.abs(u_star[1]) + 1.0
    assert np.max(np.abs(resid[star]) / scale[star]) < 1e-9


def test_hllc_flux_vector_splitting_in_star_region():
    # F* = sigma U* + p* [0, 1, sigma] wherever the star region covers x/t = 0
    left, right = random_pairs(5000, LIQUID, GAS, seed=11)
    fan = hllc(thermo_state(left, LIQUID), thermo_state(right, GAS))
    star = (fan.s_left < 0.0) & (fan.s_right > 0.0)
    u_star = star_state_at_origin(fan, left, right, LIQUID, GAS)
    split = fan.sigma * u_star + fan.p_star * np.array([np.zeros_like(fan.sigma),
                                                         np.ones_like(fan.sigma), fan.sigma])
    # scale by the magnitude of the cancelling terms in the star flux
    f_l = thermo_state(left, LIQUID).F
    f_r = thermo_state(right, GAS).F
    waves = np.abs(fan.s_left) + np.abs(fan.s_right) + np.abs(fan.sigma)
    scale = np.abs(f_l) + np.abs(f_r) + waves * np.abs(u_star) + np.abs(fan.p_star)
    assert np.max(np.abs((fan.flux0 - split)[:, star]) / scale[:, star]) < 1e-12


def test_hllc_matches_acoustic_form_with_davis_impedances():
    # with Z = rho |u - outer wave speed| the HLLC sigma and p* are exactly
    # the acoustic interfacial formulas. The p* gap is scaled by the largest
    # pressure in play: on strong expansions p* itself can be near zero
    # (cancelling 1e9 Pa inputs), and the formulas agree to round-off of
    # the inputs, not of p*.
    for seed in range(20):
        left, right = random_pairs(2000, GAS, LIQUID, seed=seed)
        fan = hllc(thermo_state(left, GAS), thermo_state(right, LIQUID))
        z_l = left.rho * (left.u - fan.s_left)
        z_r = right.rho * (fan.s_right - right.u)
        ac = interfacial_decomposition(left, right, z_l, z_r)
        assert np.max(np.abs(ac.sigma - fan.sigma) /
                      (np.abs(fan.sigma) + 1.0)) < 1e-12, seed
        p_scale = np.maximum.reduce([np.abs(fan.p_star), np.abs(left.p), np.abs(right.p)])
        assert np.max(np.abs(ac.p_star - fan.p_star) / p_scale) < 1e-12, seed


def test_hllc_converges_to_acoustic_for_near_equal_states():
    v = Primitive(2.0, 10.0, 3e5)
    z = float(v.rho * sound_speed(v.rho, v.p, GAS))
    for delta in (1e-3, 1e-5):
        v_r = Primitive(v.rho * (1 + delta), v.u * (1 + delta), v.p * (1 + delta))
        fan = hllc(thermo_state(v, GAS), thermo_state(v_r, GAS))
        ac = interfacial_decomposition(v, v_r, z, z)
        assert abs(fan.sigma - ac.sigma) < 10.0 * delta * abs(ac.sigma) + 1e-9
        assert abs(fan.p_star - ac.p_star) < 10.0 * delta * ac.p_star



def four_branch_sampler(left, right, weight=1.0):
    """Reference HLLC sampler: both star states and both star fluxes built at
    every interface, then one of four branches kept by np.where (the contact
    at exactly 0 takes the left star state). Returns flux0, sigma and p_star,
    all three 0 at a fan whose contact left its wave fan, which must have
    weight 0."""
    s_l = np.minimum(left.u - left.a, right.u - right.a)
    s_r = np.maximum(left.u + left.a, right.u + right.a)
    q_l = left.rho * (s_l - left.u)
    q_r = right.rho * (s_r - right.u)
    sigma = (right.p - left.p + left.u * q_l - right.u * q_r) / (q_l - q_r)
    p_star = left.p + q_l * (sigma - left.u)
    outside = ~((s_l <= sigma) & (sigma <= s_r))
    assert not np.any(outside & (np.asarray(weight) != 0.0))

    def star_flux(side, s, q):
        # F*_K = sigma U*_K + p* [0, 1, sigma]
        fac = side.rho * (s - side.u) / (s - sigma)
        u_star = np.stack([fac, fac * sigma,
                           fac * (side.E + (sigma - side.u) * (sigma + side.p / q))])
        return sigma * u_star + np.stack([np.zeros_like(p_star), p_star, p_star * sigma])

    flux0 = np.where(s_l >= 0.0, left.F,
                     np.where(sigma >= 0.0, star_flux(left, s_l, q_l),
                              np.where(s_r >= 0.0, star_flux(right, s_r, q_r), right.F)))
    return tuple(np.where(outside, 0.0, x) for x in (flux0, sigma, p_star))


def assert_matches_four_branch_sampler(fan, left, right, weight=1.0):
    want = four_branch_sampler(left, right, weight)
    for got, x in zip((fan.flux0, fan.sigma, fan.p_star), want):
        assert np.asarray(got).tobytes() == np.asarray(x).tobytes()


def concat(*prims):
    return Primitive(*(np.concatenate([getattr(v, f) for v in prims])
                       for f in ("rho", "u", "p")))


def test_hllc_flux0_matches_four_branch_sampler_bitwise():
    rng = np.random.default_rng(23)

    def moderate(n, u_lo, u_hi):
        # gas with sound speed below ~1200 m/s, so |u| >= 3000 is supersonic
        return Primitive(rng.uniform(1.0, 100.0, n), rng.uniform(u_lo, u_hi, n),
                         rng.uniform(1e4, 1e6, n))

    for eos_l, eos_r, seed in ((GAS, GAS, 31), (GAS, LIQUID, 32), (LIQUID, GAS, 33),
                               (LIQUID, LIQUID, 34)):
        sub_l, sub_r = random_pairs(400, eos_l, eos_r, seed=seed)
        mirror = random_pairs(200, eos_l, eos_l, seed=seed + 10)[0]
        mirror_r = Primitive(mirror.rho, -mirror.u, mirror.p)
        left, right = concat(sub_l, mirror), concat(sub_r, mirror_r)
        if eos_l is GAS and eos_r is GAS:
            left = concat(left, moderate(100, 3000.0, 5000.0), moderate(100, -5000.0, -3000.0))
            right = concat(right, moderate(100, 3000.0, 5000.0), moderate(100, -5000.0, -3000.0))
        tl, tr = thermo_state(left, eos_l), thermo_state(right, eos_r)
        fan = hllc(tl, tr)
        if eos_l is eos_r:
            # mirrored pairs put the contact exactly at x/t = 0
            assert np.all(fan.sigma[400:600] == 0.0)
        if eos_l is GAS and eos_r is GAS:
            assert np.all(fan.s_left[600:700] > 0.0)
            assert np.all(fan.s_right[700:] < 0.0)
        star = (fan.s_left < 0.0) & (fan.s_right >= 0.0)
        assert np.any(star & (fan.sigma > 0.0)) and np.any(star & (fan.sigma < 0.0))
        assert_matches_four_branch_sampler(fan, tl, tr)
        # an all-subsonic batch, zero contact speeds included, builds no
        # physical flux and must give the same bits
        sub = thermo_state(Primitive(left.rho[star], left.u[star], left.p[star]), eos_l), \
            thermo_state(Primitive(right.rho[star], right.u[star], right.p[star]), eos_r)
        fan = hllc(*sub)
        assert np.all(fan.s_left < 0.0) and np.all(fan.s_right >= 0.0)
        assert np.any(fan.sigma == 0.0) == (eos_l is eos_r)
        assert_matches_four_branch_sampler(fan, *sub)

    # the step's call: both phases' rows (2, n), gas and liquid, as left
    # (2, 1, m) and right (1, 2, m) records of m = n - 1 interfaces.
    # Quiescent cells whose round-off velocities flip the contact's sign
    # between neighbouring fans, as on a large t6 grid:
    n = 400
    rho = np.array([rng.uniform(1.0, 1.2, n), rng.uniform(999.0, 1001.0, n)])
    u = rng.normal(0.0, 1e-12, (2, n))
    p = 1e5 * (1.0 + 1e-15 * rng.normal(size=(2, n)))
    # equal cells at rest put the contact at -0.0, liquid pressures +0.0 then
    # -0.0 put it at +0.0: its sign must survive (which side such a contact
    # takes does not show in flux0, as both star fluxes agree there)
    rest = np.array([[1.0, 1.0, 1.0], [1000.0, 1000.0, 1000.0]]), np.zeros((2, 3)), \
        np.array([[1e5, 1e5, 1e5], [1e5, 0.0, -0.0]])
    # a gas cell then a liquid cell whose 12 fan's contact lies right of
    # s_R: that fan gets weight 0
    beyond_fan = np.array([[16.05, 16.05], [304.6, 304.6]]), \
        np.array([[-908.0, -908.0], [-139.0, -139.0]]), \
        np.array([[5.5e5, 5.5e5], [-4.98e8, -4.98e8]])
    # supersonic cells, flowing right and left
    fast = rng.uniform(1.0, 2.0, (2, 4)) * [[1.0], [1000.0]], \
        np.array([[5000.0] * 2 + [-5000.0] * 2] * 2), rng.uniform(1e5, 1e6, (2, 4))
    rho, u, p = (np.concatenate(x, axis=1) for x in zip((rho, u, p), rest, beyond_fan, fast))
    rec = thermo_state(Primitive(rho, u, p), eos_columns(GAS, LIQUID, 1))
    left = ThermoState(*[x[:, None, :-1] for x in rec])
    right = ThermoState(*[x[None, :, 1:] for x in rec])
    with pytest.raises(SolverError, match=f"left the wave fan at interface {n + 2}, pairing 12"):
        hllc(left, right)
    _, sigma, p_star = four_branch_sampler(left, right, weight=0.0)
    outside = (sigma == 0.0) & (p_star == 0.0)
    assert outside[0, 1, n + 3] and not np.any(outside[..., :n - 1])
    weight = np.where(outside, 0.0, 0.25)
    fan = hllc(left, right, weight)
    assert fan.flux0.shape == (3, 2, 2, n + 8)
    assert_matches_four_branch_sampler(fan, left, right, weight)
    assert np.mean(np.diff(fan.sigma[..., :n - 1] >= 0.0, axis=-1)) > 0.3
    zero = fan.sigma == 0.0
    assert np.any(zero & np.signbit(fan.sigma)) and np.any(zero & ~np.signbit(fan.sigma))
    assert np.any(fan.s_left > 0.0) and np.any(fan.s_right < 0.0)
    # 0-d records: contacts right and left of 0, at -0.0, and supersonic
    for v_l, v_r in ((Primitive(1.0, 20.0, 2e5), Primitive(1.2, 0.0, 1e5)),
                     (Primitive(1.0, -20.0, 1e5), Primitive(1.2, 0.0, 2e5)),
                     (Primitive(1.0, 0.0, 1e5), Primitive(1.0, 0.0, 1e5)),
                     (Primitive(1.0, 4000.0, 1e5), Primitive(1.2, 3000.0, 2e5))):
        tl, tr = thermo_state(v_l, GAS), thermo_state(v_r, GAS)
        fan = hllc(tl, tr)
        assert np.shape(fan.flux0) == (3,) and np.ndim(fan.sigma) == 0
        assert_matches_four_branch_sampler(fan, tl, tr)


def test_hllc_records_whose_fields_broadcast_to_fewer_cells_than_the_fan():
    # one pressure per side against four interfaces, then one density per
    # side with supersonic fans: the fan takes the bits of the records
    # broadcast to its shape
    u = np.array([0.0, 1.0, -2.0, 3.0])
    left = Primitive(np.ones(4), u, np.array([1e5]))
    right = Primitive(0.5 * np.ones(4), u, np.array([2e5]))
    fan = hllc(thermo_state(left, GAS), thermo_state(right, GAS))
    assert fan.sigma == pytest.approx([-89.087, -88.087, -91.087, -86.087], abs=1e-3)
    fast = np.array([0.0, 1.0, -2000.0, 3000.0])
    for left, right in ((left, right), (Primitive(np.array([1.0]), fast, np.full(4, 1e5)),
                                        Primitive(np.array([0.5]), fast, np.full(4, 2e5)))):
        fan = hllc(thermo_state(left, GAS), thermo_state(right, GAS))
        full = hllc(*(thermo_state(Primitive(*np.broadcast_arrays(v.rho, v.u, v.p)), GAS)
                      for v in (left, right)))
        for name in ("flux0", "sigma", "p_star", "s_left", "s_right"):
            assert getattr(fan, name).tobytes() == getattr(full, name).tobytes()
    assert fan.s_left[3] > 0.0 and fan.s_right[2] < 0.0


def test_hllc_errors_name_interface_and_states():
    # a NaN sound speed crosses the wave speed estimates: a call over
    # interfaces names the first failing one, a scalar call only the states
    left = thermo_state(Primitive(np.array([1.0, 1.0, 2.0]), np.zeros(3),
                                  np.array([1e5, np.nan, np.nan])), GAS)
    right = thermo_state(Primitive(np.ones(3), np.zeros(3), np.full(3, 1e5)), GAS)
    with pytest.raises(SolverError, match=r"^HLLC wave speed estimates crossed "
                                          r"\(vacuum-adjacent states\) at interface 1: "
                                          r"left \(rho, u, p\) = \(1, 0, nan\), "
                                          r"right \(rho, u, p\) = \(1, 0, 100000\)$"):
        hllc(left, right)
    # the contact of these states lies right of s_R: an error where the fan
    # has weight, zeros where it has none
    left = thermo_state(Primitive(16.05, -908.0, 5.5e5), GAS)
    right = thermo_state(Primitive(304.6, -139.0, -4.98e8), LIQUID)
    with pytest.raises(SolverError, match=r"^HLLC contact speed left the wave fan: "
                                          r"left \(rho, u, p\) = \(16\.05, -908, 550000\), "
                                          r"right \(rho, u, p\) = "
                                          r"\(304\.6, -139, -498000000\)$"):
        hllc(left, right, weight=0.25)
    fan = hllc(left, right, weight=0.0)
    for x in (fan.flux0, fan.sigma, fan.p_star):
        assert np.all(x == 0.0)


# ------------------------------------------------------ lagrangian flux
# the moving-interface flux p* [0, 1, sigma] is read from the fan's star
# pressure and contact speed

def test_lagrangian_flux_stationary_contact():
    v = Primitive(1.0, 0.0, 7e4)
    side = thermo_state(v, GAS)
    fan = hllc(side, side)
    assert fan.p_star == pytest.approx(7e4, rel=1e-13)
    assert fan.sigma == 0.0


def test_lagrangian_flux_moving_contact():
    v = Primitive(1.0, 12.0, 7e4)
    side = thermo_state(v, GAS)
    fan = hllc(side, side)
    assert fan.p_star == pytest.approx(7e4, rel=1e-12)
    assert fan.p_star * fan.sigma == pytest.approx(7e4 * 12.0, rel=1e-12)


# ------------------------------------------- interfacial decomposition

def test_interfacial_equal_states():
    v = Primitive(1.0, 4.0, 9e4)
    ac = interfacial_decomposition(v, v, 400.0, 400.0)
    assert ac.sigma == pytest.approx(4.0, rel=1e-14)
    assert ac.p_star == pytest.approx(9e4, rel=1e-14)


def test_interfacial_pressure_driven_contact():
    v_l = Primitive(1.0, 0.0, 2e5)
    v_r = Primitive(1.0, 0.0, 1e5)
    ac = interfacial_decomposition(v_l, v_r, 300.0, 500.0)
    assert ac.sigma == pytest.approx((2e5 - 1e5) / 800.0, rel=1e-14)


def test_interfacial_symmetry_split():
    rng = np.random.default_rng(9)
    n = 1000
    v_l = Primitive(rng.uniform(0.1, 100, n), rng.uniform(-50, 50, n),
                    rng.uniform(1e4, 1e7, n))
    v_r = Primitive(rng.uniform(0.1, 100, n), rng.uniform(-50, 50, n),
                    rng.uniform(1e4, 1e7, n))
    z_l = rng.uniform(10, 1e4, n)
    z_r = rng.uniform(10, 1e4, n)
    fwd = interfacial_decomposition(v_l, v_r, z_l, z_r)
    rev = interfacial_decomposition(v_r, v_l, z_r, z_l)
    assert np.allclose(fwd.sigma_sym, rev.sigma_sym, rtol=1e-13)
    assert np.allclose(fwd.sigma_asym, -rev.sigma_asym, rtol=1e-13, atol=1e-18)
    assert np.allclose(fwd.p_sym, rev.p_sym, rtol=1e-13)
    assert np.allclose(fwd.p_asym, -rev.p_asym, rtol=1e-13, atol=1e-18)


# ----------------------------------------------------------- exact RP

def test_exact_equal_states_sampler_is_constant():
    # the iteration stops at its 1e-10 relative tolerance
    v = Primitive(3.0, 5.0, 4e5)
    sol = exact_rp(v, v, GAS, GAS)
    assert sol.p_star == pytest.approx(4e5, rel=1e-9)
    assert sol.u_star == pytest.approx(5.0, abs=1e-4)
    xi = np.linspace(-2000.0, 2000.0, 999)
    out = sol(xi)
    assert np.allclose(out.rho, 3.0, rtol=1e-9)
    assert np.allclose(out.u, 5.0, rtol=1e-4)
    assert np.allclose(out.p, 4e5, rtol=1e-9)


def test_exact_sod_star_values():
    # classic shock tube; star values are standard reference numbers
    sol = exact_rp(Primitive(1.0, 0.0, 1.0), Primitive(0.125, 0.0, 0.1), GAS, GAS)
    assert sol.p_star == pytest.approx(0.30313, rel=1e-4)
    assert sol.u_star == pytest.approx(0.92745, rel=1e-4)
    assert sol.residual < 1e-10
    # the correctly rounded root (mpmath: 0.30313017805064683...)
    assert sol.p_star == pytest.approx(0.30313017805064683, rel=1e-13)


def rankine_hugoniot_residual(sol, side, eos):
    kind, head, tail = sol.right_wave if side == "right" else sol.left_wave
    assert kind == "shock"
    s = head
    eps = 1e-9 * (abs(s) + 1.0)
    pre = sol(s + eps) if side == "right" else sol(s - eps)
    post = sol(s - eps) if side == "right" else sol(s + eps)
    res = []
    for v1, v2 in ((pre, post),):
        m1 = v1.rho * (v1.u - s)
        m2 = v2.rho * (v2.u - s)
        res.append(abs(m1 - m2) / (abs(m1) + abs(m2)))
        mom1 = v1.rho * v1.u * (v1.u - s) + v1.p
        mom2 = v2.rho * v2.u * (v2.u - s) + v2.p
        res.append(abs(mom1 - mom2) / (abs(mom1) + abs(mom2)))
        E1 = v1.rho * total_energy(v1, eos) * (v1.u - s) + v1.p * v1.u
        E2 = v2.rho * total_energy(v2, eos) * (v2.u - s) + v2.p * v2.u
        res.append(abs(E1 - E2) / (abs(E1) + abs(E2) + 1e-300))
    return max(res)


def test_exact_sod_shock_satisfies_jump_conditions():
    sol = exact_rp(Primitive(1.0, 0.0, 1.0), Primitive(0.125, 0.0, 0.1), GAS, GAS)
    assert rankine_hugoniot_residual(sol, "right", GAS) < 1e-8


def test_exact_two_material_shock_satisfies_jump_conditions():
    sol = exact_rp(T1_GAS_LEFT, T1_LIQ_RIGHT, GAS, LIQUID)
    assert sol.residual < 1e-10
    # right-going shock runs into the liquid
    assert rankine_hugoniot_residual(sol, "right", LIQUID) < 1e-8


def test_exact_liquid_shock_tube_rankine_hugoniot():
    sol = exact_rp(Primitive(1000.0, 0.0, 1e9), Primitive(1000.0, 0.0, 1e5),
                   LIQUID, LIQUID)
    assert rankine_hugoniot_residual(sol, "right", LIQUID) < 1e-8
    assert 1e5 < sol.p_star < 1e9


def test_exact_sampled_states_admissible():
    for left, right, el, er in (
        (T1_GAS_LEFT, T1_LIQ_RIGHT, GAS, LIQUID),
        (Primitive(1.0, -20.0, 1e5), Primitive(1.0, 20.0, 1e5), GAS, GAS),
        (Primitive(1000.0, 5.0, 2e8), Primitive(50.0, 0.0, 1e5), LIQUID, GAS),
    ):
        sol = exact_rp(left, right, el, er)
        xi = np.linspace(-6000.0, 6000.0, 4001)
        out = sol(xi)
        assert np.all(out.rho > 0.0)
        on_left = xi < sol.u_star
        pi = np.where(on_left, el.pi_inf, er.pi_inf)
        assert np.all(out.p + pi > 0.0)


def test_exact_rarefaction_isentrope():
    # left rarefaction of Sod: shifted pressure over rho^gamma is invariant
    sol = exact_rp(Primitive(1.0, 0.0, 1.0), Primitive(0.125, 0.0, 0.1), GAS, GAS)
    kind, head, tail = sol.left_wave
    assert kind == "rarefaction"
    xi = np.linspace(head, tail, 101)[1:-1]
    out = sol(xi)
    entropy = out.p / out.rho**1.4
    assert np.max(np.abs(entropy - 1.0)) < 1e-10


def test_exact_vacuum_detected():
    with pytest.raises(SolverError, match="vacuum"):
        exact_rp(Primitive(1.0, -2000.0, 1e5), Primitive(1.0, 2000.0, 1e5), GAS, GAS)


def test_exact_root_just_above_the_vacuum_floor():
    # the root lies 8.98e-4 Pa above p = -1e5, between two adjacent float64
    # values of p: it is found in x = p + 1e5 (mpmath root 8.9780210045e-4)
    sol = exact_rp(Primitive(105.204654, -128.477371, -3399565.45),
                   Primitive(0.255085629, 53.9695157, -99037.9759),
                   EosParams(1.8663293467473037, 3.4e6), EosParams(1.3674357412999938, 1e5))
    assert sol.p_star + 1e5 == pytest.approx(8.9780210045e-4, rel=1e-6)
    assert sol.residual <= 1e-10


# both sides 3.4e6 Pa stiff and a few hundred Pa above p = -3.4e6; with the
# CI pair's u_R the root lies 1.5e-15 Pa above that floor, where a* = 0.13 m/s
NEAR_VACUUM_EOS = (EosParams(1.2525141995526747, 3.4e6), EosParams(2.1803300503362157, 3.4e6))
NEAR_VACUUM_LEFT = Primitive(5.329331647529146, 14.639356077712705, -3399787.0384708224)


def near_vacuum_right(u):
    return Primitive(1687.1826849977053, u, -3399448.3051563883)


def test_exact_fan_tail_is_taken_above_the_vacuum_floor():
    # the fan ends at u* - a*, not at u*: sampled from the unshifted p*, a*
    # read 0 and xi = 69.5 fell in the fan with u = 69.6315 > u* = 69.6257
    sol = exact_rp(NEAR_VACUUM_LEFT, near_vacuum_right(71.05639381824369), *NEAR_VACUUM_EOS)
    kind, head, tail = sol.left_wave
    assert kind == "rarefaction" and tail < sol.u_star
    assert sol(69.5).u <= sol.u_star


def test_exact_root_near_vacuum_converges_in_few_iterations():
    # bisecting toward a root far below the bracket's end took 63 iterations
    # for the CI pair, and more than 100 for the second u_R
    sol = exact_rp(NEAR_VACUUM_LEFT, near_vacuum_right(71.05639381824369), *NEAR_VACUUM_EOS)
    assert sol.iterations <= 10
    sol = exact_rp(NEAR_VACUUM_LEFT, near_vacuum_right(72.10383432428405), *NEAR_VACUUM_EOS)
    assert sol.residual <= 1e-10


def test_exact_rp_error_names_both_states(monkeypatch):
    monkeypatch.setattr("demflow.riemann._MAX_ITER", 1)
    with pytest.raises(SolverError, match=r"^exact Riemann solver did not converge in 1 "
                       r"iterations: left \(rho, u, p\) = \(1, 0, 1\), "
                       r"right \(rho, u, p\) = \(0.125, 0, 0.1\)$"):
        exact_rp(Primitive(1.0, 0.0, 1.0), Primitive(0.125, 0.0, 0.1), GAS, GAS)


def test_exact_contact_in_deep_tension_is_returned_exactly():
    # equal p and u, 1.67 Pa above -pi_inf: the root is the bracket's end
    eos = EosParams(1.3048018206580425, 3.4e6)
    p, u = -3399998.33081786, 179.8114577603879
    sol = exact_rp(Primitive(56.81075526972012, u, p), Primitive(2.2040416447365105, u, p),
                   eos, eos)
    assert sol.p_star == p and sol.u_star == u
