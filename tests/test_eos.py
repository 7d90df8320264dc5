import numpy as np
import pytest

from demflow.eos import (EosParams, de_dp, de_drho, internal_energy,
                         pressure_from_energy, sound_speed)
from demflow.errors import InvalidStateError
from demflow.state import Primitive, prim_to_cons

GAS = EosParams(gamma=1.4, pi_inf=0.0)
LIQUID = EosParams(gamma=4.4, pi_inf=6.0e8)


def random_states(n, seed=0):
    rng = np.random.default_rng(seed)
    rho = 10.0 ** rng.uniform(-2.0, 3.5, n)
    # pressures down to slightly above the admissibility floor of each EOS
    eos = LIQUID if seed % 2 else GAS
    p = rng.uniform(-0.9 * eos.pi_inf, 1e9, n)
    return rho, p, eos


def test_internal_energy_ideal_gas_hand_value():
    assert internal_energy(1.0, 1.0, GAS) == pytest.approx(2.5, rel=1e-14)


def test_internal_energy_liquid_hand_value():
    # (1e5 + 4.4*6e8) / (3.4 * 1000) = 2.6401e9 / 3400
    e = internal_energy(1000.0, 1e5, LIQUID)
    assert e == pytest.approx(776500.0, rel=1e-12)


def test_internal_energy_rejects_admissibility_boundary():
    # the EOS formulas check nothing; a state is checked where it enters,
    # here prim_to_cons, before its internal energy is taken.
    # p chosen so p + pi_inf < 0 (and in particular p + gamma*pi = 0)
    p_bad = -LIQUID.gamma * LIQUID.pi_inf
    with pytest.raises(InvalidStateError):
        prim_to_cons(Primitive(1000.0, 0.0, p_bad), LIQUID)
    with pytest.raises(InvalidStateError):
        prim_to_cons(Primitive(-1.0, 0.0, 1e5), GAS)


def test_pressure_from_energy_inverts_hand_value():
    assert pressure_from_energy(1.0, 2.5, GAS) == pytest.approx(1.0, rel=1e-14)


def test_round_trip_pressure_energy():
    for seed in (0, 1, 2, 3):
        rho, p, eos = random_states(100_000, seed)
        p_back = pressure_from_energy(rho, internal_energy(rho, p, eos), eos)
        scale = np.maximum(np.abs(p), eos.pi_inf + 1.0)
        assert np.max(np.abs(p_back - p) / scale) < 1e-14


def test_sound_speed_hand_values():
    assert sound_speed(1000.0, 1e5, LIQUID) == pytest.approx(
        np.sqrt(4.4 * 6.001e8 / 1000.0), rel=1e-13)
    assert sound_speed(50.0, 1e9, GAS) == pytest.approx(np.sqrt(2.8e7), rel=1e-13)


def test_sound_speed_identity():
    for seed in (0, 1):
        rho, p, eos = random_states(10_000, seed)
        a = sound_speed(rho, p, eos)
        assert np.max(np.abs(a**2 * rho - eos.gamma * (p + eos.pi_inf))
                      / (eos.gamma * (p + eos.pi_inf))) < 1e-12


def test_sound_speed_matches_partial_derivative_form():
    # a^2 = p / (rho^2 de/dp) - (de/drho) / (de/dp)
    for seed in (0, 1, 2):
        rho, p, eos = random_states(10_000, seed)
        a2 = p / (rho**2 * de_dp(rho, p, eos)) - de_drho(rho, p, eos) / de_dp(rho, p, eos)
        assert np.max(np.abs(a2 - sound_speed(rho, p, eos) ** 2) / np.abs(a2)) < 1e-12


def test_partials_hand_values():
    assert de_dp(1.0, 1.0, GAS) == pytest.approx(2.5, rel=1e-14)
    assert de_drho(1.0, 1.0, GAS) == pytest.approx(-2.5, rel=1e-14)


def test_partials_match_finite_differences():
    for seed in (0, 1):
        rho, p, eos = random_states(10_000, seed)
        h_rho = 1e-6 * rho
        fd_rho = (internal_energy(rho + h_rho, p, eos)
                  - internal_energy(rho - h_rho, p, eos)) / (2.0 * h_rho)
        assert np.max(np.abs(fd_rho - de_drho(rho, p, eos))
                      / np.abs(de_drho(rho, p, eos))) < 1e-6
        h_p = 1e-6 * (np.abs(p) + eos.pi_inf + 1.0)
        fd_p = (internal_energy(rho, p + h_p, eos)
                - internal_energy(rho, p - h_p, eos)) / (2.0 * h_p)
        assert np.max(np.abs(fd_p - de_dp(rho, p, eos)) / de_dp(rho, p, eos)) < 1e-6


def test_eos_params_validation():
    with pytest.raises(InvalidStateError):
        EosParams(gamma=1.0)
    with pytest.raises(InvalidStateError):
        EosParams(gamma=1.4, pi_inf=-1.0)


@pytest.mark.parametrize("gamma, pi_inf, field", [
    (np.inf, 0.0, "gamma"), (1.4, np.inf, "pi_inf"), (np.nan, 0.0, "gamma"),
])
def test_eos_params_reject_non_finite_values(gamma, pi_inf, field):
    # inf passed both rules at one time
    with pytest.raises(InvalidStateError, match=f"^{field} must be finite") as info:
        EosParams(gamma, pi_inf)
    assert info.value.field == field
