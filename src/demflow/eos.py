"""Stiffened-gas thermodynamics.

Each phase obeys p = (gamma - 1) rho e - gamma pi_inf, which covers ideal
gases (pi_inf = 0) and nearly incompressible liquids (large pi_inf).
Admissibility is rho > 0 and p + pi_inf > 0 (strict, both finite). A state is
checked once, where it enters the program: _check_admissible is called by
prim_to_cons, cons_to_prim, exact_rp and the config's initial states, and
raises InvalidStateError instead of clamping. The formulas below check
nothing; given an inadmissible state they return NaN or a meaningless value.

All functions accept scalars or same-shape numpy arrays.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidStateError


@dataclass(frozen=True)
class EosParams:
    """Ratio of specific heats (dimensionless) and reference pressure [Pa]."""

    gamma: float
    pi_inf: float = 0.0

    def __post_init__(self):
        if not self.gamma > 1.0:
            raise InvalidStateError(f"gamma must exceed 1, got {self.gamma}")
        if not self.pi_inf >= 0.0:
            raise InvalidStateError(f"pi_inf must be non-negative, got {self.pi_inf}")


def _first_bad_index(mask):
    flat = np.flatnonzero(np.asarray(mask))
    return int(flat[0]) if flat.size else None


def _check_admissible(rho, p, eos):
    """The admissibility test: finite rho > 0 and finite p + pi_inf > 0; raises
    InvalidStateError naming the first offending cell. Either may be None to
    test the other alone (cons_to_prim checks rho before it divides by it)."""
    if rho is not None:
        idx = _first_bad_index(~(np.isfinite(rho) & (np.asarray(rho) > 0.0)))
        if idx is not None:
            raise InvalidStateError(f"non-positive or non-finite density at cell {idx}")
    if p is not None:
        idx = _first_bad_index(~(np.isfinite(p) & (np.asarray(p) + eos.pi_inf > 0.0)))
        if idx is not None:
            raise InvalidStateError("pressure below stiffened-gas admissibility limit "
                                    f"(p + pi_inf <= 0) or non-finite pressure at cell {idx}")


def internal_energy(rho, p, eos):
    """Specific internal energy e(rho, p) = (p + gamma pi_inf) / ((gamma - 1) rho)
    [J/kg]. The state must be admissible (see _check_admissible)."""
    return (p + eos.gamma * eos.pi_inf) / ((eos.gamma - 1.0) * rho)


def pressure_from_energy(rho, e, eos):
    """Pressure from density and specific internal energy; exact algebraic inverse
    of internal_energy. rho must be positive; the result is not checked: callers
    probing the p + pi_inf boundary must validate themselves."""
    return (eos.gamma - 1.0) * rho * e - eos.gamma * eos.pi_inf


def sound_speed(rho, p, eos):
    """Speed of sound sqrt(gamma (p + pi_inf) / rho) [m/s]. The state must be
    admissible (see _check_admissible)."""
    return np.sqrt(eos.gamma * (p + eos.pi_inf) / rho)


def de_drho(rho, p, eos):
    """d e(rho, p) / d rho at fixed p. rho must be positive."""
    return -(p + eos.gamma * eos.pi_inf) / ((eos.gamma - 1.0) * rho**2)


def de_dp(rho, p, eos):
    """d e(rho, p) / d p at fixed rho. rho must be positive."""
    return 1.0 / ((eos.gamma - 1.0) * rho)
