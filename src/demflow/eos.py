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

from .errors import InvalidStateError, _require


@dataclass(frozen=True)
class EosParams:
    """Ratio of specific heats (dimensionless) and reference pressure [Pa]."""

    gamma: float
    pi_inf: float = 0.0

    def __post_init__(self):
        _require(1.0 < self.gamma < np.inf, InvalidStateError, "gamma",
                 f"gamma must be finite and exceed 1, got {self.gamma}")
        _require(0.0 <= self.pi_inf < np.inf, InvalidStateError, "pi_inf",
                 f"pi_inf must be finite and non-negative, got {self.pi_inf}")


def _first_bad_index(mask):
    flat = np.flatnonzero(np.asarray(mask))
    return int(flat[0]) if flat.size else None


def _at_cell(bad):
    """' at cell i' naming the first True entry of the mask `bad`; '' for a
    scalar state, which has no cell index."""
    return f" at cell {_first_bad_index(bad)}" if np.ndim(bad) else ""


def _check_admissible(rho, p, eos):
    """The admissibility test: finite rho > 0 and finite p + pi_inf > 0; raises
    InvalidStateError naming the first offending cell. Either may be None to
    test the other alone (cons_to_prim checks rho before it divides by it).
    Each test is one min and one max (a NaN propagates through both); the
    mask naming the cell is built only for a state that fails."""
    if rho is not None:
        r = np.asarray(rho)
        if r.size and not (r.min() > 0.0 and r.max() < np.inf):
            raise InvalidStateError("non-positive or non-finite density"
                                    + _at_cell(~(np.isfinite(r) & (r > 0.0))))
    if p is not None:
        q = np.asarray(p)
        if q.size and not (q.min() + eos.pi_inf > 0.0 and q.max() < np.inf):
            raise InvalidStateError(
                "pressure below stiffened-gas admissibility limit (p + pi_inf <= 0) "
                "or non-finite pressure" + _at_cell(~(np.isfinite(q) & (q + eos.pi_inf > 0.0))))


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
