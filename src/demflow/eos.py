"""Stiffened-gas thermodynamics.

Each phase obeys p = (gamma - 1) rho e - gamma pi_inf, which covers ideal
gases (pi_inf = 0) and nearly incompressible liquids (large pi_inf).
Admissibility is rho > 0 and p + pi_inf > 0 (strict, both finite). A state is
checked once, where it enters the program: _check_admissible is called by
prim_to_cons, cons_to_prim, exact_rp and the config's initial states, and
raises InvalidStateError instead of clamping. The formulas below check
nothing; given an inadmissible state they return NaN or a meaningless value.

All functions accept scalars or same-shape numpy arrays. The formulas read
only gamma and pi_inf, so they also take EosColumns, both phases' parameters
as columns that broadcast against rows (2, ...) of both phases; the check's
errors then name the phase too.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

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


class EosColumns(NamedTuple):
    """Both phases' gamma and pi_inf as read-only columns of shape
    (2, 1, ...), phase 1 first, which broadcast against rows (2, ...) of both
    phases."""

    gamma: np.ndarray
    pi_inf: np.ndarray


@lru_cache(maxsize=None)
def eos_columns(eos1: EosParams, eos2: EosParams, ndim: int) -> EosColumns:
    """The EosColumns of two phases for cells of `ndim` dimensions: columns
    of shape (2,) + (1,) * ndim. Made once per phase pair and ndim."""
    def column(name):
        col = np.array([getattr(eos1, name), getattr(eos2, name)]).reshape((2,) + (1,) * ndim)
        col.flags.writeable = False
        return col
    return EosColumns(column("gamma"), column("pi_inf"))


def _admissible(rho, p, pi_inf):
    """Whether finite rho > 0 and finite p + pi_inf > 0 hold everywhere;
    either may be None to test the other alone. Each test is one min and one
    max (a NaN propagates through both); rows (2, ...) of both phases against
    pi_inf columns take their min per phase, so no whole-grid sum is made."""
    if rho is not None:
        r = np.asarray(rho)
        if r.size and not (r.min() > 0.0 and r.max() < np.inf):
            return False
    if p is None or not np.size(p):
        return True
    q = np.asarray(p)
    per_phase = 0 < q.ndim == np.ndim(pi_inf)
    lowest = q.min(axis=tuple(range(1, q.ndim)), keepdims=True) if per_phase else q.min()
    return bool((lowest + pi_inf).min() > 0.0 and q.max() < np.inf)


def _raise_first(rules, phased):
    """Raise InvalidStateError for the first (message, mask) rule whose mask
    holds, naming its first cell. `phased` masks are rows (2, ...) of both
    phases, scanned phase 1 first, and the error is prefixed 'phase k: '."""
    for k in range(2) if phased else (None,):
        for text, bad in rules:
            if k is not None:
                text, bad = f"phase {k + 1}: {text}", bad[k]
            if bad.any():
                raise InvalidStateError(text + _at_cell(bad))


def _check_admissible(rho, p, eos):
    """The admissibility test: finite rho > 0 and finite p + pi_inf > 0; raises
    InvalidStateError naming the first offending cell. Either may be None to
    test the other alone (cons_to_prim tests rho before it divides by it).
    The masks naming the cell are built only for a state that fails.

    Given EosColumns, rho and p are rows (2, ...) of both phases (p may be
    one row that both phases share), tested at once; a state that fails is
    scanned phase 1's density and pressure before phase 2's, and the error
    is prefixed 'phase k: '."""
    if _admissible(rho, p, eos.pi_inf):
        return
    rules = []
    if rho is not None:
        r = np.asarray(rho)
        rules.append(("non-positive or non-finite density", ~(np.isfinite(r) & (r > 0.0))))
    if p is not None:
        q = np.asarray(p)
        rules.append(("pressure below stiffened-gas admissibility limit (p + pi_inf <= 0) "
                      "or non-finite pressure", ~(np.isfinite(q) & (q + eos.pi_inf > 0.0))))
    phased = np.ndim(eos.pi_inf) > 0
    if phased:
        shape = np.broadcast_shapes(eos.pi_inf.shape, *(bad.shape for _, bad in rules))
        rules = [(text, np.broadcast_to(bad, shape)) for text, bad in rules]
    _raise_first(rules, phased)


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
