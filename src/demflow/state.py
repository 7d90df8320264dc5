"""Cell state containers, primitive/conserved conversions, mixture diagnostics.

Every field may hold a scalar or a numpy array, so one value of each type can
describe a single cell or a whole grid of cells at once (struct-of-arrays).
"""

from dataclasses import dataclass

import numpy as np

from .eos import EosParams, _first_bad_index, internal_energy, pressure_from_energy
from .errors import InvalidStateError

# saturation condition alpha1 + alpha2 = 1 must hold to this absolute tolerance
SATURATION_TOL = 1e-12


@dataclass(frozen=True)
class Primitive:
    """Phase-intrinsic density [kg/m^3], velocity [m/s], pressure [Pa]."""

    rho: float | np.ndarray
    u: float | np.ndarray
    p: float | np.ndarray


@dataclass(frozen=True)
class Conserved:
    """Phase-intrinsic density, momentum density and total energy density."""

    mass: float | np.ndarray
    momentum: float | np.ndarray
    energy: float | np.ndarray

    def as_array(self):
        """Stack into shape (3, ...) for flux arithmetic."""
        return np.stack(np.broadcast_arrays(
            np.asarray(self.mass, dtype=float),
            np.asarray(self.momentum, dtype=float),
            np.asarray(self.energy, dtype=float),
        ))


@dataclass(frozen=True)
class PhaseCellState:
    """Volume fraction plus the phase's own conserved vector U.

    The cell-level conserved quantity is alpha * U; storing the two factors
    separately keeps alpha*rho invariance under relaxation directly checkable
    and lets pure-phase cells carry a well-defined virtual state at alpha = 0.
    """

    alpha: float | np.ndarray
    cons: Conserved


@dataclass(frozen=True)
class MixtureCell:
    """Two saturated phases sharing one cell: alpha1 + alpha2 = 1."""

    phase1: PhaseCellState
    phase2: PhaseCellState


def prim_to_cons(v: Primitive, eos: EosParams) -> Conserved:
    """Convert an admissible primitive state to conserved variables."""
    e = internal_energy(v.rho, v.p, eos)
    return Conserved(
        mass=v.rho,
        momentum=v.rho * v.u,
        energy=v.rho * (e + 0.5 * v.u**2),
    )


def cons_to_prim(c: Conserved, eos: EosParams) -> Primitive:
    """Invert prim_to_cons; rejects non-positive or non-finite density and
    inadmissible or non-finite reconstructed pressure, naming the first
    offending cell."""
    idx = _first_bad_index(~(np.isfinite(c.mass) & (np.asarray(c.mass) > 0.0)))
    if idx is not None:
        raise InvalidStateError(
            f"conserved state has non-positive or non-finite density at cell {idx}")
    u = c.momentum / c.mass
    e = c.energy / c.mass - 0.5 * u**2
    p = pressure_from_energy(c.mass, e, eos)
    idx = _first_bad_index(~(np.isfinite(p) & (np.asarray(p) + eos.pi_inf > 0.0)))
    if idx is not None:
        raise InvalidStateError(
            f"conserved state maps to inadmissible pressure at cell {idx}")
    return Primitive(rho=c.mass, u=u, p=p)


def mixture_quantities(cell: MixtureCell, eos1: EosParams, eos2: EosParams):
    """Mixture density, mass-weighted velocity and volume-weighted pressure."""
    v1 = cons_to_prim(cell.phase1.cons, eos1)
    v2 = cons_to_prim(cell.phase2.cons, eos2)
    a1 = cell.phase1.alpha
    a2 = cell.phase2.alpha
    rho_mix = a1 * v1.rho + a2 * v2.rho
    u_mix = (a1 * v1.rho * v1.u + a2 * v2.rho * v2.u) / rho_mix
    p_mix = a1 * v1.p + a2 * v2.p
    return rho_mix, u_mix, p_mix


def validate_mixture(cell: MixtureCell, eos1: EosParams, eos2: EosParams, context=""):
    """Check saturation and per-phase admissibility; raise InvalidStateError
    naming the first offending cell index and phase."""
    where = f" ({context})" if context else ""
    a1 = np.asarray(cell.phase1.alpha, dtype=float)
    a2 = np.asarray(cell.phase2.alpha, dtype=float)
    for label, a in (("1", a1), ("2", a2)):
        idx = _first_bad_index((a < 0.0) | (a > 1.0) | ~np.isfinite(a))
        if idx is not None:
            raise InvalidStateError(
                f"volume fraction of phase {label} left [0, 1] at cell {idx}{where}"
            )
    idx = _first_bad_index(np.abs(a1 + a2 - 1.0) > SATURATION_TOL)
    if idx is not None:
        raise InvalidStateError(f"saturation violated at cell {idx}{where}")
    for label, phase, eos in (("1", cell.phase1, eos1), ("2", cell.phase2, eos2)):
        try:
            cons_to_prim(phase.cons, eos)
        except InvalidStateError as exc:
            raise InvalidStateError(f"phase {label}: {exc}{where}") from None
