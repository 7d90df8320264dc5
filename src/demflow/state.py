"""Cell state containers, primitive/conserved conversions, mixture diagnostics.

Every field may hold a scalar or a numpy array, so one value of each type can
describe a single cell or a whole grid of cells at once (struct-of-arrays);
cell_rows stacks a grid's cells into the grid's one (8, n) state array.
phase_primitives is the one check of a cells object, made before any reader
gets its primitives; validate_mixture is that check with a context.
"""

from dataclasses import dataclass

import numpy as np

from .eos import EosParams, _at_cell, _check_admissible, internal_energy, pressure_from_energy
from .errors import InvalidStateError, _prefixed

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
    """Two saturated phases sharing one cell: alpha1 + alpha2 = 1.

    A cells object is never modified: nothing in the package writes to its
    arrays in place, and each update builds a new object. phase_primitives
    relies on this to keep the recovered primitives on the object.
    """

    phase1: PhaseCellState
    phase2: PhaseCellState


def cell_rows(cell: MixtureCell) -> np.ndarray:
    """A new float array (8, ...) of the cell's eight leaves, which share one
    shape: rows alpha1, U1 (mass, momentum, energy), alpha2, U2."""
    return np.array([x for ph in (cell.phase1, cell.phase2) for x in
                     (ph.alpha, ph.cons.mass, ph.cons.momentum, ph.cons.energy)], dtype=float)


def prim_to_cons(v: Primitive, eos: EosParams) -> Conserved:
    """Convert a primitive state to conserved variables; rejects an
    inadmissible state, naming the first offending cell."""
    _check_admissible(v.rho, v.p, eos)
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
    _check_admissible(c.mass, None, eos)
    u = c.momentum / c.mass
    e = c.energy / c.mass - 0.5 * u**2
    p = pressure_from_energy(c.mass, e, eos)
    _check_admissible(None, p, eos)
    return Primitive(rho=c.mass, u=u, p=p)


def _check_fraction(alpha):
    """The volume-fraction range test 0 <= alpha <= 1 (NaN fails) as one min
    and one max; raises InvalidStateError naming the first offending cell."""
    a = np.asarray(alpha)
    if a.size and not (a.min() >= 0.0 and a.max() <= 1.0):
        raise InvalidStateError("volume fraction left [0, 1]"
                                + _at_cell(~((a >= 0.0) & (a <= 1.0))))


def phase_primitives(cell: MixtureCell, eos1: EosParams, eos2: EosParams):
    """Check each phase's volume-fraction range, then saturation, then
    recover both phases' primitives (v1, v2) by cons_to_prim, which checks
    them; errors name the first offending cell and phase. The pair is kept on
    the object per EOS pair, as functools.cached_property does (nothing when
    a check fails), so every reader gets the one check's recovery."""
    cache = cell.__dict__.setdefault("_primitives", {})
    key = (eos1, eos2)
    if key not in cache:
        phases = ((1, cell.phase1, eos1), (2, cell.phase2, eos2))
        for label, phase, _ in phases:
            with _prefixed(f"phase {label}"):
                _check_fraction(phase.alpha)
        unsaturated = np.abs(cell.phase1.alpha + cell.phase2.alpha - 1.0) > SATURATION_TOL
        if np.any(unsaturated):
            raise InvalidStateError("saturation violated" + _at_cell(unsaturated))
        prims = []
        for label, phase, eos in phases:
            with _prefixed(f"phase {label}"):
                prims.append(cons_to_prim(phase.cons, eos))
        cache[key] = tuple(prims)
    return cache[key]


def mixture_quantities(cell: MixtureCell, eos1: EosParams, eos2: EosParams):
    """Mixture density, mass-weighted velocity and volume-weighted pressure."""
    v1, v2 = phase_primitives(cell, eos1, eos2)
    a1, a2 = cell.phase1.alpha, cell.phase2.alpha
    rho_mix = a1 * v1.rho + a2 * v2.rho
    u_mix = (a1 * v1.rho * v1.u + a2 * v2.rho * v2.u) / rho_mix
    return rho_mix, u_mix, a1 * v1.p + a2 * v2.p


def validate_mixture(cell: MixtureCell, eos1: EosParams, eos2: EosParams, context=""):
    """phase_primitives(cell, eos1, eos2), its errors suffixed ` (context)`."""
    try:
        return phase_primitives(cell, eos1, eos2)
    except InvalidStateError as exc:
        raise InvalidStateError(f"{exc} ({context})" if context else str(exc)) from None
