"""Cell state containers, primitive/conserved conversions, mixture diagnostics.

Every field may hold a scalar or a numpy array, so one value of each type can
describe a single cell or a whole grid of cells at once (struct-of-arrays);
cell_rows stacks a grid's cells into the grid's one (8, n) state array.

Both phases follow the same stiffened-gas formulas, so a cells object is
checked and recovered on its (2, 4, ...) view, phase 1 first, with the EOS
parameters as eos_columns: phase_primitives tests both phases' fractions and
saturation at once, then makes one cons_to_prim call on both phases' rows,
whose density and pressure tests also reduce over both phases. Only a state
that fails is scanned rule by rule and phase by phase, so each error names
the first broken rule, its phase and cell. That is the one check of a cells
object, made before any reader gets its primitives; validate_mixture is that
check with a context.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .eos import (EosColumns, EosParams, _admissible, _at_cell, _check_admissible, _raise_first,
                  eos_columns, internal_energy, pressure_from_energy)
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
    """A new float array (8, ...) of the cell's eight leaves, broadcast to one
    shape: rows alpha1, U1 (mass, momentum, energy), alpha2, U2."""
    return np.array(np.broadcast_arrays(*(x for ph in (cell.phase1, cell.phase2) for x in (
        ph.alpha, ph.cons.mass, ph.cons.momentum, ph.cons.energy))), dtype=float)


def _cells(rows: np.ndarray) -> MixtureCell:
    """The cells object viewing the rows of an (8, ...) float array laid out
    as cell_rows lays them out; the array is kept on the object (_rows)."""
    a1, m1, q1, e1, a2, m2, q2, e2 = rows
    cell = MixtureCell(PhaseCellState(a1, Conserved(m1, q1, e1)),
                       PhaseCellState(a2, Conserved(m2, q2, e2)))
    cell.__dict__["_rows"] = rows
    return cell


def _rows(cell: MixtureCell) -> np.ndarray:
    """The (8, ...) array of a cells object's rows: the array it views (see
    _cells), or for one built field by field cell_rows' array, kept on it."""
    rows = cell.__dict__.get("_rows")
    if rows is None:
        rows = cell.__dict__["_rows"] = cell_rows(cell)
    return rows


def prim_to_cons(v: Primitive, eos: EosParams | EosColumns) -> Conserved:
    """Convert a primitive state to conserved variables; rejects an
    inadmissible state, naming the first offending cell. With EosColumns the
    fields are rows (2, ...) of both phases (u and p may be one row that
    both share), and errors name the phase too (see _check_admissible)."""
    _check_admissible(v.rho, v.p, eos)
    e = internal_energy(v.rho, v.p, eos)
    return Conserved(
        mass=v.rho,
        momentum=v.rho * v.u,
        energy=v.rho * (e + 0.5 * v.u**2),
    )


def cons_to_prim(c: Conserved, eos: EosParams | EosColumns) -> Primitive:
    """Invert prim_to_cons; rejects non-positive or non-finite density and
    inadmissible or non-finite reconstructed pressure, naming the first
    offending cell.

    With EosColumns the fields are rows (2, ...) of both phases, recovered in
    one pass; each test reduces over both phases, and errors name the phase
    too. Where a density fails, a unit state at rest is recovered instead,
    so no division meets a zero or a non-finite value, and the one check
    names the first broken rule, phase and cell."""
    mass, momentum, energy = c.mass, c.momentum, c.energy
    bad = not _admissible(mass, None, 0.0)
    if bad:
        held = np.isfinite(mass) & (mass > 0.0)
        mass, momentum, energy = (np.where(held, x, unit)
                                  for x, unit in ((mass, 1.0), (momentum, 0.0), (energy, 1.0)))
    u = momentum / mass
    # infinite momentum and energy give e = inf - inf: a NaN that the one
    # check names, not a warning (an error where warnings are errors)
    with np.errstate(invalid="ignore"):
        e = energy / mass - 0.5 * u**2
    p = pressure_from_energy(mass, e, eos)
    _check_admissible(c.mass if bad else None, p, eos)
    return Primitive(rho=c.mass, u=u, p=p)


def _check_fractions(alpha):
    """Both phases' volume fractions alpha (2, ...), phase 1 first: the range
    test 0 <= alpha <= 1 (NaN fails), then saturation |alpha1 + alpha2 - 1| <=
    SATURATION_TOL, each one min and one max over both phases. Only a state
    that fails is scanned for the error's first offending phase and cell."""
    if alpha.size and not (alpha.min() >= 0.0 and alpha.max() <= 1.0):
        _raise_first([("volume fraction left [0, 1]", ~((alpha >= 0.0) & (alpha <= 1.0)))], True)
    alpha1, alpha2 = alpha
    excess = alpha1 + alpha2 - 1.0
    if excess.size and not (excess.min() >= -SATURATION_TOL and excess.max() <= SATURATION_TOL):
        raise InvalidStateError("saturation violated"
                                + _at_cell(np.abs(excess) > SATURATION_TOL))


class _Phases(NamedTuple):
    """A checked cells object, both phases stacked phase 1 first: its rows
    (2, 4, ...) (alpha, mass, momentum, energy), its primitives `v` with
    fields (2, ...), the eos_columns that broadcast against them, and the
    EosParams pair it was recovered for."""

    rows: np.ndarray
    v: Primitive
    eos: EosColumns
    params: tuple


def _phases(cell: MixtureCell, eos1: EosParams, eos2: EosParams) -> _Phases:
    """phase_primitives' check and recovery of both phases at once, kept on
    the object per EOS pair, as functools.cached_property does (nothing when
    a check fails), so every reader gets the one check's recovery. The memo
    is keyed by the pair's identities, which its entry keeps alive (params):
    an EosParams hash is a Python call, and readers ask several times a step."""
    cache = cell.__dict__.setdefault("_primitives", {})
    key = (id(eos1), id(eos2))
    phases = cache.get(key)
    if phases is None:
        rows = _rows(cell)
        rows = rows.reshape((2, 4) + rows.shape[1:])
        _check_fractions(rows[:, 0])
        eos = eos_columns(eos1, eos2, rows.ndim - 2)
        v = cons_to_prim(Conserved(rows[:, 1], rows[:, 2], rows[:, 3]), eos)
        phases = cache[key] = _Phases(rows, v, eos, (eos1, eos2))
    return phases


def phase_primitives(cell: MixtureCell, eos1: EosParams, eos2: EosParams):
    """Check both phases' volume-fraction ranges, then saturation, then
    recover both phases' primitives (v1, v2) in one cons_to_prim call, which
    checks them; errors name the first offending cell and phase. v1 and v2
    view rows of the stacked arrays kept on the object (see _phases)."""
    v = _phases(cell, eos1, eos2).v
    return tuple(map(Primitive, v.rho, v.u, v.p))


def mixture_quantities(cell: MixtureCell, eos1: EosParams, eos2: EosParams):
    """Mixture density, mass-weighted velocity and volume-weighted pressure."""
    v1, v2 = phase_primitives(cell, eos1, eos2)
    a1, a2 = cell.phase1.alpha, cell.phase2.alpha
    rho_mix = a1 * v1.rho + a2 * v2.rho
    u_mix = (a1 * v1.rho * v1.u + a2 * v2.rho * v2.u) / rho_mix
    return rho_mix, u_mix, a1 * v1.p + a2 * v2.p


def validate_mixture(cell: MixtureCell, eos1: EosParams, eos2: EosParams, context="") -> None:
    """phase_primitives' check (see _phases), its errors suffixed ` (context)`."""
    try:
        _phases(cell, eos1, eos2)
    except InvalidStateError as exc:
        raise InvalidStateError(f"{exc} ({context})" if context else str(exc)) from None
