"""Infinite-drag pressure/velocity equilibration per cell.

Two strategies produce a cell on the equilibrium variety (common velocity and
pressure): relax_continuous takes the closed-form root of the stiffened-gas
saturation quadratic in the common pressure and conserves per-phase mass and
mixture momentum exactly and mixture energy to round-off; relax_projection
applies the kernel-projection matrix of the linearized source, a one-shot
update accurate to second order in the pre-relaxation disequilibrium.

All operations accept cells holding scalars or arrays (whole grids at once).
"""

from dataclasses import dataclass

import numpy as np

from .eos import EosParams, _at_cell, _first_bad_index, internal_energy, sound_speed
from .errors import InvalidStateError, _prefixed
from .state import MixtureCell, PhaseCellState, Primitive, phase_primitives, prim_to_cons


@dataclass(frozen=True)
class ReducedEquilibrium:
    """Reduced variable vector on the equilibrium variety: per-phase volume
    fraction and density, one shared velocity and pressure."""

    alpha1: float | np.ndarray
    rho1: float | np.ndarray
    u: float | np.ndarray
    p: float | np.ndarray
    alpha2: float | np.ndarray
    rho2: float | np.ndarray


def maxwellian(red: ReducedEquilibrium, eos1: EosParams, eos2: EosParams) -> MixtureCell:
    """Rebuild a full two-phase cell from reduced equilibrium variables.
    prim_to_cons checks each phase's density and pressure; the fractions are
    left to the returned cells object's one check, phase_primitives."""
    def phase(label, alpha, rho, eos):
        with _prefixed(f"phase {label}"):
            return PhaseCellState(alpha, prim_to_cons(Primitive(rho, red.u, red.p), eos))

    return MixtureCell(phase(1, red.alpha1, red.rho1, eos1),
                       phase(2, red.alpha2, red.rho2, eos2))


def _phase_arrays(cell, eos1, eos2):
    """(alpha1, alpha2, rho1, u1, p1, rho2, u2, p2) as arrays of the cell's
    shape; 0-d for a scalar cell."""
    v1, v2 = phase_primitives(cell, eos1, eos2)
    return tuple(np.asarray(x, dtype=float) for x in (
        cell.phase1.alpha, cell.phase2.alpha, v1.rho, v1.u, v1.p, v2.rho, v2.u, v2.p))


def _require_both_phases(a1, a2):
    for label, a in (("1", a1), ("2", a2)):
        bad = ~((a > 0.0) & (a < 1.0))
        if np.any(bad):
            raise InvalidStateError(
                "both phases must be present (0 < alpha < 1): "
                f"phase {label} has alpha = {a.flat[_first_bad_index(bad)]:.9g}" + _at_cell(bad))


def _acoustic_coefficients(a1, a2, rho1, p1, rho2, p2, eos1, eos2):
    """c1^2, c2^2, d = a1 rho2 c2^2 + a2 rho1 c1^2 and m_k = a_k rho_k of the
    linearized relaxation source."""
    c1sq = sound_speed(rho1, p1, eos1) ** 2
    c2sq = sound_speed(rho2, p2, eos2) ** 2
    d = a1 * rho2 * c2sq + a2 * rho1 * c1sq
    return c1sq, c2sq, d, a1 * rho1, a2 * rho2


def relax_continuous(cell: MixtureCell, eos1: EosParams, eos2: EosParams) -> MixtureCell:
    """Equilibrate to common velocity and pressure via the continuous-limit
    relaxation system.

    The mixture velocity is the exact mass-weighted mean. With interfacial
    pressure/velocity approximated by their relaxed values, each stiffened-gas
    energy relation gives rho_k = rho_k0 gamma_k (p + pi_k) / ((gamma_k - 1)
    (E_k + p)), E_k = rho_k0 (e_k0 + (u* - u_k)^2 / 2), so saturation
    m1/rho1 + m2/rho2 = 1 is a quadratic in p (Saurel, Petitpas & Berry,
    J. Comput. Phys. 228, 2009). On p > -min(pi_1, pi_2) its left side falls
    strictly from +inf to below 1, so the admissible root is unique: the
    larger root, taken in cancellation-safe form. Per-phase alpha*rho and
    mixture momentum are preserved exactly, mixture energy to round-off.
    """
    a1, a2, rho10, u1, p1, rho20, u2, p2 = _phase_arrays(cell, eos1, eos2)
    _require_both_phases(a1, a2)

    m1 = a1 * rho10
    m2 = a2 * rho20
    u_star = (m1 * u1 + m2 * u2) / (m1 + m2)
    E1 = rho10 * (internal_energy(rho10, p1, eos1) + 0.5 * (u_star - u1) ** 2)
    E2 = rho20 * (internal_energy(rho20, p2, eos2) + 0.5 * (u_star - u2) ** 2)
    g1, pi1 = eos1.gamma, eos1.pi_inf
    g2, pi2 = eos2.gamma, eos2.pi_inf
    c1 = a1 * (g1 - 1.0) / g1
    c2 = a2 * (g2 - 1.0) / g2

    # c1 (E1 + p)/(p + pi1) + c2 (E2 + p)/(p + pi2) = 1 times (p + pi1)(p + pi2)
    qa = 1.0 - c1 - c2
    qb = pi1 + pi2 - c1 * (E1 + pi2) - c2 * (E2 + pi1)
    qc = pi1 * pi2 - c1 * E1 * pi2 - c2 * E2 * pi1
    disc = qb * qb - 4.0 * qa * qc
    bad = ~(np.isfinite(disc) & (disc >= 0.0))
    if np.any(bad):
        idx = _first_bad_index(bad)
        state = ", ".join(f"{f.flat[idx]:.9g}" for f in (a1, rho10, u1, p1, a2, rho20, u2, p2))
        raise InvalidStateError(
            f"pressure quadratic has discriminant {disc.flat[idx]:.9g}"
            f"{_at_cell(bad)}; (alpha1, rho1, u1, p1, alpha2, rho2, u2, p2) = ({state})")
    # the larger root, without cancellation between qb and sqrt(disc)
    q = -0.5 * (qb + np.where(qb < 0.0, -1.0, 1.0) * np.sqrt(disc))
    p = np.where(qb < 0.0, q / qa, qc / q)
    r1 = rho10 * g1 * (p + pi1) / ((g1 - 1.0) * (E1 + p))
    r2 = rho20 * g2 * (p + pi2) / ((g2 - 1.0) * (E2 + p))

    red = ReducedEquilibrium(alpha1=m1 / r1, rho1=r1, u=u_star, p=p, alpha2=m2 / r2, rho2=r2)
    return maxwellian(red, eos1, eos2)


def relax_projection(cell: MixtureCell, eos1: EosParams, eos2: EosParams) -> MixtureCell:
    """One-shot equilibration through the kernel projection of the linearized
    relaxation source, built from the pre-relaxation state."""
    a1, a2, rho1, u1, p1, rho2, u2, p2 = _phase_arrays(cell, eos1, eos2)
    _require_both_phases(a1, a2)
    c1sq, c2sq, d, m1, m2 = _acoustic_coefficients(a1, a2, rho1, p1, rho2, p2, eos1, eos2)
    bad = ~(np.isfinite(d) & (d > 0.0))
    if np.any(bad):
        raise InvalidStateError("degenerate acoustic impedances "
                                f"(d = {d.flat[_first_bad_index(bad)]:.9g}){_at_cell(bad)}")
    dp = p1 - p2
    _check_validity_bound(a1, a2, dp, d)
    red = ReducedEquilibrium(
        alpha1=a1 + a1 * a2 * dp / d,
        rho1=rho1 - a2 * rho1 * dp / d,
        u=(m1 * u1 + m2 * u2) / (m1 + m2),
        p=(a1 * rho2 * c2sq * p1 + a2 * rho1 * c1sq * p2) / d,
        alpha2=a2 - a1 * a2 * dp / d,
        rho2=rho2 + a1 * rho2 * dp / d,
    )
    return maxwellian(red, eos1, eos2)


def _check_validity_bound(a1, a2, dp, d):
    """The projection scales rho1 and alpha1 by 1 -/+ a2 dp / d, rho2 and
    alpha2 by 1 +/- a1 dp / d: all four stay positive iff max(a1, a2) |dp| < d
    (NaN fails). Where not, raise naming the first such cell, its p1 - p2 and
    the largest of the four ratios that must stay below 1."""
    bad = ~(np.maximum(a1, a2) * np.abs(dp) < d)
    if np.any(bad):
        i = _first_bad_index(bad)
        x1, x2 = (a.flat[i] * dp.flat[i] / d.flat[i] for a in (a2, a1))
        ratio, name = max((x1, "a2 (p1 - p2) / d"), (-x1, "a2 (p2 - p1) / d"),
                          (-x2, "a1 (p2 - p1) / d"), (x2, "a1 (p1 - p2) / d"))
        raise InvalidStateError(f"outside its validity bound{_at_cell(bad)}: "
                                f"p1 - p2 = {dp.flat[i]:.9g} Pa, {name} = {ratio:.9g} >= 1")


def projection_matrix(cell: MixtureCell, eos1: EosParams, eos2: EosParams) -> np.ndarray:
    """The 6x8 projection onto the kernel of the linearized relaxation source,
    evaluated at the cell's state. Maps the primitive 8-vector
    (alpha1, rho1, u1, p1, alpha2, rho2, u2, p2) to reduced variables.
    Batched cells give shape (..., 6, 8)."""
    a1, a2, rho1, _, p1, rho2, _, p2 = _phase_arrays(cell, eos1, eos2)
    c1sq, c2sq, d, m1, m2 = _acoustic_coefficients(a1, a2, rho1, p1, rho2, p2, eos1, eos2)
    pi = np.zeros(a1.shape + (6, 8))
    pi[..., 0, 0] = 1.0
    pi[..., 0, 3] = a1 * a2 / d
    pi[..., 0, 7] = -a1 * a2 / d
    pi[..., 1, 1] = 1.0
    pi[..., 1, 3] = -a2 * rho1 / d
    pi[..., 1, 7] = a2 * rho1 / d
    pi[..., 2, 2] = m1 / (m1 + m2)
    pi[..., 2, 6] = m2 / (m1 + m2)
    pi[..., 3, 3] = a1 * rho2 * c2sq / d
    pi[..., 3, 7] = a2 * rho1 * c1sq / d
    pi[..., 4, 3] = -a1 * a2 / d
    pi[..., 4, 4] = 1.0
    pi[..., 4, 7] = a1 * a2 / d
    pi[..., 5, 3] = a1 * rho2 / d
    pi[..., 5, 5] = 1.0
    pi[..., 5, 7] = -a1 * rho2 / d
    return pi


def reduced_jacobian() -> np.ndarray:
    """Constant 8x6 Jacobian of the map from reduced variables to the
    primitive 8-vector (the shared u and p fan out to both phases)."""
    dm = np.eye(8, 6)
    dm[6, 2] = dm[7, 3] = 1.0
    return dm


def kernel_range_vectors(cell: MixtureCell, eos1: EosParams, eos2: EosParams):
    """The two primitive-variable directions spanned by the linearized
    relaxation source; the projection matrix annihilates both.
    Batched cells give shapes (..., 8)."""
    a1, a2, rho1, _, p1, rho2, _, p2 = _phase_arrays(cell, eos1, eos2)
    c1sq, c2sq, _, _, _ = _acoustic_coefficients(a1, a2, rho1, p1, rho2, p2, eos1, eos2)
    zeros = np.zeros_like(a1)
    v1 = np.stack([np.ones_like(a1), -rho1 / a1, zeros, -rho1 * c1sq / a1,
                   -np.ones_like(a1), rho2 / a2, zeros, rho2 * c2sq / a2], axis=-1)
    v2 = np.stack([zeros, zeros, 1.0 / (a1 * rho1), zeros,
                   zeros, zeros, -1.0 / (a2 * rho2), zeros], axis=-1)
    return v1, v2
