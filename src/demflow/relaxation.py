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

from .eos import EosParams, _first_bad_index, internal_energy, sound_speed
from .errors import InvalidStateError, _prefixed
from .state import (MixtureCell, PhaseCellState, Primitive, _check_fraction, cons_to_prim,
                    prim_to_cons)


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
    """Rebuild a full two-phase cell from reduced equilibrium variables."""
    def phase(label, alpha, rho, eos):
        with _prefixed(f"phase {label}"):
            _check_fraction(alpha)
            return PhaseCellState(alpha, prim_to_cons(Primitive(rho, red.u, red.p), eos))

    return MixtureCell(phase(1, red.alpha1, red.rho1, eos1),
                       phase(2, red.alpha2, red.rho2, eos2))


def reduce_equilibrium(cell: MixtureCell, eos1: EosParams, eos2: EosParams) -> ReducedEquilibrium:
    """Project a cell onto reduced variables (mass-weighted velocity,
    volume-weighted pressure); inverse of maxwellian on equilibrium cells."""
    v1 = cons_to_prim(cell.phase1.cons, eos1)
    v2 = cons_to_prim(cell.phase2.cons, eos2)
    a1, a2 = cell.phase1.alpha, cell.phase2.alpha
    m1, m2 = a1 * v1.rho, a2 * v2.rho
    return ReducedEquilibrium(
        alpha1=a1, rho1=v1.rho,
        u=(m1 * v1.u + m2 * v2.u) / (m1 + m2),
        p=a1 * v1.p + a2 * v2.p,
        alpha2=a2, rho2=v2.rho,
    )


def _phase_arrays(cell, eos1, eos2):
    a1 = np.atleast_1d(np.asarray(cell.phase1.alpha, dtype=float))
    a2 = np.atleast_1d(np.asarray(cell.phase2.alpha, dtype=float))
    with _prefixed("phase 1"):
        v1 = cons_to_prim(cell.phase1.cons, eos1)
    with _prefixed("phase 2"):
        v2 = cons_to_prim(cell.phase2.cons, eos2)
    prims = [np.atleast_1d(np.asarray(x, dtype=float))
             for x in (v1.rho, v1.u, v1.p, v2.rho, v2.u, v2.p)]
    return (a1, a2, *prims)


def _reduced(like, **fields):
    """ReducedEquilibrium whose fields take the shape of `like` (floats for a
    scalar cell), undoing the atleast_1d of _phase_arrays."""
    def shaped(x):
        return x.reshape(np.shape(like)) if np.ndim(like) else float(x[0])
    return ReducedEquilibrium(**{name: shaped(x) for name, x in fields.items()})


def _require_both_phases(a1, a2):
    for label, a in (("1", a1), ("2", a2)):
        idx = _first_bad_index(~((a > 0.0) & (a < 1.0)))
        if idx is not None:
            raise InvalidStateError(
                "relaxation requires both phases present (0 < alpha < 1): "
                f"phase {label} has alpha = {a.flat[idx]:.9g} at cell {idx}")


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
    idx = _first_bad_index(~(np.isfinite(disc) & (disc >= 0.0)))
    if idx is not None:
        state = ", ".join(f"{f[idx]:.9g}" for f in (a1, rho10, u1, p1, a2, rho20, u2, p2))
        raise InvalidStateError(
            f"relaxation pressure quadratic has discriminant {disc[idx]:.9g} at cell "
            f"{idx}; (alpha1, rho1, u1, p1, alpha2, rho2, u2, p2) = ({state})")
    # the larger root, without cancellation between qb and sqrt(disc)
    q = -0.5 * (qb + np.where(qb < 0.0, -1.0, 1.0) * np.sqrt(disc))
    p = np.where(qb < 0.0, q / qa, qc / q)
    r1 = rho10 * g1 * (p + pi1) / ((g1 - 1.0) * (E1 + p))
    r2 = rho20 * g2 * (p + pi2) / ((g2 - 1.0) * (E2 + p))

    red = _reduced(cell.phase1.alpha, alpha1=m1 / r1, rho1=r1, u=u_star, p=p,
                   alpha2=m2 / r2, rho2=r2)
    return maxwellian(red, eos1, eos2)


def relax_projection(cell: MixtureCell, eos1: EosParams, eos2: EosParams) -> MixtureCell:
    """One-shot equilibration through the kernel projection of the linearized
    relaxation source, built from the pre-relaxation state."""
    a1, a2, rho1, u1, p1, rho2, u2, p2 = _phase_arrays(cell, eos1, eos2)
    _require_both_phases(a1, a2)
    c1sq, c2sq, d, m1, m2 = _acoustic_coefficients(a1, a2, rho1, p1, rho2, p2, eos1, eos2)
    if np.any(d <= 0.0) or not np.all(np.isfinite(d)):
        raise InvalidStateError("degenerate acoustic impedances in projection relaxation")
    dp = p1 - p2
    red = _reduced(
        cell.phase1.alpha,
        alpha1=a1 + a1 * a2 * dp / d,
        rho1=rho1 - a2 * rho1 * dp / d,
        u=(m1 * u1 + m2 * u2) / (m1 + m2),
        p=(a1 * rho2 * c2sq * p1 + a2 * rho1 * c1sq * p2) / d,
        alpha2=a2 - a1 * a2 * dp / d,
        rho2=rho2 + a1 * rho2 * dp / d,
    )
    return maxwellian(red, eos1, eos2)


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
    if np.ndim(cell.phase1.alpha) == 0:
        return pi[0]
    return pi


def reduced_jacobian() -> np.ndarray:
    """Constant 8x6 Jacobian of the map from reduced variables to the
    primitive 8-vector (the shared u and p fan out to both phases)."""
    dm = np.zeros((8, 6))
    for row, col in ((0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (6, 2), (7, 3)):
        dm[row, col] = 1.0
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
    if np.ndim(cell.phase1.alpha) == 0:
        return v1[0], v2[0]
    return v1, v2
