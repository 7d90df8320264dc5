"""Oracles for the paper's identities, which only the tests call.

They check what the solver computes without being part of it: the
probability quad's marginals and sandwich bounds (extract_r,
check_consistency), the kernel projection of the linearized relaxation
source (projection_matrix, reduced_jacobian, kernel_range_vectors), the
acoustic interfacial split (interfacial_decomposition) and the step's
interface function over a whole grid (interface_fluxes). They read the
solver's private helpers, so each evaluates the state the solver sees.
"""

from dataclasses import dataclass, field

import numpy as np

from demflow.eos import EosParams
from demflow.errors import InvalidStateError
from demflow.regime import RegimeField
from demflow.relaxation import _acoustic_coefficients
from demflow.scheme import Grid1D, InterfaceFluxSet, _block_cells, _interface_block, _step_rows
from demflow.state import MixtureCell, Primitive, _phases


def extract_r(P, alpha_left, alpha_right):
    """Recover the regime parameter from a consistent quad P:
    r = (p_kl - max(aL - aR, 0)) / (min(aL, 1 - aR) - max(aL - aR, 0)),
    with r = 0 by convention when the denominator degenerates to zero."""
    al, ar = np.asarray(alpha_left), np.asarray(alpha_right)
    lo = np.maximum(al - ar, 0.0)
    hi = np.minimum(al, 1.0 - ar)
    den = hi - lo
    num = np.asarray(P, dtype=float)[0, 1] - lo
    r = np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), 0.0)
    return np.clip(r, 0.0, 1.0)


@dataclass
class ConsistencyReport:
    """Signed violation amounts per condition; <= tol means satisfied, and a
    NaN amount is a violation."""

    slack: dict = field(default_factory=dict)
    tol: float = 1e-14

    @property
    def ok(self) -> bool:
        return all(v <= self.tol for v in self.slack.values())

    def violations(self) -> dict:
        return {k: v for k, v in self.slack.items() if not v <= self.tol}


def check_consistency(P, alpha_left, alpha_right, tol=1e-14) -> ConsistencyReport:
    """Evaluate every marginal identity and min/max bound of the quad P;
    report violations with slack values (maximum over array inputs). An r
    outside [0, 1] (convex_quad rejects one) shows as a sandwich violation."""
    al, ar = np.asarray(alpha_left, dtype=float), np.asarray(alpha_right, dtype=float)
    (kk, kl), (lk, ll) = np.asarray(P, dtype=float)

    def worst(x):
        return float(np.max(x)) if np.asarray(x).size else 0.0

    slack = {
        # marginal sums to the adjacent volume fractions, both phase views
        "marginal_left_k": worst(np.abs(kk + kl - al)),
        "marginal_right_k": worst(np.abs(kk + lk - ar)),
        "marginal_left_l": worst(np.abs(ll + lk - (1.0 - al))),
        "marginal_right_l": worst(np.abs(ll + kl - (1.0 - ar))),
        "four_way_sum": worst(np.abs(kk + kl + lk + ll - 1.0)),
        # sandwich bounds for the same-phase and cross-phase coefficients
        "upper_same": worst(kk - np.minimum(al, ar)),
        "lower_same": worst(np.maximum(al - (1.0 - ar), 0.0) - kk),
        "upper_cross": worst(kl - np.minimum(al, 1.0 - ar)),
        "lower_cross": worst(np.maximum(al - ar, 0.0) - kl),
        # raw ranges
        "unit_range": worst(np.maximum.reduce([
            np.maximum(q - 1.0, -q) for q in (kk, kl, lk, ll)
        ])),
    }
    return ConsistencyReport(slack=slack, tol=tol)


def projection_matrix(cell: MixtureCell, eos1: EosParams, eos2: EosParams) -> np.ndarray:
    """The 6x8 projection onto the kernel of the linearized relaxation source,
    evaluated at the cell's state. Maps the primitive 8-vector
    (alpha1, rho1, u1, p1, alpha2, rho2, u2, p2) to reduced variables.
    Batched cells give shape (..., 6, 8)."""
    rows, v, eos = _phases(cell, eos1, eos2)[:3]
    alpha = rows[:, 0]
    (c1sq, c2sq), _, d, (m1, m2) = _acoustic_coefficients(alpha, v, eos)
    (a1, a2), (rho1, rho2) = alpha, v.rho
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
    rows, v, eos = _phases(cell, eos1, eos2)[:3]
    alpha = rows[:, 0]
    (c1sq, c2sq), _, _, _ = _acoustic_coefficients(alpha, v, eos)
    (a1, a2), (rho1, rho2) = alpha, v.rho
    zeros = np.zeros_like(a1)
    v1 = np.stack([np.ones_like(a1), -rho1 / a1, zeros, -rho1 * c1sq / a1,
                   -np.ones_like(a1), rho2 / a2, zeros, rho2 * c2sq / a2], axis=-1)
    v2 = np.stack([zeros, zeros, 1.0 / (a1 * rho1), zeros,
                   zeros, zeros, -1.0 / (a2 * rho2), zeros], axis=-1)
    return v1, v2


@dataclass(frozen=True)
class AcousticInterface:
    """Closed-form acoustic contact speed and pressure with their symmetric /
    antisymmetric parts: sigma = sigma_sym - sigma_asym, p_star = p_sym - p_asym."""

    sigma: float | np.ndarray
    p_star: float | np.ndarray
    sigma_sym: float | np.ndarray
    sigma_asym: float | np.ndarray
    p_sym: float | np.ndarray
    p_asym: float | np.ndarray


def interfacial_decomposition(left: Primitive, right: Primitive,
                              z_left, z_right) -> AcousticInterface:
    """Acoustic interfacial quantities for impedances Z:
    sigma = (Z_L u_L + Z_R u_R)/(Z_L+Z_R) - (p_R - p_L)/(Z_L+Z_R) and
    p* = (Z_R p_L + Z_L p_R)/(Z_L+Z_R) - Z_L Z_R (u_R - u_L)/(Z_L+Z_R)."""
    zl = np.asarray(z_left, dtype=float)
    zr = np.asarray(z_right, dtype=float)
    zsum = zl + zr
    if np.any(zsum <= 0.0):
        raise InvalidStateError("acoustic impedances must have positive sum")
    sigma_sym = (zl * left.u + zr * right.u) / zsum
    sigma_asym = (right.p - left.p) / zsum
    p_sym = (zr * left.p + zl * right.p) / zsum
    p_asym = zl * zr * (right.u - left.u) / zsum
    return AcousticInterface(
        sigma=sigma_sym - sigma_asym,
        p_star=p_sym - p_asym,
        sigma_sym=sigma_sym,
        sigma_asym=sigma_asym,
        p_sym=p_sym,
        p_asym=p_asym,
    )


def interface_fluxes(grid: Grid1D, regime: RegimeField, eos1, eos2) -> InterfaceFluxSet:
    """Solve the four phase-pairing Riemann problems at all n + 1 interfaces
    of the grid and attach the probability coefficients: the step's interface
    function applied to the whole grid as one block.

    Interface i sits between cells i - 1 and i; the two outer interfaces see
    a copy of their edge cell (transmissive boundary)."""
    rows, eos = _step_rows(grid, regime, eos1, eos2)
    return _interface_block(_block_cells(rows, 0, grid.n_cells), regime.values, eos)
