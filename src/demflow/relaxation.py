"""Infinite-drag pressure/velocity equilibration per cell.

Two strategies produce a cell on the equilibrium variety (common velocity and
pressure): relax_continuous takes the closed-form root of the stiffened-gas
saturation quadratic in the common pressure and conserves per-phase mass and
mixture momentum exactly and mixture energy to round-off; relax_projection
applies the kernel-projection matrix of the linearized source, a one-shot
update accurate to second order in the pre-relaxation disequilibrium.

All operations accept cells holding scalars or arrays (whole grids at once).
Both phases are computed together: the relaxers read the stacked fractions
and primitives (2, ...) of phase_primitives' one recovery with the EOS
columns, make the stacked equilibrium fractions and densities (2, ...), and
maxwellian writes both phases' rows into one new (8, ...) array that the
relaxed cells object views.
"""

from dataclasses import dataclass

import numpy as np

from .eos import EosParams, _at_cell, _first_bad_index, eos_columns, internal_energy, sound_speed
from .errors import InvalidStateError
from .state import MixtureCell, Primitive, _cells, _phases, prim_to_cons


@dataclass(frozen=True)
class ReducedEquilibrium:
    """Reduced variable vector on the equilibrium variety: both phases'
    volume fractions `alpha` and densities `rho` as rows (2, ...), phase 1
    first, and one shared velocity and pressure."""

    alpha: np.ndarray
    rho: np.ndarray
    u: float | np.ndarray
    p: float | np.ndarray


def maxwellian(red: ReducedEquilibrium, eos1: EosParams, eos2: EosParams) -> MixtureCell:
    """Rebuild a full two-phase cell from reduced equilibrium variables: both
    phases' rows are written into one new (8, ...) array, which the returned
    cells object views. prim_to_cons checks both phases' density and pressure
    at once (errors name phase and cell); the fractions are left to the
    returned cells object's one check, phase_primitives."""
    shape = np.broadcast_shapes(np.shape(red.alpha)[1:], np.shape(red.rho)[1:],
                                np.shape(red.u), np.shape(red.p))
    out = np.empty((8,) + shape)
    rows = out.reshape((2, 4) + shape)
    rows[:, 0], rows[:, 1] = red.alpha, red.rho
    cons = prim_to_cons(Primitive(rows[:, 1], red.u, red.p), eos_columns(eos1, eos2, len(shape)))
    rows[:, 2], rows[:, 3] = cons.momentum, cons.energy
    return _cells(out)


def _require_both_phases(alpha):
    """0 < alpha < 1 (NaN fails) for both phases' fractions (2, ...), one min
    and one max; only a state that fails is scanned, phase 1 first."""
    if alpha.size and alpha.min() > 0.0 and alpha.max() < 1.0:
        return
    for label in range(2):
        a = alpha[label, ...]
        bad = ~((a > 0.0) & (a < 1.0))
        if np.any(bad):
            raise InvalidStateError(
                "both phases must be present (0 < alpha < 1): "
                f"phase {label + 1} has alpha = {a.flat[_first_bad_index(bad)]:.9g}" + _at_cell(bad))


def _acoustic_coefficients(alpha, v, eos):
    """c_k^2 and m_k = a_k rho_k (2, ...) of the linearized relaxation source,
    w = (a2 rho1 c1^2, a1 rho2 c2^2) and d = a1 rho2 c2^2 + a2 rho1 c1^2."""
    csq = sound_speed(v.rho, v.p, eos) ** 2
    w = alpha[::-1] * v.rho * csq
    return csq, w, w[1] + w[0], alpha * v.rho


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
    Both phases are computed together on their stacked rows.
    """
    return maxwellian(_continuous_equilibrium(cell, eos1, eos2), eos1, eos2)


def _continuous_equilibrium(cell, eos1, eos2) -> ReducedEquilibrium:
    """relax_continuous's equilibrium state, made in a function of its own so
    that its temporaries are freed before maxwellian builds the cells."""
    rows, v, eos = _phases(cell, eos1, eos2)[:3]
    alpha = rows[:, 0]
    _require_both_phases(alpha)

    m = alpha * v.rho
    mu = m * v.u
    u_star = (mu[0] + mu[1]) / (m[0] + m[1])
    # solved in P = p + s, s the smaller pi_inf: pi_k and E_k enter less s,
    # so a root near the floor P = 0 is not rounded to an ulp of p
    s = min(eos1.pi_inf, eos2.pi_inf)
    E = v.rho * (internal_energy(v.rho, v.p, eos) + 0.5 * (u_star - v.u) ** 2) - s
    g, pi = eos.gamma, eos.pi_inf - s
    pi1, pi2 = eos1.pi_inf - s, eos2.pi_inf - s
    c = alpha * (g - 1.0) / g

    # c1 (E1 + P)/(P + pi1) + c2 (E2 + P)/(P + pi2) = 1 times (P + pi1)(P + pi2)
    qa = 1.0 - c[0] - c[1]
    cross = c * (E + pi[::-1])
    qb = pi1 + pi2 - cross[0] - cross[1]
    cross = c * E * pi[::-1]
    qc = pi1 * pi2 - cross[0] - cross[1]
    disc = qb * qb - 4.0 * qa * qc
    bad = ~(np.isfinite(disc) & (disc >= 0.0))
    if np.any(bad):
        idx = _first_bad_index(bad)
        state = ", ".join(f"{f[k, ...].flat[idx]:.9g}"
                          for k in range(2) for f in (alpha, v.rho, v.u, v.p))
        raise InvalidStateError(
            f"pressure quadratic has discriminant {disc.flat[idx]:.9g}"
            f"{_at_cell(bad)}; (alpha1, rho1, u1, p1, alpha2, rho2, u2, p2) = ({state})")
    # the larger root, without cancellation between qb and sqrt(disc)
    q = -0.5 * (qb + np.where(qb < 0.0, -1.0, 1.0) * np.sqrt(disc))
    P = np.where(qb < 0.0, q / qa, qc / q)
    r = v.rho * g * (P + pi) / ((g - 1.0) * (E + P))
    return ReducedEquilibrium(alpha=m / r, rho=r, u=u_star, p=P - s)


def relax_projection(cell: MixtureCell, eos1: EosParams, eos2: EosParams) -> MixtureCell:
    """One-shot equilibration through the kernel projection of the linearized
    relaxation source, built from the pre-relaxation state."""
    return maxwellian(_projected_equilibrium(cell, eos1, eos2), eos1, eos2)


def _projected_equilibrium(cell, eos1, eos2) -> ReducedEquilibrium:
    """relax_projection's equilibrium state, made in a function of its own so
    that its temporaries are freed before maxwellian builds the cells."""
    rows, v, eos = _phases(cell, eos1, eos2)[:3]
    alpha = rows[:, 0]
    _require_both_phases(alpha)
    _, w, d, m = _acoustic_coefficients(alpha, v, eos)
    bad = ~(np.isfinite(d) & (d > 0.0))
    if np.any(bad):
        raise InvalidStateError("degenerate acoustic impedances "
                                f"(d = {d.flat[_first_bad_index(bad)]:.9g}){_at_cell(bad)}")
    (a1, a2), (u1, u2), (p1, p2) = alpha, v.u, v.p
    dp = p1 - p2
    _check_validity_bound(a1, a2, dp, d)
    # phase 1's shifts a1 + x and rho1 - y, made as a1 - (-x) and rho1 + (-y):
    # x - y is x + (-y) bit for bit, so each phase's row takes one signed dp
    signed = np.array([-dp, dp])
    return ReducedEquilibrium(alpha=alpha - a1 * a2 * signed / d,
                              rho=v.rho + alpha[::-1] * v.rho * signed / d,
                              u=(m[0] * u1 + m[1] * u2) / (m[0] + m[1]),
                              p=(w[1] * p1 + w[0] * p2) / d)


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


# relaxers by relaxation mode, in the order config.RELAXATION_MODES lists them;
# scheme.run reads this table, so replacing an entry reaches every run
_RELAXERS = {"none": None, "continuous": relax_continuous, "projection": relax_projection}
