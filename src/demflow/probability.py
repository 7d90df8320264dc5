"""Interface probability-coefficient algebra.

At each cell interface the chance of finding phase a immediately left and
phase b immediately right is P[a, b]. Two extremal consistent pairs exist:
the stratified pair (connected phases) and the disperse pair (disconnected
phases); every consistent pair is a convex combination of the two, with one
regime parameter r in [0, 1] shared by both phases.

All operations accept scalar volume fractions or same-shape arrays.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidStateError, _prefixed
from .state import _check_fraction


@dataclass(frozen=True)
class AlphaPair:
    """Phase-k volume fractions in the two cells adjacent to one interface."""

    alpha_left: float | np.ndarray
    alpha_right: float | np.ndarray

    def __post_init__(self):
        for side in ("alpha_left", "alpha_right"):
            with _prefixed(side):
                _check_fraction(getattr(self, side))


@dataclass(frozen=True)
class ProbabilityQuad:
    """The four interface coefficients plus the regime parameter that built them.

    p_kk: phase k on both sides; p_kl: k left, l right; p_lk / p_ll mirrored.
    """

    p_kk: float | np.ndarray
    p_kl: float | np.ndarray
    p_lk: float | np.ndarray
    p_ll: float | np.ndarray
    r: float | np.ndarray


def stratified_pair(a: AlphaPair):
    """Extremal pair for connected (stratified) flow:
    (min(aL, aR), max(aL - aR, 0))."""
    al, ar = np.asarray(a.alpha_left), np.asarray(a.alpha_right)
    return np.minimum(al, ar), np.maximum(al - ar, 0.0)


def disperse_pair(a: AlphaPair):
    """Extremal pair for disconnected (disperse) flow:
    (max(aL - (1 - aR), 0), min(aL, 1 - aR))."""
    al, ar = np.asarray(a.alpha_left), np.asarray(a.alpha_right)
    aq = 1.0 - ar  # complementary phase fraction on the right
    return np.maximum(al - aq, 0.0), np.minimum(al, aq)


def _extremal_quads(a: AlphaPair):
    """Full stratified and disperse quads; phase l's entries are derived from
    the marginal sums of phase k's, so the cross-phase identities hold by
    construction at both endpoints."""
    al, ar = np.asarray(a.alpha_left), np.asarray(a.alpha_right)
    s_kk, s_kl = stratified_pair(a)
    d_kk, d_kl = disperse_pair(a)
    s_lk = ar - s_kk
    d_lk = ar - d_kk
    s_ll = 1.0 - al - s_lk
    d_ll = 1.0 - al - d_lk
    return (s_kk, s_kl, s_lk, s_ll), (d_kk, d_kl, d_lk, d_ll)


def convex_quad(a: AlphaPair, r) -> ProbabilityQuad:
    """Convex combination r * disperse + (1 - r) * stratified of the full
    quads, so every coefficient is affine in r bit-for-bit."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 0.0) or np.any(r > 1.0) or not np.all(np.isfinite(r)):
        raise InvalidStateError("regime parameter r outside [0, 1]")
    strat, disp = _extremal_quads(a)
    p_kk, p_kl, p_lk, p_ll = (r * d + (1.0 - r) * s for s, d in zip(strat, disp))
    return ProbabilityQuad(p_kk=p_kk, p_kl=p_kl, p_lk=p_lk, p_ll=p_ll, r=r)


def extract_r(quad: ProbabilityQuad, a: AlphaPair):
    """Recover the regime parameter from a consistent quad:
    r = (p_kl - max(aL - aR, 0)) / (min(aL, 1 - aR) - max(aL - aR, 0)),
    with r = 0 by convention when the denominator degenerates to zero."""
    al, ar = np.asarray(a.alpha_left), np.asarray(a.alpha_right)
    lo = np.maximum(al - ar, 0.0)
    hi = np.minimum(al, 1.0 - ar)
    den = hi - lo
    num = np.asarray(quad.p_kl) - lo
    r = np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), 0.0)
    return np.clip(r, 0.0, 1.0)


@dataclass
class ConsistencyReport:
    """Signed violation amounts per condition; <= tol means satisfied."""

    slack: dict = field(default_factory=dict)
    tol: float = 1e-14

    @property
    def ok(self) -> bool:
        return all(v <= self.tol for v in self.slack.values())

    def violations(self) -> dict:
        return {k: v for k, v in self.slack.items() if v > self.tol}


def check_consistency(quad: ProbabilityQuad, a: AlphaPair, tol=1e-14) -> ConsistencyReport:
    """Evaluate every marginal identity and min/max bound; report violations
    with slack values (maximum over array inputs)."""
    al, ar = np.asarray(a.alpha_left, dtype=float), np.asarray(a.alpha_right, dtype=float)
    kk = np.asarray(quad.p_kk, dtype=float)
    kl = np.asarray(quad.p_kl, dtype=float)
    lk = np.asarray(quad.p_lk, dtype=float)
    ll = np.asarray(quad.p_ll, dtype=float)

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
        "r_range": worst(np.maximum(np.asarray(quad.r) - 1.0, -np.asarray(quad.r))),
    }
    return ConsistencyReport(slack=slack, tol=tol)
