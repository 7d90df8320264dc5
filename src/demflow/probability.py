"""Interface probability-coefficient algebra.

At each cell interface the chance of finding phase a immediately left and
phase b immediately right is P[a, b], phase k first: P[0, 0] = p_kk,
P[0, 1] = p_kl, P[1, 0] = p_lk, P[1, 1] = p_ll, and phase l's view of the
same interface is P[::-1, ::-1]. Two extremal consistent quads exist: the
stratified one (connected phases) and the disperse one (disconnected
phases); every consistent quad is a convex combination of the two, with one
regime parameter r in [0, 1] shared by both phases.

Every function takes phase k's volume fractions in the cells left and right
of the interface, as scalars or same-shape arrays. convex_quad checks r on
entry. As with the EOS formulas, the fractions are not checked here but
where cells enter the program: the config and phase_primitives (the one
check of a cells object).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidStateError


def convex_quad(alpha_left, alpha_right, r) -> np.ndarray:
    """P = r * disperse + (1 - r) * stratified, shape (2, 2) + the broadcast
    shape of the fractions and r, so every coefficient is affine in r
    bit-for-bit. r is checked on entry: 0 <= r <= 1 as one min and one max
    (NaN fails).

    Phase k's entries (p_kk, p_kl) are (min(aL, aR), max(aL - aR, 0)) for the
    stratified quad and (max(aL - (1 - aR), 0), min(aL, 1 - aR)) for the
    disperse one. Phase l's entries are derived from the marginal sums of
    phase k's, so the cross-phase identities hold by construction at both
    endpoints."""
    r = np.asarray(r, dtype=float)
    if r.size and not (r.min() >= 0.0 and r.max() <= 1.0):
        raise InvalidStateError("regime parameter r outside [0, 1]")
    al, ar, r = np.broadcast_arrays(alpha_left, alpha_right, r)
    s_kk, s_kl = np.minimum(al, ar), np.maximum(al - ar, 0.0)
    d_kk, d_kl = np.maximum(al - (1.0 - ar), 0.0), np.minimum(al, 1.0 - ar)
    s_lk, d_lk = ar - s_kk, ar - d_kk
    # r * disp + (1 - r) * strat, built in place: at a step's 8192-interface
    # block each (2, 2, m) temporary is 256 KiB, and the three more that the
    # plain expression makes cost the 1e5-cell benchmark ~5 % per cell-step
    # and 10 MiB of peak RSS (2-core Xeon, numpy 2.4.6)
    P = np.array([[d_kk, d_kl], [d_lk, 1.0 - al - d_lk]], dtype=float)
    P *= r
    strat = np.array([[s_kk, s_kl], [s_lk, 1.0 - al - s_lk]], dtype=float)
    strat *= 1.0 - r
    P += strat
    return P


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
