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
    al, ar = np.asarray(alpha_left), np.asarray(alpha_right)
    # a step's block passes same-shape rows: broadcast only other shapes
    if not al.shape == ar.shape == r.shape:
        al, ar, r = np.broadcast_arrays(al, ar, r)
    # the complements 1 - aR and 1 - aL, each made once
    ar_c, al_c = 1.0 - ar, 1.0 - al
    s_kk, s_kl = np.minimum(al, ar), np.maximum(al - ar, 0.0)
    d_kk, d_kl = np.maximum(al - ar_c, 0.0), np.minimum(al, ar_c)
    s_lk, d_lk = ar - s_kk, ar - d_kk
    # r * disp + (1 - r) * strat, built in place: at a step's 8192-interface
    # block each (2, 2, m) temporary is 256 KiB, and the three more that the
    # plain expression makes cost the 1e5-cell benchmark ~5 % per cell-step
    # and 10 MiB of peak RSS (2-core Xeon, numpy 2.4.6)
    P = np.array([[d_kk, d_kl], [d_lk, al_c - d_lk]], dtype=float)
    P *= r
    strat = np.array([[s_kk, s_kl], [s_lk, al_c - s_lk]], dtype=float)
    strat *= 1.0 - r
    P += strat
    return P
