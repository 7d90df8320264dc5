import numpy as np
import pytest

from demflow.errors import InvalidStateError
from demflow.probability import (ProbabilityQuad, check_consistency,
                                 convex_quad, extract_r)


def random_triples(n, seed=0):
    """Fractions of phase k left and right of n interfaces, and n values of r."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 1.0, n)


def stratified(al, ar):
    """Reference (p_kk, p_kl) of the stratified quad: (min(aL, aR), max(aL - aR, 0))."""
    return np.minimum(al, ar), np.maximum(al - ar, 0.0)


def disperse(al, ar):
    """Reference (p_kk, p_kl) of the disperse quad:
    (max(aL - (1 - aR), 0), min(aL, 1 - aR))."""
    return np.maximum(al - (1.0 - ar), 0.0), np.minimum(al, 1.0 - ar)


def test_stratified_quad_hand_values():
    q = convex_quad(0.5, 0.5, 0.0)
    assert (q.p_kk, q.p_kl) == (0.5, 0.0)
    q = convex_quad(0.7, 0.4, 0.0)
    assert q.p_kk == pytest.approx(0.4) and q.p_kl == pytest.approx(0.3)
    q = convex_quad(0.3, 0.9, 0.0)
    assert q.p_kk == pytest.approx(0.3) and q.p_kl == 0.0


def test_disperse_quad_hand_values():
    q = convex_quad(0.5, 0.5, 1.0)
    assert (q.p_kk, q.p_kl) == (0.0, 0.5)
    q = convex_quad(0.7, 0.4, 1.0)
    assert q.p_kk == pytest.approx(0.1) and q.p_kl == pytest.approx(0.6)
    # pure-phase corner
    q = convex_quad(1.0, 1.0, 1.0)
    assert (q.p_kk, q.p_kl) == (1.0, 0.0)


def test_convex_quad_hand_value():
    q = convex_quad(0.7, 0.4, 0.5)
    assert q.p_kk == pytest.approx(0.25, abs=1e-15)
    assert q.p_kl == pytest.approx(0.45, abs=1e-15)


def test_convex_quad_reproduces_extremal_pairs():
    al, ar, _ = random_triples(1000, seed=5)
    q0 = convex_quad(al, ar, 0.0)
    s_kk, s_kl = stratified(al, ar)
    assert np.array_equal(q0.p_kk, s_kk) and np.array_equal(q0.p_kl, s_kl)
    q1 = convex_quad(al, ar, 1.0)
    d_kk, d_kl = disperse(al, ar)
    assert np.array_equal(q1.p_kk, d_kk) and np.array_equal(q1.p_kl, d_kl)


def test_convex_quad_rejects_bad_r():
    for bad in (1.5, -0.1, np.nan, np.inf, -np.inf, [0.5, np.nan], [0.0, np.nextafter(1.0, 2.0)]):
        with pytest.raises(InvalidStateError, match=r"^regime parameter r outside \[0, 1\]$"):
            convex_quad(0.5, 0.5, bad)
    for good in (0.0, 1.0, [0.0, 0.5, 1.0], np.empty(0)):
        convex_quad(0.5, 0.5, good)


@pytest.mark.parametrize("r", [0.0, 0.25, 0.8, 1.0])
def test_nearly_pure_cells_algebra(r):
    # both cells nearly pure in phase k: the quad reduces to
    # (1-(1+r)eps, r*eps, r*eps, (1-r)*eps)
    eps = 1e-3
    q = convex_quad(1.0 - eps, 1.0 - eps, r)
    assert q.p_kk == pytest.approx(1.0 - (1.0 + r) * eps, abs=1e-14)
    assert q.p_kl == pytest.approx(r * eps, abs=1e-14)
    assert q.p_lk == pytest.approx(r * eps, abs=1e-14)
    assert q.p_ll == pytest.approx((1.0 - r) * eps, abs=1e-14)


@pytest.mark.parametrize("r", [0.0, 0.3, 1.0])
def test_material_interface_algebra(r):
    # interface cells: alpha jumps 1-eps -> eps, so crossing dominates
    eps = 1e-3
    q = convex_quad(1.0 - eps, eps, r)
    assert q.p_kl == pytest.approx(1.0 - (2.0 - r) * eps, abs=1e-14)
    assert q.p_kk == pytest.approx((1.0 - r) * eps, abs=1e-14)
    assert q.p_ll == pytest.approx((1.0 - r) * eps, abs=1e-14)
    assert q.p_lk == pytest.approx(r * eps, abs=1e-14)


def test_affinity_in_r_exact():
    al, ar, r = random_triples(10_000, seed=1)
    q = convex_quad(al, ar, r)
    q0 = convex_quad(al, ar, 0.0)
    q1 = convex_quad(al, ar, 1.0)
    for f in ("p_kk", "p_kl", "p_lk", "p_ll"):
        mixed = r * getattr(q1, f) + (1.0 - r) * getattr(q0, f)
        assert np.array_equal(np.asarray(getattr(q, f)), mixed)


def test_extract_r_round_trip():
    q = convex_quad(0.7, 0.4, 0.37)
    assert extract_r(q, 0.7, 0.4) == pytest.approx(0.37, abs=1e-12)
    al, ar, r = random_triples(100_000, seed=2)
    back = extract_r(convex_quad(al, ar, r), al, ar)
    lo = np.maximum(al - ar, 0.0)
    hi = np.minimum(al, 1.0 - ar)
    den = hi - lo
    # recovery is to 1e-12 away from degeneracy; roundoff amplifies as 1/den
    nondegenerate = den > 1e-3
    assert np.count_nonzero(nondegenerate) > 90_000
    assert np.max(np.abs(back[nondegenerate] - r[nondegenerate])) < 1e-12
    positive = den > 0.0
    bound = 1e-12 + 8.0 * np.finfo(float).eps / den[positive]
    assert np.all(np.abs(back[positive] - r[positive]) <= bound)


def test_extract_r_degenerate_returns_zero():
    # pure phase on one side makes the admissible interval collapse
    q = convex_quad(1.0, 1.0, 0.8)
    assert extract_r(q, 1.0, 1.0) == 0.0


def test_extract_r_phase_symmetric():
    al, ar, r = random_triples(100_000, seed=3)
    q = convex_quad(al, ar, r)
    # same r seen from phase l: swap roles via the complementary fractions
    bl, br = 1.0 - al, 1.0 - ar
    q_l = ProbabilityQuad(p_kk=q.p_ll, p_kl=q.p_lk, p_lk=q.p_kl, p_ll=q.p_kk, r=q.r)
    r_k = extract_r(q, al, ar)
    r_l = extract_r(q_l, bl, br)
    lo_k = np.maximum(al - ar, 0.0)
    hi_k = np.minimum(al, 1.0 - ar)
    lo_l = np.maximum(bl - br, 0.0)
    hi_l = np.minimum(bl, 1.0 - br)
    both = (hi_k - lo_k > 1e-3) & (hi_l - lo_l > 1e-3)
    assert np.count_nonzero(both) > 90_000
    assert np.max(np.abs(r_k[both] - r_l[both])) < 1e-12


def test_check_consistency_clean_on_random_quads():
    al, ar, r = random_triples(100_000, seed=4)
    report = check_consistency(convex_quad(al, ar, r), al, ar)
    assert report.ok, report.violations()
    # the extremal pairs are themselves consistent
    for rv in (0.0, 1.0):
        assert check_consistency(convex_quad(al, ar, rv), al, ar).ok


def test_check_consistency_flags_corruption():
    q = convex_quad(0.7, 0.4, 0.5)
    bad = ProbabilityQuad(p_kk=q.p_kk + 0.1, p_kl=q.p_kl, p_lk=q.p_lk, p_ll=q.p_ll, r=q.r)
    report = check_consistency(bad, 0.7, 0.4)
    assert not report.ok
    assert "marginal_left_k" in report.violations()


def test_minmax_identity_on_extreme_floats():
    # max(a-b, 0) + min(a, b) == a up to a few ulps, for the values the
    # probability formulas actually see
    vals = np.array([0.0, 5e-324, 1e-308, 1e-17, 0.1, 0.3, 0.5,
                     1.0 - 2**-53, 1.0 - 2**-52, 1.0])
    a, b = np.meshgrid(vals, vals)
    lhs = np.maximum(a - b, 0.0) + np.minimum(a, b)
    assert np.max(np.abs(lhs - a)) <= 4 * np.finfo(float).eps


@pytest.mark.parametrize("side", [0, 1])
@pytest.mark.parametrize("bad", [-0.1, 1.1, np.nan])
def test_check_consistency_flags_fractions_outside_unit_range(bad, side):
    # fractions are checked where cells enter the program, not by the
    # formulas; a quad built from a bad one fails the consistency check,
    # and a NaN slack counts as a violation
    alphas = [np.full(4, 0.5), np.full(4, 0.5)]
    alphas[side][2] = bad
    report = check_consistency(convex_quad(*alphas, 0.5), *alphas)
    assert not report.ok
    unit_range = report.violations()["unit_range"]
    assert np.isnan(unit_range) if np.isnan(bad) else unit_range == pytest.approx(0.05)
