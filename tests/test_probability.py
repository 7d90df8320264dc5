import numpy as np
import pytest

from demflow.errors import InvalidStateError
from demflow.probability import check_consistency, convex_quad, extract_r


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
    P = convex_quad(0.5, 0.5, 0.0)
    assert (P[0, 0], P[0, 1]) == (0.5, 0.0)
    P = convex_quad(0.7, 0.4, 0.0)
    assert P[0, 0] == pytest.approx(0.4) and P[0, 1] == pytest.approx(0.3)
    P = convex_quad(0.3, 0.9, 0.0)
    assert P[0, 0] == pytest.approx(0.3) and P[0, 1] == 0.0


def test_disperse_quad_hand_values():
    P = convex_quad(0.5, 0.5, 1.0)
    assert (P[0, 0], P[0, 1]) == (0.0, 0.5)
    P = convex_quad(0.7, 0.4, 1.0)
    assert P[0, 0] == pytest.approx(0.1) and P[0, 1] == pytest.approx(0.6)
    # pure-phase corner
    P = convex_quad(1.0, 1.0, 1.0)
    assert (P[0, 0], P[0, 1]) == (1.0, 0.0)


def test_convex_quad_hand_value():
    P = convex_quad(0.7, 0.4, 0.5)
    assert P[0, 0] == pytest.approx(0.25, abs=1e-15)
    assert P[0, 1] == pytest.approx(0.45, abs=1e-15)


def test_convex_quad_reproduces_extremal_pairs():
    al, ar, _ = random_triples(1000, seed=5)
    P0 = convex_quad(al, ar, 0.0)
    s_kk, s_kl = stratified(al, ar)
    assert np.array_equal(P0[0, 0], s_kk) and np.array_equal(P0[0, 1], s_kl)
    P1 = convex_quad(al, ar, 1.0)
    d_kk, d_kl = disperse(al, ar)
    assert np.array_equal(P1[0, 0], d_kk) and np.array_equal(P1[0, 1], d_kl)


def test_convex_quad_rejects_bad_r():
    for bad in (1.5, -0.1, np.nan, np.inf, -np.inf, [0.5, np.nan], [0.0, np.nextafter(1.0, 2.0)]):
        with pytest.raises(InvalidStateError, match=r"^regime parameter r outside \[0, 1\]$"):
            convex_quad(0.5, 0.5, bad)
    for good in (0.0, 1.0, [0.0, 0.5, 1.0], np.empty(0)):
        convex_quad(0.5, 0.5, good)


@pytest.mark.parametrize("alphas, r, shape", [
    ((0.7, 0.4), 0.5, (2, 2)),
    ((np.full(5, 0.7), np.full(5, 0.4)), 0.5, (2, 2, 5)),
    ((0.5, 0.5), [0.0, 0.5, 1.0], (2, 2, 3)),
    ((0.5, 0.5), np.empty(0), (2, 2, 0)),
])
def test_convex_quad_shape(alphas, r, shape):
    # the fractions broadcast against r
    assert convex_quad(*alphas, r).shape == shape


@pytest.mark.parametrize("r", [0.0, 0.25, 0.8, 1.0])
def test_nearly_pure_cells_algebra(r):
    # both cells nearly pure in phase k: the quad reduces to
    # (1-(1+r)eps, r*eps, r*eps, (1-r)*eps)
    eps = 1e-3
    P = convex_quad(1.0 - eps, 1.0 - eps, r)
    assert P[0, 0] == pytest.approx(1.0 - (1.0 + r) * eps, abs=1e-14)
    assert P[0, 1] == pytest.approx(r * eps, abs=1e-14)
    assert P[1, 0] == pytest.approx(r * eps, abs=1e-14)
    assert P[1, 1] == pytest.approx((1.0 - r) * eps, abs=1e-14)


@pytest.mark.parametrize("r", [0.0, 0.3, 1.0])
def test_material_interface_algebra(r):
    # interface cells: alpha jumps 1-eps -> eps, so crossing dominates
    eps = 1e-3
    P = convex_quad(1.0 - eps, eps, r)
    assert P[0, 1] == pytest.approx(1.0 - (2.0 - r) * eps, abs=1e-14)
    assert P[0, 0] == pytest.approx((1.0 - r) * eps, abs=1e-14)
    assert P[1, 1] == pytest.approx((1.0 - r) * eps, abs=1e-14)
    assert P[1, 0] == pytest.approx(r * eps, abs=1e-14)


def test_affinity_in_r_exact():
    al, ar, r = random_triples(10_000, seed=1)
    P = convex_quad(al, ar, r)
    P0 = convex_quad(al, ar, 0.0)
    P1 = convex_quad(al, ar, 1.0)
    for ab in ((0, 0), (0, 1), (1, 0), (1, 1)):
        assert np.array_equal(P[ab], r * P1[ab] + (1.0 - r) * P0[ab])


def test_extract_r_round_trip():
    P = convex_quad(0.7, 0.4, 0.37)
    assert extract_r(P, 0.7, 0.4) == pytest.approx(0.37, abs=1e-12)
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
    P = convex_quad(1.0, 1.0, 0.8)
    assert extract_r(P, 1.0, 1.0) == 0.0


def test_extract_r_phase_symmetric():
    al, ar, r = random_triples(100_000, seed=3)
    P = convex_quad(al, ar, r)
    # same r seen from phase l: swap roles via the complementary fractions
    bl, br = 1.0 - al, 1.0 - ar
    r_k = extract_r(P, al, ar)
    r_l = extract_r(P[::-1, ::-1], bl, br)
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
    bad = convex_quad(0.7, 0.4, 0.5)
    bad[0, 0] += 0.1
    report = check_consistency(bad, 0.7, 0.4)
    assert not report.ok
    assert "marginal_left_k" in report.violations()


@pytest.mark.parametrize("r, keys", [(1.2, {"lower_same", "upper_cross"}),
                                     (-0.2, {"upper_same", "lower_cross"})])
def test_check_consistency_flags_r_outside_unit_range(r, keys):
    # convex_quad rejects such an r; a quad extrapolated to it by hand
    # breaks the sandwich bounds
    al, ar = 0.7, 0.4
    P = r * convex_quad(al, ar, 1.0) + (1.0 - r) * convex_quad(al, ar, 0.0)
    assert keys <= check_consistency(P, al, ar).violations().keys()


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
