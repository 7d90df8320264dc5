import numpy as np
import pytest

from demflow.errors import InvalidStateError
from demflow.probability import (AlphaPair, ProbabilityQuad, check_consistency,
                                 convex_quad, disperse_pair, extract_r,
                                 stratified_pair)


def random_triples(n, seed=0):
    rng = np.random.default_rng(seed)
    a = AlphaPair(rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 1.0, n))
    return a, rng.uniform(0.0, 1.0, n)


def test_stratified_pair_hand_values():
    assert stratified_pair(AlphaPair(0.5, 0.5)) == (0.5, 0.0)
    p_kk, p_kl = stratified_pair(AlphaPair(0.7, 0.4))
    assert p_kk == pytest.approx(0.4) and p_kl == pytest.approx(0.3)
    p_kk, p_kl = stratified_pair(AlphaPair(0.3, 0.9))
    assert p_kk == pytest.approx(0.3) and p_kl == 0.0


def test_disperse_pair_hand_values():
    assert disperse_pair(AlphaPair(0.5, 0.5)) == (0.0, 0.5)
    p_kk, p_kl = disperse_pair(AlphaPair(0.7, 0.4))
    assert p_kk == pytest.approx(0.1) and p_kl == pytest.approx(0.6)
    # pure-phase corner
    assert disperse_pair(AlphaPair(1.0, 1.0)) == (1.0, 0.0)


def test_convex_quad_hand_value():
    q = convex_quad(AlphaPair(0.7, 0.4), 0.5)
    assert q.p_kk == pytest.approx(0.25, abs=1e-15)
    assert q.p_kl == pytest.approx(0.45, abs=1e-15)


def test_convex_quad_reproduces_extremal_pairs():
    a, _ = random_triples(1000, seed=5)
    q0 = convex_quad(a, 0.0)
    s_kk, s_kl = stratified_pair(a)
    assert np.array_equal(q0.p_kk, s_kk) and np.array_equal(q0.p_kl, s_kl)
    q1 = convex_quad(a, 1.0)
    d_kk, d_kl = disperse_pair(a)
    assert np.array_equal(q1.p_kk, d_kk) and np.array_equal(q1.p_kl, d_kl)


def test_convex_quad_rejects_bad_r():
    for bad in (1.5, -0.1, np.nan, np.inf, -np.inf, [0.5, np.nan], [0.0, np.nextafter(1.0, 2.0)]):
        with pytest.raises(InvalidStateError, match=r"^regime parameter r outside \[0, 1\]$"):
            convex_quad(AlphaPair(0.5, 0.5), bad)
    for good in (0.0, 1.0, [0.0, 0.5, 1.0], np.empty(0)):
        convex_quad(AlphaPair(0.5, 0.5), good)


@pytest.mark.parametrize("r", [0.0, 0.25, 0.8, 1.0])
def test_nearly_pure_cells_algebra(r):
    # both cells nearly pure in phase k: the quad reduces to
    # (1-(1+r)eps, r*eps, r*eps, (1-r)*eps)
    eps = 1e-3
    q = convex_quad(AlphaPair(1.0 - eps, 1.0 - eps), r)
    assert q.p_kk == pytest.approx(1.0 - (1.0 + r) * eps, abs=1e-14)
    assert q.p_kl == pytest.approx(r * eps, abs=1e-14)
    assert q.p_lk == pytest.approx(r * eps, abs=1e-14)
    assert q.p_ll == pytest.approx((1.0 - r) * eps, abs=1e-14)


@pytest.mark.parametrize("r", [0.0, 0.3, 1.0])
def test_material_interface_algebra(r):
    # interface cells: alpha jumps 1-eps -> eps, so crossing dominates
    eps = 1e-3
    q = convex_quad(AlphaPair(1.0 - eps, eps), r)
    assert q.p_kl == pytest.approx(1.0 - (2.0 - r) * eps, abs=1e-14)
    assert q.p_kk == pytest.approx((1.0 - r) * eps, abs=1e-14)
    assert q.p_ll == pytest.approx((1.0 - r) * eps, abs=1e-14)
    assert q.p_lk == pytest.approx(r * eps, abs=1e-14)


def test_affinity_in_r_exact():
    a, r = random_triples(10_000, seed=1)
    q = convex_quad(a, r)
    q0 = convex_quad(a, 0.0)
    q1 = convex_quad(a, 1.0)
    for f in ("p_kk", "p_kl", "p_lk", "p_ll"):
        mixed = r * getattr(q1, f) + (1.0 - r) * getattr(q0, f)
        assert np.array_equal(np.asarray(getattr(q, f)), mixed)


def test_extract_r_round_trip():
    q = convex_quad(AlphaPair(0.7, 0.4), 0.37)
    assert extract_r(q, AlphaPair(0.7, 0.4)) == pytest.approx(0.37, abs=1e-12)
    a, r = random_triples(100_000, seed=2)
    back = extract_r(convex_quad(a, r), a)
    lo = np.maximum(a.alpha_left - a.alpha_right, 0.0)
    hi = np.minimum(a.alpha_left, 1.0 - a.alpha_right)
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
    a = AlphaPair(1.0, 1.0)
    q = convex_quad(a, 0.8)
    assert extract_r(q, a) == 0.0


def test_extract_r_phase_symmetric():
    a, r = random_triples(100_000, seed=3)
    q = convex_quad(a, r)
    # same r seen from phase l: swap roles via the complementary fractions
    a_l = AlphaPair(1.0 - a.alpha_left, 1.0 - a.alpha_right)
    q_l = ProbabilityQuad(p_kk=q.p_ll, p_kl=q.p_lk, p_lk=q.p_kl, p_ll=q.p_kk, r=q.r)
    r_k = extract_r(q, a)
    r_l = extract_r(q_l, a_l)
    lo_k = np.maximum(a.alpha_left - a.alpha_right, 0.0)
    hi_k = np.minimum(a.alpha_left, 1.0 - a.alpha_right)
    lo_l = np.maximum(a_l.alpha_left - a_l.alpha_right, 0.0)
    hi_l = np.minimum(a_l.alpha_left, 1.0 - a_l.alpha_right)
    both = (hi_k - lo_k > 1e-3) & (hi_l - lo_l > 1e-3)
    assert np.count_nonzero(both) > 90_000
    assert np.max(np.abs(r_k[both] - r_l[both])) < 1e-12


def test_check_consistency_clean_on_random_quads():
    a, r = random_triples(100_000, seed=4)
    report = check_consistency(convex_quad(a, r), a)
    assert report.ok, report.violations()
    # the extremal pairs are themselves consistent
    for rv in (0.0, 1.0):
        assert check_consistency(convex_quad(a, rv), a).ok


def test_check_consistency_flags_corruption():
    a = AlphaPair(0.7, 0.4)
    q = convex_quad(a, 0.5)
    bad = ProbabilityQuad(p_kk=q.p_kk + 0.1, p_kl=q.p_kl, p_lk=q.p_lk, p_ll=q.p_ll, r=q.r)
    report = check_consistency(bad, a)
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


def test_alpha_pair_validation():
    with pytest.raises(InvalidStateError):
        AlphaPair(-0.1, 0.5)
    with pytest.raises(InvalidStateError):
        AlphaPair(0.5, 1.1)


def test_alpha_pair_errors_name_side_and_cell():
    with pytest.raises(InvalidStateError, match=r"^alpha_right: .* at cell 2$"):
        AlphaPair(np.full(4, 0.5), np.array([0.5, 0.5, np.nan, 0.5]))
