"""Property tests of the interface quad P = convex_quad(aL, aR, r) over drawn
fractions and regime values, the extreme floats among them."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from demflow.probability import check_consistency, convex_quad

EXTREMES = (0.0, 5e-324, 1e-17, 1.0 - 2**-53, 1.0)
unit = st.one_of(st.sampled_from(EXTREMES), st.floats(0.0, 1.0))
reproducible = settings(derandomize=True, database=None, deadline=None)


@reproducible
@given(unit, unit, unit)
def test_quad_is_consistent(al, ar, r):
    report = check_consistency(convex_quad(al, ar, r), al, ar)
    assert report.ok, report.violations()


@reproducible
@given(unit, unit, unit)
def test_quad_is_affine_in_r(al, ar, r):
    mixed = r * convex_quad(al, ar, 1.0) + (1.0 - r) * convex_quad(al, ar, 0.0)
    assert np.array_equal(convex_quad(al, ar, r), mixed)


@reproducible
@given(unit, unit, unit)
def test_phase_l_view_is_the_mirrored_quad(al, ar, r):
    gap = convex_quad(1.0 - al, 1.0 - ar, r) - convex_quad(al, ar, r)[::-1, ::-1]
    assert np.max(np.abs(gap)) <= 4 * np.finfo(float).eps
