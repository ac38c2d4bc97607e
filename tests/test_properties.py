"""Property tests of the float path: every finite seed gives a formula or a
typed error, the search kernel stays total, and its verdict is the
classifier's.  Each property runs under ``warnings.simplefilter("error")``,
so a floating-point warning anywhere fails it.  The examples are drawn from
a fixed seed, so a run is reproducible."""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fdforge.charpoly import PENALTY, analyze_formula, deflated_radius
from fdforge.taylor_system import DifferenceFormula, Dimensions, echelon_block, seed_to_formula

PROPERTY = settings(max_examples=500, deadline=None, derandomize=True, database=None)

# Any finite float: zeros, subnormals, and values up to the float limit.
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def seeds(draw, elements=FINITE):
    """(dims, y): dimensions with k and s from 1 to 8, and a seed of s
    entries."""
    k, s = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    return Dimensions(k, s), np.array(draw(st.lists(elements, min_size=s, max_size=s)))


@st.composite
def plane_points(draw, elements=FINITE):
    """(dims, z): dimensions as ``seeds`` draws them, and a point of their
    seed plane's s - 1 coordinates."""
    dims, _ = draw(seeds())
    return dims, np.array(draw(st.lists(elements, min_size=dims.s - 1, max_size=dims.s - 1)))


@PROPERTY
@given(seeds())
def test_a_finite_seed_gives_a_formula_or_a_typed_error(case):
    dims, y = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            formula = seed_to_formula(dims, y)
        except ValueError:
            return
    assert isinstance(formula, DifferenceFormula)
    assert len(formula.p) == dims.k + dims.s + 1 and formula.p[0] == 1.0
    assert np.isfinite(formula.p).all() and np.isfinite(formula.c)


@PROPERTY
@given(plane_points())
def test_the_kernel_gives_a_finite_value_or_the_penalty(case):
    dims, z = case
    value, gradient, convergent = deflated_radius(dims)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h, grad, verdict = value(z), gradient(), convergent()
    assert np.isfinite(h) and 0.0 <= h
    assert grad is None or (grad.shape == z.shape and np.isfinite(grad).all())
    if h == PENALTY:
        assert grad is None and not verdict


@PROPERTY
@given(plane_points(st.floats(-0.5, 0.5)))
def test_the_kernels_verdict_is_analyzes_on_p(case):
    # at the scale of the polished points, where about one in ten is
    # convergent; wherever the kernel values the point and its seed has a
    # float formula
    dims, z = case
    value, _, convergent = deflated_radius(dims)
    y_p, plane = echelon_block(dims).seed_plane
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h = value(z)
        try:
            formula = seed_to_formula(dims, y_p + plane @ z)
        except ValueError:
            return
    if h != PENALTY:
        assert convergent() == analyze_formula(formula).convergent
