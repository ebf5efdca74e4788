import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opentoda import (
    DomainViolation,
    MultiplePole,
    NonRealOrMultipleRoots,
    PoleEvaluation,
    Rat,
    partial_fractions,
    poly_derivative,
    poly_eval,
    poly_from_roots,
    poly_real_roots,
)


def test_poly_eval_known():
    # 2 - 3z + z^2 at z = 4
    assert poly_eval(np.array([2.0, -3.0, 1.0]), 4.0) == 6.0
    np.testing.assert_allclose(
        poly_eval(np.array([2.0, -3.0, 1.0]), np.array([0.0, 1.0, 2.0])),
        [2.0, 0.0, 0.0],
    )


def test_poly_from_roots_monic():
    P = poly_from_roots(np.array([-1.0, 1.0]))
    np.testing.assert_allclose(P, [-1.0, 0.0, 1.0])
    np.testing.assert_allclose(poly_from_roots(np.array([2.0]), leading=3.0), [-6.0, 3.0])
    # empty root list is the constant polynomial
    np.testing.assert_allclose(poly_from_roots(np.zeros(0)), [1.0])


def test_poly_derivative():
    np.testing.assert_allclose(poly_derivative(np.array([5.0, 1.0, -2.0, 4.0])), [1.0, -4.0, 12.0])
    np.testing.assert_allclose(poly_derivative(np.array([7.0])), [0.0])


def test_real_roots_recovers_spread_roots():
    roots = np.array([-2.5, -0.75, 0.1, 1.0, 3.25])
    got = poly_real_roots(poly_from_roots(roots, leading=-2.0))
    np.testing.assert_allclose(got, roots, atol=1e-12)


def test_real_roots_rejects_complex_pair():
    # z^2 + 1
    with pytest.raises(NonRealOrMultipleRoots):
        poly_real_roots(np.array([1.0, 0.0, 1.0]))


def test_real_roots_rejects_double_root():
    # (z - 1)^2
    with pytest.raises(NonRealOrMultipleRoots):
        poly_real_roots(np.array([1.0, -2.0, 1.0]))


@settings(deadline=None, max_examples=40)
@given(
    st.lists(
        st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
        min_size=1,
        max_size=5,
        unique=True,
    )
)
def test_real_roots_roundtrip(roots):
    roots = np.sort(np.asarray(roots))
    # root conditioning degrades like 1/gap^(deg-1); keep the draws separated
    if roots.size >= 2 and np.min(np.diff(roots)) < 0.1:
        return
    got = poly_real_roots(poly_from_roots(roots))
    np.testing.assert_allclose(got, roots, atol=1e-7)


def test_rat_call_and_degrees():
    R = Rat(np.array([1.0]), np.array([-1.0, 0.0, 1.0]))
    assert R.degrees == (0, 2)
    assert R(2.0) == pytest.approx(1.0 / 3.0)
    with pytest.raises(PoleEvaluation):
        R(1.0)
    with pytest.raises(DomainViolation):
        Rat(np.array([1.0]), np.array([0.0]))


def test_partial_fractions_orientation():
    # -z / (z^2 - 1) = 1/2/( -1 - z ) + 1/2/( 1 - z ) in the rho/(z_k - z) form
    R = Rat(np.array([0.0, -1.0]), np.array([-1.0, 0.0, 1.0]))
    poles, rho = partial_fractions(R)
    np.testing.assert_allclose(poles, [-1.0, 1.0])
    np.testing.assert_allclose(rho, [0.5, 0.5])
    x = 0.37
    np.testing.assert_allclose(np.sum(rho / (poles - x)), R(x), rtol=1e-14)


def test_partial_fractions_requirements():
    with pytest.raises(DomainViolation):
        partial_fractions(Rat(np.array([0.0, 0.0, 1.0]), np.array([-1.0, 0.0, 1.0])))
    with pytest.raises(MultiplePole):
        partial_fractions(Rat(np.array([1.0]), np.array([1.0, -2.0, 1.0])))
