import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opentoda import (
    CoincidentPoles,
    ConvergenceFailure,
    DomainViolation,
    JacobiMatrix,
    NotInRatNPrime,
    PoleEvaluation,
    SpectralData,
    direct_transform,
    gammas,
    inverse_transform,
    inverse_transform_stieltjes,
    numerator_poly,
    pq_polynomials,
    weyl_eval,
    weyl_rat,
)

from opentoda.cli import make_envelope, parse_envelope
from opentoda.spectral import _lanczos_from_spectrum, _require_normalized, to_jacobi, to_spectral
from opentoda.tridiag import flaschka, unflaschka

import oracles
from conftest import random_jacobi, random_spectral


def test_direct_transform_worked(worked):
    S = direct_transform(worked)
    np.testing.assert_allclose(S.z, [-1.0, 1.0], atol=1e-14)
    np.testing.assert_allclose(S.rho, [0.5, 0.5], atol=1e-14)


def test_spectral_data_validation():
    with pytest.raises(CoincidentPoles):
        SpectralData(z=np.array([1.0, -1.0]), rho=np.array([0.5, 0.5]))
    with pytest.raises(CoincidentPoles):
        SpectralData(z=np.array([1.0, 1.0]), rho=np.array([0.5, 0.5]))
    with pytest.raises(DomainViolation):
        SpectralData(z=np.array([-1.0, 1.0]), rho=np.array([0.5]))
    with pytest.raises(DomainViolation):
        SpectralData(z=np.array([-1.0, np.inf]), rho=np.array([0.5, 0.5]))
    # sign-indefinite residues are legal at construction; they only lose
    # membership in the normalized class
    S = SpectralData(z=np.array([-1.0, 1.0]), rho=np.array([0.5, -0.5]))
    with pytest.raises(NotInRatNPrime):
        _require_normalized(S)


def test_roundtrip_small(rng):
    for n in (1, 2, 3, 5, 8):
        J = random_jacobi(rng, n)
        back = inverse_transform(direct_transform(J))
        scale = 1.0 + np.max(np.abs(J.to_dense()))
        np.testing.assert_allclose(back.v, J.v, atol=1e-11 * scale)
        np.testing.assert_allclose(back.c, J.c, atol=1e-11 * scale)


@settings(deadline=None, max_examples=30)
@given(
    n=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_roundtrip_property(n, seed):
    J = random_jacobi(np.random.default_rng(seed), n)
    back = inverse_transform(direct_transform(J))
    scale = 1.0 + np.max(np.abs(J.to_dense()))
    assert np.max(np.abs(back.v - J.v)) <= 1e-10 * scale
    if n > 1:
        assert np.max(np.abs(back.c - J.c)) <= 1e-10 * scale


def test_lanczos_matches_element_loop(rng):
    # CGS2 sums in another order than the loop's modified Gram-Schmidt;
    # bound fixed beforehand from the dtype: 1e-12 of the spectrum's scale
    for n in (1, 2, 8, 48):
        S = direct_transform(random_jacobi(rng, n))
        got = _lanczos_from_spectrum(S.z, np.sqrt(S.rho))
        want = oracles.lanczos_loop(S.z, np.sqrt(S.rho))
        scale = 1.0 + np.max(np.abs(S.z))
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w), initial=0.0) <= 1e-12 * scale


def test_lanczos_breakdown():
    with pytest.raises(ConvergenceFailure):
        _lanczos_from_spectrum(np.array([-1.0, 1.0]), np.zeros(2))


def test_stieltjes_matches_lanczos(rng):
    states = [random_spectral(rng, n) for n in (1, 2, 4, 6, 14, 48)]
    # AC1's localized family, whose smallest residues reach 1e-30 and below
    J = JacobiMatrix(v=rng.uniform(-1.0, 1.0, 64), c=rng.uniform(0.5, 1.5, 63))
    states.append(direct_transform(J))
    for S in states:
        J1 = inverse_transform(S)
        J2 = inverse_transform_stieltjes(S)
        np.testing.assert_allclose(J2.v, J1.v, atol=1e-8)
        np.testing.assert_allclose(J2.c, J1.c, atol=1e-8)


def test_inverse_requires_normalized():
    S = SpectralData(z=np.array([-1.0, 1.0]), rho=np.array([0.5, 0.6]))
    with pytest.raises(NotInRatNPrime):
        inverse_transform(S)
    with pytest.raises(NotInRatNPrime):
        inverse_transform_stieltjes(S)


def test_normalized_class_boundary():
    z = np.array([-1.0, 0.0, 1.0])
    for rho in ([0.2, 0.3, 0.5], [0.2, 0.3, 0.5 + 9e-11], [0.2, 0.3, 0.5 + 2e-10], [-0.1, 0.6, 0.5]):
        S = SpectralData(z=z, rho=np.array(rho))
        try:
            _require_normalized(S)
            accepted = True
        except NotInRatNPrime:
            accepted = False
        assert accepted is (min(rho) > 0 and abs(sum(rho) - 1.0) <= 1e-10)


def test_state_conversions(rng):
    J = random_jacobi(rng, 4)
    pt = unflaschka(J, q0=0.7)
    S = direct_transform(J)
    assert to_jacobi(J) is J and to_spectral(S) is S
    for got, want in (
        (to_jacobi(pt), flaschka(pt)),
        (to_jacobi(S), inverse_transform(S)),
        (to_spectral(pt), direct_transform(flaschka(pt))),
        (to_spectral(J), S),
    ):
        for a, b in zip(got.as_dict().values(), want.as_dict().values()):
            np.testing.assert_array_equal(a, b)


def test_weyl_three_routes(rng):
    # pole sum, rational num/den form, and -Q_N/P_N from the reconstructed
    # matrix must agree away from the poles
    for n in (2, 4, 7):
        S = random_spectral(rng, n)
        J = inverse_transform(S)
        R = weyl_rat(S)
        for x in (-7.3, -0.013, 4.21, 11.0):
            a = weyl_eval(S, x)
            b = R(x)
            P, Q = pq_polynomials(J, x)
            c = -Q[n] / P[n]
            assert abs(a - b) <= 1e-8 * abs(a)
            assert abs(a - c) <= 1e-8 * abs(a)


def test_weyl_eval_pole():
    S = SpectralData(z=np.array([-1.0, 1.0]), rho=np.array([0.5, 0.5]))
    with pytest.raises(PoleEvaluation):
        weyl_eval(S, 1.0)


def test_numerator_poly_worked(worked):
    S = direct_transform(worked)
    # rho_0 (z - z_1) + rho_1 (z - z_0) = z
    np.testing.assert_allclose(numerator_poly(S), [0.0, 1.0], atol=1e-14)


def test_gammas_interlace(rng):
    S = random_spectral(rng, 5, min_gap=0.2)
    g, q0 = gammas(S)
    assert q0 == pytest.approx(1.0, abs=1e-12)
    assert g.size == 4
    assert np.all(S.z[:-1] < g) and np.all(g < S.z[1:])


def test_gammas_single_pole():
    g, q0 = gammas(SpectralData(z=np.array([2.0]), rho=np.array([1.0])))
    assert g.size == 0
    assert q0 == 1.0


def test_serialization_roundtrip(rng):
    # through the one reader of documents, cli.parse_envelope
    S = random_spectral(rng, 4)
    back = parse_envelope(json.loads(json.dumps(make_envelope(S))))
    np.testing.assert_array_equal(back.z, S.z)
    np.testing.assert_array_equal(back.rho, S.rho)
    J = random_jacobi(rng, 3)
    backJ = parse_envelope(json.loads(json.dumps(make_envelope(J))))
    np.testing.assert_array_equal(backJ.v, J.v)
    np.testing.assert_array_equal(backJ.c, J.c)
