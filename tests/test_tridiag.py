import warnings

import numpy as np
import pytest
import scipy.linalg

from opentoda import (
    ConvergenceFailure,
    DomainViolation,
    JacobiMatrix,
    PhasePoint,
    SingularMatrix,
    eigen,
    flaschka,
    pq_polynomials,
    trace_power,
    truncated_charpoly,
    unflaschka,
)

from opentoda import OverflowGuard, ResidueUnderflow, tridiag
from opentoda.tridiag import _log_first_squares, power_bands

from conftest import random_jacobi
from oracles import dense_power


def test_jacobi_matrix_validation():
    with pytest.raises(DomainViolation):
        JacobiMatrix(v=np.zeros(2), c=np.array([0.0]))
    with pytest.raises(DomainViolation):
        JacobiMatrix(v=np.zeros(2), c=np.array([-1.0]))
    with pytest.raises(DomainViolation):
        JacobiMatrix(v=np.array([0.0, np.nan]), c=np.array([1.0]))
    with pytest.raises(DomainViolation):
        JacobiMatrix(v=np.zeros(3), c=np.array([1.0]))
    # a two-dimensional c is refused, not flattened
    for c in ([[1.0, 1.0]], [[1.0], [1.0]]):
        with pytest.raises(DomainViolation):
            JacobiMatrix(v=[1.0, 2.0, 3.0], c=c)


def test_c_closure_inverse_product():
    J = JacobiMatrix(v=np.zeros(4), c=np.array([0.5, 2.0, 4.0]))
    assert J.c_closure == pytest.approx(0.25, rel=1e-15)


def test_to_dense(worked):
    np.testing.assert_allclose(worked.to_dense(), [[0.0, 1.0], [1.0, 0.0]])


def test_flaschka_worked():
    # equally spaced resting particles map to constant coupling
    pt = PhasePoint(q=np.array([1.0, 1.0]), p=np.zeros(2))
    J = flaschka(pt)
    np.testing.assert_allclose(J.v, [0.0, 0.0])
    np.testing.assert_allclose(J.c, [1.0])


def test_flaschka_unflaschka_roundtrip(rng):
    for n in (1, 2, 5):
        J = random_jacobi(rng, n)
        pt = unflaschka(J, q0=0.7)
        back = flaschka(pt)
        np.testing.assert_allclose(back.v, J.v, atol=1e-14)
        np.testing.assert_allclose(back.c, J.c, rtol=1e-14)
        assert pt.q[0] == 0.7
        # and the gauge freedom is a rigid translation of q
        shifted = unflaschka(J, q0=-2.0)
        np.testing.assert_allclose(shifted.q - pt.q, -2.7, atol=1e-13)


def test_eigen_worked(worked):
    z, w = eigen(worked)
    np.testing.assert_allclose(z, [-1.0, 1.0], atol=1e-14)
    np.testing.assert_allclose(w**2, [0.5, 0.5], atol=1e-14)


def test_eigen_single_site():
    z, w = eigen(JacobiMatrix(v=np.array([2.5]), c=np.zeros(0)))
    np.testing.assert_allclose(z, [2.5])
    np.testing.assert_allclose(w, [1.0])


def test_eigen_against_scipy(rng):
    for n in (2, 3, 5, 8):
        for _ in range(10):
            J = random_jacobi(rng, n)
            z, w = eigen(J)
            zr, V = scipy.linalg.eigh_tridiagonal(J.v, J.c)
            np.testing.assert_allclose(z, zr, atol=1e-12 * (1 + np.max(np.abs(zr))))
            np.testing.assert_allclose(w, np.abs(V[0]), atol=1e-10)
            assert np.all(w > 0)


def test_eigen_convergence_failure(worked, monkeypatch):
    def no_convergence(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
    with pytest.raises(ConvergenceFailure):
        eigen(worked)
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.array([np.nan, 1.0]))
    with pytest.raises(ConvergenceFailure):
        eigen(worked)
    with pytest.raises(ConvergenceFailure):
        trace_power(worked, 2)


def test_eigen_residues_ignore_scale(rng):
    # c * c would overflow above 1.3e154 and underflow below 1.5e-154
    J = random_jacobi(rng, 12)
    z, w = eigen(J)
    for s in (1e170, 1e-170):
        zs, ws = eigen(JacobiMatrix(v=s * J.v, c=s * J.c))
        np.testing.assert_allclose(zs, s * z, rtol=1e-12, atol=1e-12 * s)
        np.testing.assert_allclose(ws, w, rtol=1e-12)
    _, w = eigen(JacobiMatrix(v=np.zeros(2), c=np.array([1e160])))
    np.testing.assert_allclose(w**2, [0.5, 0.5], rtol=1e-14)
    _, w = eigen(JacobiMatrix(v=np.zeros(3), c=np.array([1e-170, 1e-170])))
    np.testing.assert_allclose(w**2, [0.25, 0.5, 0.25], rtol=1e-14)
    # the second residue is about 2.5e-617
    with pytest.raises(ResidueUnderflow):
        eigen(JacobiMatrix(v=np.array([1e308, -1e308]), c=np.array([1.0])))
    # c scales to 0 against v; the second residue is about 1e-650
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ResidueUnderflow):
            eigen(JacobiMatrix(v=np.array([1e10, 0.0]), c=np.array([1e-315])))


def test_eigen_underflow_is_loud():
    # rho of the two outer eigenvalues is about 1e-400
    with pytest.raises(ResidueUnderflow):
        eigen(JacobiMatrix(v=np.zeros(3), c=np.array([1e-200, 1.0])))
    assert issubclass(ResidueUnderflow, OverflowGuard)


def test_twisted_zero_pivot():
    # at z = 0 the leading 1x1 and trailing 1x1 pivots of L - z vanish
    # exactly; the eigenvector (1, 0, -1)/sqrt(2) has an interior zero.
    # log rho then sums logs near +-708 (of the substituted pivot and of
    # c^2 over it), each good to 708 eps / 2: bound 1e-12 relative
    for c in (0.5, 1.0, 3.0):
        z = np.array([-np.sqrt(2.0), 0.0, np.sqrt(2.0)]) * c
        log_rho = _log_first_squares(np.zeros(3), np.full(2, c), z)
        np.testing.assert_allclose(np.exp(log_rho), [0.25, 0.5, 0.25], rtol=1e-12)
        _, w = eigen(JacobiMatrix(v=np.zeros(3), c=np.full(2, c)))
        np.testing.assert_allclose(w**2, [0.25, 0.5, 0.25], rtol=1e-12)


def test_twisted_blocks_match_one_block(rng, monkeypatch):
    J = random_jacobi(rng, 40)
    _, whole = eigen(J)
    monkeypatch.setattr(tridiag, "_BLOCK", 3 * J.n)
    _, blocked = eigen(J)
    np.testing.assert_array_equal(blocked, whole)


def test_residues_against_mpmath():
    """Squared first components against 80-digit QL with first-row
    accumulation (the kernel of mpmath's eigsy), on families whose smallest
    residues reach 1e-48. Bound fixed before measuring: 1e-10 relative."""
    mp = pytest.importorskip("mpmath")
    from mpmath.matrices.eigen_symmetric import tridiag_eigen

    mp.mp.dps = 80
    try:
        for n, seed in ((48, 11), (64, 12), (96, 13)):
            rng = np.random.default_rng(seed)
            v, c = rng.uniform(-1.0, 1.0, n), rng.uniform(0.5, 1.5, n - 1)
            d = mp.matrix([mp.mpf(x) for x in v])
            e = mp.matrix([mp.mpf(x) for x in c] + [0])
            first = mp.zeros(1, n)
            first[0, 0] = 1
            tridiag_eigen(mp.mp, d, e, first)
            want = np.array([float(first[0, k] ** 2) for k in range(n)])
            z, w = eigen(JacobiMatrix(v=v, c=c))
            np.testing.assert_allclose(z, [float(x) for x in d], rtol=0, atol=1e-13)
            assert np.max(np.abs(w**2 - want) / want) <= 1e-10
    finally:
        mp.mp.dps = 15


def test_power_bands_match_dense_power(rng):
    for n in (1, 2, 3, 8, 48):
        J = random_jacobi(rng, n)
        for k in range(6):
            D = dense_power(J.v, J.c, k)
            P = power_bands(J.v, J.c, k)
            scale = np.max(np.abs(D))
            for d in range(-k, k + 1):
                want = np.zeros(n)
                rows = np.arange(max(0, -d), min(n, n - d))
                want[rows] = D[rows, rows + d]
                assert np.max(np.abs(P[k + d] - want)) <= 1e-13 * scale


def test_truncated_charpoly_matches_dense(rng):
    J = random_jacobi(rng, 5)
    L = J.to_dense()
    for k, p in [(0, 4), (1, 3), (2, 2), (3, 2)]:
        for z in (-1.3, 0.0, 2.2):
            want = 1.0 if k > p else np.linalg.det(L[k : p + 1, k : p + 1] - z * np.eye(p - k + 1))
            assert truncated_charpoly(J, k, p, z) == pytest.approx(want, rel=1e-10, abs=1e-12)
    with pytest.raises(IndexError):
        truncated_charpoly(J, -1, 2, 0.0)
    with pytest.raises(IndexError):
        truncated_charpoly(J, 0, 5, 0.0)


def test_pq_recurrence_definition(rng):
    # both families satisfy c_{j-1} X_{j-1} + v_j X_j + c_j X_{j+1} = z X_j
    # with the closing coefficient 1/prod(c) in the last slot
    J = random_jacobi(rng, 4)
    z = 0.83
    P, Q = pq_polynomials(J, z)
    cc = np.concatenate([J.c, [J.c_closure]])
    for X in (P, Q):
        for j in range(1, 4):
            lhs = cc[j - 1] * X[j - 1] + J.v[j] * X[j] + cc[j] * X[j + 1]
            assert lhs == pytest.approx(z * X[j], rel=1e-12, abs=1e-12)
    assert P[0] == 1.0 and Q[0] == 0.0
    assert Q[1] == pytest.approx(1.0 / J.c[0])


def test_pq_polynomials_shapes(worked):
    P, Q = pq_polynomials(worked, 0.5)
    assert np.isscalar(P[0]) or P[0].shape == ()
    Pa, Qa = pq_polynomials(worked, np.array([0.5, 1.5, 2.5]))
    assert Pa.shape == (3, 3)
    np.testing.assert_allclose(Pa[:, 0], np.asarray(P, dtype=float), rtol=1e-15)
    Pc, _ = pq_polynomials(worked, np.array([0.5 + 0.5j]))
    assert Pc.dtype == complex


def test_trace_power(rng):
    J = random_jacobi(rng, 5)
    L = J.to_dense()
    for m in (0, 1, 2, 3, 6):
        assert trace_power(J, m) == pytest.approx(np.trace(np.linalg.matrix_power(L, m)), rel=1e-11)
    assert trace_power(J, -1) == pytest.approx(np.trace(np.linalg.inv(L)), rel=1e-9)
    with pytest.raises(DomainViolation):
        trace_power(J, -2)


def test_trace_inverse_singular():
    with pytest.raises(SingularMatrix):
        trace_power(JacobiMatrix(v=np.zeros(1), c=np.zeros(0)), -1)
