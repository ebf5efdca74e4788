import io

import numpy as np
import pytest

from opentoda import (
    DomainViolation,
    FlowSpec,
    JacobiMatrix,
    NonFiniteState,
    OverflowGuard,
    SpectralData,
    StructureViolation,
    Trajectory,
    direct_transform,
    eigen,
    evolve,
    exact_flow,
    hamiltonian,
    hamiltonian_field,
    hamiltonian_gradient,
    lax_a,
    lax_rhs,
    rk4,
    spectral_field,
    unflaschka,
)
from opentoda import flows

from conftest import random_jacobi, random_spectral
from oracles import lax_commutator


def test_flow_spec_validation():
    FlowSpec(k=2, method="rk4-hamiltonian", t_final=1.0, p=2)
    with pytest.raises(DomainViolation):
        FlowSpec(k=0, method="exact", t_final=1.0)
    with pytest.raises(DomainViolation):
        FlowSpec(k=1, method="euler", t_final=1.0)
    with pytest.raises(DomainViolation):
        FlowSpec(k=1, method="exact", t_final=1.0, dt=0.0)
    with pytest.raises(DomainViolation):
        FlowSpec(k=1, method="rk4-hamiltonian", t_final=1.0, p=2)


def test_hamiltonian_polymorphic(worked):
    # tr L^2/2 = 1 for the resting pair; the spectral route must agree
    assert hamiltonian(worked, 1) == pytest.approx(1.0, abs=1e-14)
    S = direct_transform(worked)
    assert hamiltonian(S, 1) == pytest.approx(1.0, abs=1e-14)
    assert hamiltonian(worked, 0) == pytest.approx(0.0, abs=1e-14)


def test_lax_a_worked(worked):
    np.testing.assert_allclose(lax_a(worked, 1), [[0.0, 0.5], [-0.5, 0.0]])
    A2 = lax_a(worked, 2)
    np.testing.assert_allclose(A2, np.zeros((2, 2)), atol=1e-15)


def test_lax_rhs_worked(worked):
    vdot, cdot = lax_rhs(worked, 1)
    np.testing.assert_allclose(vdot, [1.0, -1.0])
    np.testing.assert_allclose(cdot, [0.0])


def test_lax_rhs_single_site():
    vdot, cdot = lax_rhs(JacobiMatrix(v=np.array([1.5]), c=np.zeros(0)), 1)
    np.testing.assert_allclose(vdot, [0.0])
    assert cdot.size == 0


def test_lax_matches_dense_commutator(rng):
    for k in (1, 2, 3):
        J = random_jacobi(rng, 5)
        L = J.to_dense()
        A = lax_a(J, k)
        C = A @ L - L @ A
        vdot, cdot = lax_rhs(J, k)
        np.testing.assert_allclose(vdot, np.diag(C), atol=1e-10 * max(1, np.max(np.abs(C))))
        np.testing.assert_allclose(cdot, np.diag(C, 1), atol=1e-10 * max(1, np.max(np.abs(C))))


def test_lax_rhs_matches_dense_oracle(rng):
    for n in (1, 2, 3, 8, 48):
        for k in range(1, 6):
            J = random_jacobi(rng, n)
            vdot, cdot = lax_rhs(J, k)
            want_v, want_c, _ = lax_commutator(J.v, J.c, k)
            scale = max(np.max(np.abs(want_v)), np.max(np.abs(want_c), initial=0.0))
            assert np.max(np.abs(vdot - want_v)) <= 1e-13 * scale
            assert np.max(np.abs(cdot - want_c), initial=0.0) <= 1e-13 * scale


def test_lax_rhs_structure_violation(rng, monkeypatch):
    J = random_jacobi(rng, 6)
    power_bands = flows.power_bands
    # bands of L^k scaled unevenly no longer make a generator of an isospectral flow
    monkeypatch.setattr(
        flows, "power_bands",
        lambda v, c, k: power_bands(v, c, k) * np.arange(1, 2 * k + 2)[:, None],
    )
    with pytest.raises(StructureViolation):
        lax_rhs(J, 2)


def test_hamiltonian_gradient_bands(rng):
    J = random_jacobi(rng, 4)
    L3 = np.linalg.matrix_power(J.to_dense(), 3)
    g = hamiltonian_gradient(J, 3)
    np.testing.assert_allclose(g[:4], np.diag(L3), rtol=1e-12)
    np.testing.assert_allclose(g[4:], 2.0 * np.diag(L3, 1), rtol=1e-12)


def test_hamiltonian_field_p_agreement(rng):
    for k in (1, 2, 3):
        J = random_jacobi(rng, 4)
        fields = [hamiltonian_field(J, k, p) for p in range(min(k, 2) + 1)]
        scale = max(1.0, max(np.max(np.abs(np.concatenate(f))) for f in fields))
        for vdot, cdot in fields[1:]:
            assert np.max(np.abs(vdot - fields[0][0])) <= 1e-10 * scale
            assert np.max(np.abs(cdot - fields[0][1])) <= 1e-10 * scale


def test_hamiltonian_field_matches_lax(rng):
    J = random_jacobi(rng, 5)
    for k in (1, 2):
        vdot, cdot = hamiltonian_field(J, k, 0)
        lv, lc = lax_rhs(J, k)
        scale = max(1.0, np.max(np.abs(lv)), np.max(np.abs(lc)))
        np.testing.assert_allclose(vdot, lv, atol=1e-10 * scale)
        np.testing.assert_allclose(cdot, lc, atol=1e-10 * scale)


def test_spectral_field_worked(worked):
    S = direct_transform(worked)
    zdot, rhodot = spectral_field(S, 1)
    np.testing.assert_allclose(zdot, [0.0, 0.0])
    np.testing.assert_allclose(rhodot, [-0.5, 0.5], atol=1e-14)


def test_exact_flow_worked(worked):
    S = direct_transform(worked)
    St = exact_flow(S, 1, np.log(2.0))
    np.testing.assert_allclose(St.rho, [0.2, 0.8], atol=1e-14)
    np.testing.assert_array_equal(St.z, S.z)


def test_exact_flow_semigroup(rng):
    S = random_spectral(rng, 5)
    for k in (1, 2):
        one = exact_flow(S, k, 1.1)
        two = exact_flow(exact_flow(S, k, 0.7), k, 0.4)
        np.testing.assert_allclose(two.rho, one.rho, atol=1e-12)


def test_exact_flow_long_time_concentrates(worked):
    S = direct_transform(worked)
    St = exact_flow(S, 1, 50.0)
    assert abs(St.rho[1] - 1.0) <= 1e-10
    # time reversal concentrates on the bottom of the spectrum
    Sb = exact_flow(S, 1, -50.0)
    assert abs(Sb.rho[0] - 1.0) <= 1e-10


def test_exact_flow_zero_time(rng):
    S = random_spectral(rng, 4)
    St = exact_flow(S, 2, 0.0)
    np.testing.assert_array_equal(St.rho, S.rho)


def test_exact_flow_overflow_guard():
    S = SpectralData(z=np.array([-1.0, 1.0]), rho=np.array([0.5, 0.5]))
    with pytest.raises(OverflowGuard):
        exact_flow(S, 1, np.inf)
    Sbig = SpectralData(z=np.array([-1e103, 1e103]), rho=np.array([0.5, 0.5]))
    with pytest.raises(OverflowGuard):
        exact_flow(Sbig, 3, 1.0)


def test_rk4_linear_decay_and_order():
    field = lambda x: -x
    errs = []
    for dt in (0.01, 0.005):
        traj = rk4(field, np.array([1.0]), dt, 1.0)
        errs.append(abs(traj.final_state[0] - np.exp(-1.0)))
    assert errs[0] / errs[1] > 12.0  # fourth order: ratio near 16
    assert errs[1] < 1e-11


def test_rk4_records_endpoints():
    traj = rk4(lambda x: -x, np.array([1.0]), 0.1, 0.55, record_every=3)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(0.55)
    # interior records only every third step
    assert traj.times.size == 3


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.filterwarnings("ignore:invalid value")
def test_rk4_nonfinite_raises():
    with pytest.raises(NonFiniteState):
        rk4(lambda x: x**2, np.array([1.0]), 1e-2, 3.0)


def test_rk4_validation(worked):
    with pytest.raises(DomainViolation):
        rk4(lambda x: -x, np.array([1.0]), -0.1, 1.0)
    with pytest.raises(DomainViolation):
        rk4(lambda x: -x, np.array([1.0]), 0.1, -1.0)
    for every in (0, -1):
        with pytest.raises(DomainViolation):
            rk4(lambda x: -x, np.array([1.0]), 0.1, 1.0, record_every=every)
        for method in ("exact", "rk4-lax"):
            with pytest.raises(DomainViolation):
                evolve(worked, FlowSpec(k=1, method=method, t_final=0.2, dt=0.1), record_every=every)


def test_evolve_exact_matches_direct_call(worked):
    traj = evolve(worked, FlowSpec(k=1, method="exact", t_final=np.log(2.0), dt=np.log(2.0) / 4))
    assert traj.kind == "spectral"
    np.testing.assert_allclose(traj.final_state[2:], [0.2, 0.8], atol=1e-14)
    np.testing.assert_allclose(traj.sum_rho_drift, 0.0, atol=1e-14)


def test_evolve_rk4_lax_matches_exact(rng):
    J = random_jacobi(rng, 4)
    spec = FlowSpec(k=1, method="rk4-lax", t_final=1.0, dt=1e-3)
    traj = evolve(J, spec, record_every=200)
    S_end = direct_transform(JacobiMatrix(v=traj.final_state[:4], c=traj.final_state[4:]))
    S_ref = exact_flow(direct_transform(J), 1, 1.0)
    np.testing.assert_allclose(S_end.z, S_ref.z, atol=1e-9)
    np.testing.assert_allclose(S_end.rho, S_ref.rho, atol=1e-9)


def test_evolve_rk4_hamiltonian_p_variants_agree(rng):
    J = random_jacobi(rng, 3)
    ends = []
    for p in (0, 1, 2):
        spec = FlowSpec(k=2, method="rk4-hamiltonian", t_final=0.5, dt=1e-3, p=p)
        ends.append(evolve(J, spec, record_every=100).final_state)
    np.testing.assert_allclose(ends[1], ends[0], atol=1e-9)
    np.testing.assert_allclose(ends[2], ends[0], atol=1e-9)


def test_eigenvalue_drift_along_lax_flow(rng):
    J = random_jacobi(rng, 4)
    z0, _ = eigen(J)
    traj = evolve(J, FlowSpec(k=2, method="rk4-lax", t_final=1.0, dt=1e-3), record_every=100)
    assert np.max(traj.spectrum_drift) <= 1e-8
    z1, _ = eigen(JacobiMatrix(v=traj.final_state[:4], c=traj.final_state[4:]))
    assert np.max(np.abs(z1 - z0)) <= 1e-9


def test_trajectory_csv_roundtrip(worked):
    traj = evolve(worked, FlowSpec(k=1, method="exact", t_final=0.4, dt=0.1))
    buf = io.StringIO()
    traj.to_csv(buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "t,z0,z1,rho0,rho1,sum_rho_drift,spectrum_drift"
    assert len(lines) == 1 + traj.times.size
    # 17 significant digits round-trip the doubles exactly
    cells = [float(x) for x in lines[-1].split(",")]
    assert cells[0] == traj.times[-1]
    np.testing.assert_array_equal(cells[1:5], traj.final_state)


def test_trajectory_payload(worked):
    traj = evolve(worked, FlowSpec(k=1, method="exact", t_final=0.2, dt=0.1))
    doc = traj.to_payload()
    assert doc["kind"] == "spectral" and doc["n"] == 2
    assert doc["fields"] == ["z0", "z1", "rho0", "rho1"]
    assert len(doc["times"]) == len(doc["states"])


def _jacobi_rows(rng, n, count):
    Js = [random_jacobi(rng, n) for _ in range(count)]
    return Js, np.array([np.concatenate([J.v, J.c]) for J in Js])


def test_trajectory_diagnostics_match_direct_transform(rng):
    for n in (1, 5, 48):
        Js, rows = _jacobi_rows(rng, n, 4)
        phase = np.array([np.concatenate([P.q, P.p]) for P in map(unflaschka, Js)])
        spectra = [direct_transform(J) for J in Js]
        for kind, states in (("jacobi", rows), ("phase", phase)):
            traj = Trajectory.build(kind, n, np.arange(4.0), states)
            for i, S in enumerate(spectra):
                z, rho = flows._spectral_view(kind, n, states[i])
                scale = 1.0 + np.max(np.abs(S.z))
                assert np.max(np.abs(z - S.z)) <= 1e-12 * scale
                assert abs(np.sum(rho) - np.sum(S.rho)) <= 1e-12
                want = np.max(np.abs(S.z - spectra[0].z))
                assert abs(traj.spectrum_drift[i] - want) <= 1e-12 * scale
            assert np.max(traj.sum_rho_drift) <= 1e-12


def test_trajectory_undiagnosable_rows_are_nan(rng, monkeypatch):
    _, rows = _jacobi_rows(rng, 4, 3)
    rows[1, 4] = -1.0  # c_0 <= 0 is not a Jacobi matrix
    traj = Trajectory.build("jacobi", 4, np.arange(3.0), rows)
    assert np.isnan(traj.sum_rho_drift[1]) and np.isnan(traj.spectrum_drift[1])
    assert np.all(np.isfinite(traj.spectrum_drift[[0, 2]]))

    def no_convergence(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    traj = Trajectory.build("jacobi", 4, np.arange(3.0), rows)
    assert np.all(np.isnan(traj.sum_rho_drift)) and np.all(np.isnan(traj.spectrum_drift))


def test_trajectory_diagnostics_propagate_other_errors(rng, monkeypatch):
    _, rows = _jacobi_rows(rng, 4, 2)

    def broken(a):
        raise RuntimeError("not a Toda failure")

    monkeypatch.setattr(np.linalg, "eigh", broken)
    with pytest.raises(RuntimeError, match="not a Toda failure"):
        Trajectory.build("jacobi", 4, np.arange(2.0), rows)
