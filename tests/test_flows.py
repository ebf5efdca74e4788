import io
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from opentoda import (
    DomainViolation,
    FlowSpec,
    JacobiMatrix,
    NonFiniteState,
    OverflowGuard,
    PhasePoint,
    ResidueUnderflow,
    SpectralData,
    Trajectory,
    direct_transform,
    eigen,
    evolve,
    exact_flow,
    flaschka,
    hamiltonian,
    hamiltonian_field,
    hamiltonian_gradient,
    lax_rhs,
    rk4,
    spectral_field,
    unflaschka,
)
from opentoda import flows, properties

from conftest import random_jacobi, random_spectral
from oracles import exact_evolve_loop, exact_flow_rho, lax_commutator, spectral_drifts


def test_flow_spec_validation():
    FlowSpec(k=2, method="rk4-hamiltonian", t_final=1.0, p=2)
    with pytest.raises(DomainViolation):
        FlowSpec(k=0, method="exact", t_final=1.0)
    with pytest.raises(DomainViolation):
        FlowSpec(k=1, method="euler", t_final=1.0)
    for dt in (0.0, np.inf, np.nan):
        with pytest.raises(DomainViolation):
            FlowSpec(k=1, method="exact", t_final=1.0, dt=dt)
    with pytest.raises(DomainViolation):
        FlowSpec(k=1, method="rk4-hamiltonian", t_final=1.0, p=2)


def test_hamiltonian_polymorphic(worked):
    # tr L^2/2 = 1 for the resting pair; the spectral route must agree
    assert hamiltonian(worked, 1) == pytest.approx(1.0, abs=1e-14)
    S = direct_transform(worked)
    assert hamiltonian(S, 1) == pytest.approx(1.0, abs=1e-14)
    assert hamiltonian(worked, 0) == pytest.approx(0.0, abs=1e-14)


def test_lax_rhs_worked(worked):
    vdot, cdot = lax_rhs(worked, 1)
    np.testing.assert_allclose(vdot, [1.0, -1.0])
    np.testing.assert_allclose(cdot, [0.0])


def test_lax_rhs_single_site():
    vdot, cdot = lax_rhs(JacobiMatrix(v=np.array([1.5]), c=np.zeros(0)), 1)
    np.testing.assert_allclose(vdot, [0.0])
    assert cdot.size == 0


def test_lax_rhs_matches_dense_oracle(rng):
    for n in (1, 2, 3, 8, 48):
        for k in range(1, 6):
            J = random_jacobi(rng, n)
            vdot, cdot = lax_rhs(J, k)
            want_v, want_c, _ = lax_commutator(J.v, J.c, k)
            scale = max(np.max(np.abs(want_v)), np.max(np.abs(want_c), initial=0.0))
            assert np.max(np.abs(vdot - want_v)) <= 1e-13 * scale
            assert np.max(np.abs(cdot - want_c), initial=0.0) <= 1e-13 * scale


def test_corrupted_power_bands_fail_lax_matches_hamiltonian(monkeypatch):
    def lax_property():
        report = properties.suite_hierarchy(np.random.default_rng(0), 4, 4)
        return next(r for r in report if r["property"] == "lax_matches_hamiltonian")

    assert lax_property()["pass"]
    power_bands = flows.power_bands
    # bands of L^k scaled unevenly no longer make a generator of an isospectral flow
    monkeypatch.setattr(
        flows, "power_bands",
        lambda v, c, k: power_bands(v, c, k) * np.arange(1, 2 * k + 2)[:, None],
    )
    got = lax_property()
    assert not got["pass"] and got["max_residual"] > 1e-3


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


def test_hamiltonian_field_single_site():
    J = JacobiMatrix(v=np.array([1.5]), c=np.zeros(0))
    for k in (1, 2, 3):
        for p in range(min(k, 2) + 1):
            vdot, cdot = hamiltonian_field(J, k, p)
            np.testing.assert_array_equal(vdot, [0.0])
            assert cdot.size == 0


def _rk4_step(field, x, h):
    k1 = field(x)
    k2 = field(x + 0.5 * h * k1)
    k3 = field(x + 0.5 * h * k2)
    k4 = field(x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def test_rk4_fields_are_the_public_right_hand_sides(rng):
    # one evolve step equals an RK4 step written out with lax_rhs or
    # hamiltonian_field, bit for bit
    n, h = 8, 1e-3
    J = random_jacobi(rng, n)
    x = np.concatenate([J.v, J.c])

    def public(rhs, *args):
        return lambda y: np.concatenate(rhs(JacobiMatrix(v=y[:n], c=y[n:]), *args))

    for k in (1, 2, 3):
        want = _rk4_step(public(lax_rhs, k), x, h)
        got = evolve(J, FlowSpec(k=k, method="rk4-lax", t_final=h, dt=h)).final_state
        np.testing.assert_array_equal(got, want)
        for p in range(min(k, 2) + 1):
            want = _rk4_step(public(hamiltonian_field, k, p), x, h)
            spec = FlowSpec(k=k, method="rk4-hamiltonian", t_final=h, dt=h, p=p)
            np.testing.assert_array_equal(evolve(J, spec).final_state, want)


def test_rk4_lax_and_hamiltonian_routes_agree_at_n48():
    # perfbench's evolve-rk4 jobs: n = 48, t = 0.2, dt = 1e-3 and states drawn as
    # here; on states as wide as random_jacobi's, RK4's own truncation error at
    # k = 3 and this dt already drifts the spectrum by about 1e-5
    rng = np.random.default_rng(48)
    J = JacobiMatrix(v=rng.uniform(-1.0, 1.0, 48), c=rng.uniform(0.5, 1.5, 47))
    for k in (1, 2, 3):
        lax = evolve(J, FlowSpec(k=k, method="rk4-lax", t_final=0.2), record_every=50)
        assert np.max(lax.spectrum_drift) <= 1e-8
        for p in range(min(k, 2) + 1):
            spec = FlowSpec(k=k, method="rk4-hamiltonian", t_final=0.2, p=p)
            ham = evolve(J, spec, record_every=50)
            assert np.max(np.abs(ham.final_state - lax.final_state)) <= 1e-10
            assert np.max(ham.spectrum_drift) <= 1e-8


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


def test_exact_flow_non_finite_time():
    # an input error, not a blow-up
    S = SpectralData(z=np.array([-1.0, 1.0]), rho=np.array([0.5, 0.5]))
    for t in (np.nan, np.inf, -np.inf):
        with pytest.raises(DomainViolation):
            exact_flow(S, 1, t)


def test_exact_flow_overflow_guard():
    S = SpectralData(z=np.array([-2.0, 2.0]), rho=np.array([0.5, 0.5]))
    with pytest.raises(OverflowGuard):
        exact_flow(S, 1, 1e308)
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
    assert traj.times[-1] == 0.55
    # interior records only every third step
    assert traj.times.size == 3


@pytest.mark.parametrize(
    "t_final, dt, every",
    [
        (0.2, 1e-3, 1),  # rows at 0.15 and friends, where summing h drifts
        (1.05, 0.1, 4),  # shortened last step; 4 does not divide 11 steps
        (0.9, 0.3, 2),  # 3 * 0.3 falls a rounding short of 0.9
        (0.3, 0.1, 10**30),  # endpoints only
        (0.0, 0.1, 1),
    ],
)
def test_rk4_and_exact_share_the_time_grid(rng, t_final, dt, every):
    J = random_jacobi(rng, 3)
    want = evolve(J, FlowSpec(k=1, method="exact", t_final=t_final, dt=dt), every).times
    assert want[-1] == t_final
    got = rk4(lambda x: -x, np.ones(2), dt, t_final, record_every=every).times
    np.testing.assert_array_equal(got, want)
    for method, p in (("rk4-lax", 0), ("rk4-hamiltonian", 1)):
        spec = FlowSpec(k=1, method=method, t_final=t_final, dt=dt, p=p)
        np.testing.assert_array_equal(evolve(J, spec, every).times, want)


def test_time_grid_ends_once_on_t_final():
    # t_final / dt a few ulps above an integer (9 / 3e-4) must not take a
    # zero-length extra step that records t_final twice; the step count is
    # that of the decimal numbers as written
    for dt in (1e-4, 2e-5, 3e-4, 7e-5, 1e-5):
        for i in range(1, 401):
            t_final = i / 10
            nsteps = flows._step_count(t_final, dt)
            assert nsteps == math.ceil(Fraction(repr(t_final)) / Fraction(repr(dt)))
            # records step 0 and the last two steps
            _, _, times = flows._time_grid(t_final, dt, max(1, nsteps - 1))
            assert np.all(np.diff(times) > 0), (t_final, dt)
            assert times[-1] == t_final, (t_final, dt)
    for t_final, dt, nsteps in ((10.0, 1e-3, 10**4), (10.0, 5e-3, 2000), (0.2, 1e-3, 200)):
        assert flows._step_count(t_final, dt) == nsteps
    # a t_final / dt that underflows to 0, or to a subnormal within the
    # slack, still takes one step to t_final
    for t_final, dt in ((1e-320, 1e10), (5e-324, 1.0), (1e-300, 1e10)):
        assert flows._step_count(t_final, dt) == 1
        assert flows._time_grid(t_final, dt, 1)[2].tolist() == [0.0, t_final]
    assert flows._step_count(0.0, 1e10) == 0


def test_rk4_last_step_lands_on_t_final():
    # x' = 1 integrates exactly, so the final state is the time covered
    for t_final, dt in ((0.55, 0.1), (0.9, 0.3), (0.2, 1e-3)):
        traj = rk4(lambda x: np.ones(1), np.zeros(1), dt, t_final, record_every=10**9)
        assert traj.final_state[0] == pytest.approx(t_final, rel=1e-15, abs=0.0)


def test_evolve_accepts_phase_points(rng):
    pt = unflaschka(random_jacobi(rng, 4), q0=0.3)
    for method in ("exact", "rk4-lax", "rk4-hamiltonian"):
        spec = FlowSpec(k=2, method=method, t_final=0.1, dt=0.01, p=1)
        got, want = evolve(pt, spec, 3), evolve(flaschka(pt), spec, 3)
        assert got.kind == want.kind
        for name in ("times", "states", "sum_rho_drift", "spectrum_drift"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.filterwarnings("ignore:invalid value")
def test_rk4_nonfinite_raises():
    with pytest.raises(NonFiniteState):
        rk4(lambda x: x**2, np.array([1.0]), 1e-2, 3.0)


def test_rk4_jacobi_rows_keep_c_positive():
    # c0' = -1 takes c0 = 0.55 through 0 in the sixth step; raw rows may change sign
    def field(x):
        return np.array([0.0, 0.0, -1.0])

    x0 = np.array([0.0, 0.0, 0.55])
    with pytest.raises(NonFiniteState, match="c > 0 in step 6 of 10"):
        rk4(field, x0, 0.1, 1.0, kind="jacobi", n=2)
    assert rk4(field, x0, 0.1, 1.0).states[-1, 2] == pytest.approx(-0.45)


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


def test_rk4_refuses_a_kind_before_the_first_step():
    calls = []

    def field(x):
        calls.append(1)
        return -x

    # spectral rows come only from evolve's exact method
    for kind in ("phase", "spectral"):
        with pytest.raises(DomainViolation):
            rk4(field, np.ones(4), 1e-5, 2.0, kind=kind, n=2)
    assert not calls


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
    assert len(doc["times"]) == len(traj.states)


def _jacobi_rows(rng, n, count):
    Js = [random_jacobi(rng, n) for _ in range(count)]
    return Js, np.array([np.concatenate([J.v, J.c]) for J in Js])


def test_trajectory_diagnostics_match_direct_transform(rng):
    for n in (1, 5, 48):
        Js, rows = _jacobi_rows(rng, n, 4)
        spectra = [direct_transform(J) for J in Js]
        traj = Trajectory.build("jacobi", n, np.arange(4.0), rows)
        for i, S in enumerate(spectra):
            scale = 1.0 + np.max(np.abs(S.z))
            want = np.max(np.abs(S.z - spectra[0].z))
            assert abs(traj.spectrum_drift[i] - want) <= 1e-12 * scale
        # the residues of an orthonormal eigenbasis sum to |e_0|^2 = 1
        np.testing.assert_array_equal(traj.sum_rho_drift, 0.0)


def test_trajectory_build_refuses_unknown_kinds():
    # phase rows are never recorded, spectral rows only by evolve's exact
    # method; an unknown kind is not read as one
    for kind in ("phase", "spectral", "cv", None):
        with pytest.raises(DomainViolation):
            Trajectory.build(kind, 1, [0.0], [[2.0]])
    # a trajectory has at least one row, which its JSON writer relies on
    with pytest.raises(DomainViolation, match="at least one row"):
        Trajectory.build("raw", 1, [], np.zeros((0, 1)))



def test_trajectory_build_refuses_states_of_the_wrong_shape():
    # one row per time, else states read rows past the end of the array
    for states in ([[1.0, 2.0]], [1.0, 2.0, 3.0], np.zeros((3, 2, 1)), np.zeros((3, 0))):
        with pytest.raises(DomainViolation, match="states of 3 rows, one per time"):
            Trajectory.build("raw", 2, [0.0, 1.0, 2.0], states)
    with pytest.raises(DomainViolation, match="need 1-D times"):
        Trajectory.build("raw", 1, [[0.0, 1.0]], [[1.0], [2.0]])
    # jacobi rows of n sites are 2n - 1 wide, else every diagnostic is NaN
    for width in (4, 6):
        with pytest.raises(DomainViolation, match="need 5 columns"):
            Trajectory.build("jacobi", 3, [0.0], np.ones((1, width)))

def test_trajectory_undiagnosable_rows_are_nan(rng, monkeypatch):
    _, rows = _jacobi_rows(rng, 4, 3)
    rows[1, 4] = -1.0  # c_0 <= 0 is not a Jacobi matrix
    traj = Trajectory.build("jacobi", 4, np.arange(3.0), rows)
    assert np.isnan(traj.sum_rho_drift[1]) and np.isnan(traj.spectrum_drift[1])
    np.testing.assert_array_equal(traj.sum_rho_drift[[0, 2]], 0.0)
    assert np.all(np.isfinite(traj.spectrum_drift[[0, 2]]))

    def no_convergence(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    def not_finite(a):
        return np.full(len(a), np.nan)

    for eigvalsh in (no_convergence, not_finite):
        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        traj = Trajectory.build("jacobi", 4, np.arange(3.0), rows)
        assert np.all(np.isnan(traj.sum_rho_drift)) and np.all(np.isnan(traj.spectrum_drift))


def test_trajectory_diagnostics_propagate_other_errors(rng, monkeypatch):
    _, rows = _jacobi_rows(rng, 4, 2)

    def broken(a):
        raise RuntimeError("not a Toda failure")

    monkeypatch.setattr(np.linalg, "eigvalsh", broken)
    with pytest.raises(RuntimeError, match="not a Toda failure"):
        Trajectory.build("jacobi", 4, np.arange(2.0), rows)


def test_step_budget():
    for method in ("exact", "rk4-lax"):
        with pytest.raises(DomainViolation, match="MAX_STEPS"):
            FlowSpec(k=1, method=method, t_final=1e9, dt=1e-9)
    # t_final / dt overflows to inf
    with pytest.raises(DomainViolation, match="MAX_STEPS"):
        FlowSpec(k=1, method="exact", t_final=1e300, dt=1e-300)
    with pytest.raises(DomainViolation, match="dt"):
        FlowSpec(k=1, method="exact", t_final=1.0, dt=float("nan"))
    FlowSpec(k=1, method="exact", t_final=float(flows.MAX_STEPS), dt=1.0)
    with pytest.raises(DomainViolation, match="MAX_STEPS"):
        rk4(lambda x: -x, np.array([1.0]), 1e-9, 1e9, record_every=10**9)


def test_entry_budget(rng, monkeypatch):
    # 11 rows (t = 0, 0.1, .., 1) of 2n = 4 spectral or 2n - 1 = 3 c-v doubles
    J = random_jacobi(rng, 2)
    monkeypatch.setattr(flows, "MAX_ENTRIES", 33)
    assert evolve(J, FlowSpec(k=1, method="rk4-lax", t_final=1.0, dt=0.1)).states.shape == (11, 3)
    with pytest.raises(DomainViolation, match="MAX_ENTRIES"):
        evolve(J, FlowSpec(k=1, method="exact", t_final=1.0, dt=0.1)).states
    # every other step: 6 rows
    assert evolve(J, FlowSpec(k=1, method="exact", t_final=1.0, dt=0.1), 2).times.size == 6
    monkeypatch.setattr(flows, "MAX_ENTRIES", 32)
    for method in ("rk4-lax", "rk4-hamiltonian"):
        with pytest.raises(DomainViolation, match="MAX_ENTRIES"):
            evolve(J, FlowSpec(k=1, method=method, t_final=1.0, dt=0.1))
    with pytest.raises(DomainViolation, match="MAX_ENTRIES"):
        rk4(lambda x: -x, np.ones(3), 0.1, 1.0)


def test_exact_flow_matches_one_time_formula(rng):
    for n in (1, 2, 7, 64):
        S = random_spectral(rng, n, min_gap=0.0)
        for k in (1, 2, 3):
            for t in (0.0, 1e-3, 0.7, -2.5, 40.0):
                try:
                    want = exact_flow_rho(S.z, S.rho, k, t)
                except ResidueUnderflow:
                    # a residue underflows to 0, a state refused as input
                    with pytest.raises(ResidueUnderflow):
                        exact_flow(S, k, t)
                    continue
                np.testing.assert_array_equal(exact_flow(S, k, t).rho, want)


@pytest.mark.parametrize(
    "n, t_final, dt, every",
    [
        (3, 1.0, 0.1, 1),
        (3, 1.0, 0.1, 3),
        (3, 1.05, 0.1, 4),  # t_final off the dt grid: the last step is short
        (3, 0.9, 0.3, 1),  # 3 * 0.3 falls a rounding short of t_final
        (3, 0.0, 0.1, 1),
        (3, 0.3, 0.1, 10**30),  # endpoints only, interval beyond int64
        (1, 0.5, 0.1, 1),
        (300, 0.6, 1e-3, 1),  # several blocks of rows
    ],
)
def test_evolve_exact_matches_exact_flow_loop(rng, n, t_final, dt, every):
    S = random_spectral(rng, n, min_gap=0.0)
    traj = evolve(S, FlowSpec(k=2, method="exact", t_final=t_final, dt=dt), record_every=every)
    times, states = exact_evolve_loop(S, 2, t_final, dt, every)
    np.testing.assert_array_equal(traj.times, times)
    np.testing.assert_array_equal(traj.states, states)
    sr, sd = spectral_drifts(n, states)
    np.testing.assert_array_equal(traj.sum_rho_drift, sr)
    np.testing.assert_array_equal(traj.spectrum_drift, sd)


def test_evolve_exact_overflow_guard():
    # z t is finite up to t = 1e8 and overflows from t = 2e8 on
    S = SpectralData(z=np.array([0.0, 1e300]), rho=np.array([0.5, 0.5]))
    for every in (1, 3):
        with pytest.raises(OverflowGuard, match="exponents"):
            evolve(S, FlowSpec(k=1, method="exact", t_final=4e8, dt=1e8), record_every=every)
        with pytest.raises(OverflowGuard, match="exponents"):
            exact_evolve_loop(S, 1, 4e8, 1e8, every)


def test_exact_rho_raises_for_the_first_failing_row():
    # at t = -1000 the dominant exponent sits on a zero residue, so the mass
    # underflows; at t = -1e10, z t overflows
    z = np.array([-1.0, 1e300])
    rho = np.array([0.0, 1.0])
    for times, match in (((-1000.0, -1e10), "underflow"), ((-1e10, -1000.0), "exponents")):
        with pytest.raises(OverflowGuard, match=match):
            flows._exact_rho(z, rho, 1, np.array(times))
        with pytest.raises(OverflowGuard, match=match):
            exact_flow_rho(z, rho, 1, times[0])


def test_exact_flow_refuses_a_zero_residue():
    # rho0 = e^{-600 t} / (1 + e^{-600 t}) underflows to 0 from t = 2 on,
    # and z t overflows at t = 1e306; the first failing row raises, and a
    # row's exponents are checked before its residues
    S = SpectralData(z=np.array([-300.0, 300.0]), rho=np.array([0.5, 0.5]))
    assert exact_flow(S, 1, 1.0).rho[0] > 0.0
    with pytest.raises(ResidueUnderflow, match="t = 2.0"):
        exact_flow(S, 1, 2.0)
    with pytest.raises(ResidueUnderflow):
        exact_flow_rho(S.z, S.rho, 1, 2.0)
    for times, match in (((2.0, 1e306), "underflows to 0"), ((1e306, 2.0), "exponents")):
        with pytest.raises(OverflowGuard, match=match):
            flows._exact_rho(S.z, S.rho, 1, np.array(times))
    # a run checks its last row before it makes any
    spec = FlowSpec(k=1, method="exact", t_final=3.0, dt=1.0)
    with pytest.raises(ResidueUnderflow, match="t = 3.0"):
        evolve(S, spec)
    with pytest.raises(ResidueUnderflow):
        exact_evolve_loop(S, 1, 3.0, 1.0)
    assert evolve(S, FlowSpec(k=1, method="exact", t_final=1.0, dt=0.5)).states[-1, 2] > 0.0


def test_exact_final_state_holds_one_block(rng, monkeypatch):
    S = random_spectral(rng, 5, min_gap=0.0)
    # 7001 rows: several blocks of residues
    traj = evolve(S, FlowSpec(k=2, method="exact", t_final=0.7, dt=1e-4))
    assert traj.times.size > 2 * (flows._EXACT_BLOCK // S.n)
    monkeypatch.setattr(flows, "MAX_ENTRIES", traj.times.size * 2 * S.n - 1)
    with pytest.raises(DomainViolation, match="MAX_ENTRIES"):
        traj.states
    want = np.concatenate([S.z, exact_flow(S, 2, 0.7).rho])
    # final_state evaluates the last block alone
    calls = []
    exact_rho = flows._exact_rho

    def counted(*args):
        calls.append(args)
        return exact_rho(*args)

    monkeypatch.setattr(flows, "_exact_rho", counted)
    np.testing.assert_array_equal(traj.final_state, want)
    assert len(calls) == 1


def test_exact_run_peak_memory_per_row():
    # per row an exact run keeps its time and its residue drift, 8 bytes
    # each, beside one block of residues: spectrum_drift is a broadcast 0,
    # and the step indices are freed before the drift is made
    S = SpectralData(z=np.array([-0.5, 0.5]), rho=np.array([0.5, 0.5]))
    spec = FlowSpec(k=1, method="exact", t_final=200.0, dt=1e-3)
    tracemalloc.start()
    try:
        traj = evolve(S, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.times.size == 200001
    assert peak <= 20 * traj.times.size
