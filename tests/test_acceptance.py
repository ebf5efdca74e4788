"""Acceptance gate: ten numbered end-to-end properties at fixed tolerances.

Each test prints a single pass/fail line so the whole gate reads as a
checklist under pytest -s. Seeds are pinned; the full file targets well
under a minute. Tolerances, residuals and the worked example shared with
`toda verify` and `toda demo` come from opentoda.properties.
"""

import numpy as np

from conftest import random_jacobi, random_spectral
from opentoda import (
    FlowSpec,
    JacobiMatrix,
    analytic_bracket,
    bracket_terms,
    closed_form_bracket,
    direct_transform,
    evolve,
    exact_flow,
    gammas,
    inverse_transform,
    jacobi_residual,
    weyl_eval,
    zrho_pack,
    zrho_restricted_tensor,
    zrho_tensor,
    WeightFn,
)
from opentoda.properties import (
    TOL,
    WORKED_TOL,
    action_angle_deviation,
    constraint_casimir_residuals,
    corrupt,
    cv_casimir_residuals,
    dirac_residuals,
    gamma_pi_deviation,
    iy_deviation,
    p_agreement_gaps,
    restricted_flow_gap,
    roundtrip_gap,
    weyl_routes_gap,
    worked_example,
)

ONE = WeightFn.power(0)
Z = WeightFn.power(1)


def tol_of(*names):
    """The tolerance a residual shared by several verify properties must meet."""
    return min(TOL[name] for name in names)


def report(tag, worst, tol):
    status = "PASS" if worst <= tol else "FAIL"
    print(f"{tag}: {status}  worst={worst:.3e}  tol={tol:.1e}")
    assert worst <= tol, f"{tag}: worst residual {worst:.3e} exceeds {tol:.1e}"


def test_ac01_round_trip():
    rng = np.random.default_rng(101)
    worst = 0.0
    for trial in range(200):
        n = 1 + trial % 8
        J = random_jacobi(rng, n)
        worst = max(worst, roundtrip_gap(J, inverse_transform(direct_transform(J))))
    report("AC1 round trip (200 matrices, N in 1..8)", worst, TOL["roundtrip_lanczos"])
    # localized families whose smallest residues reach 1e-30 and below
    rng = np.random.default_rng(111)
    worst = 0.0
    for n in (64, 128):
        for _ in range(5):
            J = JacobiMatrix(v=rng.uniform(-1.0, 1.0, n), c=rng.uniform(0.5, 1.5, n - 1))
            worst = max(worst, roundtrip_gap(J, inverse_transform(direct_transform(J))))
    report("AC1 round trip (10 matrices, N in {64, 128})", worst, TOL["roundtrip_lanczos"])


def test_ac02_spectral_representation():
    rng = np.random.default_rng(102)
    worst_mass = 0.0
    worst_chi = 0.0
    for trial in range(60):
        n = 2 + trial % 6
        J = random_jacobi(rng, n)
        S = direct_transform(J)
        assert np.all(S.rho > 0)
        worst_mass = max(worst_mass, abs(float(np.sum(S.rho)) - 1.0))
        g, _ = gammas(S)
        assert np.all(S.z[:-1] < g) and np.all(g < S.z[1:])
        # four routes to the same function, compared pairwise off the poles
        x = rng.uniform(-6.0, 6.0, size=5)
        keep = np.abs(x[:, None] - S.z[None, :]).min(axis=1) > 0.3
        if keep.any():
            worst_chi = max(worst_chi, weyl_routes_gap(S, J, x[keep]))
    report("AC2a spectral class (rho > 0, unit mass, interlacing)", worst_mass, TOL["residue_mass"])
    report("AC2b Weyl function, four routes pairwise", worst_chi, TOL["weyl_three_routes"])


def sample_points(rng, S):
    # keep evaluation points away from the poles so the closed forms are
    # compared at full precision, not through cancellation noise
    while True:
        p, q = rng.uniform(-8.0, 8.0, size=2)
        d = np.abs(S.z - p).min(), np.abs(S.z - q).min()
        if abs(p - q) > 0.5 and min(d) > 0.5:
            return p, q


def test_ac03_closed_forms_and_infinity_residue():
    rng = np.random.default_rng(103)
    worst = 0.0
    worst_ext = 0.0
    biggest_corr = 0.0
    for trial in range(50):
        n = 2 + trial % 4
        S = random_spectral(rng, n, rho_floor=1e-2)
        p, q = sample_points(rng, S)
        for f in (ONE, Z):
            for restricted in (False, True):
                got = float(np.sum(bracket_terms(S, p, q, f, restricted=restricted)))
                want = closed_form_bracket(S, p, q, f, restricted=restricted)
                worst = max(worst, abs(got - want) / (1.0 + abs(want)))
        # f = z^2: the plain exterior form misses the residue at infinity;
        # adding q0 (chi(p) - chi(q)) closes the gap exactly
        chi_p, chi_q = weyl_eval(S, p), weyl_eval(S, q)
        exterior = (p**2 * chi_p - q**2 * chi_q) * (chi_p - chi_q) / (p - q)
        corr = float(np.sum(S.rho)) * (chi_p - chi_q)
        got2 = analytic_bracket(S, p, q, WeightFn.power(2))
        worst_ext = max(worst_ext, abs(got2 - (exterior + corr)) / (1.0 + abs(got2)))
        biggest_corr = max(biggest_corr, abs(corr))
    report("AC3a closed forms f=1, z (50 states, both variants)", worst, 1e-12)
    report("AC3b f=z^2 exterior + infinity residue", worst_ext, 1e-12)
    print(f"AC3c infinity residue nonzero for f=z^2: max |corr| = {biggest_corr:.3e}")
    assert biggest_corr > 1e-6


def test_ac04_jacobi_identity():
    rng = np.random.default_rng(104)
    powers = [0, 1, 2, 3]
    worst = 0.0
    for trial in range(100):
        n = 2 + trial % 4
        f = WeightFn.power(powers[trial % 4])
        S = random_spectral(rng, n, rho_floor=1e-2)
        x = zrho_pack(S)
        for P in (zrho_tensor(f, n), zrho_restricted_tensor(f, n)):
            worst = max(worst, jacobi_residual(P, x))
    report(
        "AC4a Jacobi identity (both tensors, f=z^0..z^3)",
        worst,
        tol_of("jacobi_identity", "jacobi_identity_restricted"),
    )

    # negative control: one corrupted entry must be caught loudly
    S = random_spectral(rng, 3, rho_floor=1e-2)
    res = jacobi_residual(corrupt(zrho_tensor(Z, 3), 0.05), zrho_pack(S))
    print(f"AC4b negative control residual = {res:.3e} (must exceed 1e-3)")
    assert res > 1e-3


def test_ac05_dirac_reduction():
    rng = np.random.default_rng(105)
    worst = 0.0
    worst_pair = 0.0
    for trial in range(30):
        n = 2 + trial % 4
        m = trial % 3
        S = random_spectral(rng, n, positive=m >= 1, rho_floor=1e-2)
        gap, pair = dirac_residuals(WeightFn.power(m), S)
        worst = max(worst, gap)
        worst_pair = max(worst_pair, pair)
    report("AC5a dirac_restrict matches the closed-form tensor", worst, TOL["dirac_matches_closed_form"])
    report("AC5b constraint pairing {Phi1, Phi2} = 1", worst_pair, TOL["constraint_bracket_unit"])


def test_ac06_hierarchy_degeneracy():
    rng = np.random.default_rng(106)
    worst = 0.0
    for trial in range(50):
        n = 2 + trial % 4
        J = random_jacobi(rng, n)
        for k in (1, 2, 3):
            worst = max(worst, *p_agreement_gaps(J, k))
    report("AC6 hamiltonian_field p-degeneracy (k <= 3)", worst, TOL["hamiltonian_field_p_agreement"])


def test_ac07_flow_equivalence():
    rng = np.random.default_rng(107)
    worst_alg = 0.0
    for trial in range(40):
        n = 2 + trial % 4
        k = 1 + trial % 3
        p = trial % (min(k, 2) + 1)
        S = random_spectral(rng, n, positive=p >= 1, rho_floor=1e-2)
        worst_alg = max(worst_alg, restricted_flow_gap(S, k, p))
    report(
        "AC7a restricted tensor gradient flow = hierarchy ODE",
        worst_alg,
        TOL["restricted_tensor_flow"],
    )

    worst_flow = 0.0
    worst_drift = 0.0
    for seed in (1, 2):
        rng2 = np.random.default_rng(170 + seed)
        S = random_spectral(rng2, 3, rho_floor=5e-2)
        J = inverse_transform(S)
        spec = FlowSpec(k=1, method="rk4-lax", t_final=5.0, dt=1e-3)
        traj = evolve(J, spec, record_every=1000)
        worst_drift = max(worst_drift, float(np.max(traj.spectrum_drift)))
        end = traj.final_state
        got = direct_transform(JacobiMatrix(v=end[:3], c=end[3:]))
        want = exact_flow(S, 1, 5.0)
        worst_flow = max(
            worst_flow,
            float(np.max(np.abs(got.z - want.z))),
            float(np.max(np.abs(got.rho - want.rho))),
        )
    report("AC7b RK4 Lax flow vs exact flow at t=5", worst_flow, 1e-7)
    report("AC7c eigenvalue drift along the Lax flow", worst_drift, 1e-8)


def test_ac08_casimirs():
    rng = np.random.default_rng(108)
    worst = 0.0
    for trial in range(25):
        n = 2 + trial % 4
        J = random_jacobi(rng, n)
        worst = max(worst, *cv_casimir_residuals(J))
        m = trial % 3
        S = random_spectral(rng, n, positive=m >= 1, rho_floor=1e-2)
        worst = max(worst, *constraint_casimir_residuals(WeightFn.power(m), S))
    tol = tol_of(
        "pi0_trace_casimir",
        "pi1_det_casimir",
        "pi2_trace_inverse_casimir",
        "restricted_constraint_casimirs",
    )
    report("AC8 Casimir residuals (pi0, pi1, pi2, restricted pair)", worst, tol)


def test_ac09_darboux_charts():
    rng = np.random.default_rng(109)
    worst = 0.0
    for trial in range(8):
        n = 2 + trial % 3
        # chart Jacobians go through central differences; keep the states away
        # from pole collisions and vanishing residues
        for f, positive in ((ONE, False), (Z, True)):
            S = random_spectral(rng, n, positive=positive, min_gap=0.4, rho_floor=0.05)
            worst = max(worst, iy_deviation(f, S))
        S = random_spectral(rng, n, min_gap=0.4, rho_floor=0.05)
        worst = max(worst, action_angle_deviation(S), gamma_pi_deviation(S))
    tol = tol_of("iy_canonical", "action_angle_canonical", "gamma_pi_canonical")
    report("AC9 Darboux charts (I-y, action-angle, gamma-pi)", worst, tol)


def test_ac10_worked_example():
    worst = max(
        float(np.max(np.abs(np.asarray(got, dtype=float) - want)))
        for _, got, want in worked_example()
    )
    report("AC10 pinned two-site worked example", worst, WORKED_TOL)
