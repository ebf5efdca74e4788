"""The verified properties of the package, defined once.

`toda verify`, `toda demo` and the acceptance gate in tests/ all read their
tolerances, random states, residuals and suites from here:

- TOL, the tolerance of each property that `toda verify` reports;
- Draws, the seeded source of `toda verify`, and the seeded generators of
  random Jacobi matrices and spectral data;
- the residuals shared by the verify suites and the tests: the transform
  round trip, the four routes to the Weyl function, the p-degeneracy of the
  Hamiltonian fields, the Casimirs of pi_0, pi_1, pi_2 in the c-v chart, the
  constraint pair on the restricted tensor, the Dirac reduction and its
  constraint pairing, the restricted tensor as the generator of the
  hierarchy flows, the Darboux charts paired with the tensor each makes
  canonical, and the z-q relations;
- corrupt, a tensor that the Jacobi identity check must reject;
- the pinned two-site worked example;
- the five suites of `toda verify`, each a list of properties measured on
  seeded random states."""

import dataclasses
import math
import random

import numpy as np

from .brackets import (
    Observable,
    WeightFn,
    action_sum,
    bracket_terms,
    casimir_residual,
    cv_pack,
    dirac_restrict,
    jacobi_residual,
    neg_log_mass,
    pi0_cv,
    pi1_cv,
    pi2_cv,
    pi_cv_indices,
    zrho_pack,
    zrho_restricted_tensor,
    zrho_tensor,
)
from .charts import (
    action_angle_map,
    gamma_pi_map,
    iy_map,
    numerator_values,
    verify_canonical,
)
from .errors import DomainViolation
from .flows import exact_flow, hamiltonian_field, lax_rhs, spectral_field
from .spectral import (
    SpectralData,
    direct_transform,
    gammas,
    inverse_transform,
    inverse_transform_stieltjes,
    weyl_eval,
    weyl_rat,
)
from .tridiag import JacobiMatrix, PhasePoint, flaschka, pq_polynomials

# Largest residual each property of `toda verify` accepts, by property name.
TOL = {
    "roundtrip_lanczos": 1e-10,
    "roundtrip_stieltjes": 1e-10,
    "weyl_three_routes": 1e-8,
    "residue_mass": 1e-10,
    "jacobi_identity": 1e-6,
    "jacobi_identity_restricted": 1e-6,
    "dirac_matches_closed_form": 1e-10,
    "constraint_bracket_unit": 1e-9,
    "hamiltonian_field_p_agreement": 1e-10,
    "lax_matches_hamiltonian": 1e-10,
    "restricted_tensor_flow": 1e-13,
    "exact_flow_semigroup": 1e-12,
    "iy_canonical": 1e-6,
    "action_angle_canonical": 1e-6,
    "gamma_pi_canonical": 1e-6,
    "zq_relations": 1e-6,
    "pi0_trace_casimir": 1e-9,
    "pi1_det_casimir": 1e-9,
    "pi2_trace_inverse_casimir": 1e-9,
    "restricted_constraint_casimirs": 1e-9,
}

# Largest error each check of the worked example accepts.
WORKED_TOL = 1e-12


# ---------------------------------------------------------------------------
# seeded generators

class Draws:
    """The seeded source of `toda verify`: the two draws of numpy's Generator
    that the generators below call, taken from the standard library's
    Mersenne Twister, random.Random(seed), so that verify never loads
    numpy.random, which imports OpenSSL through `secrets`.

    Only Random.random is used, whose stream Python keeps fixed across
    versions for an integer seed; the exponentials go through math.log, not
    numpy's CPU-dispatched log, so the draws are the same bytes everywhere.
    """

    def __init__(self, seed):
        self._random = random.Random(seed).random

    def uniform(self, low, high, size):
        """size points uniform on [low, high)."""
        return low + (high - low) * np.array([self._random() for _ in range(size)])

    def dirichlet(self, alpha):
        """A point uniform on the simplex: normalized unit exponentials. Only
        the flat alpha = (1, .., 1) is drawn; any other alpha raises."""
        alpha = np.asarray(alpha, dtype=float)
        if alpha.ndim != 1 or np.any(alpha != 1.0):
            raise ValueError(f"Draws.dirichlet draws only a flat alpha of ones, not {alpha}")
        e = np.array([-math.log(1.0 - self._random()) for _ in range(alpha.size)])
        return e / np.sum(e)


def random_jacobi(rng, n):
    """v ~ U(-3, 3), c ~ U(0.1, 3)."""
    v = rng.uniform(-3.0, 3.0, size=n)
    c = rng.uniform(0.1, 3.0, size=n - 1)
    return JacobiMatrix(v=v, c=c)


def random_spectral(rng, n, positive=False, min_gap=0.05, rho_floor=1e-2):
    """Sorted poles uniform on [-3, 3] (on [0.5, 6] when positive), spaced at
    least min_gap apart, and residues uniform on the flat simplex, each at
    least rho_floor; DomainViolation when no such state exists.

    Each is one direct draw: n sorted uniform points on an interval shorter
    by (n - 1) min_gap with the k-th shifted up by k min_gap, a bijection
    with unit Jacobian onto the spaced points; and rho_floor +
    (1 - n rho_floor) times a flat simplex point, an affine bijection onto
    the part of the simplex above the floor. Both are therefore uniform on
    their constrained sets, as rejection of unconstrained draws would give.
    """
    lo, hi = (0.5, 6.0) if positive else (-3.0, 3.0)
    room = hi - lo - (n - 1) * min_gap
    if n > 1 and not room > 0:
        raise DomainViolation(f"{n} poles in [{lo}, {hi}] cannot be spaced {min_gap} apart")
    if n * rho_floor > 1:
        raise DomainViolation(f"{n} residues summing to 1 cannot each be at least {rho_floor}")
    z = np.sort(rng.uniform(lo, lo + room, size=n)) + min_gap * np.arange(n)
    # the residue floor keeps 1/rho truncation terms of the FD-based checks
    # bounded; it conditions the flat simplex draw, nothing more
    rho = rho_floor + (1.0 - n * rho_floor) * rng.dirichlet(np.ones(n))
    return SpectralData(z=z, rho=rho)


# ---------------------------------------------------------------------------
# residuals

def roundtrip_gap(J, back):
    """||back - J||_inf / (1 + max(|v|, c)) for a Jacobi matrix J and its
    reconstruction back.

    The numerator is the dense inf-norm of the difference, which is at least
    its largest entry; the denominator is at most 1 + ||J||_inf, since a row
    sum of |J| holds each |v_k| and c_k. The gap is therefore at least the
    entry-wise gap over the same scale and at least the inf-norm gap over
    1 + ||J||_inf.
    """
    scale = 1.0 + max(float(np.max(np.abs(J.v))), float(np.max(J.c)) if J.n > 1 else 0.0)
    return float(np.linalg.norm(back.to_dense() - J.to_dense(), np.inf)) / scale


def weyl_routes_gap(S, J, x):
    """Largest pairwise gap between four routes to the Weyl function at the
    points x, over |chi(x)|: the pole sum weyl_eval, the rational form
    weyl_rat, -Q_N/P_N of the three-term recurrence of J, and the gamma
    product q0 prod(gamma - x)/prod(z - x); S is the spectral data of J.

    Any subset of the pairs measured against the same scale, or against a
    scale of at least |chi(x)| such as max(1, |routes|), gives a gap no
    larger than this one.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    chi = weyl_eval(S, x)
    P, Q = pq_polynomials(J, x)
    g, q0 = gammas(S)
    routes = (
        chi,
        weyl_rat(S)(x),
        -Q[-1] / P[-1],
        q0 * np.prod(g[:, None] - x, axis=0) / np.prod(S.z[:, None] - x, axis=0),
    )
    scale = np.maximum(np.abs(chi), 1e-30)
    # np.max, unlike Python's max, returns NaN when any pair gap is NaN
    return float(np.max([np.abs(a - b) / scale for i, a in enumerate(routes) for b in routes[i + 1 :]]))


def p_agreement_gaps(J, k):
    """||field_p - field_0||_inf / max(1, max_p ||field_p||_inf) for each
    p = 1 .. min(k, 2): the k-th Hamiltonian field generated through pi_p
    against the one through pi_0.

    The shared scale is at most 1 + ||field_0||_inf, so each gap is at least
    the same gap over that scale.
    """
    fields = [np.concatenate(hamiltonian_field(J, k, p)) for p in pi_cv_indices(k)]
    scale = max(1.0, max(float(np.max(np.abs(g))) for g in fields))
    return [float(np.max(np.abs(g - fields[0]))) / scale for g in fields[1:]]


def cv_casimir(p, n):
    """The Casimir of pi_p in the c-v chart as an Observable with its exact
    gradient: tr L for p = 0, det L for p = 1, tr L^{-1} for p = 2.

    d det L / dv_i = D_i E_{i+1} and d det L / dc_i = -2 c_i D_i E_{i+2},
    with D_i = det L[:i] the leading minors, from one forward recurrence,
    and E_i = det L[i:] the trailing minors, from one backward recurrence
    (an empty block has determinant 1). d tr L^{-1} = -tr(L^{-2} dL).
    """

    def jacobi(x):
        return JacobiMatrix(v=x[:n], c=x[n:])

    if p == 0:
        ones = np.concatenate([np.ones(n), np.zeros(n - 1)])
        return Observable(lambda x: float(np.sum(x[:n])), grad=lambda x: ones)
    if p == 1:

        def det_grad(x):
            v, c = x[:n].tolist(), x[n:].tolist()
            D = [1.0, v[0]]
            for i in range(1, n):
                D.append(v[i] * D[i] - c[i - 1] * c[i - 1] * D[i - 1])
            E = [0.0] * (n - 1) + [v[-1], 1.0]
            for i in range(n - 2, -1, -1):
                E[i] = v[i] * E[i + 1] - c[i] * c[i] * E[i + 2]
            dv = [D[i] * E[i + 1] for i in range(n)]
            dc = [-2.0 * c[i] * D[i] * E[i + 2] for i in range(n - 1)]
            return np.array(dv + dc)

        return Observable(lambda x: float(np.linalg.det(jacobi(x).to_dense())), grad=det_grad)

    def inv_grad(x):
        Linv = np.linalg.inv(jacobi(x).to_dense())
        L2 = Linv @ Linv
        i = np.arange(n - 1)
        return np.concatenate([-np.diagonal(L2), -2.0 * L2[i, i + 1]])

    return Observable(
        lambda x: float(np.trace(np.linalg.inv(jacobi(x).to_dense()))), grad=inv_grad
    )


def cv_casimir_residuals(J):
    """|pi_p grad C_p| for the Casimirs tr L, det L and tr L^{-1} of pi_0,
    pi_1 and pi_2, in that order.

    tr L^{-1} is taken at L + 10 I instead of L: with |v| <= 3 and c <= 3, as
    random_jacobi draws them, that matrix is positive definite (Gershgorin).
    """
    n = J.n
    x = cv_pack(J)
    shifted = cv_pack(JacobiMatrix(v=J.v + 10.0, c=J.c))
    return (
        casimir_residual(pi0_cv(n), cv_casimir(0, n), x),
        casimir_residual(pi1_cv(n), cv_casimir(1, n), x),
        casimir_residual(pi2_cv(n), cv_casimir(2, n), shifted),
    )


def constraint_casimir_residuals(f, S):
    """|R grad Phi1| and |R grad Phi2| for the restricted tensor R of weight f
    and the constraint pair Phi1 = sum F(z_k), Phi2 = -log sum rho_k."""
    n = S.n
    x = zrho_pack(S)
    R = zrho_restricted_tensor(f, n)
    return (
        casimir_residual(R, action_sum(f, n), x),
        casimir_residual(R, neg_log_mass(n), x),
    )


def dirac_residuals(f, S):
    """(Dirac gap, pairing gap) at S for the weight f.

    The Dirac gap is the largest entry of dirac_restrict(zrho_tensor) minus
    the closed-form zrho_restricted_tensor; the pairing gap is
    |{Phi1, Phi2} - 1| on the unrestricted tensor.
    """
    n = S.n
    x = zrho_pack(S)
    base = zrho_tensor(f, n)
    phi1, phi2 = action_sum(f, n), neg_log_mass(n)
    D = dirac_restrict(base, phi1, phi2)
    gap = float(np.max(np.abs(D.tensor(x) - zrho_restricted_tensor(f, n).tensor(x))))
    pair = float(phi1.gradient(x) @ base.tensor(x) @ phi2.gradient(x))
    return gap, abs(pair - 1.0)


def restricted_flow_gap(S, k, p):
    """Largest gap between the restricted tensor of f = z^p applied to the
    gradient of H = sum z^(k-p) and the k-th hierarchy field at S."""
    n = S.n
    grad = np.concatenate([S.z ** (k - p), np.zeros(n)])
    got = zrho_restricted_tensor(WeightFn.power(p), n).tensor(zrho_pack(S)) @ grad
    want = np.concatenate(spectral_field(S, k))
    return float(np.max(np.abs(got - want)))


def iy_deviation(f, S):
    """Largest deviation of the z-rho tensor of weight f, pushed through the
    I-y map at S, from the canonical pattern."""
    n = S.n
    return verify_canonical(iy_map(f, n), zrho_tensor(f, n), zrho_pack(S))["max_deviation"]


def action_angle_deviation(S):
    """Largest deviation of the restricted tensor of f = 1, pushed through
    the action-angle map at S, from the canonical pattern."""
    n, f = S.n, WeightFn.power(0)
    return verify_canonical(
        action_angle_map(f, n), zrho_restricted_tensor(f, n), zrho_pack(S)
    )["max_deviation"]


def gamma_pi_deviation(S):
    """Largest deviation of the z-rho tensor of f = 1, pushed through the
    gamma-pi map at S, from the canonical pattern."""
    n = S.n
    return verify_canonical(
        gamma_pi_map(n), zrho_tensor(WeightFn.power(0), n), zrho_pack(S)
    )["max_deviation"]


def zq_gap(S):
    """Largest gap between the z-rho tensor of f = 1 pushed to the z-q chart
    and its relations {q_k, z_m} = q_k delta_km, {z, z} = 0 = {q, q}.

    The chart map (z, rho) -> (z, q) with q_k = rho_k prod_{m != k} (z_k - z_m)
    is polynomial, so its Jacobian is taken exactly: dq_k/drho_k = q_k/rho_k,
    dq_k/dz_m = -q_k/(z_k - z_m) for m != k, and dq_k/dz_k is minus the sum
    of those.
    """
    n = S.n
    q = numerator_values(S)
    gaps = S.z[:, None] - S.z[None, :]
    np.fill_diagonal(gaps, np.inf)
    dq_dz = -q[:, None] / gaps
    dq_dz[np.diag_indices(n)] = -dq_dz.sum(axis=1)
    D = np.block([[np.eye(n), np.zeros((n, n))], [dq_dz, np.diag(q / S.rho)]])
    T = D @ zrho_tensor(WeightFn.power(0), n).tensor(zrho_pack(S)) @ D.T
    E = np.zeros((2 * n, 2 * n))
    E[n + np.arange(n), np.arange(n)] = q
    return float(np.max(np.abs(T - (E - E.T))))


def corrupt(P, delta=1.0):
    """P with delta added to its (0, 1) entry and taken from its (1, 0) entry:
    still antisymmetric, but no longer a Poisson tensor, so a Jacobi identity
    check that passes it is broken."""

    def tensor(x):
        T = P.tensor_fn(x).copy()
        T[0, 1] += delta
        T[1, 0] -= delta
        return T

    return dataclasses.replace(P, name=P.name + "_corrupted", tensor_fn=tensor)


def worked_example():
    """The two-site lattice at rest with unit coupling, end to end: a list of
    (name, got, want) whose pinned values hold to WORKED_TOL."""
    J = flaschka(PhasePoint(q=np.zeros(2), p=np.zeros(2)))
    S = direct_transform(J)
    g, q0 = gammas(S)
    f1 = WeightFn.power(0)
    Jb = inverse_transform(S)
    return [
        ("flaschka v", J.v, [0.0, 0.0]),
        ("flaschka c", J.c, [1.0]),
        ("spectrum z", S.z, [-1.0, 1.0]),
        ("residues rho", S.rho, [0.5, 0.5]),
        ("numerator root gamma", g, [0.0]),
        ("total mass q0", q0, 1.0),
        ("weyl at 2", weyl_eval(S, 2.0), -2.0 / 3.0),
        ("bracket f=1 p=2 q=3", float(np.sum(bracket_terms(S, 2.0, 3.0, f1))), -49.0 / 576.0),
        (
            "restricted bracket f=1 p=2 q=3",
            float(np.sum(bracket_terms(S, 2.0, 3.0, f1, restricted=True))),
            -7.0 / 576.0,
        ),
        ("flow at t=ln 2", exact_flow(S, 1, float(np.log(2.0))).rho, [0.2, 0.8]),
        ("inverse v", Jb.v, J.v),
        ("inverse c", Jb.c, J.c),
    ]


# ---------------------------------------------------------------------------
# verification suites

def _prop(name, residuals, cases):
    worst = float(np.max(residuals)) if len(residuals) else 0.0
    return {
        "property": name,
        "cases": cases,
        "max_residual": worst,
        "tol": TOL[name],
        "pass": bool(worst <= TOL[name]),
    }


def _trial_size(trial, n):
    """Matrix size of a trial: 2, 3, .., n in turn (2 alone for n <= 2)."""
    return 2 + trial % max(1, n - 1)


def suite_roundtrip(rng, n, trials):
    lanczos, stieltjes, weyl, mass = [], [], [], []
    for trial in range(trials):
        size = 1 + trial % n
        J = random_jacobi(rng, size)
        S = direct_transform(J)
        lanczos.append(roundtrip_gap(J, inverse_transform(S)))
        stieltjes.append(roundtrip_gap(J, inverse_transform_stieltjes(S)))
        mass.append(abs(float(np.sum(S.rho)) - 1.0))
        if size > 1:
            weyl.append(weyl_routes_gap(S, J, 3.0 + float(np.max(np.abs(S.z)))))
    return [
        _prop("roundtrip_lanczos", lanczos, trials),
        _prop("roundtrip_stieltjes", stieltjes, trials),
        _prop("weyl_three_routes", weyl, len(weyl)),
        _prop("residue_mass", mass, trials),
    ]


def suite_jacobi(rng, n, trials):
    weights = [WeightFn.power(m) for m in range(4)]
    unres, res, dirac_gap, unit = [], [], [], []
    for trial in range(trials):
        size = _trial_size(trial, n)
        S = random_spectral(rng, size)
        x = zrho_pack(S)
        f = weights[trial % 4]
        unres.append(jacobi_residual(zrho_tensor(f, size), x))
        res.append(jacobi_residual(zrho_restricted_tensor(f, size), x))
        # constraint pairings for powers >= 1 carry 1/f gradients; those run
        # on the positive-spectrum states of the second loop
        if f.power_n == 0:
            gap, pair = dirac_residuals(f, S)
            dirac_gap.append(gap)
            unit.append(pair)
    for trial in range(trials):
        size = _trial_size(trial, n)
        S = random_spectral(rng, size, positive=True)
        gap, pair = dirac_residuals(weights[trial % 3 + 1], S)
        dirac_gap.append(gap)
        unit.append(pair)
    return [
        _prop("jacobi_identity", unres, trials),
        _prop("jacobi_identity_restricted", res, trials),
        _prop("dirac_matches_closed_form", dirac_gap, len(dirac_gap)),
        _prop("constraint_bracket_unit", unit, len(unit)),
    ]


def suite_hierarchy(rng, n, trials):
    pmatch, laxmatch, specmatch, semigroup = [], [], [], []
    for trial in range(trials):
        size = _trial_size(trial, n)
        J = random_jacobi(rng, size)
        k = 1 + trial % 3
        pmatch.extend(p_agreement_gaps(J, k))
        field = np.concatenate(hamiltonian_field(J, k, 0))
        gap = float(np.max(np.abs(np.concatenate(lax_rhs(J, k)) - field)))
        laxmatch.append(gap / (1.0 + float(np.max(np.abs(field)))))
        S = random_spectral(rng, size)
        for p in pi_cv_indices(k):
            specmatch.append(restricted_flow_gap(S, k, p))
        t1 = 0.3 + 0.1 * (trial % 3)
        t2 = 0.7
        A = exact_flow(exact_flow(S, k, t1), k, t2)
        B = exact_flow(S, k, t1 + t2)
        semigroup.append(float(np.max(np.abs(A.rho - B.rho))))
    return [
        _prop("hamiltonian_field_p_agreement", pmatch, len(pmatch)),
        _prop("lax_matches_hamiltonian", laxmatch, trials),
        _prop("restricted_tensor_flow", specmatch, len(specmatch)),
        _prop("exact_flow_semigroup", semigroup, trials),
    ]


def suite_darboux(rng, n, trials):
    # FD truncation in the chart Jacobians grows like h^2/gap^3; the wider
    # gap floor keeps that term under the 1e-6 canonicality tolerance
    iy, aa, gp, zq = [], [], [], []
    for trial in range(trials):
        size = _trial_size(trial, n)
        S = random_spectral(rng, size, min_gap=0.4, rho_floor=0.05)
        iy.append(iy_deviation(WeightFn.power(0), S))
        Sp = random_spectral(rng, size, positive=True, min_gap=0.4, rho_floor=0.05)
        iy.append(iy_deviation(WeightFn.power(1), Sp))
        aa.append(action_angle_deviation(S))
        gp.append(gamma_pi_deviation(S))
        zq.append(zq_gap(S))
    return [
        _prop("iy_canonical", iy, len(iy)),
        _prop("action_angle_canonical", aa, trials),
        _prop("gamma_pi_canonical", gp, trials),
        _prop("zq_relations", zq, trials),
    ]


def suite_casimirs(rng, n, trials):
    tr_res, det_res, inv_res, phi_res = [], [], [], []
    for trial in range(trials):
        size = _trial_size(trial, n)
        J = random_jacobi(rng, size)
        for residuals, r in zip((tr_res, det_res, inv_res), cv_casimir_residuals(J)):
            residuals.append(r)
        for m, positive in ((0, False), (1, True), (2, True)):
            S = random_spectral(rng, size, positive=positive)
            phi_res.extend(constraint_casimir_residuals(WeightFn.power(m), S))
    return [
        _prop("pi0_trace_casimir", tr_res, trials),
        _prop("pi1_det_casimir", det_res, trials),
        _prop("pi2_trace_inverse_casimir", inv_res, trials),
        _prop("restricted_constraint_casimirs", phi_res, len(phi_res)),
    ]
