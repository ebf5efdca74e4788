import numpy as np
import pytest

from opentoda import (
    DomainViolation,
    SignViolation,
    JacobiMatrix,
    SpectralData,
    WeightFn,
    action_angle_map,
    action_sum,
    cv_pack,
    direct_transform,
    exact_flow,
    gammas,
    gamma_pi_map,
    iy_map,
    neg_log_mass,
    numerator_values,
    pi0_cv,
    pi1_cv,
    pi2_cv,
    pushforward,
    verify_canonical,
    zq_map,
    zrho_pack,
    zrho_restricted_tensor,
    zrho_tensor,
)
from opentoda.properties import TOL, zq_gap

from conftest import random_jacobi, random_spectral

ONE = WeightFn.power(0)
Z = WeightFn.power(1)
Z2 = WeightFn.power(2)


def test_numerator_values_worked(worked):
    S = direct_transform(worked)
    np.testing.assert_allclose(numerator_values(S), [-1.0, 1.0], atol=1e-14)


def chart_values(chart_map, S):
    return chart_map(S.n).map_fn(zrho_pack(S))


def test_zq_chart_worked(worked):
    values = chart_values(zq_map, direct_transform(worked))
    np.testing.assert_allclose(values, [-1.0, 1.0, -1.0, 1.0], atol=1e-14)


def test_action_coords_examples():
    # I_k = F(z_k) leads the I-y chart
    for z, f, want in (
        ([-1.0, 1.0], ONE, [-1.0, 1.0]),
        ([1.0, 4.0], Z, [0.0, np.log(4.0)]),
        ([1.0, 2.0], Z2, [-1.0, -0.5]),
    ):
        S = SpectralData(z=np.array(z), rho=np.array([0.5, 0.5]))
        np.testing.assert_allclose(chart_values(lambda n: iy_map(f, n), S)[:2], want)


def test_iy_chart_worked(worked):
    values = chart_values(lambda n: iy_map(ONE, n), direct_transform(worked))
    np.testing.assert_allclose(values, [-1.0, 1.0, 0.0, 0.0], atol=1e-14)


def angles(S):
    return chart_values(lambda n: action_angle_map(ONE, n), S)[S.n :]


def test_angle_coords_worked(worked):
    np.testing.assert_allclose(angles(direct_transform(worked)), [0.0], atol=1e-14)


def test_action_angle_chart_casimirs(worked):
    # the Casimir pair of the action-angle chart: sum I_k and -ln sum rho
    x = zrho_pack(direct_transform(worked))
    assert action_angle_map(ONE, 2).map_fn(x).shape == (3,)
    casimirs = [action_sum(ONE, 2).value(x), neg_log_mass(2).value(x)]
    np.testing.assert_allclose(casimirs, [0.0, 0.0], atol=1e-13)


def test_gamma_pi_chart_worked(worked):
    values = chart_values(gamma_pi_map, direct_transform(worked))
    np.testing.assert_allclose(values, np.zeros(4), atol=1e-13)


def test_gamma_consistency_with_numerator(rng):
    # the numerator vanishes at every gamma
    S = random_spectral(rng, 4, min_gap=0.3)
    g = chart_values(gamma_pi_map, S)[:3]
    from opentoda import weyl_rat

    R = weyl_rat(S)
    num_at_g = np.polynomial.polynomial.polyval(g, R.num)
    assert np.max(np.abs(num_at_g)) <= 1e-9


def test_gamma_pi_momenta_match_extended_precision():
    # pi_k = -ln|p(gamma_k)| at the package's own gammas, against 60 digits;
    # p in expanded coefficients is off by about 1e-8 in pi_k at n = 20
    mp = pytest.importorskip("mpmath")
    for seed in range(3):
        S = random_spectral(np.random.default_rng(seed), 20)
        g, _ = gammas(S)
        with mp.workdps(60):
            want = [-float(mp.log(abs(mp.fprod(mp.mpf(gk) - mp.mpf(zj) for zj in S.z)))) for gk in g]
        np.testing.assert_allclose(chart_values(gamma_pi_map, S)[19:38], want, rtol=0, atol=1e-12)


def test_chart_maps_need_two_sites():
    with pytest.raises(DomainViolation):
        action_angle_map(ONE, 1)
    with pytest.raises(DomainViolation):
        gamma_pi_map(1)


# ---------------------------------------------------------------------------
# each chart map refuses the states off its chart

CHARTS = {
    "zq": zq_map,
    "iy": lambda n: iy_map(ONE, n),
    "action_angle": lambda n: action_angle_map(ONE, n),
    "gamma_pi": gamma_pi_map,
}

# a zero residue makes q(z_k) vanish; for gamma-pi a negative residue puts
# the numerator root outside the interlacing, so (-1)^{N+k} p(gamma_k) < 0
ZERO_RHO = SpectralData(z=np.array([-1.0, 0.5, 2.0]), rho=np.array([0.5, 0.0, 0.5]))
OFF_CLASS = SpectralData(z=np.array([-1.0, 1.0]), rho=np.array([1.5, -0.5]))
BAD_STATE = {"zq": ZERO_RHO, "iy": ZERO_RHO, "action_angle": ZERO_RHO, "gamma_pi": OFF_CLASS}


@pytest.mark.parametrize("name", sorted(CHARTS))
def test_chart_values_and_map_raise_off_the_chart(name):
    with pytest.raises(SignViolation):
        chart_values(CHARTS[name], BAD_STATE[name])


# ---------------------------------------------------------------------------
# canonicality. FD truncation in the chart Jacobians grows like h^2/gap^3,
# so the states are drawn with a wide gap floor.

def well_conditioned(rng, n, positive=False):
    return random_spectral(rng, n, positive=positive, min_gap=0.4, rho_floor=0.05)


def test_iy_canonical_f1(rng):
    for _ in range(5):
        S = well_conditioned(rng, 3)
        rep = verify_canonical(iy_map(ONE, 3), zrho_tensor(ONE, 3), zrho_pack(S))
        assert rep["max_deviation"] <= TOL["iy_canonical"]


def test_iy_canonical_fz(rng):
    for _ in range(5):
        S = well_conditioned(rng, 3, positive=True)
        rep = verify_canonical(iy_map(Z, 3), zrho_tensor(Z, 3), zrho_pack(S))
        assert rep["max_deviation"] <= TOL["iy_canonical"]


def test_action_angle_canonical(rng):
    for _ in range(5):
        S = well_conditioned(rng, 4)
        rep = verify_canonical(
            action_angle_map(ONE, 4), zrho_restricted_tensor(ONE, 4), zrho_pack(S)
        )
        assert rep["max_deviation"] <= TOL["action_angle_canonical"]


def test_gamma_pi_canonical_f1(rng):
    for _ in range(5):
        S = well_conditioned(rng, 3)
        rep = verify_canonical(gamma_pi_map(3), zrho_tensor(ONE, 3), zrho_pack(S))
        assert rep["max_deviation"] <= TOL["gamma_pi_canonical"]


def test_gamma_pi_not_canonical_for_fz(rng):
    # under f = z the pairing is {gamma_k, pi_k} = gamma_k, not a delta
    S = well_conditioned(rng, 3, positive=True)
    T = pushforward(zrho_tensor(Z, 3), gamma_pi_map(3).map_fn, zrho_pack(S))
    g = gamma_pi_map(3).map_fn(zrho_pack(S))[:2]
    np.testing.assert_allclose([T[0, 2], T[1, 3]], g, rtol=1e-4)


def test_zq_bracket_relations(rng):
    # {q_k, z_n} = f(z_k) q_k delta, {z, z} = 0 = {q, q}
    S = well_conditioned(rng, 3)
    assert zq_gap(S) <= 1e-6 * max(1.0, np.max(np.abs(numerator_values(S))))


def test_zq_relations_hold_at_n10():
    # the Darboux suite's draws at n = 10, where a central-difference chart
    # Jacobian misses the tolerance by its truncation error
    worst = max(
        zq_gap(random_spectral(np.random.default_rng(seed), 10, False, 0.4, 0.05))
        for seed in range(20)
    )
    assert worst <= TOL["zq_relations"]


def test_angles_linearize_the_flow(rng):
    # theta_k picks up exactly t (z_k - z_0) along the first flow
    S = random_spectral(rng, 4, min_gap=0.2)
    t = 0.7
    St = exact_flow(S, 1, t)
    d_theta = angles(St) - angles(S)
    np.testing.assert_allclose(d_theta, t * (S.z[1:] - S.z[0]), atol=1e-12)


def test_actions_frozen_under_flow(rng):
    S = random_spectral(rng, 3, positive=True)
    St = exact_flow(S, 2, 1.3)

    def actions(S):
        return chart_values(lambda n: iy_map(Z, n), S)[:3]

    np.testing.assert_allclose(actions(St), actions(S), atol=1e-15)


# ---------------------------------------------------------------------------
# the hierarchy tensors in the c-v chart push to the restricted z-rho
# tensors with factor one

def cv_to_zrho(n):
    def map_fn(x):
        S = direct_transform(JacobiMatrix(v=x[:n], c=x[n:]))
        return np.concatenate([S.z, S.rho])

    return map_fn


@pytest.mark.parametrize(
    "mk,power,shift",
    [(pi0_cv, 0, 0.0), (pi1_cv, 1, 10.0), (pi2_cv, 2, 10.0)],
)
def test_cv_tensors_push_to_restricted_zrho(rng, mk, power, shift):
    n = 3
    J = JacobiMatrix(v=rng.uniform(-1.5, 1.5, n) + shift, c=rng.uniform(0.4, 1.5, n - 1))
    T = pushforward(mk(n), cv_to_zrho(n), cv_pack(J))
    S = direct_transform(J)
    want = zrho_restricted_tensor(WeightFn.power(power), n).tensor(zrho_pack(S))
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(T - want)) <= 1e-6 * scale


def test_charts_all_lists_every_public_name():
    import inspect

    from opentoda import charts

    public = {
        name
        for name, obj in vars(charts).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == charts.__name__
    }
    assert public == set(charts.__all__)
