import numpy as np
import pytest

from opentoda import (
    DomainViolation,
    SignViolation,
    JacobiMatrix,
    SpectralData,
    WeightFn,
    action_angle_chart,
    action_angle_map,
    action_coords,
    angle_coords,
    cv_pack,
    direct_transform,
    exact_flow,
    gamma_pi_chart,
    gamma_pi_map,
    iy_chart,
    iy_map,
    numerator_values,
    pi0_cv,
    pi1_cv,
    pi2_cv,
    pushforward,
    verify_canonical,
    zq_chart,
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


def test_zq_chart_worked(worked):
    cv = zq_chart(direct_transform(worked))
    assert cv.chart == "ZQ"
    assert cv.names == ("z0", "z1", "q(z0)", "q(z1)")
    np.testing.assert_allclose(cv.values, [-1.0, 1.0, -1.0, 1.0], atol=1e-14)


def test_action_coords_examples():
    np.testing.assert_allclose(
        action_coords(SpectralData(z=np.array([-1.0, 1.0]), rho=np.array([0.5, 0.5])), ONE),
        [-1.0, 1.0],
    )
    np.testing.assert_allclose(
        action_coords(SpectralData(z=np.array([1.0, 4.0]), rho=np.array([0.5, 0.5])), Z),
        [0.0, np.log(4.0)],
    )
    np.testing.assert_allclose(
        action_coords(SpectralData(z=np.array([1.0, 2.0]), rho=np.array([0.5, 0.5])), Z2),
        [-1.0, -0.5],
    )


def test_iy_chart_worked(worked):
    cv = iy_chart(direct_transform(worked), ONE)
    np.testing.assert_allclose(cv.values, [-1.0, 1.0, 0.0, 0.0], atol=1e-14)


def test_angle_coords_worked(worked):
    np.testing.assert_allclose(angle_coords(direct_transform(worked)), [0.0], atol=1e-14)


def test_action_angle_chart_casimirs(worked):
    cv = action_angle_chart(direct_transform(worked), ONE)
    assert cv.names == ("I0", "I1", "theta1")
    np.testing.assert_allclose(cv.casimirs, [0.0, 0.0], atol=1e-13)


def test_gamma_pi_chart_worked(worked):
    cv = gamma_pi_chart(direct_transform(worked))
    assert cv.names == ("gamma1", "pi1", "Phi1", "Phi2")
    np.testing.assert_allclose(cv.values, np.zeros(4), atol=1e-13)


def test_gamma_consistency_with_numerator(rng):
    # the numerator vanishes at every gamma
    S = random_spectral(rng, 4, min_gap=0.3)
    cv = gamma_pi_chart(S)
    g = cv.values[:3]
    from opentoda import weyl_rat

    R = weyl_rat(S)
    num_at_g = np.polynomial.polynomial.polyval(g, R.num)
    assert np.max(np.abs(num_at_g)) <= 1e-9


def test_chart_maps_need_two_sites():
    with pytest.raises(DomainViolation):
        action_angle_map(ONE, 1)
    with pytest.raises(DomainViolation):
        gamma_pi_map(1)


# ---------------------------------------------------------------------------
# each chart's coordinates are written once: the value function and the map
# on the flat state agree bit for bit, and both refuse the same bad states

CHARTS = {
    "zq": (zq_chart, zq_map),
    "iy": (lambda S: iy_chart(S, ONE), lambda n: iy_map(ONE, n)),
    "action_angle": (lambda S: action_angle_chart(S, ONE), lambda n: action_angle_map(ONE, n)),
    "gamma_pi": (gamma_pi_chart, gamma_pi_map),
}

# a zero residue makes q(z_k) vanish; for gamma-pi a negative residue puts
# the numerator root outside the interlacing, so (-1)^{N+k} p(gamma_k) < 0
ZERO_RHO = SpectralData(z=np.array([-1.0, 0.5, 2.0]), rho=np.array([0.5, 0.0, 0.5]))
OFF_CLASS = SpectralData(z=np.array([-1.0, 1.0]), rho=np.array([1.5, -0.5]))
BAD_STATE = {"zq": ZERO_RHO, "iy": ZERO_RHO, "action_angle": ZERO_RHO, "gamma_pi": OFF_CLASS}


@pytest.mark.parametrize("name", sorted(CHARTS))
def test_chart_values_equal_chart_map(rng, name):
    values, chart_map = CHARTS[name]
    for n in (2, 3, 5):
        S = random_spectral(rng, n, min_gap=0.4, rho_floor=0.05)
        np.testing.assert_array_equal(values(S).values, chart_map(n).map_fn(zrho_pack(S)))


def test_angle_coords_equal_action_angle_map(rng):
    S = random_spectral(rng, 4, min_gap=0.4, rho_floor=0.05)
    theta = action_angle_map(ONE, 4).map_fn(zrho_pack(S))[4:]
    np.testing.assert_array_equal(angle_coords(S), theta)


@pytest.mark.parametrize("name", sorted(CHARTS))
def test_chart_values_and_map_raise_off_the_chart(name):
    values, chart_map = CHARTS[name]
    S = BAD_STATE[name]
    with pytest.raises(SignViolation):
        values(S)
    with pytest.raises(SignViolation):
        chart_map(S.n).map_fn(zrho_pack(S))


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
    d_theta = angle_coords(St) - angle_coords(S)
    np.testing.assert_allclose(d_theta, t * (S.z[1:] - S.z[0]), atol=1e-12)


def test_actions_frozen_under_flow(rng):
    S = random_spectral(rng, 3, positive=True)
    St = exact_flow(S, 2, 1.3)
    np.testing.assert_allclose(action_coords(St, Z), action_coords(S, Z), atol=1e-15)


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
