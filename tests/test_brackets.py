import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opentoda import (
    CoincidentPoints,
    CoincidentPoles,
    ConstraintBracketNotUnit,
    DomainViolation,
    JacobiMatrix,
    Observable,
    SpectralData,
    WeightFn,
    action_sum,
    analytic_bracket,
    bracket_terms,
    casimir_residual,
    closed_form_bracket,
    cv_pack,
    direct_transform,
    dirac_restrict,
    fd_gradient,
    jacobi_residual,
    pi0_cv,
    pi1_cv,
    pi2_cv,
    pushforward,
    restricted_bracket,
    weyl_eval,
    zrho_pack,
    zrho_restricted_tensor,
    zrho_tensor,
)
from opentoda.brackets import PI_CV, pi_cv_apply
from opentoda.properties import constraint_casimir_residuals, corrupt, cv_casimir, dirac_residuals

from conftest import contour_bracket, random_jacobi, random_spectral
from oracles import pi_cv_loop

ONE = WeightFn.power(0)
Z = WeightFn.power(1)
Z2 = WeightFn.power(2)


def chi_observable(pt, n):
    """chi(pt) as an observable on the flat z-rho state, analytic gradient."""

    def val(x):
        return float(np.sum(x[n:] / (x[:n] - pt)))

    def grad(x):
        g = np.empty(2 * n)
        g[:n] = -x[n:] / (x[:n] - pt) ** 2
        g[n:] = 1.0 / (x[:n] - pt)
        return g

    return Observable(val, grad)


# ---------------------------------------------------------------------------
# weights

def test_weight_power_eval_and_label():
    assert ONE.label == "1" and Z.label == "z" and Z2.label == "z^2"
    np.testing.assert_allclose(ONE(np.array([-3.0, 7.0])), [1.0, 1.0])
    np.testing.assert_allclose(Z2(np.array([-3.0, 2.0])), [9.0, 4.0])
    with pytest.raises(DomainViolation):
        WeightFn.power(-1)
    # only integers: 1.5, 2.7 and True are not silently z, z^2 and z
    for n in (1.5, 2.7, 2.0, True, np.bool_(True), "2"):
        with pytest.raises(DomainViolation):
            WeightFn.power(n)
    assert WeightFn.power(np.int64(2)).label == "z^2"


def test_weight_antiderivative_values():
    # F' = 1/f: identity, log, -1/z
    np.testing.assert_allclose(ONE.antiderivative(np.array([-1.0, 1.0])), [-1.0, 1.0])
    np.testing.assert_allclose(Z.antiderivative(np.array([1.0, 4.0])), [0.0, np.log(4.0)])
    np.testing.assert_allclose(Z2.antiderivative(np.array([1.0, 2.0])), [-1.0, -0.5])
    with pytest.raises(DomainViolation):
        Z.antiderivative(np.array([-1.0, 1.0]))


# ---------------------------------------------------------------------------
# closed-form tensors in the c-v chart

def test_pi0_cv_entries():
    T = pi0_cv(2).tensor(np.array([0.3, -0.4, 2.0]))
    assert T[2, 0] == -1.0 and T[2, 1] == 1.0
    assert T[0, 1] == 0.0


def test_pi1_cv_entries():
    # {c_0, v_0} at c = 1, v_0 = 2
    T = pi1_cv(2).tensor(np.array([2.0, 0.0, 1.0]))
    assert T[2, 0] == -1.0
    # {c_0, c_1} at c = (1, 3)
    T3 = pi1_cv(3).tensor(np.array([0.0, 0.0, 0.0, 1.0, 3.0]))
    assert T3[3, 4] == 0.75
    # {v_0, v_1} = c_0^2
    assert T[0, 1] == 1.0


def test_pi2_cv_entries():
    T = pi2_cv(2).tensor(np.array([0.0, 0.0, 1.0]))
    assert T[2, 0] == -0.5
    T = pi2_cv(2).tensor(np.array([1.0, 1.0, 1.0]))
    assert T[0, 1] == 2.0


def test_cv_tensors_need_two_sites():
    for mk in (pi0_cv, pi1_cv, pi2_cv):
        with pytest.raises(DomainViolation):
            mk(1)


# ---------------------------------------------------------------------------
# z-rho tensors at the worked state

def test_zrho_tensor_worked(worked):
    x = zrho_pack(direct_transform(worked))
    T = zrho_tensor(ONE, 2).tensor(x)
    assert T[2, 0] == pytest.approx(0.5, abs=1e-14)
    assert T[2, 3] == pytest.approx(0.25, abs=1e-14)
    assert T[0, 1] == 0.0
    Tr = zrho_restricted_tensor(ONE, 2).tensor(x)
    assert Tr[2, 0] == pytest.approx(0.25, abs=1e-14)
    assert abs(Tr[2, 3]) < 1e-15
    assert Tr[0, 1] == 0.0


def test_tensor_antisymmetry_exact(rng):
    for _ in range(5):
        S = random_spectral(rng, 4)
        x = zrho_pack(S)
        for P in (zrho_tensor(Z2, 4), zrho_restricted_tensor(Z2, 4)):
            T = P.tensor(x)
            np.testing.assert_array_equal(T, -T.T)


def test_coincident_poles_rejected():
    x = np.array([1.0, 1.0, 0.5, 0.5])
    with pytest.raises(CoincidentPoles):
        zrho_tensor(ONE, 2).tensor(x)


# ---------------------------------------------------------------------------
# contour brackets

def test_worked_bracket_values(worked):
    S = direct_transform(worked)
    assert analytic_bracket(S, 2.0, 3.0, ONE) == pytest.approx(-49.0 / 576.0, abs=1e-15)
    assert restricted_bracket(S, 2.0, 3.0, ONE) == pytest.approx(-7.0 / 576.0, abs=1e-15)
    assert closed_form_bracket(S, 2.0, 3.0, ONE) == pytest.approx(-49.0 / 576.0, abs=1e-15)
    assert closed_form_bracket(S, 2.0, 3.0, ONE, restricted=True) == pytest.approx(
        -7.0 / 576.0, abs=1e-15
    )


def test_bracket_point_validation():
    S = SpectralData(z=np.array([-1.0, 1.0]), rho=np.array([0.5, 0.5]))
    with pytest.raises(CoincidentPoints):
        analytic_bracket(S, 2.0, 2.0, ONE)
    with pytest.raises(CoincidentPoints):
        analytic_bracket(S, 1.0, 2.0, ONE)
    with pytest.raises(DomainViolation):
        closed_form_bracket(S, 2.0, 3.0, Z2)


def test_closed_forms_match_residue_sums(rng):
    for _ in range(20):
        S = random_spectral(rng, 4)
        p, q = -4.1, 5.3
        for f in (ONE, Z):
            assert analytic_bracket(S, p, q, f) == pytest.approx(
                closed_form_bracket(S, p, q, f), abs=1e-12
            )
            assert restricted_bracket(S, p, q, f) == pytest.approx(
                closed_form_bracket(S, p, q, f, restricted=True), abs=1e-12
            )


def test_quadrature_oracle_unrestricted(rng):
    for _ in range(6):
        S = random_spectral(rng, 3, min_gap=0.2)
        p, q = -4.7, 4.9
        for power in (0, 1, 2):
            f = WeightFn.power(power)
            got = analytic_bracket(S, p, q, f)
            assert got == pytest.approx(contour_bracket(S, p, q, power), abs=1e-9)


def test_quadrature_oracle_restricted(rng):
    for _ in range(6):
        S = random_spectral(rng, 3, min_gap=0.2)
        p, q = -4.7, 4.9
        for power in (0, 1, 2):
            f = WeightFn.power(power)
            got = restricted_bracket(S, p, q, f)
            assert got == pytest.approx(
                contour_bracket(S, p, q, power, restricted=True), abs=1e-9
            )


def test_infinity_residue_for_z_squared(rng):
    # the exterior residues at p and q reproduce the bracket only after the
    # infinity correction q0 (chi_p - chi_q); it vanishes for f = 1 and f = z
    for _ in range(10):
        S = random_spectral(rng, 4)
        p, q = -5.2, 6.1
        chi_p, chi_q = weyl_eval(S, p), weyl_eval(S, q)
        ext2 = (p**2 * chi_p - q**2 * chi_q) * (chi_p - chi_q) / (p - q)
        corr = float(np.sum(S.rho)) * (chi_p - chi_q)
        assert abs(corr) > 1e-6
        assert analytic_bracket(S, p, q, Z2) == pytest.approx(ext2 + corr, abs=1e-12)
        ext1 = (p * chi_p - q * chi_q) * (chi_p - chi_q) / (p - q)
        assert analytic_bracket(S, p, q, Z) == pytest.approx(ext1, abs=1e-12)


def test_bracket_terms_sum(worked):
    S = direct_transform(worked)
    terms = bracket_terms(S, 2.0, 3.0, ONE)
    assert terms.shape == (2,)
    assert np.sum(terms) == pytest.approx(-49.0 / 576.0, abs=1e-15)


# ---------------------------------------------------------------------------
# tensor contraction against the residue sums

def test_chain_rule_analytic_gradients(rng):
    for _ in range(10):
        S = random_spectral(rng, 4, positive=True)
        x = zrho_pack(S)
        p, q = -1.7, 7.9
        op, oq = chi_observable(p, 4), chi_observable(q, 4)
        for f in (ONE, Z, Z2):
            assert zrho_tensor(f, 4).bracket(op, oq, x) == pytest.approx(
                analytic_bracket(S, p, q, f), abs=1e-13
            )
            assert zrho_restricted_tensor(f, 4).bracket(op, oq, x) == pytest.approx(
                restricted_bracket(S, p, q, f), abs=1e-13
            )


def test_chain_rule_fd_gradients(rng):
    # same contraction with the default finite-difference gradients
    S = random_spectral(rng, 3, min_gap=0.3, rho_floor=0.05)
    x = zrho_pack(S)
    p, q = -2.9, 5.8
    op = Observable(lambda xx: float(np.sum(xx[3:] / (xx[:3] - p))))
    oq = Observable(lambda xx: float(np.sum(xx[3:] / (xx[:3] - q))))
    got = zrho_tensor(ONE, 3).bracket(op, oq, x)
    assert got == pytest.approx(analytic_bracket(S, p, q, ONE), abs=1e-6)


# ---------------------------------------------------------------------------
# Dirac reduction

def test_dirac_matches_restricted_tensor(rng):
    for power in (0, 1, 2):
        for _ in range(5):
            S = random_spectral(rng, 4, positive=power > 0)
            assert dirac_residuals(WeightFn.power(power), S)[0] <= 1e-10


def test_constraint_bracket_is_unit(rng):
    assert dirac_residuals(ONE, random_spectral(rng, 5))[1] <= 1e-14


def test_constraint_bracket_not_unit_raises(rng):
    S = random_spectral(rng, 3)
    x = zrho_pack(S)
    doubled = Observable(
        lambda xx: -2.0 * float(np.log(np.sum(xx[3:]))),
        lambda xx: np.concatenate([np.zeros(3), np.full(3, -2.0 / np.sum(xx[3:]))]),
    )
    D = dirac_restrict(zrho_tensor(ONE, 3), action_sum(ONE, 3), doubled)
    with pytest.raises(ConstraintBracketNotUnit):
        D.tensor(x)


# ---------------------------------------------------------------------------
# Jacobi identity and Casimirs

def test_jacobi_identity_residuals(rng):
    for power, positive in ((0, False), (2, True)):
        f = WeightFn.power(power)
        S = random_spectral(rng, 3, positive=positive, rho_floor=0.01)
        x = zrho_pack(S)
        assert jacobi_residual(zrho_tensor(f, 3), x) <= 1e-6
        assert jacobi_residual(zrho_restricted_tensor(f, 3), x) <= 1e-6


def test_jacobi_identity_cv_tensors(rng):
    x = np.concatenate([rng.uniform(-1.5, 1.5, 4), rng.uniform(0.3, 1.5, 3)])
    for mk in (pi0_cv, pi1_cv, pi2_cv):
        assert jacobi_residual(mk(4), x) <= 1e-6


def test_jacobi_negative_control(rng):
    x = zrho_pack(random_spectral(rng, 3))
    assert jacobi_residual(corrupt(zrho_tensor(ONE, 3)), x) > 1e-3


def test_casimirs(rng):
    # tr L kills the canonical image; the constraint pair kills the
    # restricted tensors
    J = JacobiMatrix(v=rng.uniform(-1.0, 1.0, 3), c=rng.uniform(0.5, 1.5, 2))
    assert casimir_residual(pi0_cv(3), cv_casimir(0, 3), cv_pack(J)) <= 1e-15
    assert casimir_residual(pi1_cv(3), cv_casimir(1, 3), cv_pack(J)) <= 1e-9

    S = random_spectral(rng, 4, positive=True)
    for f in (ONE, Z, Z2):
        assert max(constraint_casimir_residuals(f, S)) <= 1e-12


def test_cv_casimir_gradients_match_finite_differences():
    # central differences with step h = FD_STEP (1 + |x|) ~ 6e-6 (1 + |x|)
    # carry O(h^2) truncation and O(eps/h) rounding; at these entries both
    # stay far below 1e-7 of the gradient's scale
    rng = np.random.default_rng(11)
    singular = JacobiMatrix(v=np.zeros(3), c=np.ones(2))  # det L = 0
    assert abs(np.linalg.det(singular.to_dense())) < 1e-15
    states = [(singular, (1,))]
    for n in (2, 3, 5):
        for _ in range(3):
            J = JacobiMatrix(v=rng.uniform(-1.0, 1.0, n), c=rng.uniform(0.5, 1.5, n - 1))
            states.append((J, (0, 1)))
            states.append((JacobiMatrix(v=J.v + 4.0, c=J.c), (2,)))
    for J, powers in states:
        x = cv_pack(J)
        for p in powers:
            C = cv_casimir(p, J.n)
            exact = C.gradient(x)
            approx = fd_gradient(C.value, x)
            scale = 1.0 + float(np.max(np.abs(exact)))
            assert float(np.max(np.abs(exact - approx))) <= 1e-7 * scale, (J, p)


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), power=st.integers(0, 3))
def test_restricted_z_block_stays_zero(seed, power):
    # the z-z corner is exactly zero for both tensors, any weight
    S = random_spectral(np.random.default_rng(seed), 3, positive=True)
    x = zrho_pack(S)
    f = WeightFn.power(power)
    np.testing.assert_array_equal(zrho_tensor(f, 3).tensor(x)[:3, :3], 0.0)
    np.testing.assert_array_equal(zrho_restricted_tensor(f, 3).tensor(x)[:3, :3], 0.0)


def test_pushforward_identity(rng):
    S = random_spectral(rng, 3)
    x = zrho_pack(S)
    P = zrho_tensor(ONE, 3)
    np.testing.assert_allclose(pushforward(P, lambda y: y, x), P.tensor(x), atol=1e-9)


def test_cv_tensors_match_loop_assembly():
    rng = np.random.default_rng(7)
    for n in (2, 3, 4, 8, 48):
        for _ in range(5):
            x = cv_pack(random_jacobi(rng, n))
            for p, P in enumerate((pi0_cv, pi1_cv, pi2_cv)):
                np.testing.assert_array_equal(P(n).tensor(x), pi_cv_loop(p, n, x))


@pytest.mark.parametrize("n", [2, 3, 8, 48, 256])
@pytest.mark.parametrize("p", [0, 1, 2])
def test_cv_banded_apply_matches_dense_tensor(p, n):
    rng = np.random.default_rng(1000 * p + n)
    for _ in range(5):
        x = cv_pack(random_jacobi(rng, n))
        g = rng.standard_normal(2 * n - 1)
        want = PI_CV[p](n).tensor(x) @ g
        got = pi_cv_apply(p, x, g)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
