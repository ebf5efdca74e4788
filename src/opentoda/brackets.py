"""Poisson structures in the c-v and z-rho charts, evaluable as
antisymmetric tensors at a state, plus the generic verification machinery
(Jacobi residual, pushforward, Casimir test, Dirac reduction).

Flat state layouts:
  CV    x = (v_0..v_{N-1}, c_0..c_{N-2})          dimension 2N-1
  ZRHO  x = (z_0..z_{N-1}, rho_0..rho_{N-1})      dimension 2N

Every tensor is assembled by filling one orientation of each coordinate pair
and antisymmetrizing, so antisymmetry is exact by construction. The c-v
brackets pi_p couple coordinates at most two sites apart; pi_cv_apply applies
one to a vector in O(n) without forming its tensor.
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    CoincidentPoints,
    CoincidentPoles,
    ConstraintBracketNotUnit,
    DomainViolation,
)
from .spectral import weyl_eval

# central-difference step scale: machine epsilon to the one-third power
FD_STEP = 2.220446049250313e-16 ** (1.0 / 3.0)
# largest |{Phi1, Phi2} - 1| that dirac_restrict accepts at a state
_CONSTRAINT_TOL = 1e-8


def cv_pack(J):
    """Flatten a Jacobi matrix into the CV state vector."""
    return np.concatenate([J.v, J.c])


def zrho_pack(S):
    return np.concatenate([S.z, S.rho])


def zrho_unpack(x, n):
    """Split a flat state after n entries: (z, rho), or (v, c) in the c-v chart."""
    return np.asarray(x[:n]), np.asarray(x[n:])


class WeightFn:
    """The weight f(z) = z^n parametrizing a bracket family, n >= 0.

    Each power carries the closed-form antiderivative F with F'(z) = 1/f(z),
    used by the action coordinates and the constraint functions.
    """

    __slots__ = ("power_n",)

    def __init__(self, n):
        # an integer only: int() would truncate 2.7 and read True as 1
        if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
            raise DomainViolation(f"power must be an integer, not {n!r}")
        if n < 0:
            raise DomainViolation("power must be >= 0")
        self.power_n = int(n)

    @classmethod
    def power(cls, n):
        return cls(n)

    def __call__(self, z):
        return np.asarray(z) ** self.power_n if self.power_n else np.ones_like(np.asarray(z, dtype=float))

    def antiderivative(self, z):
        """F(z) with F' = 1/f.

        For f = z^n with n >= 1 the domain is z > 0; the integration constant
        is a gauge with no effect on any bracket.
        """
        z = np.asarray(z, dtype=float)
        n = self.power_n
        if n == 0:
            return z + 0.0
        if np.any(z <= 0):
            raise DomainViolation("antiderivative of 1/z^n needs z > 0")
        if n == 1:
            return np.log(z)
        return -1.0 / ((n - 1) * z ** (n - 1))

    @property
    def label(self):
        return "1" if self.power_n == 0 else ("z" if self.power_n == 1 else f"z^{self.power_n}")

    def __repr__(self):
        return f"WeightFn({self.label})"


class Observable:
    """Scalar function of a flat state, with gradient (analytic or FD)."""

    __slots__ = ("_fn", "_grad")

    def __init__(self, fn, grad=None):
        self._fn = fn
        self._grad = grad

    def value(self, x):
        return self._fn(np.asarray(x, dtype=float))

    def gradient(self, x):
        x = np.asarray(x, dtype=float)
        if self._grad is not None:
            return np.asarray(self._grad(x), dtype=float)
        return fd_gradient(self._fn, x)


@dataclass(frozen=True)
class PoissonStructure:
    """A named antisymmetric tensor-valued function of the state."""

    name: str
    tensor_fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)

    def tensor(self, x):
        return self.tensor_fn(np.asarray(x, dtype=float))

    def bracket(self, obs1, obs2, x):
        """{obs1, obs2} at x via gradients against the tensor."""
        x = np.asarray(x, dtype=float)
        return float(obs1.gradient(x) @ self.tensor(x) @ obs2.gradient(x))


# ---------------------------------------------------------------------------
# finite differences

def _central_differences(fn, x):
    """(fn(x + h e_l) - fn(x - h e_l)) / 2h with h = FD_STEP (1 + |x_l|), for
    each coordinate l of x, stacked along a new first axis."""
    x = np.asarray(x, dtype=float)
    rows = []
    for l in range(x.size):
        h = FD_STEP * (1.0 + abs(x[l]))
        xp = x.copy()
        xm = x.copy()
        xp[l] += h
        xm[l] -= h
        rows.append((np.asarray(fn(xp), dtype=float) - np.asarray(fn(xm), dtype=float)) / (2.0 * h))
    return np.array(rows)


def fd_gradient(fn, x):
    return _central_differences(fn, x)


def fd_jacobian(fn, x):
    return np.ascontiguousarray(_central_differences(fn, x).T)


# ---------------------------------------------------------------------------
# closed-form tensors in the c-v chart

# Elementwise libm pow, which is what the scalar c_k ** m of a per-entry
# assembly computes. Array ** 2 is a plain multiply and array ** 3 may take a
# SIMD pow; either can differ from it in the last bit.
_pow = np.float_power


def _pi_cv_entries(p, v, c):
    """The brackets {x_r, x_s} = w of pi_p in the c-v chart at (v, c), as
    (r0, s0, w) triples: entry i of w is the bracket of x_{r0 + i} with
    x_{s0 + i}. Each coordinate pair appears once, in one orientation.

    Every pair couples coordinates at most two sites apart, so the triples
    hold O(n) numbers for n sites.
    """
    n = v.size
    if p == 0:
        return ((n, 0, -0.5 * c), (n, 1, 0.5 * c))
    if p == 1:
        return (
            (n, 0, -0.5 * c * v[:-1]),
            (n, 1, 0.5 * c * v[1:]),
            (0, 1, _pow(c, 2)),
            (n, n + 1, 0.25 * c[:-1] * c[1:]),
        )
    c2, c3, v2 = _pow(c, 2), _pow(c, 3), _pow(v, 2)
    return (
        (n, 0, -0.5 * (c * v2[:-1] + c3)),
        (n, 1, 0.5 * (c * v2[1:] + c3)),
        (0, 1, c2 * (v[:-1] + v[1:])),
        (n, n + 1, 0.5 * c[:-1] * c[1:] * v[1:-1]),
        (n, 2, 0.5 * c[:-1] * c2[1:]),
        (n + 1, 0, -0.5 * c2[:-1] * c[1:]),
    )


def _pi_cv(p, n):
    """pi_p on n >= 2 sites, its dense tensor assembled from _pi_cv_entries."""
    if n < 2:
        raise DomainViolation("need N >= 2 in the c-v chart")
    d = 2 * n - 1

    def tensor(x):
        M = np.zeros((d, d))
        flat = M.ravel()
        for r0, s0, w in _pi_cv_entries(p, *zrho_unpack(x, n)):
            # entries (r0 + i, s0 + i) lie d + 1 apart in the flat array
            flat[r0 * d + s0 :: d + 1][: w.size] = w
        return M - M.T

    return PoissonStructure(name=f"pi{p}_cv", tensor_fn=tensor)


def pi_cv_apply(p, x, g):
    """pi_p(x) g in the c-v chart, from the banded entries of pi_p: O(n)
    work, where pi{p}_cv(n).tensor(x) @ g forms the dense tensor first.

    Agrees with the dense product to rounding (the sums run in another
    order). Any n >= 1; a single site has no bracket and gives zero.
    """
    x = np.asarray(x, dtype=float)
    n = (x.size + 1) // 2
    y = np.zeros(x.size)
    for r0, s0, w in _pi_cv_entries(p, *zrho_unpack(x, n)):
        m = w.size
        y[r0 : r0 + m] += w * g[s0 : s0 + m]
        y[s0 : s0 + m] -= w * g[r0 : r0 + m]
    return y


def pi0_cv(n):
    """Image of the canonical bracket under the Flaschka map:
    {c_k, v_k} = -c_k/2, {c_k, v_{k+1}} = +c_k/2."""
    return _pi_cv(0, n)


def pi1_cv(n):
    """Quadratic bracket of the hierarchy, normalized so that pairing with
    tr L generates the first Toda flow exactly:
    {c_k, c_{k+1}} = c_k c_{k+1}/4, {c_k, v_k} = -c_k v_k/2,
    {c_k, v_{k+1}} = c_k v_{k+1}/2, {v_k, v_{k+1}} = c_k^2."""
    return _pi_cv(1, n)


def pi2_cv(n):
    """Cubic bracket of the hierarchy, normalized like pi1_cv:
    {c_k, c_{k+1}} = c_k c_{k+1} v_{k+1}/2,
    {c_k, v_k} = -(c_k v_k^2 + c_k^3)/2,
    {c_k, v_{k+1}} = (c_k v_{k+1}^2 + c_k^3)/2,
    {c_k, v_{k+2}} = c_k c_{k+1}^2/2, {c_{k+1}, v_k} = -c_k^2 c_{k+1}/2,
    {v_k, v_{k+1}} = c_k^2 (v_k + v_{k+1})."""
    return _pi_cv(2, n)


# pi_0, pi_1, pi_2 in the c-v chart, indexed by p
PI_CV = (pi0_cv, pi1_cv, pi2_cv)


def pi_cv_indices(k):
    """The p, 0 <= p <= min(k, 2), for which pi_p and H_{k-p} give X_k."""
    return range(min(k, len(PI_CV) - 1) + 1)


# ---------------------------------------------------------------------------
# contour bracket as residue sums

def _check_points(S, p, q):
    if not (np.isfinite(p) and np.isfinite(q)):
        raise DomainViolation("p and q must be finite")
    if p == q:
        raise CoincidentPoints("p and q must be distinct")
    if np.any(S.z == p) or np.any(S.z == q):
        raise CoincidentPoints("p and q must avoid the poles")


def bracket_terms(S, p, q, f, restricted=False):
    """Per-pole contributions to the contour bracket at (p, q).

    Each term is the clockwise residue at one pole; summing them gives the
    bracket. The restricted variant subtracts the third-kind-differential
    correction weighted by chi(p)chi(q)/q0.
    """
    _check_points(S, p, q)
    chi_p = weyl_eval(S, p)
    chi_q = weyl_eval(S, q)
    fz = f(S.z)
    terms = S.rho * fz * (chi_p - chi_q) / ((S.z - p) * (S.z - q))
    if restricted:
        q0 = float(np.sum(S.rho))
        corr = S.rho * fz * (1.0 / (S.z - p) - 1.0 / (S.z - q)) * chi_p * chi_q / q0
        terms = terms - corr
    return terms


def analytic_bracket(S, p, q, f):
    """{chi(p), chi(q)} for the weight f as a sum of clockwise residues."""
    return np.sum(bracket_terms(S, p, q, f, restricted=False))


def restricted_bracket(S, p, q, f):
    """The bracket restricted to the normalized class, as residue sums of the
    corrected differential."""
    return np.sum(bracket_terms(S, p, q, f, restricted=True))


def closed_form_bracket(S, p, q, f, restricted=False):
    """Quadratic-algebra closed forms, available for f = 1 and f = z.

    Unrestricted: f=1 gives (chi(p)-chi(q))^2/(p-q); f=z gives
    (p chi(p) - q chi(q))(chi(p)-chi(q))/(p-q). The restricted forms replace
    the second factor by (chi(p)-chi(q))/(p-q) - chi(p)chi(q)/q0.
    """
    if f.power_n not in (0, 1):
        raise DomainViolation("closed forms exist for f = 1 and f = z only")
    _check_points(S, p, q)
    chi_p = weyl_eval(S, p)
    chi_q = weyl_eval(S, q)
    lead = (chi_p - chi_q) if f.power_n == 0 else (p * chi_p - q * chi_q)
    second = (chi_p - chi_q) / (p - q)
    if restricted:
        second = second - chi_p * chi_q / float(np.sum(S.rho))
    return lead * second


# ---------------------------------------------------------------------------
# z-rho tensors

def _pairwise_dz(z):
    dz = z[None, :] - z[:, None]
    off = ~np.eye(z.size, dtype=bool)
    if z.size > 1 and np.any(dz[off] == 0):
        raise CoincidentPoles("tensor needs distinct poles")
    return dz


def zrho_tensor(f, n):
    """Unrestricted bracket in z-rho coordinates:
    {rho_k, z_n} = rho_k f(z_n) delta, {z, z} = 0,
    {rho_k, rho_m} = (f(z_k)+f(z_m)) rho_k rho_m/(z_m - z_k) off-diagonal."""

    def tensor(x):
        z, rho = zrho_unpack(x, n)
        dz = _pairwise_dz(z)
        fz = np.asarray(f(z), dtype=float)
        M = np.zeros((2 * n, 2 * n))
        M[n + np.arange(n), np.arange(n)] = rho * fz
        with np.errstate(divide="ignore", invalid="ignore"):
            B = (fz[:, None] + fz[None, :]) * np.outer(rho, rho) / dz
        B[np.eye(n, dtype=bool)] = 0.0
        M[n:, n:] = np.triu(B, 1)
        return M - M.T

    return PoissonStructure(name="zrho", tensor_fn=tensor)


def zrho_restricted_tensor(f, n):
    """Bracket restricted to the normalized class, in z-rho coordinates.

    The z-z block stays zero; the rho-z block picks up -f(z_m) rho_k rho_m/q0,
    and the rho-rho block the antisymmetric correction built from the row sums
    S_k = sum_{m != k} (f(z_k)+f(z_m)) rho_m/(z_m - z_k):
    {rho_k, rho_m}' = {rho_k, rho_m} + rho_k rho_m (S_m - S_k)/q0.
    This is exactly the Dirac reduction of zrho_tensor by the constraint pair
    (action_sum, neg_log_mass), in closed form.
    """

    def tensor(x):
        z, rho = zrho_unpack(x, n)
        dz = _pairwise_dz(z)
        fz = np.asarray(f(z), dtype=float)
        q0 = float(np.sum(rho))
        M = np.zeros((2 * n, 2 * n))
        M[n:, :n] = np.diag(rho * fz) - np.outer(rho, rho * fz) / q0
        fsum = fz[:, None] + fz[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            B = fsum * np.outer(rho, rho) / dz
            G = fsum * rho[None, :] / dz
        eye = np.eye(n, dtype=bool)
        B[eye] = 0.0
        G[eye] = 0.0
        Srow = G.sum(axis=1)
        B = B + np.outer(rho, rho) * (Srow[None, :] - Srow[:, None]) / q0
        M[n:, n:] = np.triu(B, 1)
        return M - M.T

    return PoissonStructure(name="zrho_restricted", tensor_fn=tensor)


# ---------------------------------------------------------------------------
# constraints and Dirac reduction

def action_sum(f, n):
    """Observable sum_k F(z_k) on the z-rho chart, F' = 1/f."""

    def value(x):
        z, _ = zrho_unpack(x, n)
        return float(np.sum(f.antiderivative(z)))

    def grad(x):
        z, _ = zrho_unpack(x, n)
        g = np.zeros(2 * n)
        g[:n] = 1.0 / np.asarray(f(z), dtype=float)
        return g

    return Observable(value, grad)


def neg_log_mass(n):
    """Observable -log(sum rho) on the z-rho chart; vanishes on normalized data."""

    def value(x):
        _, rho = zrho_unpack(x, n)
        return -float(np.log(np.sum(rho)))

    def grad(x):
        _, rho = zrho_unpack(x, n)
        g = np.zeros(2 * n)
        g[n:] = -1.0 / float(np.sum(rho))
        return g

    return Observable(value, grad)


def dirac_restrict(base, phi1, phi2):
    """Dirac reduction of a Poisson structure by a second-class pair.

    {F, G}' = {F, G} + ({Phi2, G}{F, Phi1} - {Phi1, G}{F, Phi2})/{Phi1, Phi2},
    realized on tensors as T + (w u^T - u w^T)/c with u = T grad(Phi1),
    w = T grad(Phi2), c = {Phi1, Phi2}. Raises ConstraintBracketNotUnit when
    |c - 1| > _CONSTRAINT_TOL at the evaluation state.
    """

    def tensor(x):
        T = base.tensor(x)
        g1 = phi1.gradient(x)
        g2 = phi2.gradient(x)
        u = T @ g1
        w = T @ g2
        c = float(g1 @ w)
        if abs(c - 1.0) > _CONSTRAINT_TOL:
            raise ConstraintBracketNotUnit(f"{{Phi1, Phi2}} = {c!r}")
        return T + (np.outer(w, u) - np.outer(u, w)) / c

    return PoissonStructure(name=base.name + "_dirac", tensor_fn=tensor)


# ---------------------------------------------------------------------------
# verification machinery

def jacobi_residual(P, state):
    """Largest cyclic-sum residual of the Jacobi identity at a state.

    Central finite differences for the tensor derivatives; the residual
    R_ijk = sum_cyc sum_l (d pi_ij/dx_l) pi_lk vanishes for a true Poisson
    tensor up to FD noise (~1e-8 at unit scale). Returns the max over all
    index triples.
    """
    x = np.asarray(state, dtype=float)
    T0 = P.tensor(x)
    dT = _central_differences(P.tensor, x)
    A = np.einsum("lij,lk->ijk", dT, T0)
    R = A + A.transpose(1, 2, 0) + A.transpose(2, 0, 1)
    return float(np.max(np.abs(R)))


def pushforward(P, map_fn, state):
    """Tensor of P pushed through a differentiable chart map at a state.

    J pi J^T with the Jacobian J of map_fn by central differences; the result
    lives at map_fn(state) in the target chart.
    """
    J = fd_jacobian(map_fn, state)
    return J @ P.tensor(state) @ J.T


def casimir_residual(P, phi, state):
    """Max-norm of the tensor applied to the gradient of a candidate Casimir."""
    x = np.asarray(state, dtype=float)
    return float(np.max(np.abs(P.tensor(x) @ phi.gradient(x))))
