"""Direct and inverse spectral transforms.

The direct transform sends a Jacobi matrix to the pole-residue data (z, rho)
of its Weyl function chi(z) = sum_k rho_k/(z_k - z); the inverse rebuilds the
matrix by Lanczos tridiagonalization of diag(z) started from sqrt(rho). An
independent second inverse adds one node at a time and restores tridiagonal
form by Givens rotations on the two bands (RKPW). to_jacobi and to_spectral
convert any state.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CoincidentPoles,
    ConvergenceFailure,
    DomainViolation,
    NotInRatNPrime,
    PoleEvaluation,
)
from .ratfun import Rat, poly_from_roots, poly_real_roots
from .tridiag import JacobiMatrix, PhasePoint, eigen, flaschka


@dataclass(frozen=True)
class SpectralData:
    """Poles z (strictly increasing) and residues rho of a rational function
    vanishing at infinity.

    Membership in the normalized class (rho > 0, sum rho = 1) is not enforced
    here; the inverse transform requires it.
    """

    z: np.ndarray
    rho: np.ndarray

    def __post_init__(self):
        z = np.atleast_1d(np.asarray(self.z, dtype=float)).copy()
        rho = np.atleast_1d(np.asarray(self.rho, dtype=float)).copy()
        if z.ndim != 1 or z.size < 1 or z.size != rho.size:
            raise DomainViolation("z and rho must be 1-D of equal length N >= 1")
        if not (np.all(np.isfinite(z)) and np.all(np.isfinite(rho))):
            raise DomainViolation("z and rho must be finite")
        if z.size > 1 and np.any(np.diff(z) <= 0):
            raise CoincidentPoles("z must be strictly increasing")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "rho", rho)

    @property
    def n(self):
        return self.z.size

    def as_dict(self):
        return {"z": self.z.tolist(), "rho": self.rho.tolist()}


def direct_transform(J):
    """Spectral data of a Jacobi matrix: eigenvalues and squared first
    eigenvector components."""
    z, comp = eigen(J)
    return SpectralData(z=z, rho=comp ** 2)


def to_jacobi(obj):
    """The Jacobi matrix of a phase point, spectral data or Jacobi matrix."""
    if isinstance(obj, PhasePoint):
        return flaschka(obj)
    if isinstance(obj, SpectralData):
        return inverse_transform(obj)
    return obj


def to_spectral(obj):
    """The spectral data of a phase point, Jacobi matrix or spectral data."""
    if isinstance(obj, SpectralData):
        return obj
    return direct_transform(to_jacobi(obj))


def weyl_eval(S, x):
    """chi(x) = sum_k rho_k/(z_k - x) for scalar or array x, real or complex.

    Raises PoleEvaluation when x lands exactly on a pole.
    """
    xa = np.asarray(x)
    diff = S.z.reshape(S.z.shape + (1,) * xa.ndim) - xa
    if np.any(diff == 0):
        raise PoleEvaluation("evaluation point equals a pole")
    out = np.sum(S.rho.reshape(diff.shape[0], *([1] * xa.ndim)) / diff, axis=0)
    return out if xa.ndim else out.item()


def numerator_poly(S):
    """Coefficients of q(z) = sum_k rho_k prod_{m != k}(z - z_m), ascending."""
    n = S.n
    q = np.zeros(n)
    for k in range(n):
        q += S.rho[k] * poly_from_roots(np.delete(S.z, k))
    return q


def weyl_rat(S):
    """chi as a rational function: num = -q, den = prod(z - z_k).

    Built so that partial fractions of the result hand back exactly (z, rho).
    """
    return Rat(-numerator_poly(S), poly_from_roots(S.z))


def gammas(S):
    """Numerator roots and leading coefficient of -chi's numerator.

    Returns (gamma, q0) with q0 = sum(rho). For normalized data the gammas
    strictly interlace the poles. Root-finding failures propagate.
    """
    q0 = float(np.sum(S.rho))
    if S.n == 1:
        return np.zeros(0), q0
    g = poly_real_roots(numerator_poly(S))
    return g, q0


def _normalized(rho):
    """Whether finite residues rho lie in the normalized class."""
    return bool(np.all(rho > 0)) and abs(float(np.sum(rho)) - 1.0) <= 1e-10


def _require_normalized(S):
    if not _normalized(S.rho):
        raise NotInRatNPrime("need rho_k > 0 and sum(rho) = 1 within 1e-10")


def _lanczos_from_spectrum(zs, w0):
    """Tridiagonalize diag(zs) starting from the vector w0.

    Returns the recurrence coefficients (alpha (n,), beta (n-1,)); beta comes
    out positive. Each new vector is reorthogonalized against all earlier
    ones by classical Gram-Schmidt applied twice (Giraud, Langou &
    Rozloznik, Comput. Math. Appl. 50, 2005), two matrix-vector products per
    pass. Raises ConvergenceFailure on breakdown (numerically dependent start
    data).
    """
    n = zs.shape[0]
    alpha = np.zeros(n)
    beta = np.zeros(n - 1)
    nrm = math.sqrt(w0 @ w0)
    if nrm == 0.0:
        raise ConvergenceFailure("Lanczos breakdown; spectral data degenerate")
    # row j holds the j-th Lanczos vector
    Q = np.zeros((n, n))
    Q[0] = w0 / nrm
    for j in range(n):
        u = zs * Q[j]
        if j > 0:
            u -= beta[j - 1] * Q[j - 1]
        alpha[j] = Q[j] @ u
        u -= alpha[j] * Q[j]
        V = Q[: j + 1]
        for _ in range(2):
            u -= (V @ u) @ V
        if j < n - 1:
            b = math.sqrt(u @ u)
            if not (b > 0.0) or not np.isfinite(b):
                raise ConvergenceFailure("Lanczos breakdown; spectral data degenerate")
            beta[j] = b
            Q[j + 1] = u / b
    return alpha, beta


def inverse_transform(S):
    """The unique Jacobi matrix whose spectral data is S.

    Lanczos on diag(z) with start vector sqrt(rho) and full
    reorthogonalization (CGS2); the recurrence coefficients are the matrix entries,
    with the off-diagonal taken positive. Raises NotInRatNPrime unless
    rho_k > 0 and sum(rho) = 1.
    """
    _require_normalized(S)
    alpha, beta = _lanczos_from_spectrum(S.z, np.sqrt(S.rho))
    return JacobiMatrix(v=alpha, c=beta)


def inverse_transform_stieltjes(S):
    """The Jacobi matrix of S rebuilt from its nodes one at a time (RKPW).

    The coefficients of chi's Stieltjes J-fraction, found without Lanczos
    vectors or polynomials: a border row of weights sqrt(rho) couples to a
    tridiagonal matrix of the nodes added so far. Each new node (z_k,
    sqrt(rho_k)) enters next to the border; Givens rotations restore
    tridiagonal form by chasing the bulge down the two bands (Gragg &
    Harrod, Numer. Math. 44, 1984). O(N^2) scalar Python work: a cross-check
    for verify sizes, not a hot path.
    """
    _require_normalized(S)
    n = S.n
    w = np.sqrt(S.rho)
    # with m nodes in, rows 1..m of the bordered matrix hold the diagonal
    # d[1:m+1] and the coupling e[i] of rows i and i + 1, e[0] that of the
    # border row 0; e[m:] is zero, so the chase ends at the last row
    d = np.zeros(n + 1)
    e = np.zeros(n + 1)
    d[1], e[0] = S.z[0], w[0]
    for m in range(1, n):
        # the new node becomes row 1; the border couples to rows 1 and 2
        d[2 : m + 2] = d[1 : m + 1]
        e[2 : m + 1] = e[1:m]
        d[1], e[1] = S.z[m], 0.0
        bulge, e[0] = e[0], w[m]
        for i in range(1, m + 1):
            # rotate rows i, i + 1 to zero the entry (i - 1, i + 1)
            r = math.hypot(e[i - 1], bulge)
            cs, sn = e[i - 1] / r, bulge / r
            e[i - 1] = r
            a, b, f = d[i], d[i + 1], e[i]
            d[i] = cs * cs * a + 2.0 * cs * sn * f + sn * sn * b
            d[i + 1] = sn * sn * a - 2.0 * cs * sn * f + cs * cs * b
            e[i] = cs * sn * (b - a) + (cs * cs - sn * sn) * f
            bulge, e[i + 1] = sn * e[i + 1], cs * e[i + 1]
            if bulge == 0.0:
                break
    return JacobiMatrix(v=d[1:], c=np.abs(e[1:n]))
