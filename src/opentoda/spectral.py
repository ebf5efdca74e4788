"""Direct and inverse spectral transforms.

The direct transform sends a Jacobi matrix to the pole-residue data (z, rho)
of its Weyl function chi(z) = sum_k rho_k/(z_k - z); the inverse rebuilds the
matrix by Lanczos tridiagonalization of diag(z) started from sqrt(rho). A
continued-fraction peeling in pole-residue form is kept as an independent
secondary route for small N, and a moment-based (Hankel) recovery supports the
truncated-expansion cross-check.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CoincidentPoles,
    ConvergenceFailure,
    DomainViolation,
    NonRealOrMultipleRoots,
    NotInRatNPrime,
    PoleEvaluation,
    SingularMatrix,
)
from .ratfun import Rat, poly_from_roots, poly_real_roots
from .tridiag import JacobiMatrix, eigen


@dataclass(frozen=True)
class SpectralData:
    """Poles z (strictly increasing) and residues rho of a rational function
    vanishing at infinity.

    Membership in the normalized class (rho > 0, sum rho = 1) is not enforced
    here; `validate` reports it and the inverse transform requires it.
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

    @classmethod
    def from_dict(cls, d):
        return cls(z=np.asarray(d["z"], dtype=float), rho=np.asarray(d["rho"], dtype=float))


def direct_transform(J):
    """Spectral data of a Jacobi matrix: eigenvalues and squared first
    eigenvector components."""
    z, comp = eigen(J)
    return SpectralData(z=z, rho=comp ** 2)


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


def moments(S, count):
    """Power moments s_p = sum_k z_k^p rho_k for p = 0..count-1."""
    if count < 1:
        raise DomainViolation("count must be >= 1")
    powers = np.vander(S.z, count, increasing=True).T
    return powers @ S.rho


def validate(z, rho):
    """Membership report for raw arrays: {"ratN", "ratNprime", "interlaces"}.

    Unlike the SpectralData constructor this never raises on bad data; it
    reports instead.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    rat_n = (
        z.size >= 1
        and z.size == rho.size
        and bool(np.all(np.isfinite(z)) and np.all(np.isfinite(rho)))
        and (z.size == 1 or bool(np.all(np.diff(z) > 0)))
        and bool(np.all(rho != 0))
    )
    rat_np = rat_n and bool(np.all(rho > 0)) and abs(float(np.sum(rho)) - 1.0) <= 1e-10
    inter = False
    if rat_n and bool(np.all(rho > 0)):
        if z.size == 1:
            inter = True
        else:
            try:
                g, _ = gammas(SpectralData(z=z, rho=rho))
                inter = bool(np.all(z[:-1] < g) and np.all(g < z[1:]))
            except NonRealOrMultipleRoots:
                inter = False
    return {"ratN": rat_n, "ratNprime": rat_np, "interlaces": inter}


def _require_normalized(S):
    if np.any(S.rho <= 0) or abs(float(np.sum(S.rho)) - 1.0) > 1e-10:
        raise NotInRatNPrime("need rho_k > 0 and sum(rho) = 1 within 1e-10")


def _lanczos_from_spectrum(zs, w0, alpha, beta):
    """Tridiagonalize diag(zs) starting from the vector w0.

    Writes the recurrence coefficients into alpha (n,) and beta (n-1,); beta
    comes out positive. Full reorthogonalization is applied twice per step,
    which keeps the reconstruction valid at n = 8 in double precision.
    Returns 0 on success, 1 on breakdown (numerically dependent start data).
    """
    n = zs.shape[0]
    Q = np.zeros((n, n))
    nrm = 0.0
    for i in range(n):
        nrm += w0[i] * w0[i]
    nrm = math.sqrt(nrm)
    if nrm == 0.0:
        return 1
    for i in range(n):
        Q[i, 0] = w0[i] / nrm
    u = np.empty(n)
    for j in range(n):
        for i in range(n):
            u[i] = zs[i] * Q[i, j]
        if j > 0:
            for i in range(n):
                u[i] -= beta[j - 1] * Q[i, j - 1]
        a = 0.0
        for i in range(n):
            a += Q[i, j] * u[i]
        alpha[j] = a
        for i in range(n):
            u[i] -= a * Q[i, j]
        for _ in range(2):
            for col in range(j + 1):
                dp = 0.0
                for i in range(n):
                    dp += Q[i, col] * u[i]
                for i in range(n):
                    u[i] -= dp * Q[i, col]
        if j < n - 1:
            b = 0.0
            for i in range(n):
                b += u[i] * u[i]
            b = math.sqrt(b)
            if not (b > 0.0) or not np.isfinite(b):
                return 1
            beta[j] = b
            for i in range(n):
                Q[i, j + 1] = u[i] / b
    return 0


def inverse_transform(S):
    """The unique Jacobi matrix whose spectral data is S.

    Lanczos on diag(z) with start vector sqrt(rho) and full
    reorthogonalization; the recurrence coefficients are the matrix entries,
    with the off-diagonal taken positive. Raises NotInRatNPrime unless
    rho_k > 0 and sum(rho) = 1.
    """
    _require_normalized(S)
    n = S.n
    alpha = np.zeros(n)
    beta = np.zeros(n - 1)
    status = _lanczos_from_spectrum(S.z, np.sqrt(S.rho), alpha, beta)
    if status != 0:
        raise ConvergenceFailure("Lanczos breakdown; spectral data degenerate")
    return JacobiMatrix(v=alpha, c=beta)


def inverse_transform_stieltjes(S):
    """Continued-fraction peeling executed in pole-residue form.

    Each stage reads off v_j = sum(rho z) and c_j^2 = sum(rho z^2) - v_j^2,
    then passes to the next level whose poles are the current numerator roots
    gamma_i with residues 1/(c_j^2 chi'(gamma_i)). Independent of the Lanczos
    route; intended as a cross-check for N <= 5, where each stage's
    root-finding stays well conditioned.
    """
    _require_normalized(S)
    n = S.n
    v = np.zeros(n)
    c = np.zeros(n - 1)
    cur = S
    for j in range(n - 1):
        v[j] = float(np.sum(cur.rho * cur.z))
        csq = float(np.sum(cur.rho * cur.z ** 2)) - v[j] ** 2
        if csq <= 0:
            raise ConvergenceFailure("nonpositive variance during peeling")
        c[j] = np.sqrt(csq)
        g, _ = gammas(cur)
        chi_prime = np.array([float(np.sum(cur.rho / (cur.z - gi) ** 2)) for gi in g])
        cur = SpectralData(z=g, rho=1.0 / (csq * chi_prime))
    v[n - 1] = float(np.sum(cur.rho * cur.z))
    return JacobiMatrix(v=v, c=c)


def from_moments(s, n):
    """Recover (z, rho) from the first 2n power moments.

    Solves the n x n Hankel system for the monic denominator, roots it, then
    solves the Vandermonde system for the residues. Exponentially
    ill-conditioned in n; intended for n <= 5.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if s.size < 2 * n:
        raise DomainViolation(f"need at least {2 * n} moments")
    H = np.empty((n, n))
    for i in range(n):
        H[i] = s[i : i + n]
    try:
        a = np.linalg.solve(H, -s[n : 2 * n])
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix("moment matrix singular") from exc
    z = poly_real_roots(np.concatenate([a, [1.0]]))
    if z.size != n:
        raise NonRealOrMultipleRoots("denominator degree collapsed")
    V = np.vander(z, n, increasing=True).T
    try:
        rho = np.linalg.solve(V, s[:n])
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix("Vandermonde system singular") from exc
    return SpectralData(z=z, rho=rho)
