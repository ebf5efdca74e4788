"""Jacobi matrices: construction from phase points, spectra, and the
three-term recurrence polynomials.

A Jacobi matrix is stored as its diagonal v (N entries) and positive
off-diagonal c (N-1 entries). The closing coefficient c_{N-1} = prod(c_k)^-1
is a device for the last recurrence step, computed on demand and never stored.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, DomainViolation, SingularMatrix

_EPS = 2.220446049250313e-16


def _as_finite_1d(x, name):
    a = np.atleast_1d(np.asarray(x, dtype=float)).copy()
    if a.ndim != 1:
        raise DomainViolation(f"{name} must be one-dimensional")
    if a.size and not np.all(np.isfinite(a)):
        raise DomainViolation(f"{name} must be finite")
    return a


@dataclass(frozen=True)
class PhasePoint:
    """Positions and momenta of the N-particle open lattice."""

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", _as_finite_1d(self.q, "q"))
        object.__setattr__(self, "p", _as_finite_1d(self.p, "p"))
        if self.q.size != self.p.size or self.q.size < 1:
            raise DomainViolation("q and p must have equal length N >= 1")

    @property
    def n(self):
        return self.q.size

    def as_dict(self):
        return {"q": self.q.tolist(), "p": self.p.tolist()}

    @classmethod
    def from_dict(cls, d):
        return cls(q=np.asarray(d["q"], dtype=float), p=np.asarray(d["p"], dtype=float))


@dataclass(frozen=True)
class JacobiMatrix:
    """Symmetric tridiagonal matrix with positive off-diagonal.

    c_k > 0 guarantees a simple spectrum and nonvanishing first eigenvector
    components, which the whole spectral correspondence rests on; values
    violating it are rejected at construction.
    """

    v: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        v = _as_finite_1d(self.v, "v")
        c = np.asarray(self.c, dtype=float).reshape(-1).copy()
        if v.size < 1:
            raise DomainViolation("need at least one site")
        if c.size != v.size - 1:
            raise DomainViolation("off-diagonal must have length N - 1")
        if c.size and (not np.all(np.isfinite(c)) or np.any(c <= 0)):
            raise DomainViolation("off-diagonal entries must be finite and > 0")
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "c", c)

    @property
    def n(self):
        return self.v.size

    @property
    def c_closure(self):
        """The closing off-diagonal coefficient prod(c_k)^-1."""
        return float(np.prod(1.0 / self.c)) if self.c.size else 1.0

    def to_dense(self):
        L = np.diag(self.v)
        if self.c.size:
            idx = np.arange(self.n - 1)
            L[idx, idx + 1] = self.c
            L[idx + 1, idx] = self.c
        return L

    def as_dict(self):
        return {"v": self.v.tolist(), "c": self.c.tolist()}

    @classmethod
    def from_dict(cls, d):
        return cls(v=np.asarray(d["v"], dtype=float), c=np.asarray(d["c"], dtype=float))


def flaschka(pt):
    """Map a phase point to its Jacobi matrix: v = -p, c_k = exp((q_k - q_{k+1})/2)."""
    v = -pt.p
    c = np.exp(0.5 * (pt.q[:-1] - pt.q[1:]))
    return JacobiMatrix(v=v, c=c)


def unflaschka(J, q0=0.0):
    """Gauge-fixed inverse of flaschka: q starts at q0, p = -v.

    flaschka(unflaschka(J, q0)) == J exactly for any gauge q0.
    """
    p = -J.v
    q = np.empty(J.n)
    q[0] = q0
    if J.n > 1:
        q[1:] = q0 - np.cumsum(2.0 * np.log(J.c))
    return PhasePoint(q=q, p=p)


def _ql_eigen_first(d, e, z, max_sweeps):
    """Implicit-shift QL on a symmetric tridiagonal matrix.

    d (n,) holds the diagonal and is overwritten with eigenvalues in ascending
    order; e (n,) holds the subdiagonal in e[:n-1] (e[n-1] is scratch) and is
    destroyed; z (n,) is overwritten with the first row of the eigenvector
    matrix, i.e. z[k] is the first component of the k-th eigenvector.
    Returns 0 on success, 1 when some eigenvalue needs more than max_sweeps
    sweeps.
    """
    n = d.shape[0]
    for i in range(n):
        z[i] = 0.0
    z[0] = 1.0
    if n == 1:
        return 0
    for l in range(n):
        sweeps = 0
        while True:
            m = n - 1
            for mm in range(l, n - 1):
                dd = abs(d[mm]) + abs(d[mm + 1])
                if abs(e[mm]) <= _EPS * dd:
                    m = mm
                    break
            if m == l:
                break
            sweeps += 1
            if sweeps > max_sweeps:
                return 1
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            if g >= 0.0:
                g = d[m] - d[l] + e[l] / (g + r)
            else:
                g = d[m] - d[l] + e[l] / (g - r)
            s = 1.0
            c = 1.0
            p = 0.0
            underflow = False
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    e[m] = 0.0
                    underflow = True
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                f = z[i + 1]
                z[i + 1] = s * z[i] + c * f
                z[i] = c * z[i] - s * f
            if not underflow:
                d[l] -= p
                e[l] = g
                e[m] = 0.0
    # ascending order, carrying the first components along
    for i in range(1, n):
        dk = d[i]
        zk = z[i]
        j = i - 1
        while j >= 0 and d[j] > dk:
            d[j + 1] = d[j]
            z[j + 1] = z[j]
            j -= 1
        d[j + 1] = dk
        z[j + 1] = zk
    return 0


def eigen(J, max_sweeps=60):
    """Eigenvalues (ascending) and first eigenvector components of J.

    The first components are sign-normalized positive; they are never zero
    when c_k > 0. Raises ConvergenceFailure when the QL iteration exceeds
    max_sweeps for some eigenvalue.
    """
    n = J.n
    d = J.v.copy()
    e = np.zeros(n)
    if n > 1:
        e[: n - 1] = J.c
    z = np.zeros(n)
    status = _ql_eigen_first(d, e, z, max_sweeps)
    if status != 0:
        raise ConvergenceFailure(f"QL sweep cap {max_sweeps} exceeded")
    return d, np.abs(z)


def truncated_charpoly(J, k, p, z):
    """det(L_[k,p] - z I) by the three-term determinant recurrence.

    The empty window k > p returns 1 (empty-product determinant), which seeds
    the recurrence. Accepts real or complex z.
    """
    if k > p:
        return 1.0
    if k < 0 or p > J.n - 1:
        raise IndexError("window outside the matrix")
    v, c = J.v, J.c
    dm2 = 1.0
    dm1 = v[k] - z
    for j in range(k + 1, p + 1):
        dm2, dm1 = dm1, (v[j] - z) * dm1 - c[j - 1] ** 2 * dm2
    return dm1


def pq_polynomials(J, z):
    """The two solutions of the three-term recurrence evaluated at z.

    Returns (P, Q), each of length N + 1, with P_0 = 1 (P_{-1} = 0) and
    Q_0 = 0, Q_1 = 1/c_0. The last step divides by the closing coefficient.
    -Q_N/P_N is the Weyl function.
    """
    n = J.n
    cc = np.empty(n)
    if n > 1:
        cc[: n - 1] = J.c
    cc[n - 1] = J.c_closure
    z = np.asarray(z)
    dtype = complex if np.iscomplexobj(z) else float
    P = np.zeros((n + 1,) + z.shape, dtype=dtype)
    Q = np.zeros((n + 1,) + z.shape, dtype=dtype)
    P[0] = 1.0
    P[1] = (z - J.v[0]) / cc[0]
    Q[1] = 1.0 / cc[0]
    for j in range(1, n):
        P[j + 1] = ((z - J.v[j]) * P[j] - cc[j - 1] * P[j - 1]) / cc[j]
        Q[j + 1] = ((z - J.v[j]) * Q[j] - cc[j - 1] * Q[j - 1]) / cc[j]
    return P, Q


def power_bands(v, c, k):
    """Band storage of L^k for the tridiagonal matrix with diagonal v and
    off-diagonal c: row k + d holds (L^k)[i, i + d] for d = -k..k, zero where
    i + d leaves the matrix.

    Built by k left products with L, each touching only the 2k + 1 bands, so
    the cost is O(n k^2) against k n^3 for dense powers.
    """
    n = v.size
    P = np.zeros((2 * k + 1, n))
    P[k] = 1.0
    for _ in range(k):
        # (L M)[i, i+d] = c[i-1] M[i-1, i+d] + v[i] M[i, i+d] + c[i] M[i+1, i+d]
        Q = v * P
        Q[:-1, 1:] += c * P[1:, :-1]
        Q[1:, :-1] += c * P[:-1, 1:]
        P = Q
    return P


def trace_power(J, m):
    """tr(L^m) from the eigenvalues; m = -1 gives the trace of the inverse.

    Raises SingularMatrix for m = -1 when an eigenvalue sits within 1e-12
    of zero.
    """
    if m < -1:
        raise DomainViolation("m must be >= -1")
    z, _ = eigen(J)
    if m == -1:
        if np.min(np.abs(z)) < 1e-12:
            raise SingularMatrix("eigenvalue at zero; inverse trace undefined")
        return float(np.sum(1.0 / z))
    return float(np.sum(z ** m))
