"""Jacobi matrices: construction from phase points, spectra, and the
three-term recurrence polynomials.

A Jacobi matrix is stored as its diagonal v (N entries) and positive
off-diagonal c (N-1 entries). The closing coefficient c_{N-1} = prod(c_k)^-1
is a device for the last recurrence step, computed on demand and never stored.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, DomainViolation, ResidueUnderflow, SingularMatrix

# Entries per working array of the twisted factorization: blocks of
# _BLOCK // n eigenvalues keep its pivots off n x n arrays.
_BLOCK = 8192
# the smallest normal double, the least pivot magnitude of the factorization
_TINY = np.finfo(float).tiny
_LOG_TINY = math.log(_TINY)


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
        c = _as_finite_1d(self.c, "c")
        if v.size < 1:
            raise DomainViolation("need at least one site")
        if c.size != v.size - 1:
            raise DomainViolation("off-diagonal must have length N - 1")
        if np.any(c <= 0):
            raise DomainViolation("off-diagonal entries must be > 0")
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


def _eigenvalues(J):
    """Ascending eigenvalues of J from LAPACK.

    Raises ConvergenceFailure when LAPACK does not converge or returns
    non-finite values.
    """
    try:
        z = np.linalg.eigvalsh(J.to_dense())
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigenvalue solver failed: {exc}") from None
    if not np.all(np.isfinite(z)):
        raise ConvergenceFailure("eigenvalue solver returned non-finite values")
    return z


def _pivots(a, c2):
    """Pivots d_0 = a_0, d_i = a_i - c2_{i-1}/d_{i-1} of the LDL^T
    factorizations of the tridiagonal matrices with diagonals a[:, j] and
    squared off-diagonal c2, all columns at once.

    A pivot smaller than _TINY in magnitude is replaced by -_TINY, as
    LAPACK's dlar1v does with its pivmin; with c2 <= 1 every pivot is then
    finite.
    """
    d = np.empty_like(a)
    d[0] = a[0]
    d[0][np.abs(d[0]) < _TINY] = -_TINY
    for prev, cur, ai, ci in zip(d, d[1:], a[1:], c2):
        np.subtract(ai, ci / prev, out=cur)
        cur[np.abs(cur) < _TINY] = -_TINY
    return d


def _log_first_squares(v, c, z):
    """log u_0^2 of the unit eigenvectors u of the Jacobi matrix (v, c) at
    its eigenvalues z.

    For each eigenvalue, the twisted factorization of L - z (Dhillon &
    Parlett, LAA 387, 2004) takes the forward and backward pivots d+ and d-,
    twists at r = argmin |gamma_r|, gamma_r = d+_r + d-_r - (v_r - z), and
    builds log|u_i| outward from u_r = 1 as sums of log|c/d|. Tiny components
    keep their relative accuracy, since no orthogonal rotation mixes them
    with large ones. The pivots of a block of eigenvalues are evaluated
    together, so the working arrays hold n x (_BLOCK // n) entries.
    """
    n = v.size
    out = np.zeros(z.size)
    if n == 1:
        return out
    # residues do not change when the matrix is scaled; dividing by a power
    # of two is exact and brings every entry within [-1, 1], so c2 <= 1
    _, e = np.frexp(max(np.abs(v).max(), c.max()))
    v, c, z = np.ldexp(v, -e), np.ldexp(c, -e), np.ldexp(z, -e)
    c2 = c * c
    # forward and backward recurrences run side by side: column 0 of the
    # middle axis holds rows in order, column 1 holds them reversed
    both = np.stack([c2, c2[::-1]], axis=1)[:, :, None]
    with np.errstate(divide="ignore"):
        # an entry below 2^-1074 of the largest scales to 0; its -inf
        # reaches log rho, and eigen reports the underflow
        logc = np.log(c)[:, None]
    below = np.arange(n - 1)[:, None]
    step = max(1, _BLOCK // n)
    for s in range(0, z.size, step):
        a = v[:, None] - z[None, s : s + step]
        d = _pivots(np.stack([a, a[::-1]], axis=1), both)
        dp, dm = d[:, 0], d[::-1, 1]
        r = np.argmin(np.abs(dp + dm - a), axis=0)
        # above the twist u_i = -(c_i/d+_i) u_{i+1}; below it
        # u_i = -(c_{i-1}/d-_i) u_{i-1}
        up = np.where(below < r, logc - np.log(np.abs(dp[:-1])), 0.0)
        down = np.where(below >= r, logc - np.log(np.abs(dm[1:])), 0.0)
        logu = np.zeros(a.shape)
        logu[:-1] = np.cumsum(up[::-1], axis=0)[::-1]
        logu[1:] += np.cumsum(down, axis=0)
        top = logu.max(axis=0)
        norm = np.log(np.sum(np.exp(2.0 * (logu - top)), axis=0))
        out[s : s + step] = 2.0 * (logu[0] - top) - norm
    return out


def eigen(J):
    """Eigenvalues (ascending) and first eigenvector components of J.

    The eigenvalues come from LAPACK, the first components from twisted
    factorizations, each to relative accuracy however small it is; they are
    positive and never zero when c_k > 0. Raises ResidueUnderflow when a
    squared component lies below the smallest normal double, and
    ConvergenceFailure when LAPACK fails or returns non-finite eigenvalues.
    """
    z = _eigenvalues(J)
    log_rho = _log_first_squares(J.v, J.c, z)
    if float(log_rho.min()) < _LOG_TINY:
        raise ResidueUnderflow(
            f"residue exp({float(log_rho.min()):.4g}) is below the smallest normal double"
        )
    return z, np.exp(0.5 * log_rho)


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

    Built from the bands of L by k - 1 left products with L, each touching
    only the 2k + 1 bands, so the cost is O(n k^2) against k n^3 for dense
    powers.
    """
    P = np.zeros((2 * k + 1, v.size))
    if k == 0:
        P[0] = 1.0
        return P
    P[k - 1, 1:] = c
    P[k] = v
    P[k + 1, :-1] = c
    for _ in range(k - 1):
        P = band_left_product(v, c, P)
    return P


def band_left_product(v, c, M):
    """L M in the band storage of M (row w + d holds M[i, i + d]), for the
    tridiagonal L with diagonal v and off-diagonal c; bands of L M beyond
    those M's storage holds are dropped."""
    # (L M)[i, i+d] = c[i-1] M[i-1, i+d] + v[i] M[i, i+d] + c[i] M[i+1, i+d]
    Q = v * M
    Q[:-1, 1:] += c * M[1:, :-1]
    Q[1:, :-1] += c * M[:-1, 1:]
    return Q


def trace_power(J, m):
    """tr(L^m) from the eigenvalues; m = -1 gives the trace of the inverse.

    Raises SingularMatrix for m = -1 when an eigenvalue sits within 1e-12
    of zero.
    """
    if m < -1:
        raise DomainViolation("m must be >= -1")
    z = _eigenvalues(J)
    if m == -1:
        if np.min(np.abs(z)) < 1e-12:
            raise SingularMatrix("eigenvalue at zero; inverse trace undefined")
        return float(np.sum(1.0 / z))
    return float(np.sum(z ** m))
