"""Hierarchy vector fields X_k and their propagation.

Three routes to the same flow: the Lax commutator in the c-v chart, a
Hamiltonian pairing (pi_p, H_{k-p}) for p <= min(k, 2), and the exact
solution in spectral coordinates where the eigenvalues freeze and the
residues follow a normalized exponential. RK4 is provided for the first
two; trajectories carry isospectrality diagnostics.
"""

from dataclasses import dataclass

import numpy as np

from .brackets import cv_pack, pi0_cv, pi1_cv, pi2_cv
from .errors import (
    ConvergenceFailure,
    DomainViolation,
    NonFiniteState,
    OverflowGuard,
    StructureViolation,
    TodaError,
)
from .spectral import SpectralData, _require_normalized, direct_transform, inverse_transform
from .tridiag import JacobiMatrix, PhasePoint, flaschka, power_bands, trace_power

_METHODS = ("exact", "rk4-lax", "rk4-hamiltonian")

# Largest number of dt steps a flow may take; a t_final / dt beyond it is
# refused up front instead of looping (or allocating rows) without end.
MAX_STEPS = 10**7

# Elements of z^k t evaluated at once by the exact flow: enough time rows per
# block to amortize numpy's call overhead, few enough that the temporaries
# stay small next to the trajectory itself.
_EXACT_BLOCK = 1 << 16


def _step_count(t_final, dt):
    """Number of dt steps from 0 to t_final, the last one possibly shortened."""
    if t_final == 0:
        return 0
    ratio = t_final / dt - 1e-12
    if not ratio <= MAX_STEPS:
        raise DomainViolation(f"t_final / dt asks for more than MAX_STEPS = {MAX_STEPS} steps")
    return int(np.ceil(ratio))


@dataclass(frozen=True)
class FlowSpec:
    """Which hierarchy flow to run and how."""

    k: int
    method: str
    t_final: float
    dt: float = 1e-3
    p: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise DomainViolation("flow index k must be >= 1")
        if self.method not in _METHODS:
            raise DomainViolation(f"method must be one of {_METHODS}")
        if not self.dt > 0:
            raise DomainViolation("dt must be positive")
        if not np.isfinite(self.t_final) or self.t_final < 0:
            raise DomainViolation("t_final must be finite and >= 0")
        _step_count(self.t_final, self.dt)
        if self.method == "rk4-hamiltonian" and not 0 <= self.p <= min(self.k, 2):
            raise DomainViolation("need 0 <= p <= min(k, 2)")


def hamiltonian(obj, n):
    """H_n = tr L^{n+1}/(n+1), from either a Jacobi matrix or spectral data."""
    if n < 0:
        raise DomainViolation("hamiltonian index must be >= 0")
    if isinstance(obj, JacobiMatrix):
        return trace_power(obj, n + 1) / (n + 1)
    return float(np.sum(obj.z ** (n + 1))) / (n + 1)


def lax_a(J, k):
    """Skew generator A_k: half the strictly-upper minus strictly-lower part
    of L^k."""
    if k < 1:
        raise DomainViolation("need k >= 1")
    P = np.linalg.matrix_power(J.to_dense(), k)
    return 0.5 * (np.triu(P, 1) - np.tril(P, -1))


def _lax_rate(v, c, k):
    """Banded right-hand side of dL/dt = [A_k, L] on raw (v, c) arrays.

    A_k and the commutator live in band storage (row w + d holds entry
    (i, i + d)), so one call costs O(n k^2). Returns (vdot, cdot, off) with
    off the largest commutator entry outside the symmetric tridiagonal
    pattern, which a correct A_k keeps at rounding level.
    """
    n = v.size
    w = k + 1
    A = np.zeros((2 * w + 1, n))
    A[1:-1] = power_bands(v, c, k)
    A *= 0.5 * np.sign(np.arange(-w, w + 1))[:, None]
    # L A: (L A)[i, i+d] = c[i-1] A[i-1, i+d] + v[i] A[i, i+d] + c[i] A[i+1, i+d]
    LA = v * A
    LA[:-1, 1:] += c * A[1:, :-1]
    LA[1:, :-1] += c * A[:-1, 1:]
    # A L: (A L)[i, i+d] = A[i, i+d-1] c[i+d-1] + A[i, i+d] v[i+d] + A[i, i+d+1] c[i+d],
    # with v and c zero-padded so that vp[col[w + d, i]] = v[i + d], cp[...] = c[i + d]
    col = np.arange(n) + np.arange(1, 2 * w + 2)[:, None]
    vp = np.zeros(n + 2 * w + 2)
    vp[w + 1 : w + 1 + n] = v
    cp = np.zeros(n + 2 * w + 2)
    cp[w + 1 : w + n] = c
    AL = A * vp[col]
    AL[1:] += A[:-1] * cp[col[1:] - 1]
    AL[:-1] += A[1:] * cp[col[:-1]]
    B = AL - LA
    off = max(
        float(np.abs(B[: w - 1]).max(initial=0.0)),
        float(np.abs(B[w + 2 :]).max(initial=0.0)),
        float(np.abs(B[w + 1, : n - 1] - B[w - 1, 1:]).max(initial=0.0)),
    )
    return B[w], B[w + 1, : n - 1], off


def lax_rhs(J, k):
    """Right-hand side (vdot, cdot) of dL/dt = [A_k, L].

    The commutator must land back on the symmetric tridiagonal pattern; any
    off-pattern excursion beyond rounding noise means the skew generator was
    built wrong, and raises.
    """
    if k < 1:
        raise DomainViolation("need k >= 1")
    vdot, cdot, off = _lax_rate(J.v, J.c, k)
    norm = float(np.abs(J.v).max())
    if J.n > 1:
        norm += 2.0 * float(J.c.max())
    if off > 1e-12 * max(1.0, norm ** (k + 1)):
        raise StructureViolation(f"commutator off-pattern by {off!r}")
    return vdot, cdot


def _gradient(v, c, m):
    """grad H_m in the flat c-v state from bands 0 and 1 of L^m."""
    P = power_bands(v, c, m)
    sup = P[m + 1, :-1] if m else np.zeros(v.size - 1)
    return np.concatenate([P[m], 2.0 * sup])


def hamiltonian_gradient(J, m):
    """Gradient of H_m in the flat c-v state: (L^m)_ii against v_i and
    2 (L^m)_{i,i+1} against c_i."""
    if m < 0:
        raise DomainViolation("hamiltonian index must be >= 0")
    return _gradient(J.v, J.c, m)


def _hamiltonian_rate(n, k, p):
    """The map x -> xdot of X_k realized as pi_p applied to grad H_{k-p}, on
    the flat c-v state of n sites."""
    if n == 1:
        return lambda x: np.zeros(1)
    P = (pi0_cv, pi1_cv, pi2_cv)[p](n)

    def rate(x):
        return P.tensor(x) @ _gradient(x[:n], x[n:], k - p)

    return rate


def hamiltonian_field(J, k, p):
    """(vdot, cdot) of X_k realized as pi_p applied to grad H_{k-p}."""
    if k < 1:
        raise DomainViolation("need k >= 1")
    if not 0 <= p <= min(k, 2):
        raise DomainViolation("need 0 <= p <= min(k, 2)")
    xdot = _hamiltonian_rate(J.n, k, p)(cv_pack(J))
    return xdot[: J.n], xdot[J.n :]


def spectral_field(S, k):
    """(zdot, rhodot) of X_k on normalized spectral data: the eigenvalues
    freeze and rhodot_n = (z_n^k - sum_s z_s^k rho_s) rho_n."""
    if k < 1:
        raise DomainViolation("need k >= 1")
    _require_normalized(S)
    zk = S.z**k
    mean = float(np.sum(zk * S.rho))
    return np.zeros(S.n), (zk - mean) * S.rho


def _exact_rho(z, rho, k, ts):
    """Residues rho_n e^{z_n^k t} / sum_s rho_s e^{z_s^k t}, one row per time in ts.

    Exponents are shifted by their row maximum before exponentiation, so the
    formula stays finite for any t the doubles can express. The first row
    whose exponents z^k t are not representable, or whose residue mass
    underflows, raises OverflowGuard.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        e = z**k * ts[:, None]
        bad_exponent = ~np.isfinite(e).all(axis=1)
        w = rho * np.exp(e - e.max(axis=1, keepdims=True))
        tot = w.sum(axis=1)
    bad = bad_exponent | ~(np.isfinite(tot) & (tot > 0.0))
    if bad.any():
        first = int(np.argmax(bad))
        if bad_exponent[first]:
            raise OverflowGuard("flow exponents z^k t overflow")
        raise OverflowGuard("residue mass lost to underflow")
    return w / tot[:, None]


def exact_flow(S, k, t):
    """Closed-form X_k flow: rho_n(t) = rho_n e^{z_n^k t} / sum_s rho_s e^{z_s^k t}.

    OverflowGuard fires only when z^k t itself is not representable.
    """
    if k < 1:
        raise DomainViolation("need k >= 1")
    _require_normalized(S)
    rho = _exact_rho(S.z, S.rho, k, np.array([t], dtype=float))[0]
    return SpectralData(z=S.z.copy(), rho=rho)


# ---------------------------------------------------------------------------
# trajectories

def state_field_names(kind, n):
    if kind == "jacobi":
        return [f"v{i}" for i in range(n)] + [f"c{i}" for i in range(n - 1)]
    if kind == "spectral":
        return [f"z{i}" for i in range(n)] + [f"rho{i}" for i in range(n)]
    if kind == "phase":
        return [f"q{i}" for i in range(n)] + [f"p{i}" for i in range(n)]
    return [f"x{i}" for i in range(n)]


def _spectral_view(kind, n, row):
    """Eigenvalues and squared first eigenvector components of a Jacobi or
    phase row.

    Rows go through LAPACK (eigh), one row at a time so memory stays flat;
    the diagnostics read only z and sum rho, which it gives to rounding. A
    LAPACK failure raises ConvergenceFailure.
    """
    if kind == "jacobi":
        J = JacobiMatrix(v=row[:n], c=row[n:])
    else:
        J = flaschka(PhasePoint(q=row[:n], p=row[n:]))
    try:
        z, V = np.linalg.eigh(J.to_dense())
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"diagnostics eigensolve failed: {exc}") from None
    return z, V[0] ** 2


@dataclass(frozen=True)
class Trajectory:
    """Sampled flow with per-sample conservation diagnostics.

    sum_rho_drift tracks |sum rho (t) - sum rho (0)| and spectrum_drift the
    max eigenvalue excursion, both against the first sample; rows where the
    diagnostics cannot be evaluated (blown-up states) carry NaN.
    """

    kind: str
    n: int
    times: np.ndarray
    states: np.ndarray
    sum_rho_drift: np.ndarray
    spectrum_drift: np.ndarray

    @classmethod
    def build(cls, kind, n, times, states):
        times = np.asarray(times, dtype=float)
        states = np.asarray(states, dtype=float)
        m = times.size
        sr = np.zeros(m)
        sd = np.zeros(m)
        if kind == "spectral" and m:
            mass = states[:, n:].sum(axis=1)
            sr = np.abs(mass - mass[0])
            dz = states[:, :n] - states[0, :n]
            sd = np.abs(dz, out=dz).max(axis=1)
        elif kind != "raw":
            z0 = rho0 = None
            for i in range(m):
                try:
                    z, rho = _spectral_view(kind, n, states[i])
                except TodaError:
                    sr[i] = np.nan
                    sd[i] = np.nan
                    continue
                if z0 is None:
                    z0, rho0 = z, float(np.sum(rho))
                sr[i] = abs(float(np.sum(rho)) - rho0)
                sd[i] = float(np.max(np.abs(z - z0)))
        return cls(
            kind=kind, n=n, times=times, states=states,
            sum_rho_drift=sr, spectrum_drift=sd,
        )

    @property
    def field_names(self):
        return state_field_names(self.kind, self.n if self.kind != "raw" else self.states.shape[1])

    def to_csv(self, stream):
        """One header line, then one line per sample with every number
        printed to 17 significant digits, which round-trips the doubles."""
        names = ["t", *self.field_names, "sum_rho_drift", "spectrum_drift"]
        stream.write(",".join(names) + "\n")
        fmt = ",".join(["%.17g"] * len(names)) + "\n"
        times = self.times.tolist()
        sr = self.sum_rho_drift.tolist()
        sd = self.spectrum_drift.tolist()
        for i, row in enumerate(self.states):
            stream.write(fmt % (times[i], *row.tolist(), sr[i], sd[i]))

    def to_payload(self):
        """The trajectory as a document; its arrays stay numpy arrays, which
        cli.dump_json writes as lists."""
        return {
            "kind": self.kind,
            "n": self.n,
            "fields": self.field_names,
            "times": self.times,
            "states": self.states,
            "sum_rho_drift": self.sum_rho_drift,
            "spectrum_drift": self.spectrum_drift,
        }

    @property
    def final_state(self):
        return self.states[-1]


def _check_record_every(record_every):
    if record_every < 1:
        raise DomainViolation("record_every must be >= 1")


def rk4(field, state, dt, t_final, kind="raw", n=None, record_every=1):
    """Classic fourth-order steps of x' = field(x) from t=0 to t_final.

    Uniform steps of dt with the last one shortened to land on t_final
    exactly. Records every record_every-th step plus both endpoints. Raises
    NonFiniteState as soon as a step leaves the finite floats.
    """
    if not dt > 0:
        raise DomainViolation("dt must be positive")
    if t_final < 0:
        raise DomainViolation("t_final must be >= 0")
    _check_record_every(record_every)
    nsteps = _step_count(t_final, dt)
    x = np.array(state, dtype=float)
    if n is None:
        n = x.size
    times = [0.0]
    rows = [x.copy()]
    t = 0.0
    for step in range(nsteps):
        h = min(dt, t_final - t)
        k1 = np.asarray(field(x))
        k2 = np.asarray(field(x + 0.5 * h * k1))
        k3 = np.asarray(field(x + 0.5 * h * k2))
        k4 = np.asarray(field(x + h * k3))
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
        if not np.all(np.isfinite(x)):
            raise NonFiniteState(f"state left the finite floats at t = {t!r}")
        if (step + 1) % record_every == 0 or step == nsteps - 1:
            times.append(t)
            rows.append(x.copy())
    return Trajectory.build(kind, n, np.array(times), np.array(rows))


def _lax_field(n, k):
    def field(x):
        vdot, cdot, _ = _lax_rate(x[:n], x[n:], k)
        return np.concatenate([vdot, cdot])

    return field


def evolve(obj, spec, record_every=1):
    """Run a FlowSpec on a JacobiMatrix or SpectralData, converting the state
    to the chart the method wants. Exact propagation evaluates the closed form
    at the recorded points of the dt grid only; the RK4 methods integrate in
    the c-v chart."""
    _check_record_every(record_every)
    if spec.method == "exact":
        S = obj if isinstance(obj, SpectralData) else direct_transform(obj)
        _require_normalized(S)
        n = S.n
        nsteps = _step_count(spec.t_final, spec.dt)
        # an interval beyond the step count records the endpoints only; the
        # clamp keeps arange within int64 for any record_every
        every = min(record_every, nsteps + 1)
        steps = np.arange(every, nsteps + 1, every)
        if nsteps % every:
            steps = np.append(steps, nsteps)
        times = np.concatenate([[0.0], np.minimum(steps * spec.dt, spec.t_final)])
        states = np.empty((times.size, 2 * n))
        states[:, :n] = S.z
        states[0, n:] = S.rho
        block = max(1, _EXACT_BLOCK // n)
        for lo in range(1, times.size, block):
            hi = lo + block
            states[lo:hi, n:] = _exact_rho(S.z, S.rho, spec.k, times[lo:hi])
        return Trajectory.build("spectral", n, times, states)

    if isinstance(obj, SpectralData):
        J = inverse_transform(obj)
    else:
        J = obj
    n = J.n
    if spec.method == "rk4-lax":
        field = _lax_field(n, spec.k)
    else:
        field = _hamiltonian_rate(n, spec.k, spec.p)
    return rk4(
        field, cv_pack(J), spec.dt, spec.t_final,
        kind="jacobi", n=n, record_every=record_every,
    )
