"""Hierarchy vector fields X_k and their propagation.

Three routes to the same flow: the Lax commutator in the c-v chart, a
Hamiltonian pairing (pi_p, H_{k-p}) for p <= min(k, 2), and the exact
solution in spectral coordinates where the eigenvalues freeze and the
residues follow a normalized exponential. RK4 is provided for the first
two, and one stage of either costs O(n k^2) with no dense matrix: the Lax
route forms only the tridiagonal part of the commutator, from the bands of
L^k, and the Hamiltonian route applies the banded pi_p to grad H_{k-p}.
`evolve` runs any of them from any state on one time grid (_time_grid),
and trajectories carry isospectrality diagnostics. A trajectory hands out
its rows by index range; an exact trajectory holds its frozen poles once
and evaluates the residues of the rows asked for.
"""

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .brackets import cv_pack, pi_cv_apply, pi_cv_indices
from .errors import (
    DomainViolation,
    NonFiniteState,
    OverflowGuard,
    ResidueUnderflow,
    TodaError,
)
from .floattext import write_rows
from .spectral import SpectralData, _require_normalized, to_jacobi, to_spectral
from .tridiag import JacobiMatrix, _eigenvalues, power_bands

_METHODS = ("exact", "rk4-lax", "rk4-hamiltonian")

# Largest number of dt steps a flow may take; a t_final / dt beyond it is
# refused up front instead of looping (or allocating rows) without end.
MAX_STEPS = 10**7

# Largest number of doubles a trajectory's rows may hold in memory at once
# (rows x state width, 1 GiB); a larger array is refused before it is
# allocated.
MAX_ENTRIES = 2**27

# Numbers taken at once by Trajectory.states and the exact flow's drift pass:
# enough rows per block to amortize numpy's call overhead, few enough that a
# block of residues and its temporaries stay small.
_EXACT_BLOCK = 1 << 14


def _step_count(t_final, dt):
    """Number of dt steps from 0 to t_final, the last one possibly shortened,
    and at least one when t_final > 0; DomainViolation unless 0 < dt < inf,
    0 <= t_final < inf and the count <= MAX_STEPS."""
    if not 0 < dt < np.inf:
        raise DomainViolation("dt must be positive and finite")
    if not np.isfinite(t_final) or t_final < 0:
        raise DomainViolation("t_final must be finite and >= 0")
    if t_final == 0:
        return 0
    ratio = t_final / dt
    if not ratio <= MAX_STEPS:
        raise DomainViolation(f"t_final / dt asks for more than MAX_STEPS = {MAX_STEPS} steps")
    # rounding t_final, dt and their quotient puts a ratio meant to be an
    # integer up to about 3 ulps above it; that excess asks for no step. A
    # ratio that underflows to (or near) 0 still takes the one step to t_final
    return max(1, int(np.ceil(ratio - 4 * np.spacing(ratio))))


def _time_grid(t_final, dt, record_every):
    """(nsteps, steps, times) of a run from 0 to t_final: its step count,
    the indices of its recorded steps and the times they end at.

    Step i ends at min(i dt, t_final), the last step on t_final: uniform
    steps of dt with the last one shortened. Recorded are step 0, every
    record_every-th step and the last step.
    """
    if record_every < 1:
        raise DomainViolation("record_every must be >= 1")
    nsteps = _step_count(t_final, dt)
    # an interval beyond the step count records the endpoints only; the
    # clamp keeps arange within int64 for any record_every
    every = min(record_every, nsteps + 1)
    steps = np.arange(0, nsteps + 1, every)
    if nsteps % every:
        steps = np.append(steps, nsteps)
    times = steps * dt
    np.minimum(times, t_final, out=times)
    if nsteps:
        # _step_count's slack of a few ulps can leave nsteps dt a rounding short
        times[-1] = t_final
    return nsteps, steps, times


def _allocate(rows, width):
    """An uninitialized rows x width array for a whole trajectory;
    DomainViolation when it would hold more than MAX_ENTRIES doubles."""
    if rows * width > MAX_ENTRIES:
        raise DomainViolation(
            f"{rows} recorded rows of {width} doubles exceed MAX_ENTRIES = {MAX_ENTRIES}"
        )
    return np.empty((rows, width))


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
        _step_count(self.t_final, self.dt)
        if self.method == "rk4-hamiltonian" and self.p not in pi_cv_indices(self.k):
            raise DomainViolation("need 0 <= p <= min(k, 2)")


def hamiltonian(obj, n):
    """H_n = tr L^{n+1}/(n+1), from either a Jacobi matrix or spectral data."""
    if n < 0:
        raise DomainViolation("hamiltonian index must be >= 0")
    z = _eigenvalues(obj) if isinstance(obj, JacobiMatrix) else obj.z
    return float(np.sum(z ** (n + 1))) / (n + 1)


def _lax_rate(v, c, P):
    """Flat (vdot, cdot) of dL/dt = [A_k, L] on raw (v, c) arrays, from the
    band storage P = power_bands(v, c, k) of L^k.

    Only entries (i, i) and (i, i + 1) of A_k L - L A_k are formed, from
    bands 0 to 2 of P, so a call costs O(n) on top of P's O(n k^2):
      vdot_i = c_i P_{i,i+1} - c_{i-1} P_{i-1,i},
      cdot_i = (P_{i,i+1} (v_{i+1} - v_i) + c_{i+1} P_{i,i+2} - c_{i-1} P_{i-1,i+1}) / 2.
    """
    n = v.size
    k = P.shape[0] // 2
    y = np.zeros(2 * n - 1)
    P1 = P[k + 1, :-1]
    f = c * P1
    y[: n - 1] = f
    y[1:n] -= f
    cdot = y[n:]
    np.multiply(P1, v[1:] - v[:-1], out=cdot)
    if k > 1:
        P2 = P[k + 2, :-2]
        cdot[:-1] += c[1:] * P2
        cdot[1:] -= c[:-1] * P2
    cdot *= 0.5
    return y


def lax_rhs(J, k):
    """Right-hand side (vdot, cdot) of dL/dt = [A_k, L]: the field that
    rk4-lax integrates."""
    if k < 1:
        raise DomainViolation("need k >= 1")
    xdot = _lax_rate(J.v, J.c, power_bands(J.v, J.c, k))
    return xdot[: J.n], xdot[J.n :]


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
    the flat c-v state of n sites: the gradient from power_bands and the
    bracket by brackets.pi_cv_apply, O(n k^2) per call with no dense
    tensor."""

    def rate(x):
        return pi_cv_apply(p, x, _gradient(x[:n], x[n:], k - p))

    return rate


def hamiltonian_field(J, k, p):
    """(vdot, cdot) of X_k realized as pi_p applied to grad H_{k-p}."""
    if k < 1:
        raise DomainViolation("need k >= 1")
    if p not in pi_cv_indices(k):
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
    that fails raises, checked in this order: OverflowGuard when its
    exponents z^k t are not representable or its residue mass underflows,
    ResidueUnderflow when one of its residues underflows to 0, a state the
    package refuses as input.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        w = z**k * ts[:, None]
        bad_exponent = ~np.isfinite(w).all(axis=1)
        w -= w.max(axis=1, keepdims=True)
        np.exp(w, out=w)
        w *= rho
        tot = w.sum(axis=1)
        w /= tot[:, None]
    bad_mass = ~(np.isfinite(tot) & (tot > 0.0))
    bad = bad_exponent | bad_mass | ~(w.min(axis=1) > 0.0)
    if bad.any():
        first = int(np.argmax(bad))
        if bad_exponent[first]:
            raise OverflowGuard("flow exponents z^k t overflow")
        if bad_mass[first]:
            raise OverflowGuard("residue mass lost to underflow")
        raise ResidueUnderflow(f"a residue of the flow underflows to 0 at t = {float(ts[first])!r}")
    return w


def exact_flow(S, k, t):
    """Closed-form X_k flow: rho_n(t) = rho_n e^{z_n^k t} / sum_s rho_s e^{z_s^k t}.

    OverflowGuard fires only when z^k t itself is not representable, and
    ResidueUnderflow when a residue underflows to 0; a t that is not finite
    raises DomainViolation.
    """
    if k < 1:
        raise DomainViolation("need k >= 1")
    if not np.isfinite(t):
        raise DomainViolation("t must be finite")
    _require_normalized(S)
    rho = _exact_rho(S.z, S.rho, k, np.array([t], dtype=float))[0]
    return SpectralData(z=S.z.copy(), rho=rho)


# ---------------------------------------------------------------------------
# trajectories

def _check_kind(kind):
    if kind not in ("jacobi", "raw"):
        raise DomainViolation(f"unknown trajectory kind {kind!r}")


def _field_names(kind, n, width):
    if kind == "jacobi":
        return [f"v{i}" for i in range(n)] + [f"c{i}" for i in range(n - 1)]
    if kind == "spectral":
        return [f"z{i}" for i in range(n)] + [f"rho{i}" for i in range(n)]
    return [f"x{i}" for i in range(width)]


@dataclass(frozen=True)
class Rows:
    """A float64 matrix of count >= 1 rows, as the 1-D array head of the
    numbers that begin every row and the range function take: take(lo, hi)
    returns the rest of rows lo..hi-1, a 2-D array of width >= 1 columns.

    Trajectory.to_csv, and cli.dump_json, which writes it as the nested
    list of its rows, make the text of head once and take the rows a
    writer's pass at a time.
    """

    head: np.ndarray
    width: int
    count: int
    take: Callable


@dataclass(frozen=True)
class Trajectory:
    """Sampled flow with per-sample conservation diagnostics, both against
    the first sample: spectrum_drift is the largest eigenvalue excursion and
    sum_rho_drift is |sum rho (t) - sum rho (0)|.

    Its rows are a Rows. Trajectory.build keeps an array of states, sliced
    by take, with an empty head. evolve's exact method keeps the frozen
    poles as the head, and its take evaluates the residues of the rows
    asked for, so writing a run of any length holds one pass of rows and
    final_state evaluates one row; states assembles every row and refuses
    more than MAX_ENTRIES doubles.

    Trajectory.build takes jacobi and raw rows: 1-D times and a 2-D states
    array of one row per time, 2n - 1 columns wide for jacobi rows and at
    least one column wide for raw rows. For jacobi rows the eigenvalues come
    from tridiag._eigenvalues, one row at a time so memory stays flat, and
    sum_rho_drift is 0: the residues are the squares of the first row of an
    orthonormal eigenvector matrix, which sum to |e_0|^2 = 1. Rows whose
    diagnostics cannot be evaluated (blown-up states) carry NaN in both; raw
    rows carry 0 in both. Any other kind, spectral included, raises
    DomainViolation: spectral rows come only from evolve's exact method,
    with the diagnostics evolve documents.
    """

    kind: str
    n: int
    times: np.ndarray
    rows: Rows
    sum_rho_drift: np.ndarray
    spectrum_drift: np.ndarray

    @classmethod
    def build(cls, kind, n, times, states):
        _check_kind(kind)
        times = np.asarray(times, dtype=float)
        states = np.asarray(states, dtype=float)
        m = times.size
        if not m:
            raise DomainViolation("a trajectory needs at least one row")
        if times.ndim != 1 or states.ndim != 2 or len(states) != m or not states.shape[1]:
            raise DomainViolation(
                f"need 1-D times and states of {m} rows, one per time, of at least one column"
            )
        if kind == "jacobi" and states.shape[1] != 2 * n - 1:
            raise DomainViolation(f"jacobi states of n = {n} sites need {2 * n - 1} columns")
        sr = np.zeros(m)
        sd = np.zeros(m)
        if kind == "jacobi":
            z0 = None
            for i in range(m):
                try:
                    z = _eigenvalues(JacobiMatrix(v=states[i, :n], c=states[i, n:]))
                except TodaError:
                    sr[i] = sd[i] = np.nan
                    continue
                if z0 is None:
                    z0 = z
                sd[i] = float(np.max(np.abs(z - z0)))
        return cls(
            kind=kind, n=n, times=times,
            rows=Rows(np.empty(0), states.shape[1], m, lambda lo, hi: states[lo:hi]),
            sum_rho_drift=sr, spectrum_drift=sd,
        )

    @property
    def states(self):
        """Every row in one array; DomainViolation when it would hold more
        than MAX_ENTRIES doubles."""
        rows = self.rows
        k = rows.head.size
        states = _allocate(rows.count, k + rows.width)
        states[:, :k] = rows.head
        step = max(1, _EXACT_BLOCK // rows.width)
        for lo in range(0, rows.count, step):
            states[lo : lo + step, k:] = rows.take(lo, lo + step)
        return states

    @property
    def final_state(self):
        """The last row: the head and take of that row alone."""
        m = self.rows.count
        return np.concatenate([self.rows.head, self.rows.take(m - 1, m)[0]])

    @property
    def field_names(self):
        return _field_names(self.kind, self.n, self.rows.head.size + self.rows.width)

    def to_csv(self, stream):
        """One header line, then one line per row: its time, its state, its
        sum_rho_drift and its spectrum_drift, every number printed as
        '%.17g' prints it (17 significant digits, which round-trip the
        doubles) by floattext.write_rows. The text of the head of the rows
        is made once, into a separator that every line repeats."""

        def columns(lo, hi):
            return [self.times[lo:hi], self.rows.take(lo, hi), self.sum_rho_drift[lo:hi],
                    self.spectrum_drift[lo:hi]]

        stream.write(",".join(["t", *self.field_names, "sum_rho_drift", "spectrum_drift"]) + "\n")
        head = "".join("%.17g," % x for x in self.rows.head.tolist())
        seps = ["," + head] + [","] * (self.rows.width + 1) + ["\n"]
        write_rows(stream, self.rows.count, columns, seps, "csv")

    def to_payload(self):
        """The trajectory as a document for cli.dump_json: its rows are the
        Rows and its other arrays stay numpy arrays, which dump_json writes
        as lists."""
        return {
            "kind": self.kind,
            "n": self.n,
            "fields": self.field_names,
            "times": self.times,
            "states": self.rows,
            "sum_rho_drift": self.sum_rho_drift,
            "spectrum_drift": self.spectrum_drift,
        }


def rk4(field, state, dt, t_final, kind="raw", n=None, record_every=1):
    """Classic fourth-order steps of x' = field(x) from t=0 to t_final.

    Steps, recorded rows and their times come from _time_grid, as for the
    exact flow: uniform steps of dt with the last one shortened to end on
    t_final, and every record_every-th step recorded plus both endpoints.
    A kind that Trajectory.build refuses raises DomainViolation before the
    first step, and NonFiniteState is raised as soon as a step leaves the
    finite floats or, for Jacobi rows, c_k > 0. DomainViolation when the
    rows would hold more than MAX_ENTRIES doubles.
    """
    _check_kind(kind)
    x = np.array(state, dtype=float)
    nsteps, steps, times = _time_grid(t_final, dt, record_every)
    if n is None:
        n = x.size
    rows = _allocate(times.size, x.size)
    rows[0] = x
    row = 1
    for step in range(1, nsteps + 1):
        # the steps before the last end at multiples of dt
        h = dt if step < nsteps else t_final - (nsteps - 1) * dt
        k1 = np.asarray(field(x))
        k2 = np.asarray(field(x + 0.5 * h * k1))
        k3 = np.asarray(field(x + 0.5 * h * k2))
        k4 = np.asarray(field(x + h * k3))
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(x)):
            raise NonFiniteState(f"state left the finite floats in step {step} of {nsteps}")
        if kind == "jacobi" and not np.all(x[n:] > 0):
            raise NonFiniteState(f"state left c > 0 in step {step} of {nsteps}")
        if step == steps[row]:
            rows[row] = x
            row += 1
    return Trajectory.build(kind, n, times, rows)


def evolve(obj, spec, record_every=1):
    """Run a FlowSpec on a PhasePoint, JacobiMatrix or SpectralData,
    converting the state by spectral.to_spectral or to_jacobi to the chart
    the method wants, and return its Trajectory. Every method records the
    rows of _time_grid.

    The RK4 methods integrate in the c-v chart and hold their rows in
    memory, so a run of more than MAX_ENTRIES doubles raises
    DomainViolation before it starts. The exact method keeps the frozen
    poles as the head of its rows, and its take evaluates the residues of
    rows lo..hi-1 by _exact_rho each time it is called, row 0 being S.rho;
    per row it stores only the time and sum_rho_drift, and its
    spectrum_drift is a broadcast 0, as the poles are copied bit for bit.
    Before it returns, it evaluates the last row, then every row once, in
    blocks of _EXACT_BLOCK numbers, for sum_rho_drift. So a run raises
    here, before any row is written, when a recorded residue would
    underflow or an exponent overflow: log rho_n(t) is concave in t, so
    over a run the residues are smallest, and |z^k t| is largest, at t = 0
    or at the last time.
    """
    if spec.method == "exact":
        S = to_spectral(obj)
        _require_normalized(S)
        times = _time_grid(spec.t_final, spec.dt, record_every)[2]
        _exact_rho(S.z, S.rho, spec.k, times[-1:])

        def take(lo, hi):
            rho = _exact_rho(S.z, S.rho, spec.k, times[lo:hi])
            if lo == 0:
                rho[:1] = S.rho
            return rho

        drift = np.empty(times.size)
        step = max(1, _EXACT_BLOCK // S.n)
        for lo in range(0, times.size, step):
            drift[lo : lo + step] = take(lo, lo + step).sum(axis=1)
        # |sum rho(t) - sum rho(0)|, in place
        np.abs(np.subtract(drift, drift[0], out=drift), out=drift)
        return Trajectory(
            kind="spectral", n=S.n, times=times, rows=Rows(S.z.copy(), S.n, times.size, take),
            sum_rho_drift=drift, spectrum_drift=np.broadcast_to(0.0, times.size),
        )

    J = to_jacobi(obj)
    n, k = J.n, spec.k
    if spec.method == "rk4-lax":
        def field(x):
            v, c = x[:n], x[n:]
            return _lax_rate(v, c, power_bands(v, c, k))
    else:
        field = _hamiltonian_rate(n, k, spec.p)
    return rk4(
        field, cv_pack(J), spec.dt, spec.t_final,
        kind="jacobi", n=n, record_every=record_every,
    )
