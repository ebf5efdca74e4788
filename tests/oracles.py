"""Dense and loop-by-loop reference implementations of the banded and
vectorized kernels and of the output writers, kept for the tests to compare
against."""

import csv
import json

import numpy as np

from opentoda.brackets import zrho_unpack
from opentoda.errors import OverflowGuard, ResidueUnderflow
from opentoda.flows import Rows, exact_flow


def dense(v, c):
    n = v.size
    L = np.zeros((n, n))
    for i in range(n):
        L[i, i] = v[i]
    for i in range(n - 1):
        L[i, i + 1] = c[i]
        L[i + 1, i] = c[i]
    return L


def dense_power(v, c, k):
    """Dense k-th power of the symmetric tridiagonal matrix with diagonal v, off-diagonal c."""
    L = dense(v, c)
    P = np.eye(v.size)
    for _ in range(k):
        P = P @ L
    return P


def lax_commutator(v, c, k):
    """Right-hand side of the k-th Lax flow from dense matrices.

    Builds A_k as the skew part of L^k (strict upper minus strict lower, over
    two) and forms [A_k, L]. Returns (vdot, cdot, off) where off is the largest
    entry outside the symmetric tridiagonal pattern.
    """
    n = v.size
    L = dense(v, c)
    P = dense_power(v, c, k)
    A = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if j > i:
                A[i, j] = 0.5 * P[i, j]
            elif j < i:
                A[i, j] = -0.5 * P[i, j]
    B = A @ L - L @ A
    vdot = np.array([B[i, i] for i in range(n)])
    cdot = np.array([B[i, i + 1] for i in range(n - 1)])
    off = 0.0
    for i in range(n):
        for j in range(n):
            if j - i >= 2 or i - j >= 2:
                off = max(off, abs(B[i, j]))
            elif j == i + 1:
                off = max(off, abs(B[i, j] - B[j, i]))
    return vdot, cdot, off


def pi_cv_loop(p, n, x):
    """The c-v tensor of pi_p at x, filled one coordinate pair at a time."""
    v, c = zrho_unpack(np.asarray(x, dtype=float), n)
    d = 2 * n - 1
    M = np.zeros((d, d))
    for k in range(n - 1):
        if p == 0:
            M[n + k, k] = -0.5 * c[k]
            M[n + k, k + 1] = 0.5 * c[k]
        elif p == 1:
            M[n + k, k] = -0.5 * c[k] * v[k]
            M[n + k, k + 1] = 0.5 * c[k] * v[k + 1]
            M[k, k + 1] = c[k] ** 2
            if k + 1 < n - 1:
                M[n + k, n + k + 1] = 0.25 * c[k] * c[k + 1]
        else:
            M[n + k, k] = -0.5 * (c[k] * v[k] ** 2 + c[k] ** 3)
            M[n + k, k + 1] = 0.5 * (c[k] * v[k + 1] ** 2 + c[k] ** 3)
            M[k, k + 1] = c[k] ** 2 * (v[k] + v[k + 1])
            if k + 1 < n - 1:
                M[n + k, n + k + 1] = 0.5 * c[k] * c[k + 1] * v[k + 1]
            if k + 2 <= n - 1:
                M[n + k, k + 2] = 0.5 * c[k] * c[k + 1] ** 2
            if k + 1 <= n - 2:
                M[n + k + 1, k] = -0.5 * c[k] ** 2 * c[k + 1]
    return M - M.T


def lanczos_loop(zs, w0):
    """spectral._lanczos_from_spectrum one element at a time: full
    reorthogonalization by modified Gram-Schmidt, applied twice per step."""
    n = zs.shape[0]
    alpha = np.zeros(n)
    beta = np.zeros(n - 1)
    Q = np.zeros((n, n))
    nrm = 0.0
    for i in range(n):
        nrm += w0[i] * w0[i]
    nrm = np.sqrt(nrm)
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
            beta[j] = np.sqrt(b)
            for i in range(n):
                Q[i, j + 1] = u[i] / beta[j]
    return alpha, beta


def exact_flow_rho(z, rho, k, t):
    """Residues of the closed-form X_k flow at one time t, evaluated on 1-D
    arrays; the OverflowGuard and ResidueUnderflow checks come in the same
    order."""
    with np.errstate(over="ignore", invalid="ignore"):
        e = z**k * t
    if not np.all(np.isfinite(e)):
        raise OverflowGuard("flow exponents z^k t overflow")
    w = rho * np.exp(e - e.max())
    tot = float(np.sum(w))
    if not np.isfinite(tot) or tot <= 0.0:
        raise OverflowGuard("residue mass lost to underflow")
    r = w / tot
    if not np.all(r > 0.0):
        raise ResidueUnderflow("a residue of the flow underflows to 0")
    return r


def exact_evolve_loop(S, k, t_final, dt, record_every=1):
    """(times, states) of an exact evolve, stepping through every index of
    the dt grid and calling exact_flow on each recorded one; the last step
    ends on t_final. As in evolve, the state at t_final is evaluated first,
    so a run that fails raises its error."""
    ratio = t_final / dt
    nsteps = 0 if t_final == 0 else int(np.ceil(ratio - 4 * np.spacing(ratio)))
    exact_flow(S, k, t_final)
    times = [0.0]
    rows = [np.concatenate([S.z, S.rho])]
    for i in range(1, nsteps + 1):
        t = t_final if i == nsteps else min(i * dt, t_final)
        if i % record_every == 0 or i == nsteps:
            St = exact_flow(S, k, t)
            times.append(t)
            rows.append(np.concatenate([St.z, St.rho]))
    return np.array(times), np.array(rows)


def spectral_drifts(n, states):
    """(sum_rho_drift, spectrum_drift) of spectral rows, one row at a time."""
    m = len(states)
    sr = np.zeros(m)
    sd = np.zeros(m)
    z0 = states[0][:n]
    rho0 = float(np.sum(states[0][n:]))
    for i in range(m):
        sr[i] = abs(float(np.sum(states[i][n:])) - rho0)
        sd[i] = float(np.max(np.abs(states[i][:n] - z0)))
    return sr, sd


def trajectory_csv(traj, stream):
    """Trajectory.to_csv written through the csv module."""
    w = csv.writer(stream, lineterminator="\n")
    w.writerow(["t"] + traj.field_names + ["sum_rho_drift", "spectrum_drift"])
    states = traj.states
    for i in range(traj.times.size):
        row = [traj.times[i], *states[i], traj.sum_rho_drift[i], traj.spectrum_drift[i]]
        w.writerow([f"{x:.17g}" for x in row])


def _as_list(a):
    """The nested list of a numpy array or of a Rows' rows."""
    if isinstance(a, Rows):
        head = a.head.tolist()
        return [head + row for row in a.take(0, a.count).tolist()]
    return a.tolist()


def dump_json(doc, stream):
    """cli.dump_json through json.dump's own indenting encoder, with numpy
    arrays and Rows written as their nested lists."""
    json.dump(doc, stream, sort_keys=True, separators=(",", ": "), indent=1, default=_as_list)
    stream.write("\n")


def rand_spectral(rng, n, positive=False, min_gap=0.05, rho_floor=1e-2):
    """The distribution of properties.random_spectral, drawn by unbounded
    one-draw-at-a-time rejection loops."""
    lo, hi = (0.5, 6.0) if positive else (-3.0, 3.0)
    while True:
        z = np.sort(rng.uniform(lo, hi, size=n))
        if n == 1 or float(np.min(np.diff(z))) >= min_gap:
            break
    while True:
        rho = rng.dirichlet(np.ones(n))
        if n == 1 or float(rho.min()) >= rho_floor:
            break
    return z, rho
