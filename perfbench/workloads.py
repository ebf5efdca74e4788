"""Seeded inputs and fixed job lists of the three workloads.

Every workload is a closed loop with one client: the benchmark starts one
`toda` process, waits for it to exit, then starts the next. The program sees
only the envelope files written here; the expected values the checks compare
against are computed here as well, with numpy alone, from the generating
matrices.

Known defect that shapes the job lists: `toda verify --n 12` ran for more
than five minutes without finishing. `cli._rand_spectral` draws poles by
rejection with min_gap=0.4 in `suite_darboux`, and for n >= 15 the 14 gaps
of 0.4 cannot fit in the positive interval [0.5, 6], so the loop never ends.
No workload therefore runs verify above n=8. Every child process still gets a
timeout, and a timeout counts as a failed operation.
"""

import json
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("evolve-rk4", "evolve-exact", "transform-verify")

# Why each workload exists, and which layers it reaches.
WHY = {
    "evolve-rk4": "RK4 Lax and Hamiltonian flows at n=48: dense right-hand sides "
                  "and the per-row diagnostics eigensolves",
    "evolve-exact": "closed-form flows from spectral data at n=48 and n=256: "
                    "per-row exact_flow and 20 MB of CSV/JSON output, no eigensolves",
    "transform-verify": "101 short transform, bracket and verify processes: start-up "
                        "and one transform per process at n=8, 48, 256",
}

RK4_N = 48
RK4_T = 0.2
RK4_DT = 1e-3
# (method, k, p); each runs once with every row recorded and once with a
# record interval beyond the step count, which separates the right-hand-side
# cost from the per-row diagnostics cost.
RK4_CONFIGS = (
    ("rk4-lax", 1, 0), ("rk4-lax", 2, 0), ("rk4-lax", 3, 0),
    ("rk4-hamiltonian", 1, 0), ("rk4-hamiltonian", 2, 1), ("rk4-hamiltonian", 3, 2),
)
RK4_NO_ROWS = 10**6

# (n, output format, k, t, dt). The n=256 jobs record 2001 rows instead of
# 10^4 so each process writes about 20 MB, as the n=48 jobs do.
EXACT_JOBS = (
    (48, "csv", 1, 10.0, 1e-3),
    (48, "json", 2, 10.0, 1e-3),
    (256, "csv", 2, 10.0, 5e-3),
    (256, "json", 1, 10.0, 5e-3),
)

# Enough families that a round runs at least 100 processes, so a p90 over
# one round has at least ten samples beyond it.
TV_FAMILIES = 9
TV_FORWARD_N = (8, 48, 256)
TV_INVERSE_N = (8, 48)
TV_BRACKET_N = 8
TV_VERIFY_N = (4, 8)


@dataclass
class Job:
    id: str
    kind: str
    argv: list
    ref: dict = field(repr=False)


@dataclass
class Inputs:
    seed: int
    workdir: str
    jobs: list
    warmup_argv: list


def seeded(stream, seed):
    """Generator for one input stream of a seed; any integer seed works."""
    return np.random.default_rng([stream, seed % 2**64])


def random_jacobi(rng, n):
    """v ~ U(-1, 1), c ~ U(0.5, 1.5)."""
    return rng.uniform(-1.0, 1.0, n), rng.uniform(0.5, 1.5, n - 1)


def dense(v, c):
    L = np.diag(np.asarray(v, dtype=float))
    idx = np.arange(len(v) - 1)
    L[idx, idx + 1] = c
    L[idx + 1, idx] = c
    return L


def spectral_of(v, c):
    """Eigenvalues and squared first eigenvector components, by LAPACK."""
    z, V = np.linalg.eigh(dense(v, c))
    rho = V[0] ** 2
    return z, rho / rho.sum()


def random_spectral(rng, n):
    """Poles uniform on (-2, 2), residues from the flat simplex."""
    while True:
        z = np.sort(rng.uniform(-2.0, 2.0, n))
        if np.all(np.diff(z) > 0):
            break
    return z, rng.dirichlet(np.ones(n))


def envelope(kind, payload, meta):
    n = len(payload["v"]) if kind == "jacobi" else len(next(iter(payload.values())))
    return {
        "kind": kind,
        "n": n,
        "payload": {k: np.asarray(x, dtype=float).tolist() for k, x in payload.items()},
        "meta": meta,
    }


def phase_payload(v, c):
    """The gauge q_0 = 0 preimage under v = -p, c_k = exp((q_k - q_{k+1})/2)."""
    q = np.concatenate([[0.0], -np.cumsum(2.0 * np.log(c))])
    return {"q": q, "p": -np.asarray(v)}


def _writer(workdir, meta):
    """write(name, kind, payload) -> path of the envelope file written."""
    def write(name, kind, payload):
        path = f"{workdir}/{name}.json"
        with open(path, "w") as fh:
            json.dump(envelope(kind, payload, meta), fh)
        return path

    return write


def build(workload, seed, workdir, meta):
    """Write the workload's envelopes under workdir and return its jobs."""
    rng = seeded(WORKLOADS.index(workload), seed)
    write = _writer(workdir, meta)
    v, c = random_jacobi(rng, 8)
    warmup = ["transform", write("warmup", "jacobi", {"v": v, "c": c})]
    jobs = {
        "evolve-rk4": _rk4_jobs,
        "evolve-exact": _exact_jobs,
        "transform-verify": _transform_verify_jobs,
    }[workload](rng, write)
    return Inputs(seed, workdir, jobs, warmup)


def _rk4_jobs(rng, write):
    jobs = []
    for record in (1, RK4_NO_ROWS):
        for method, k, p in RK4_CONFIGS:
            tag = f"{method}-k{k}-p{p}-{'rows' if record == 1 else 'norows'}"
            v, c = random_jacobi(rng, RK4_N)
            z, rho = spectral_of(v, c)
            path = write(tag, "jacobi", {"v": v, "c": c})
            argv = ["evolve", path, "--method", method, "--k", str(k), "--p", str(p),
                    "--t", repr(RK4_T), "--dt", repr(RK4_DT), "--record-every", str(record)]
            rows = (int(round(RK4_T / RK4_DT)) if record == 1 else 1) + 1
            jobs.append(Job(tag, "rk4", argv, {
                "n": RK4_N, "k": k, "t": RK4_T, "rows": rows, "z": z, "rho": rho}))
    return jobs


def _exact_jobs(rng, write):
    jobs = []
    for n, out, k, t, dt in EXACT_JOBS:
        tag = f"exact-n{n}-k{k}-{out}"
        z, rho = random_spectral(rng, n)
        path = write(tag, "spectral", {"z": z, "rho": rho})
        argv = ["evolve", path, "--method", "exact", "--k", str(k), "--t", repr(t),
                "--dt", repr(dt), "--out", out]
        jobs.append(Job(tag, "exact", argv, {
            "n": n, "k": k, "t": t, "dt": dt, "format": out, "z": z, "rho": rho}))
    return jobs


def bracket_reference(v, c, m, p, q, restricted):
    """{chi(p), chi(q)} for f = z^m from resolvents of the generating matrix,
    with chi(x) = ((L - x)^-1)_00 and the residue sum
    sum_k rho_k z_k^m / ((z_k - p)(z_k - q)) = e0' L^m (L - p)^-1 (L - q)^-1 e0."""
    L = dense(v, c)
    n = L.shape[0]
    e0 = np.zeros(n)
    e0[0] = 1.0
    Rp = np.linalg.solve(L - p * np.eye(n), e0)
    Rq = np.linalg.solve(L - q * np.eye(n), e0)
    Lm = np.linalg.matrix_power(L, m)
    Lm_e0 = Lm @ e0
    chi_p, chi_q = Rp[0], Rq[0]
    value = (chi_p - chi_q) * float(Rp @ Lm @ Rq)
    if restricted:
        value -= chi_p * chi_q * float(Lm_e0 @ Rp - Lm_e0 @ Rq)
    closed = None
    if m in (0, 1):
        lead = (chi_p - chi_q) if m == 0 else (p * chi_p - q * chi_q)
        second = (chi_p - chi_q) / (p - q)
        if restricted:
            second -= chi_p * chi_q
        closed = lead * second
    return value, closed


def _transform_verify_jobs(rng, write):
    jobs = []
    for fam in range(TV_FAMILIES):
        mats = {n: random_jacobi(rng, n) for n in TV_FORWARD_N}
        for n in TV_FORWARD_N:
            v, c = mats[n]
            z, rho = spectral_of(v, c)
            path = write(f"f{fam}-phase-n{n}", "phase", phase_payload(v, c))
            jobs.append(Job(f"f{fam}-forward-n{n}", "forward", ["transform", path], {
                "n": n, "z": z, "rho": rho, "scale": 1.0 + np.abs(dense(v, c)).sum(1).max()}))
        spectral_paths = {}
        for n in sorted(set(TV_INVERSE_N) | {TV_BRACKET_N}):
            z, rho = spectral_of(*mats[n])
            spectral_paths[n] = write(f"f{fam}-spectral-n{n}", "spectral", {"z": z, "rho": rho})
        for n in TV_INVERSE_N:
            v, c = mats[n]
            jobs.append(Job(f"f{fam}-inverse-n{n}", "inverse",
                            ["transform", spectral_paths[n], "--direction", "inverse"],
                            {"n": n, "v": v, "c": c}))
        v, c = mats[TV_BRACKET_N]
        z, _ = spectral_of(v, c)
        path = spectral_paths[TV_BRACKET_N]
        p = float(z[-1] + rng.uniform(0.5, 1.5))
        q = float(z[0] - rng.uniform(0.5, 1.5))
        for m in (0, 1, 2):
            for restricted in (False, True):
                value, closed = bracket_reference(v, c, m, p, q, restricted)
                tag = f"f{fam}-bracket-f{m}{'-restricted' if restricted else ''}"
                argv = ["bracket", path, "--f", str(m), "--p", repr(p), "--q", repr(q)]
                if restricted:
                    argv.append("--restricted")
                jobs.append(Job(tag, "bracket", argv, {
                    "n": TV_BRACKET_N, "value": value, "closed_form": closed}))
    for n in TV_VERIFY_N:
        jobs.append(Job(f"verify-n{n}", "verify",
                        ["verify", "--suite", "all", "--n", str(n)], {"n": n, "exit": 0}))
    return jobs
