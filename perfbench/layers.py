"""Per-layer numbers from a traced, in-process run.

The traced run does two things, both inside the benchmark process with the
program imported from src/:

* It replays the workload's job list through `opentoda.cli.main`, each job
  once untraced and once with every public function wrapped in a span. The
  difference of the two wall times is the tracing overhead; the traced
  replay gives each layer's self time and the work counters.
* It probes each layer on fixed sizes with seeded inputs. These probes are
  the same on every workload, so every per-layer metric is measured in every
  traced run, including layers the workload's own jobs never reach.

The layers are the modules of src/opentoda. The _accel kernels are timed
through their public callers (eigen, inverse_transform, lax_rhs, ...).
"""

import contextlib
import io
import os
import sys
import time
import traceback

import numpy as np

from spans import Tracer, instrument, summarize
from stats import median
from workloads import WORKLOADS, dense, random_jacobi, random_spectral, seeded

SIZES = (8, 48, 256)
# Calls per probe at each size; the median call is reported.
REPEATS = {8: 20, 48: 5, 256: 2}
PROBE_FAMILIES = 3
SUITES = ("roundtrip", "jacobi", "hierarchy", "darboux", "casimirs")
EPS = float(np.finfo(float).eps)

# name -> (unit, better). "ms"/"us" metrics are the median time of one call.
PER_LAYER = {"cli.import_s": ("s", "lower"), "cli.parse_envelope_ms": ("ms", "lower"),
             "cli.output_s": ("s", "lower"), "cli.output_bytes": ("bytes", "lower")}
PER_LAYER.update({f"cli.verify_suite_s.{s}": ("s", "lower") for s in SUITES})
PER_LAYER.update({f"tridiag.eigen_ms.n{n}": ("ms", "lower") for n in SIZES})
PER_LAYER["tridiag.eigen_calls"] = ("count", "lower")
PER_LAYER.update({f"spectral.direct_transform_ms.n{n}": ("ms", "lower") for n in SIZES})
PER_LAYER.update({f"spectral.inverse_transform_ms.n{n}": ("ms", "lower") for n in SIZES})
PER_LAYER["spectral.roundtrip_err.n48"] = ("ratio", "lower")
PER_LAYER["spectral.min_rho_over_eps.n256"] = ("ratio", "higher")
PER_LAYER.update({f"flows.lax_rhs_ms.k{k}.n{n}": ("ms", "lower") for k in (1, 2, 3) for n in SIZES})
PER_LAYER.update({f"flows.hamiltonian_field_ms.p{p}.n48": ("ms", "lower") for p in (0, 1, 2)})
PER_LAYER.update({
    "flows.rhs_calls": ("count", "lower"),
    "flows.integrate_s": ("s", "lower"),
    "flows.diagnostics_s": ("s", "lower"),
    "flows.diagnostics_rows": ("count", "lower"),
    "flows.exact_evolve_s": ("s", "lower"),
})
PER_LAYER.update({f"brackets.pi_cv_tensor_ms.p{p}.n{n}": ("ms", "lower")
                  for p in (0, 1, 2) for n in (48, 256)})
PER_LAYER.update({
    "brackets.jacobi_residual_ms": ("ms", "lower"),
    "brackets.bracket_terms_us": ("us", "lower"),
    "charts.verify_canonical_ms": ("ms", "lower"),
    "ratfun.poly_real_roots_ms": ("ms", "lower"),
    "trace.overhead_s": ("s", "lower"),
})


def run_job(cli, job, workdir):
    """One job through cli.main in this process, with stdout and stderr
    captured to files as for a child process. Returns (seconds, exit code,
    stdout path)."""
    out = f"{workdir}/{job.id}.out"
    with open(out, "w") as fo, open(f"{workdir}/{job.id}.err", "w") as fe, \
            contextlib.redirect_stdout(fo), contextlib.redirect_stderr(fe):
        t0 = time.perf_counter()
        try:
            rc = cli.main(job.argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an uncaught error ends a real process with exit 1
            traceback.print_exc()
            rc = 1
        seconds = time.perf_counter() - t0
    return seconds, rc, out


def replay(cli, jobs, workdir, tracer):
    """Run every job twice, once untraced and once under the tracer, taking
    turns at going first so that warm-up and drift fall on both sides.
    Returns (untraced seconds, traced seconds, [(job, exit code, stdout
    path)]) with the exit codes of the untraced runs."""
    untraced = traced = 0.0
    results = []
    for i, job in enumerate(jobs):
        for with_spans in ((False, True) if i % 2 == 0 else (True, False)):
            if not with_spans:
                seconds, rc, out = run_job(cli, job, workdir)
                untraced += seconds
                continue
            restore = instrument(tracer)
            try:
                with tracer.span(f"job:{job.id}"):
                    seconds, _, _ = run_job(cli, job, workdir)
            finally:
                restore()
            traced += seconds
        tracer.counts["cli.output_bytes"] += os.path.getsize(out)
        results.append((job, rc, out))
    return untraced, traced, results


def probe_layers(api, tracer, seed):
    """Per-layer metrics from seeded probes of each module (all of
    PER_LAYER except cli.import_s, tridiag.eigen_calls, trace.overhead_s)."""
    cli, tridiag, spectral, flows, brackets, charts = (
        api.cli, api.tridiag, api.spectral, api.flows, api.brackets, api.charts)
    rng = seeded(len(WORKLOADS), seed)
    fams = [{n: random_jacobi(rng, n) for n in SIZES} for _ in range(PROBE_FAMILIES)]
    jac = {n: tridiag.JacobiMatrix(v=fams[0][n][0], c=fams[0][n][1]) for n in SIZES}
    m = {}

    def timed(name, calls, fn):
        """Durations of the spans called name opened by calls calls of fn."""
        since = len(tracer.spans)
        for _ in range(calls):
            fn()
        return tracer.durations(name, since)

    # transforms: direct on the seeded family, round trip at n=8 and n=48
    for n in SIZES:
        since = len(tracer.spans)
        spectra = []
        for v, c in (f[n] for f in fams):
            J = tridiag.JacobiMatrix(v=v, c=c)
            for _ in range(REPEATS[n]):
                S = spectral.direct_transform(J)
            spectra.append((J, S))
        m[f"spectral.direct_transform_ms.n{n}"] = 1e3 * median(
            tracer.durations("spectral.direct_transform", since))
        m[f"tridiag.eigen_ms.n{n}"] = 1e3 * median(tracer.durations("tridiag.eigen", since))
        if n == 256:
            m["spectral.min_rho_over_eps.n256"] = min(float(S.rho.min()) for _, S in spectra) / EPS
            continue
        since = len(tracer.spans)
        worst = 0.0
        for J, S in spectra:
            try:
                back = spectral.inverse_transform(S)
                err = float(np.abs(dense(back.v, back.c) - J.to_dense()).sum(1).max())
                worst = max(worst, err / (1.0 + float(np.abs(J.to_dense()).sum(1).max())))
            except api.errors.TodaError:
                worst = max(worst, 1.0)
        m[f"spectral.inverse_transform_ms.n{n}"] = 1e3 * median(
            tracer.durations("spectral.inverse_transform", since))
        if n == 48:
            m["spectral.roundtrip_err.n48"] = worst
    z, rho = random_spectral(rng, 256)
    S256 = spectral.SpectralData(z=z, rho=rho)
    m["spectral.inverse_transform_ms.n256"] = 1e3 * median(
        timed("spectral.inverse_transform", 1, lambda: spectral.inverse_transform(S256)))

    for k in (1, 2, 3):
        for n in SIZES:
            m[f"flows.lax_rhs_ms.k{k}.n{n}"] = 1e3 * median(timed(
                "flows.lax_rhs", REPEATS[n], lambda: flows.lax_rhs(jac[n], k)))
    for k, p in ((1, 0), (2, 1), (3, 2)):
        m[f"flows.hamiltonian_field_ms.p{p}.n48"] = 1e3 * median(timed(
            "flows.hamiltonian_field", REPEATS[48], lambda: flows.hamiltonian_field(jac[48], k, p)))
    for p in (0, 1, 2):
        for n in (48, 256):
            P = (brackets.pi0_cv, brackets.pi1_cv, brackets.pi2_cv)[p](n)
            x = brackets.cv_pack(jac[n])
            m[f"brackets.pi_cv_tensor_ms.p{p}.n{n}"] = 1e3 * median(timed(
                "brackets.PoissonStructure.tensor", REPEATS[n], lambda: P.tensor(x)))

    # one rk4-lax k=2 job split into integration (kind="raw", no
    # diagnostics) and the diagnostics that Trajectory.build adds per row
    n = 48

    def field(x):
        return np.concatenate(flows.lax_rhs(tridiag.JacobiMatrix(v=x[:n], c=x[n:]), 2))

    calls0 = tracer.counts["flows.rhs_calls"]
    since = len(tracer.spans)
    raw = flows.rk4(field, brackets.cv_pack(jac[n]), 1e-3, 0.2, kind="raw", record_every=1)
    m["flows.integrate_s"] = tracer.durations("flows.rk4", since)[0]
    m["flows.rhs_calls"] = tracer.counts["flows.rhs_calls"] - calls0
    m["flows.diagnostics_s"] = timed("flows.Trajectory.build", 1, lambda: flows.Trajectory.build(
        "jacobi", n, raw.times, raw.states))[0]
    m["flows.diagnostics_rows"] = int(raw.times.size)

    z, rho = random_spectral(rng, 48)
    spec = flows.FlowSpec(k=1, method="exact", t_final=2.0, dt=1e-3)
    since = len(tracer.spans)
    traj = flows.evolve(spectral.SpectralData(z=z, rho=rho), spec)
    m["flows.exact_evolve_s"] = tracer.durations("flows.evolve", since)[0]
    csv_buf, json_buf = io.StringIO(), io.StringIO()
    since = len(tracer.spans)
    traj.to_csv(csv_buf)
    cli.dump_json(traj.to_payload(), json_buf)
    m["cli.output_s"] = sum(sum(tracer.durations(name, since)) for name in (
        "flows.Trajectory.to_csv", "flows.Trajectory.to_payload", "cli.dump_json"))
    m["cli.output_bytes"] = len(csv_buf.getvalue()) + len(json_buf.getvalue())

    # the suites exactly as `toda verify --n 4` runs them
    suite_rng = np.random.default_rng(0)
    for name in SUITES:
        m[f"cli.verify_suite_s.{name}"] = timed(
            f"cli.suite_{name}", 1, lambda: cli._SUITES[name](suite_rng, 4, 25))[0]

    f1, fz = brackets.WeightFn.power(0), brackets.WeightFn.power(1)
    z4, rho4 = random_spectral(rng, 4)
    x4 = np.concatenate([z4, rho4])
    P4 = brackets.zrho_tensor(f1, 4)
    m["brackets.jacobi_residual_ms"] = 1e3 * median(timed(
        "brackets.jacobi_residual", 10, lambda: brackets.jacobi_residual(P4, x4)))
    chart = charts.iy_map(f1, 4)
    m["charts.verify_canonical_ms"] = 1e3 * median(timed(
        "charts.verify_canonical", 10, lambda: charts.verify_canonical(chart, P4, x4)))
    z8, rho8 = random_spectral(rng, 8)
    S8 = spectral.SpectralData(z=z8, rho=rho8)
    m["brackets.bracket_terms_us"] = 1e6 * median(timed(
        "brackets.bracket_terms", 200, lambda: brackets.bracket_terms(S8, 2.5, -2.5, fz)))
    m["ratfun.poly_real_roots_ms"] = 1e3 * median(timed(
        "ratfun.poly_real_roots", REPEATS[8], lambda: spectral.gammas(S8)))

    doc = {"kind": "spectral", "n": 256, "payload": {"z": S256.z.tolist(), "rho": S256.rho.tolist()}}
    m["cli.parse_envelope_ms"] = 1e3 * median(timed(
        "cli.parse_envelope", REPEATS[8], lambda: cli.parse_envelope(doc)))
    return m


def traced_run(inputs, src):
    """Replay the jobs untraced and traced, then probe every layer.

    Returns (metrics, replay results for checking, report dict, spans).
    """
    sys.path.insert(0, str(src))
    import opentoda.cli  # noqa: F401  (loads every module the tracer wraps)
    api = sys.modules["opentoda"]

    replay_tracer = Tracer()
    untraced_s, traced_s, results = replay(api.cli, inputs.jobs, inputs.workdir, replay_tracer)
    probe_tracer = Tracer()
    restore = instrument(probe_tracer)
    try:
        metrics = probe_layers(api, probe_tracer, inputs.seed)
    finally:
        restore()

    table = summarize(replay_tracer.spans)
    metrics["tridiag.eigen_calls"] = table.get("tridiag.eigen", {"calls": 0})["calls"] / len(inputs.jobs)
    metrics["trace.overhead_s"] = traced_s - untraced_s
    report = {
        "replay_untraced_s": untraced_s,
        "replay_traced_s": traced_s,
        "spans": len(replay_tracer.spans),
        "counts": dict(replay_tracer.counts),
        "self_time": table,
    }
    return metrics, results, report, {"replay": replay_tracer.spans, "probes": probe_tracer.spans}
