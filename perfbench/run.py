#!/usr/bin/env python3
"""Benchmark of the `toda` command line, end to end or layer by layer.

    python3 perfbench/run.py --workload evolve-rk4 --seed 1 --seconds 35 --trace 0

Run from anywhere inside a source checkout; the program is taken from src/
(the package need not be installed). With --trace 0 the run starts one
`python -m opentoda.cli` child process at a time (a closed loop with one
client), runs the workload's fixed job list in rounds until --seconds are
used, checks every output against an independent reference and reports the
end-to-end metrics. With --trace 1 it replays the same jobs in this process
under spans and reports the per-layer metrics instead.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. Everything else (the report, the failures by job, the
provenance) is printed above it and written to perfbench/_work/.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

from stats import median, percentile

# Modules that import numpy (workloads, checks, layers) are imported inside
# the functions that use them, after __main__ has pinned the BLAS threads.

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

SETUP_REPEATS = 5
IMPORT_REPEATS = 5
JOB_TIMEOUT_S = 60.0
# A run must end within 180 s; no job starts after this point.
RUN_DEADLINE_S = 165.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "proc_s_p50": "s",
    "peak_rss_mb": "MB",
}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for key in BLAS_ENV:
        env[key] = BLAS_THREADS
    return env


class Launcher:
    """The small process that starts each `python -m opentoda.cli` child
    (see launcher.py for why the benchmark does not start them itself)."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(HERE / "launcher.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)

    def run(self, argv, out, err, timeout):
        """One child with stdout and stderr sent to files. Returns a dict
        with wall_s, exit, cpu_s, rss_kib and timed_out."""
        request = {"argv": [sys.executable, "-m", "opentoda.cli", *argv],
                   "out": str(out), "err": str(err), "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process ended unexpectedly")
        return json.loads(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()
        return False


def set_up(launcher, workload, seed, meta, workdir):
    """Generate the inputs and finish one warm-up process; returns
    (seconds, inputs)."""
    import workloads

    t0 = time.perf_counter()
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    inputs = workloads.build(workload, seed, str(workdir), meta)
    err = workdir / "warmup.err"
    rc = launcher.run(inputs.warmup_argv, workdir / "warmup.out", err, JOB_TIMEOUT_S)["exit"]
    if rc != 0:
        raise SystemExit(f"warm-up process failed with exit code {rc}:\n{err.read_text()[-2000:]}")
    return time.perf_counter() - t0, inputs


def check_results(results):
    """Check each (job, rc, out path, extra problems) and delete the output.
    Returns one record per job."""
    import checks

    records = []
    for job, rc, out, extra in results:
        parsed = checks.load(job, out)
        problems = checks.check(job, rc, parsed) | extra
        control = checks.check(job, rc, parsed, checks.corrupt(job))
        records.append({
            "job": job.id,
            "exit": rc,
            "problems": sorted(problems),
            "known_defect": checks.known_defect(job, problems) if problems else None,
            "negative_control_rejected": bool(control),
        })
        Path(out).unlink(missing_ok=True)
    return records


def measure(launcher, inputs, seconds, deadline):
    """Rounds of the job list until the next round would pass --seconds
    (at least one). Returns (round walls, per-process samples, records)."""
    rounds, procs, records = [], [], []
    workdir = Path(inputs.workdir)
    while True:
        results = []
        t0 = time.perf_counter()
        for job in inputs.jobs:
            remaining = deadline - time.perf_counter()
            if remaining <= 1.0:
                results.append((job, None, workdir / "missing.out", {"deadline"}))
                continue
            out = workdir / f"{job.id}.out"
            proc = launcher.run(job.argv, out, workdir / f"{job.id}.err",
                                min(JOB_TIMEOUT_S, remaining))
            procs.append({"job": job.id, **proc})
            results.append((job, proc["exit"], out, {"timeout"} if proc["timed_out"] else set()))
        rounds.append(time.perf_counter() - t0)
        records += check_results(results)
        typical = median(rounds)
        if sum(rounds) + typical > seconds or time.perf_counter() + typical > deadline:
            return rounds, procs, records


def cpu_ticks():
    """(steal, total) jiffies of the whole machine from /proc/stat, or None
    where that file does not exist. Steal is time this machine's virtual CPUs
    waited for the host; it explains runs that are slow for no reason in
    the program."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields[:8])


def import_times(repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import opentoda.cli"], env=child_env(),
                       cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return times


def provenance(seed, meta):
    import importlib.util

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "git_commit": commit or "unknown (not a git checkout)",
        "conventions_hash": meta["conventions"],
        "seed": seed,
    }


def program_meta():
    """Envelope meta block, from the program under test."""
    sys.path.insert(0, str(SRC))
    import opentoda

    return {"version": opentoda.__version__, "conventions": opentoda.conventions_hash()}


def summarize_failures(records):
    failed = [r for r in records if r["problems"]]
    unexpected = [r for r in failed if r["known_defect"] is None]
    escaped = [r for r in records if not r["negative_control_rejected"]]
    return failed, unexpected, escaped


def main(argv=None):
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "opentoda" / "cli.py").is_file():
        print(f"error: no program to measure under {SRC}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + RUN_DEADLINE_S
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = WORK / f"{tag}-{os.getpid()}"
    meta = program_meta()
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "why": workloads.WHY[args.workload], "provenance": provenance(args.seed, meta)}
    try:
        with Launcher() as launcher:
            if args.trace:
                metrics, records, units = traced(launcher, args, meta, workdir, result)
            else:
                metrics, records, units = untraced(launcher, args, meta, workdir, deadline, result)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    import checks

    failed, unexpected, escaped = summarize_failures(records)
    result.update({
        "known_defects": {r["known_defect"]: checks.KNOWN_DEFECTS[r["known_defect"]]
                          for r in failed if r["known_defect"]},
        "attempted": len(records),
        "failed": len(failed),
        "failed_ratio": len(failed) / len(records),
        "failures": failed,
        "negative_control": {"jobs": len(records), "rejected": len(records) - len(escaped)},
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })
    print_report(result, unexpected, escaped)
    WORK.mkdir(exist_ok=True)
    with open(WORK / f"result-{tag}.json", "w") as fh:
        json.dump(result, fh, indent=1, default=float)
    print(json.dumps({
        "correct": not unexpected and not escaped,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": result["metrics"],
    }))
    return 0


def untraced(launcher, args, meta, workdir, deadline, result):
    setups = []
    for _ in range(SETUP_REPEATS):
        seconds, inputs = set_up(launcher, args.workload, args.seed, meta, workdir)
        setups.append(seconds)
    before = cpu_ticks()
    rounds, procs, records = measure(launcher, inputs, args.seconds, deadline)
    after = cpu_ticks()
    walls = [p["wall_s"] for p in procs]
    metrics = {
        "setup_s": median(setups),
        "wall_s": median(rounds),
        "proc_s_p50": median(walls),
        "peak_rss_mb": max(p["rss_kib"] for p in procs) / 1024.0,
    }
    p90 = percentile(walls, 0.9)
    result.update({
        "setups_s": setups,
        "rounds_s": rounds,
        "jobs_per_round": len(inputs.jobs),
        "processes": procs,
        "samples": {"setup_s": len(setups), "wall_s": len(rounds), "proc_s_p50": len(walls),
                    "peak_rss_mb": len(procs)},
        "proc_s_p90": p90,
        "cpu_steal_share": (after[0] - before[0]) / max(1, after[1] - before[1])
        if before and after else None,
    })
    return metrics, records, END_TO_END


def traced(launcher, args, meta, workdir, result):
    import layers

    _, inputs = set_up(launcher, args.workload, args.seed, meta, workdir)
    imports = import_times(IMPORT_REPEATS)
    metrics, results, report, spans = layers.traced_run(inputs, SRC)
    metrics["cli.import_s"] = median(imports)
    records = check_results([(job, rc, out, set()) for job, rc, out in results])
    result["trace_report"] = report
    WORK.mkdir(exist_ok=True)
    with open(WORK / f"spans-{args.workload}.json", "w") as fh:
        json.dump({"columns": ["name", "start", "end", "parent"], **spans}, fh)
    ordered = {name: metrics[name] for name in layers.PER_LAYER}
    return ordered, records, {k: u for k, (u, _) in layers.PER_LAYER.items()}


def print_report(result, unexpected, escaped):
    print(f"perfbench {result['workload']} seed={result['seed']} trace={result['trace']}")
    print(f"  why: {result['why']}")
    samples = result.get("samples", {})
    for name, m in result["metrics"].items():
        count = f"  n={samples[name]}" if name in samples else ""
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}{count}")
    if result["trace"] == 0:
        p90 = result["proc_s_p90"]
        if p90 is None:
            print(f"  {'proc_s_p90':<40} {'not reported':>14}    "
                  f"{samples['proc_s_p50']} samples leave fewer than 10 beyond the 90th percentile")
        else:
            print(f"  {'proc_s_p90':<40} {p90['value']:>14.6g} s  n={p90['samples']}")
        if result["cpu_steal_share"] is not None:
            print(f"  machine CPU steal during the rounds: {100 * result['cpu_steal_share']:.1f}%")
    else:
        rep = result["trace_report"]
        total = sum(row["self_s"] for row in rep["self_time"].values())
        layers_self = {}
        for name, row in rep["self_time"].items():
            layer = name.split(".")[0].split(":")[0]
            layers_self[layer] = layers_self.get(layer, 0.0) + row["self_s"]
        print(f"  replay: untraced {rep['replay_untraced_s']:.3f} s, traced "
              f"{rep['replay_traced_s']:.3f} s, {rep['spans']} spans; counts {rep['counts']}")
        print("  self time by layer in the traced replay:")
        for layer, s in sorted(layers_self.items(), key=lambda kv: -kv[1]):
            print(f"    {layer:<12} {s:10.3f} s {100 * s / total:6.1f}%")
        print("  self time by span (top 12):")
        top = sorted(((name, row) for name, row in rep["self_time"].items()
                      if not name.startswith("job:")), key=lambda kv: -kv[1]["self_s"])
        for name, row in top[:12]:
            print(f"    {name:<36} calls={row['calls']:<7d} self={row['self_s']:9.3f} s "
                  f"{100 * row['self_s'] / total:6.1f}%")
    print(f"  {'failed_ratio':<40} {result['failed_ratio']:>14.6g}    "
          f"{result['failed']}/{result['attempted']} operations")
    for r in result["failures"]:
        tag = f"known defect {r['known_defect']}" if r["known_defect"] else "UNEXPECTED"
        print(f"    failed {r['job']:<32} exit={r['exit']} {','.join(r['problems'])}  [{tag}]")
    nc = result["negative_control"]
    print(f"  negative control: {nc['rejected']}/{nc['jobs']} corrupted expectations rejected")
    print(f"  provenance: {json.dumps(result['provenance'], sort_keys=True)}")
    if unexpected or escaped:
        print(f"  NOT CORRECT: {len(unexpected)} unexpected failures, "
              f"{len(escaped)} negative controls passed")


if __name__ == "__main__":
    for key in BLAS_ENV:
        os.environ[key] = BLAS_THREADS
    sys.exit(main())
