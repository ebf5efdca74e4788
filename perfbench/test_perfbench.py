"""Tests of the benchmark's own arithmetic and checks.

    python3 -m pytest perfbench
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import launcher
import layers
import run
import stats
from spans import Tracer, self_times, summarize
from workloads import WORKLOADS, Job, bracket_reference, random_jacobi, spectral_of


# ---------------------------------------------------------------------------
# percentiles with their sample count

def test_quantile_interpolates_between_ranks():
    xs = [4.0, 1.0, 3.0, 2.0]
    assert stats.quantile(xs, 0.0) == 1.0
    assert stats.quantile(xs, 1.0) == 4.0
    assert stats.quantile(xs, 0.5) == pytest.approx(2.5)
    assert stats.quantile(xs, 0.9) == pytest.approx(np.percentile(xs, 90))


def test_percentile_needs_ten_samples_beyond_it():
    assert stats.tail_samples(100, 0.9) == 10
    assert stats.tail_samples(99, 0.9) == 9
    assert stats.percentile(list(range(99)), 0.9) is None
    p90 = stats.percentile(list(range(100)), 0.9)
    assert p90 == {"value": pytest.approx(89.1), "samples": 100}
    assert stats.percentile(list(range(20)), 0.5) == {"value": 9.5, "samples": 20}
    assert stats.percentile([], 0.5) is None


def test_quartile_spread_is_relative_to_the_median():
    assert stats.quartile_spread([1.0, 1.0, 1.0, 1.0]) == 0.0
    xs = [9.0, 10.0, 10.0, 11.0, 12.0]
    q1, q2, q3 = np.percentile(xs, [25, 50, 75], method="weibull")
    assert stats.quartile_spread(xs) == pytest.approx((q3 - q1) / q2)


# ---------------------------------------------------------------------------
# spans

def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 3.0, 6.0, 0],      # overlaps a: the union [1, 6] is covered once
        ["a.leaf", 2.0, 3.0, 1],
        ["late", 11.0, 12.0, -1],
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 3.0, 1.0, 1.0])
    table = summarize(spans)
    assert table["root"] == {"calls": 1, "total_s": 10.0, "self_s": 5.0}


def test_tracer_nests_spans_and_wraps_functions():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        return 7

    wrapped = tracer.wrap("leaf", leaf)
    with tracer.span("outer"):
        assert wrapped() == 7
        assert wrapped() == 7
    names = [s[0] for s in tracer.spans]
    assert names == ["outer", "leaf", "leaf"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]
    assert tracer.durations("leaf") == [1.0, 1.0]
    assert tracer.durations("leaf", since=2) == [1.0]
    # outer lasts 5 ticks, its two children cover 2
    assert self_times(tracer.spans)[0] == 3.0


def test_tracer_rejects_spans_closed_out_of_order():
    tracer = Tracer()
    a = tracer.begin("a")
    tracer.begin("b")
    with pytest.raises(RuntimeError):
        tracer.end(a)


# ---------------------------------------------------------------------------
# checks: each accepts a correct output and rejects a perturbed one

def _rng():
    return np.random.default_rng(7)


def _forward_case():
    v, c = random_jacobi(_rng(), 6)
    z, rho = spectral_of(v, c)
    job = Job("fwd", "forward", [], {"n": 6, "z": z, "rho": rho, "scale": 4.0})
    doc = {"kind": "spectral", "n": 6, "payload": {"z": z.tolist(), "rho": rho.tolist()}}
    return job, doc


def _inverse_case():
    v, c = random_jacobi(_rng(), 6)
    job = Job("inv", "inverse", [], {"n": 6, "v": v, "c": c})
    doc = {"kind": "jacobi", "n": 6, "payload": {"v": v.tolist(), "c": c.tolist()}}
    return job, doc


def _bracket_case():
    v, c = random_jacobi(_rng(), 5)
    z, rho = spectral_of(v, c)
    p, q = float(z[-1] + 1.0), float(z[0] - 1.0)
    value, closed = bracket_reference(v, c, 1, p, q, False)
    job = Job("br", "bracket", [], {"n": 5, "value": value, "closed_form": closed})
    terms = rho * z * (np.sum(rho / (z - p)) - np.sum(rho / (z - q))) / ((z - p) * (z - q))
    doc = {"value": float(terms.sum()), "closed_form": closed,
           "pole_breakdown": [{"z": 0.0, "residue_term": 0.0}] * 5}
    return job, doc


def _rk4_case():
    v, c = random_jacobi(_rng(), 5)
    z, rho = spectral_of(v, c)
    x = np.concatenate([v, c])
    job = Job("rk", "rk4", [], {"n": 5, "k": 2, "t": 0.0, "rows": 2, "z": z, "rho": rho})
    return job, (np.zeros(2), np.vstack([x, x]))


def _exact_case():
    z = np.array([-1.0, 0.2, 1.5])
    rho = np.array([0.2, 0.3, 0.5])
    grid = np.array([0.0, 0.005, 0.01])
    rows = np.hstack([np.tile(z, (3, 1)), checks.closed_form_rho(z, rho, 2, grid)])
    job = Job("ex", "exact", [], {"n": 3, "k": 2, "t": 0.01, "dt": 0.005, "format": "csv",
                                  "z": z, "rho": rho})
    return job, (grid, rows)


def _perturb_doc(doc, path):
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    if isinstance(node[path[-1]], list):
        node[path[-1]][0] += 1e-3
    else:
        node[path[-1]] += 1e-3
    return doc


@pytest.mark.parametrize("case, path", [
    (_forward_case, ("payload", "rho")),
    (_forward_case, ("payload", "z")),
    (_inverse_case, ("payload", "c")),
    (_bracket_case, ("value",)),
])
def test_document_checkers_reject_perturbed_output(case, path):
    job, doc = case()
    assert checks.check(job, 0, doc) == set()
    assert checks.check(job, 0, _perturb_doc(doc, path))
    assert checks.check(job, 0, doc, checks.corrupt(job))
    assert checks.check(job, 2, doc) == {"exit:2"}
    assert checks.check(job, 0, None) == {"unparseable"}


@pytest.mark.parametrize("case", [_rk4_case, _exact_case])
def test_trajectory_checkers_reject_perturbed_output(case):
    job, (times, states) = case()
    assert checks.check(job, 0, (times, states)) == set()
    bad = states.copy()
    bad[-1, -1] *= 1.0 + 1e-3
    assert checks.check(job, 0, (times, bad))
    assert checks.check(job, 0, (times, states), checks.corrupt(job))
    assert checks.check(job, 0, (times[:-1], states[:-1])) == {"rows"}


def test_forward_check_flags_zero_residues():
    job, doc = _forward_case()
    rho = np.asarray(doc["payload"]["rho"])
    job.ref["rho"] = rho = np.concatenate([[0.0], rho[1:] / rho[1:].sum()])
    doc["payload"]["rho"] = rho.tolist()
    assert checks.check(job, 0, doc) == {"rho_nonpositive"}


def test_verify_check_reads_exit_code_and_properties():
    job = Job("verify-n8", "verify", [], {"n": 8, "exit": 0})
    good = {"pass": True, "properties": [{"property": "p", "pass": True}]}
    bad = {"pass": False, "properties": [{"property": "pi2_trace_inverse_casimir", "pass": False}]}
    assert checks.check(job, 0, good) == set()
    problems = checks.check(job, 1, bad)
    assert problems == {"exit:1", "property:pi2_trace_inverse_casimir"}
    assert checks.known_defect(job, problems) == "verify-n8-pi2-casimir"
    assert checks.check(job, 0, good, checks.corrupt(job)) == {"exit:0"}


def test_known_defects_match_only_their_exact_shape():
    inv48 = Job("i", "inverse", [], {"n": 48})
    inv8 = Job("i", "inverse", [], {"n": 8})
    fwd256 = Job("f", "forward", [], {"n": 256})
    assert checks.known_defect(inv48, {"ac1"}) == "inverse-n48-roundtrip"
    assert checks.known_defect(inv48, {"ac1", "exit:2"}) is None
    assert checks.known_defect(inv8, {"ac1"}) is None
    assert checks.known_defect(fwd256, {"rho_nonpositive"}) == "forward-n256-rho-zero"
    assert checks.known_defect(fwd256, {"rho_nonpositive", "z"}) is None


def test_load_reads_csv_and_json_trajectories(tmp_path):
    job, (times, states) = _exact_case()
    path = tmp_path / "out.csv"
    header = ["t"] + [f"x{i}" for i in range(states.shape[1])] + ["sum_rho_drift", "spectrum_drift"]
    rows = [",".join(header)] + [
        ",".join(f"{x:.17g}" for x in (t, *row, 0.0, 0.0)) for t, row in zip(times, states)]
    path.write_text("\n".join(rows) + "\n")
    got_t, got_s = checks.load(job, path)
    assert np.array_equal(got_t, times) and np.array_equal(got_s, states)
    job.ref["format"] = "json"
    path = tmp_path / "out.json"
    path.write_text(json.dumps({"times": times.tolist(), "states": states.tolist()}))
    got_t, got_s = checks.load(job, path)
    assert np.array_equal(got_s, states)
    path.write_text("{not json")
    assert checks.load(job, path) is None


# ---------------------------------------------------------------------------
# the declared metrics are the ones the runs print

def test_benchmark_json_names_the_metrics_the_runs_report():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


# ---------------------------------------------------------------------------
# the launcher reports exit codes and kills a child at its timeout

def test_launcher_reports_exit_code_and_timeout(tmp_path):
    out, err = tmp_path / "out", tmp_path / "err"
    done = launcher.run([sys.executable, "-c", "print('x'); raise SystemExit(3)"], out, err, 30.0)
    assert done["exit"] == 3 and not done["timed_out"]
    assert out.read_text() == "x\n"
    assert done["wall_s"] > 0 and done["rss_kib"] > 0
    slow = launcher.run([sys.executable, "-c", "import time; time.sleep(30)"], out, err, 0.2)
    assert slow["timed_out"] and slow["exit"] != 0 and slow["wall_s"] < 10
