"""perfbench's tracer finds each function it wraps by its name in
perfbench/spans.py TARGETS, so deleting or renaming one of them breaks
`perfbench/run.py --trace 1`. perfbench's own tests wrap only local
functions; this one wraps the real package."""

import json
from pathlib import Path

import numpy as np
import pytest

import opentoda.cli  # noqa: F401  (loads every module the tracer wraps)
from opentoda import SpectralData, brackets, charts, cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_wraps_every_target(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from spans import Tracer, instrument

    original = charts.zq_map
    tracer = Tracer()
    restore = instrument(tracer)
    try:
        assert charts.zq_map is not original
        x = np.array([-1.0, 1.0, 0.5, 0.5])
        brackets.zrho_tensor(brackets.WeightFn.power(0), 2).tensor(x)
        charts.zq_map(2).map_fn(x)
    finally:
        restore()
    assert charts.zq_map is original
    names = [span[0] for span in tracer.spans]
    assert names == ["brackets.zrho_tensor", "brackets.PoissonStructure.tensor", "charts.zq_map"]
    assert all(span[2] is not None for span in tracer.spans)


@pytest.mark.parametrize(
    "out, names",
    [("csv", ["flows.Trajectory.to_csv"]), ("json", ["flows.Trajectory.to_payload", "cli.dump_json"])],
)
def test_exact_evolve_writes_through_the_wrapped_writers(tmp_path, monkeypatch, out, names):
    # the traced evolve-exact replay times its output by these spans
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from spans import Tracer, instrument

    S = SpectralData(z=np.array([-1.0, 0.5]), rho=np.array([0.25, 0.75]))
    path = tmp_path / "in.json"
    path.write_text(json.dumps(cli.make_envelope(S)))
    argv = ["evolve", str(path), "--t", "0.3", "--dt", "0.1", "--out", out, "--file", str(tmp_path / "out")]
    tracer = Tracer()
    restore = instrument(tracer)
    try:
        assert cli.main(argv) == 0
    finally:
        restore()
    spans = [span[0] for span in tracer.spans]
    assert [name for name in spans if name in names] == names
