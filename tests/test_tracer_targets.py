"""perfbench's tracer finds each function it wraps by its name in
perfbench/spans.py TARGETS, so deleting or renaming one of them breaks
`perfbench/run.py --trace 1`. perfbench's own tests wrap only local
functions; this one wraps the real package."""

from pathlib import Path

import numpy as np

import opentoda.cli  # noqa: F401  (loads every module the tracer wraps)
from opentoda import brackets, charts

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
