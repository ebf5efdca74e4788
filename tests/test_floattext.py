"""floattext.write_rows prints every double as '%.17g' prints it (style
"csv") and as json's encoder prints it (style "json"), byte for byte."""

import io
import json
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from opentoda import FlowSpec, evolve, floattext

from conftest import random_spectral


def _kernel(x, style):
    buf = io.StringIO()
    floattext.write_rows(buf, x.size, lambda lo, hi: [x[lo:hi]], ["\n"], style)
    return buf.getvalue()


def _python(x, style):
    if style == "csv":
        return "".join(["%.17g\n" % v for v in x.tolist()])
    # json's C encoder, one item per line
    return json.JSONEncoder(separators=("\n", ":")).encode(x.tolist())[1:-1] + "\n"


def _mismatches(x, style):
    got = _kernel(x, style).split("\n")
    want = _python(x, style).split("\n")
    assert len(got) == len(want)
    return [(float(x[i]), got[i], want[i]) for i in range(x.size) if got[i] != want[i]]


def _doubles():
    """A million doubles and more, of every class the kernel treats apart."""
    rng = np.random.default_rng(20261019)
    # random signs and significands at every exponent the digit core takes,
    # and bit patterns drawn over all doubles
    core = rng.integers(0, 2**52, size=750_000, dtype=np.uint64)
    core |= rng.integers(126, 1921, size=core.size).astype(np.uint64) << np.uint64(52)
    core |= rng.integers(0, 2, size=core.size).astype(np.uint64) << np.uint64(63)
    bits = rng.integers(0, 2**64, size=100_000, dtype=np.uint64, endpoint=False)
    powers = [2.0**k for k in range(-1074, 1024)] + [10.0**k for k in range(-323, 309)]
    edges = [
        0.0, np.nan, np.inf, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
        1.7976931348623157e308, 1e-270, 1e270, np.nextafter(1e-270, 0), np.nextafter(1e270, 0),
        # a 17-digit significand that carries into the next power of ten
        9.9999999999999999e16, 99999999999999999.0, 9.999999999999999e-5, 0.099999999999999999,
        # exact decimal ties at 16 and 17 digits
        895478557193099.75, 1125899906842624.25, 1125899906842624.75, 0.5, 2.5e-5,
        2.0**-808, 1e15, 1e16, 1e17, 1e-4, 1e-5, 0.1, 1 / 3, 2 / 3, 123456.0,
    ]
    # neighbours of powers of two and ten, where e10 and the half-gaps turn
    near = np.array(powers)
    near = near[near > 0]
    neighbours = np.concatenate([np.nextafter(near, 0), np.nextafter(near, np.inf)])
    subnormals = rng.integers(1, 2**52, size=2000, dtype=np.uint64).view(np.float64)
    # short decimals: times on a grid, as written by toda evolve
    grids = np.concatenate([np.arange(10**4) * 1e-3, np.arange(2001) * 5e-3])
    # trajectories of exact flows at the benchmark's size
    flows = []
    for seed in (0, 3, 5):
        S = random_spectral(np.random.default_rng(seed), 48, min_gap=0.0)
        flows.append(evolve(S, FlowSpec(k=2, method="exact", t_final=2.0, dt=1e-2)).states.ravel())
    signed = np.concatenate([powers, edges, neighbours, subnormals, grids, *flows])
    return np.concatenate([
        core.view(np.float64), bits.view(np.float64), signed, -signed,
        rng.normal(size=20000), rng.uniform(size=20000) * 10.0 ** rng.integers(-30, 30, 20000),
    ])


@pytest.fixture(scope="module")
def doubles():
    return _doubles()


@pytest.mark.parametrize("style", ["csv", "json"])
def test_kernel_prints_what_python_prints(doubles, style):
    assert doubles.size >= 10**6
    assert _mismatches(doubles, style) == []


def test_uncertified_numbers_go_to_python(monkeypatch):
    # exact decimal ties: x lies halfway between its two 17-digit roundings
    # ("csv") and its two nearest 17-digit candidates ("json")
    x = 2.0**50 + np.array([0.25, 0.75, 1.25, 12345.75])
    calls = []
    fallback = floattext._fallback

    def counted(value, style):
        calls.append(value)
        return fallback(value, style)

    monkeypatch.setattr(floattext, "_fallback", counted)
    for style in ("csv", "json"):
        calls.clear()
        assert _mismatches(x, style) == []
        assert len(calls) >= 1
        assert set(calls) <= set(x.tolist())


def test_rows_separators_lead_and_end():
    a = np.array([[1.0, -0.0, np.nan], [2.5e-7, 1e22, -np.inf]])
    buf = io.StringIO()
    floattext.write_rows(
        buf, 2, lambda lo, hi: [a[lo:hi, 0], a[lo:hi, 1:]], ["|", ";", "\n"], "json", lead="> ", end="."
    )
    assert buf.getvalue() == "> 1.0|-0.0;NaN\n> 2.5e-07|1e+22;-Infinity."
    buf = io.StringIO()
    floattext.write_rows(buf, 2, lambda lo, hi: [a[lo:hi]], [",", ",", "\n"], "csv")
    assert buf.getvalue() == "1,-0,nan\n2.4999999999999999e-07,1e+22,-inf\n"
    buf = io.StringIO()
    floattext.write_rows(buf, 0, lambda lo, hi: [np.zeros((0, 2))], [",", "\n"], "csv", end="]")
    assert buf.getvalue() == ""
    with pytest.raises(ValueError):
        floattext.write_rows(buf, 2, lambda lo, hi: [a[lo:hi]], [","], "csv")


@pytest.mark.parametrize("block", [3, 12, floattext.BLOCK])
def test_blocks_write_the_bytes_of_one_block(rng, monkeypatch, block):
    # every BLOCK writes the bytes of one pass over all 50 rows, asking for
    # contiguous passes of BLOCK // 4 rows (1, 3 and 1024 here); with
    # BLOCK = 3 a row is wider than BLOCK and goes alone
    t = np.arange(50.0) / 3
    a = rng.normal(size=(50, 3))
    asked = []

    def columns(lo, hi):
        asked.append((lo, hi))
        return [t[lo:hi], a[lo:hi]]

    def text():
        asked.clear()
        buf = io.StringIO()
        floattext.write_rows(buf, 50, columns, [",", ";", "|", "\n"], "json", lead="> ", end=".")
        return buf.getvalue()

    monkeypatch.setattr(floattext, "BLOCK", 200)
    whole = text()
    assert asked == [(0, 50)]
    assert whole.count("\n") == 49 and whole.endswith(".")
    monkeypatch.setattr(floattext, "BLOCK", block)
    assert text() == whole
    step = max(1, block // 4)
    assert asked == [(lo, min(50, lo + step)) for lo in range(0, 50, step)]


def test_long_separators_stand_in_the_template_as_marks():
    # ten distinct separators longer than a slot: eight become marks, the
    # others stay in the template as they are
    a = np.arange(22.0).reshape(2, 11) / 3
    seps = [f"<{j:02d}" + "-" * 40 + ">" for j in range(10)] + ["\n"]
    lead = "[" * 40
    buf = io.StringIO()
    floattext.write_rows(buf, 2, lambda lo, hi: [a[lo:hi]], seps, "json", lead=lead, end="$")
    rows = [lead + "".join(repr(v) + s for v, s in zip(row.tolist(), seps)) for row in a]
    assert buf.getvalue() == "".join(rows)[:-1] + "$"


def test_powers_of_ten_match_exact_fractions():
    hi, lo, big, small = floattext._powers()
    for i, q in enumerate(range(floattext._Q0, floattext._Q1 + 1)):
        exact = Fraction(10) ** q
        assert hi[i] == float(exact)
        assert lo[i] == float(exact - Fraction(hi[i]))
    np.testing.assert_array_equal(big + small, hi)
    # Dekker's halves carry 26 bits at most
    assert np.all(np.frexp(big)[0] * 2**26 % 1 == 0)
    assert np.all(np.abs(small) <= np.abs(hi) * 2.0**-26)


def test_import_builds_no_table():
    code = (
        "import sys, opentoda.cli, opentoda.floattext as f;"
        "print(f._powers.cache_info().currsize, 'fractions' in sys.modules, 'decimal' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["0", "False", "False"]
