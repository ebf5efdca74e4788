"""The trajectory CSV writer and cli.dump_json write the same bytes as the
csv-module and json.dump writers kept in tests/oracles.py, also where they
format the frozen head of a trajectory's rows once and where an exact
trajectory evaluates its residues a pass at a time as they are written."""

import io
import json

import numpy as np
import pytest

from opentoda import (
    DomainViolation, FlowSpec, JacobiMatrix, SpectralData, Trajectory, cli, evolve, flows, floattext,
)
from opentoda.cli import dump_json, main, make_envelope

import oracles
from conftest import corrupt_zrho_tensors, random_jacobi, random_spectral


def _trajectories(rng):
    S = random_spectral(rng, 3)
    exact = evolve(S, FlowSpec(k=1, method="exact", t_final=0.5, dt=0.1))
    odd = exact.states.copy()
    odd[1, 0] = np.nan
    odd[2, 4] = np.inf
    odd[3, 5] = -np.inf
    odd[4, 2] = -0.0
    odd[5, 3] = 5e-324
    odd[5, 4] = 1.7976931348623157e308
    J = random_jacobi(rng, 3)
    lax = evolve(J, FlowSpec(k=2, method="rk4-lax", t_final=0.05, dt=0.01))
    return [
        exact,
        Trajectory.build("raw", 6, exact.times, odd),
        evolve(SpectralData(z=[0.5], rho=[1.0]), FlowSpec(k=1, method="exact", t_final=1.0, dt=1.0)),
        Trajectory.build("raw", 2, [0.0, 0.1], [[1.0, -2.0], [np.nan, np.inf]]),
        lax,
        Trajectory.build("jacobi", 1, [0.0], [[2.0]]),
    ]


def _text(write, *args):
    buf = io.StringIO()
    write(*args, buf)
    return buf.getvalue()


def test_csv_matches_csv_module(rng):
    for traj in _trajectories(rng):
        assert _text(traj.to_csv) == _text(oracles.trajectory_csv, traj)


def test_dump_json_matches_json_dump(rng):
    docs = [traj.to_payload() for traj in _trajectories(rng)] + [
        {},
        [],
        (),
        1.5,
        "top",
        None,
        {"a": [], "b": {}, "c": [[], {}], "d": [1, [2.5, "x"], {"e": None}], "": 0},
        {"s": 'uni é ☃ "q" \\ \n', "flags": [True, False, None], "n": -3},
        {"f": [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e22, 0.1]},
        {"z": {"y": {"x": [[1.0, 2.0], [3.0]]}}, "tuple": (1, (2, 3))},
        {"long": [i / 7 for i in range(2500)], "rows": [[0.5] * 1500, ["a"] * 1025]},
        {3: "int keys", 1: [2]},
        {2.5: "float keys", -1.0: None},
        {True: "bool keys", False: 0},
        [np.float64(0.1), np.float64(np.nan), 7],
        {"a": np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308])},
        {"empty": np.zeros(0), "no_rows": np.zeros((0, 3)), "no_cols": np.zeros((2, 0))},
        {"column": np.arange(5.0).reshape(5, 1), "row": np.arange(3.0).reshape(1, 3)},
        {"long": np.arange(600) / 7.0, "wide": np.arange(1200.0).reshape(2, 600) / 3.0},
        {"cube": np.arange(24.0).reshape(2, 3, 4), "scalar": np.array(2.5)},
        [np.array([1.0, -0.0]), np.array([[np.nan], [-np.inf]]), np.zeros((0, 4))],
    ]
    for doc in docs:
        assert _text(dump_json, doc) == _text(oracles.dump_json, doc)


def _nan(payload):
    """A quiet NaN with the given low mantissa bits."""
    return np.array([0x7FF8000000000000 | payload], dtype=np.uint64).view(np.float64)[0]


def _repeated_columns(rng):
    """2-D float64 arrays whose leading columns repeat the double of row 0
    in some rows, down to the sign of a zero and the payload of a NaN."""
    cases = []
    width = 5
    for rows in (1, 4):
        for k in (0, 1, width - 1, width):
            a = rng.normal(size=(rows, width))
            a[:, :k] = a[0, :k]
            if rows > 1 and k < width:
                # the first free column differs between rows 0 and 1
                a[1, k] += 1.0
            cases.append(a)
    signed_zero = np.ones((3, 3))
    signed_zero[:, 0] = 0.0
    signed_zero[2, 0] = -0.0
    nans = np.full((3, 3), 2.5)
    nans[:, 0] = _nan(0)
    nans[:, 1] = [_nan(1), _nan(1), _nan(2)]
    infs = np.full((3, 3), 0.25)
    infs[:, 0] = np.inf
    infs[1:, 2] = -np.inf
    wide = rng.normal(size=(3, 600))
    wide[:, :300] = wide[0, :300]
    return cases + [signed_zero, nans, infs, wide]


def test_writers_match_oracles_on_repeated_columns(rng):
    for a in _repeated_columns(rng):
        rows, width = a.shape
        traj = Trajectory.build("raw", width, np.arange(rows) / 8.0, a)
        assert _text(traj.to_csv) == _text(oracles.trajectory_csv, traj)
        for doc in (a, {"outer": {"inner": [a, a[:, ::-1]], "b": 1}}):
            assert _text(dump_json, doc) == _text(oracles.dump_json, doc)


@pytest.mark.parametrize("n", [48, 300])
def test_exact_trajectory_writers_match_oracles(rng, n):
    S = random_spectral(rng, n, min_gap=0.0)
    traj = evolve(S, FlowSpec(k=2, method="exact", t_final=0.05, dt=0.01))
    assert _text(traj.to_csv) == _text(oracles.trajectory_csv, traj)
    doc = traj.to_payload()
    assert _text(dump_json, doc) == _text(oracles.dump_json, doc)


def test_writers_match_oracles_across_blocks(rng):
    n = 48
    S = random_spectral(rng, n, min_gap=0.0)
    exact = evolve(S, FlowSpec(k=1, method="exact", t_final=0.25, dt=1e-3))
    # CSV rows hold n + 3 printed numbers and json rows n (the eigenvalues
    # are frozen): both writers cut several blocks and a remainder
    for width in (n + 3, n):
        step = floattext.BLOCK // width
        assert exact.times.size > 2 * step and exact.times.size % step
    rows = 10**4
    assert rows > 2 * floattext.BLOCK and rows % floattext.BLOCK
    raw = Trajectory.build("raw", 3, np.arange(rows) / 7.0, rng.normal(size=(rows, 3)))
    # undiagnosable jacobi rows carry NaN drifts
    J = random_jacobi(rng, 4)
    states = np.tile(np.concatenate([J.v, J.c]), (5, 1)) + rng.normal(scale=1e-3, size=(5, 7))
    states[1, 4] = -1.0
    states[3, 0] = np.nan
    jacobi = Trajectory.build("jacobi", 4, np.arange(5) * 0.1, states)
    assert np.isnan(jacobi.spectrum_drift[[1, 3]]).all()
    # rows wider than BLOCK numbers go one row per pass
    wide = rng.normal(size=(3, 2 * floattext.BLOCK + 100))
    wide[:, :5] = wide[0, :5]
    wide = Trajectory.build("raw", wide.shape[1], [0.0, 0.5, 1.0], wide)
    for traj in (exact, raw, jacobi, wide):
        assert _text(traj.to_csv) == _text(oracles.trajectory_csv, traj)
        doc = traj.to_payload()
        assert _text(dump_json, doc) == _text(oracles.dump_json, doc)


def _envelopes(tmp_path, rng):
    paths = {}
    for name, obj in (
        ("jacobi", JacobiMatrix(v=np.array([0.3, -0.2, 0.1]), c=np.array([1.0, 0.7]))),
        ("spectral", random_spectral(rng, 4, rho_floor=1e-2)),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(make_envelope(obj)))
        paths[name] = str(path)
    return paths


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--n", "3", "--trials", "4"],
        ["verify", "--suite", "jacobi", "--n", "3", "--trials", "4"],
        ["bracket", "{spectral}", "--p", "4", "--q", "5", "--f", "1"],
        ["bracket", "{spectral}", "--p", "4", "--q", "5", "--f", "2", "--restricted"],
        ["transform", "{jacobi}"],
        ["transform", "{spectral}", "--direction", "inverse", "--to", "phase"],
        ["evolve", "{spectral}", "--t", "0.3", "--dt", "0.1", "--out", "json"],
        ["evolve", "{jacobi}", "--method", "rk4-lax", "--t", "0.02", "--dt", "0.01", "--out", "json"],
    ],
)
def test_commands_write_what_json_dump_writes(argv, tmp_path, rng, capsys, monkeypatch):
    argv = [a.format(**_envelopes(tmp_path, rng)) for a in argv]
    if argv[:3] == ["verify", "--suite", "jacobi"]:
        # a failing report
        corrupt_zrho_tensors(monkeypatch)
    rc = main(argv)
    got = capsys.readouterr().out
    monkeypatch.setattr(cli, "dump_json", oracles.dump_json)
    assert main(argv) == rc
    assert got == capsys.readouterr().out


def _cli_text(argv, capsys):
    assert main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("n", [1, 2, 48])
@pytest.mark.parametrize("every", [1, 7])
@pytest.mark.parametrize(
    "t_final, dt",
    [(1.05, 0.1), (0.0, 0.1), (0.7005, 1e-3)],
    ids=["short-last-step", "t0", "many-rows"],
)
def test_streamed_exact_output_matches_in_memory_writers(
    tmp_path, rng, capsys, monkeypatch, n, every, t_final, dt
):
    # `toda evolve --method exact` takes its rows by index range; with
    # drift blocks of 1, 2 and 3 rows and the default, its bytes are those
    # of the in-memory Trajectory's writers and of the oracles
    S = random_spectral(rng, n, min_gap=0.0)
    path = tmp_path / "in.json"
    path.write_text(json.dumps(make_envelope(S)))
    spec = FlowSpec(k=2, method="exact", t_final=t_final, dt=dt)
    traj = evolve(S, spec, every)
    payload = traj.to_payload()
    want = {
        "csv": _text(traj.to_csv),
        "json": _text(dump_json, payload),
    }
    assert want["csv"] == _text(oracles.trajectory_csv, traj)
    assert want["json"] == _text(oracles.dump_json, payload)
    argv = ["evolve", str(path), "--k", "2", "--t", repr(t_final), "--dt", repr(dt),
            "--record-every", str(every)]
    for block in (n, 2 * n, 3 * n, flows._EXACT_BLOCK):
        monkeypatch.setattr(flows, "_EXACT_BLOCK", block)
        for out in ("csv", "json"):
            assert _cli_text(argv + ["--out", out], capsys) == want[out]
        _check_take(evolve(S, spec, every))


def _check_take(traj):
    # take(lo, hi) returns the residues of rows lo..hi-1, whatever the cuts
    m = traj.rows.count
    assert m == traj.times.size
    rho = traj.states[:, traj.n :]
    for step in (1, 3, 7, m):
        for lo in range(0, m, step):
            np.testing.assert_array_equal(traj.rows.take(lo, lo + step), rho[lo : lo + step])


def test_writers_evaluate_each_exact_row_once(rng, monkeypatch):
    # the writers ask an exact run for contiguous passes of at most
    # BLOCK // width rows and evaluate every row once; final_state
    # evaluates its one row
    n = 48
    S = random_spectral(rng, n, min_gap=0.0)
    traj = evolve(S, FlowSpec(k=1, method="exact", t_final=0.25, dt=1e-3))
    m = traj.times.size
    asked = []
    exact_rho = flows._exact_rho

    def recording(z, rho, k, ts):
        lo = int(np.searchsorted(traj.times, ts[0]))
        asked.append((lo, lo + ts.size))
        return exact_rho(z, rho, k, ts)

    monkeypatch.setattr(flows, "_exact_rho", recording)
    for write, width in ((traj.to_csv, n + 3), (lambda buf: dump_json(traj.to_payload(), buf), n)):
        asked.clear()
        _text(write)
        assert asked[0][0] == 0 and asked[-1][1] == m
        assert all(hi == lo for (_, hi), (lo, _) in zip(asked, asked[1:]))
        assert max(hi - lo for lo, hi in asked) <= floattext.BLOCK // width
    asked.clear()
    traj.final_state
    assert asked == [(m - 1, m)]


def test_streamed_exact_output_is_not_bounded_by_max_entries(tmp_path, rng, capsys, monkeypatch):
    # 11 rows of 2n = 8 doubles: assembling every row is refused, while the
    # writers, which take the residues a block at a time, write the same
    # bytes as without the bound
    S = random_spectral(rng, 4)
    path = tmp_path / "in.json"
    path.write_text(json.dumps(make_envelope(S)))
    spec = FlowSpec(k=1, method="exact", t_final=1.0, dt=0.1)
    argv = ["evolve", str(path), "--t", "1.0", "--dt", "0.1"]
    want = {out: _cli_text(argv + ["--out", out], capsys) for out in ("csv", "json")}
    monkeypatch.setattr(flows, "MAX_ENTRIES", 87)
    traj = evolve(S, spec)
    with pytest.raises(DomainViolation, match="MAX_ENTRIES"):
        traj.states
    assert _text(traj.to_csv) == want["csv"]
    for out in ("csv", "json"):
        assert _cli_text(argv + ["--out", out], capsys) == want[out]


def test_exact_trajectory_writes_csv_json_csv(rng):
    # perfbench's probe writes one trajectory as CSV, then as JSON: the
    # residue blocks are evaluated again for every writer
    S = random_spectral(rng, 3)
    traj = evolve(S, FlowSpec(k=1, method="exact", t_final=0.5, dt=0.1))
    csv_text = _text(oracles.trajectory_csv, traj)
    payload = traj.to_payload()
    assert _text(traj.to_csv) == csv_text
    assert _text(dump_json, payload) == _text(oracles.dump_json, payload)
    assert _text(traj.to_csv) == csv_text


@pytest.mark.parametrize("rho", [1.0, 1.0 - 4e-11])
def test_one_site_exact_residue_is_one_after_row_0(rho):
    # at n = 1 every row after row 0 holds x / x = 1.0
    S = SpectralData(z=np.array([0.7]), rho=np.array([rho]))
    traj = evolve(S, FlowSpec(k=1, method="exact", t_final=0.5, dt=0.1))
    np.testing.assert_array_equal(traj.states[:, 0], 0.7)
    np.testing.assert_array_equal(traj.states[1:, 1], 1.0)
    assert traj.states[0, 1] == rho
    assert _text(traj.to_csv) == _text(oracles.trajectory_csv, traj)
    payload = traj.to_payload()
    assert _text(dump_json, payload) == _text(oracles.dump_json, payload)
