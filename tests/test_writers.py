"""The trajectory CSV writer and cli.dump_json write the same bytes as the
csv-module and json.dump writers kept in tests/oracles.py, also where they
format a frozen block of leading columns once (flows.frozen_columns)."""

import io
import json

import numpy as np
import pytest

from opentoda import FlowSpec, JacobiMatrix, Trajectory, cli, evolve, floattext
from opentoda.cli import _JSON_SLICE, dump_json, main, make_envelope
from opentoda.flows import frozen_columns

import oracles
from conftest import random_jacobi, random_spectral


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
        Trajectory.build("spectral", 3, exact.times, odd),
        Trajectory.build("spectral", 1, [0.0, 1.0], [[0.5, 1.0], [0.5, 1.0]]),
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


def _blocks(rng):
    """Pairs of a 2-D float64 array and its number of frozen leading columns."""
    cases = []
    width = 5
    for rows in (1, 4):
        for k in (0, 1, width - 1, width):
            a = rng.normal(size=(rows, width))
            a[:, :k] = a[0, :k]
            if rows > 1 and k < width:
                # the first free column differs between rows 0 and 1
                a[1, k] += 1.0
            # every column of a single row is frozen
            cases.append((a, k if rows > 1 else width))
    signed_zero = np.ones((3, 3))
    signed_zero[:, 0] = 0.0
    signed_zero[2, 0] = -0.0
    cases.append((signed_zero, 0))
    nans = np.full((3, 3), 2.5)
    nans[:, 0] = _nan(0)
    nans[:, 1] = [_nan(1), _nan(1), _nan(2)]
    cases.append((nans, 1))
    infs = np.full((3, 3), 0.25)
    infs[:, 0] = np.inf
    infs[1:, 2] = -np.inf
    cases.append((infs, 2))
    wide = rng.normal(size=(3, 600))
    wide[:, :300] = wide[0, :300]
    cases.append((wide, 300))
    return cases


def test_frozen_columns_compares_bit_patterns(rng):
    for a, k in _blocks(rng):
        assert frozen_columns(a) == k
    assert frozen_columns(np.zeros((0, 3))) == 0
    assert frozen_columns(np.zeros((4, 0))) == 0
    assert frozen_columns(np.zeros((0, 0))) == 0
    assert frozen_columns(np.array([[np.nan, -0.0, 1.0]])) == 3
    # a strided view compares the columns it shows
    a = np.ones((3, 4))
    a[1, 1] = 2.0
    assert frozen_columns(a[:, ::2]) == 2
    assert frozen_columns(a[::2]) == 4


def test_writers_share_frozen_columns_byte_for_byte(rng):
    for a, _ in _blocks(rng):
        rows, width = a.shape
        traj = Trajectory.build("raw", width, np.arange(rows) / 8.0, a)
        assert _text(traj.to_csv) == _text(oracles.trajectory_csv, traj)
        for doc in (a, {"outer": {"inner": [a, a[:, ::-1]], "b": 1}}):
            assert _text(dump_json, doc) == _text(oracles.dump_json, doc)


@pytest.mark.parametrize("n", [48, 300])
def test_exact_trajectory_writers_match_oracles(rng, n):
    # at n = 300 the frozen block ends off a _JSON_SLICE boundary
    assert n % _JSON_SLICE
    S = random_spectral(rng, n, min_gap=0.0)
    traj = evolve(S, FlowSpec(k=2, method="exact", t_final=0.05, dt=0.01))
    assert frozen_columns(traj.states) >= n
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
    # rows wider than a block go in pieces of BLOCK columns
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
        ["verify", "--suite", "jacobi", "--n", "3", "--trials", "4", "--negative-control"],
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
    rc = main(argv)
    got = capsys.readouterr().out
    monkeypatch.setattr(cli, "dump_json", oracles.dump_json)
    assert main(argv) == rc
    assert got == capsys.readouterr().out
