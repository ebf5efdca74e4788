"""The trajectory CSV writer and cli.dump_json write the same bytes as the
csv-module and json.dump writers kept in tests/oracles.py."""

import io
import json

import numpy as np
import pytest

from opentoda import FlowSpec, JacobiMatrix, Trajectory, cli, evolve, unflaschka
from opentoda.cli import dump_json, main, make_envelope

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
    phase = np.array([np.concatenate([P.q, P.p]) for P in map(unflaschka, [J, J])])
    return [
        exact,
        Trajectory.build("spectral", 3, exact.times, odd),
        Trajectory.build("spectral", 1, [0.0, 1.0], [[0.5, 1.0], [0.5, 1.0]]),
        Trajectory.build("raw", 2, [0.0, 0.1], [[1.0, -2.0], [np.nan, np.inf]]),
        lax,
        Trajectory.build("phase", 3, [0.0, 1.0], phase),
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
