"""Command line front end: envelopes, exit codes, formats, determinism."""

import contextlib
import hashlib
import io
import json
import os
import runpy
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opentoda
from opentoda import (
    CONVENTIONS,
    JacobiMatrix,
    PhasePoint,
    SpectralData,
    conventions_hash,
    exact_flow,
)
from opentoda import cli, properties
from opentoda.cli import main, make_envelope, parse_envelope
from opentoda.properties import TOL, random_spectral

import oracles
from conftest import corrupt_zrho_tensors

LN2 = "0.6931471805599453"


def run(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def write_envelope(tmp_path, obj, name="in.json"):
    path = tmp_path / name
    path.write_text(json.dumps(make_envelope(obj)))
    return str(path)


def worked_spectral():
    return SpectralData(z=np.array([-1.0, 1.0]), rho=np.array([0.5, 0.5]))


def test_envelope_roundtrip():
    for obj in (
        PhasePoint(q=np.array([0.3, -0.1]), p=np.array([1.0, 2.0])),
        JacobiMatrix(v=np.array([0.5, -0.5, 0.0]), c=np.array([1.0, 2.0])),
        worked_spectral(),
    ):
        doc = make_envelope(obj)
        assert doc["n"] == obj.n
        assert doc["meta"]["conventions"] == conventions_hash()
        back = parse_envelope(doc)
        assert type(back) is type(obj)
        for field in doc["payload"]:
            np.testing.assert_array_equal(getattr(back, field), getattr(obj, field))


def test_envelope_errors():
    with pytest.raises(ValueError, match="malformed"):
        parse_envelope({"kind": "jacobi"})
    with pytest.raises(ValueError, match="unknown envelope kind"):
        parse_envelope({"kind": "banded", "n": 2, "payload": {}})
    with pytest.raises(ValueError, match="missing 'rho'"):
        parse_envelope({"kind": "spectral", "n": 2, "payload": {"z": [0.0, 1.0]}})
    with pytest.raises(ValueError, match="length 2"):
        parse_envelope({"kind": "phase", "n": 2, "payload": {"q": [0.0], "p": [0.0]}})
    for kind in ("phase", "jacobi", "spectral"):
        for n in (0, -1):
            with pytest.raises(ValueError, match=f"malformed envelope: n must be at least 1, not {n}"):
                parse_envelope({"kind": kind, "n": n, "payload": {}})
    with pytest.raises(TypeError):
        make_envelope(object())


def test_envelope_conventions_mismatch(tmp_path, capsys):
    doc = make_envelope(JacobiMatrix(v=np.zeros(2), c=np.ones(1)))
    doc["meta"]["conventions"] = "bogus"
    with pytest.raises(ValueError, match="conventions"):
        parse_envelope(doc)
    path = tmp_path / "bogus.json"
    path.write_text(json.dumps(doc))
    rc, out, err = run(["transform", str(path)], capsys)
    assert rc == 2 and out == ""
    assert "conventions" in err
    # an envelope without a conventions entry is still read
    del doc["meta"]
    assert isinstance(parse_envelope(doc), JacobiMatrix)


def test_envelope_payload_not_an_object(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text(json.dumps({"kind": "jacobi", "n": 2, "payload": [1, 2]}))
    rc, out, err = run(["transform", str(path)], capsys)
    assert rc == 2 and out == ""
    assert "malformed envelope" in err


@pytest.mark.parametrize(
    "text",
    [
        '{"kind": "phase", "n": 1, "payload": {"q": {"a": 1}, "p": [0]}}',
        '{"kind": "phase", "n": 1e400, "payload": {"q": [0], "p": [0]}}',
        '{"kind": "phase", "n": 2.7, "payload": {"q": [0, 0], "p": [0, 0]}}',
        '{"kind": "phase", "n": "2", "payload": {"q": [0, 0], "p": [0, 0]}}',
        '{"kind": "jacobi", "n": true, "payload": {"v": [1.0], "c": []}}',
        '{"kind": "jacobi", "n": 0, "payload": {"v": [], "c": []}}',
    ],
    ids=["object-field", "overflowing-n", "fractional-n", "string-n", "bool-n", "zero-n"],
)
def test_envelope_malformed_values_exit_2(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    rc, out, err = run(["transform", str(path)], capsys)
    assert rc == 2 and out == ""
    assert "error: malformed envelope" in err



@pytest.mark.parametrize(
    "payload, key",
    [
        ('{"v": [true, 0.5], "c": [1.0]}', "'v' must be a list of numbers"),
        ('{"v": [1, 0.5], "c": ["1e0"]}', "'c' must be a list of numbers"),
        ('{"v": [1, null], "c": [1.0]}', "'v' must be a list of numbers"),
        ('{"v": [1, 0.5], "c": [1' + "0" * 400 + "]}", "'c': int too large"),
    ],
    ids=["bool", "string", "null", "huge-int"],
)
def test_envelope_entries_are_json_numbers(tmp_path, capsys, payload, key):
    # asarray would read true as 1, "1e0" as 1 and null as NaN, and an
    # integer beyond the doubles raised OverflowError, a traceback
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "jacobi", "n": 2, "payload": ' + payload + "}")
    rc, out, err = run(["transform", str(path)], capsys)
    assert rc == 2 and out == ""
    assert err.startswith(f"error: malformed envelope: payload {key}")
    assert err.count("\n") == 1

def test_transform_forward(tmp_path, capsys):
    path = write_envelope(tmp_path, PhasePoint(q=np.zeros(2), p=np.zeros(2)))
    rc, out, _ = run(["transform", path], capsys)
    assert rc == 0
    doc = json.loads(out)
    assert doc["kind"] == "spectral"
    assert doc["n"] == 2
    np.testing.assert_allclose(doc["payload"]["z"], [-1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(doc["payload"]["rho"], [0.5, 0.5], atol=1e-12)
    assert doc["meta"]["conventions"] == conventions_hash()


def test_transform_inverse_to_phase(tmp_path, capsys):
    path = write_envelope(tmp_path, worked_spectral())
    rc, out, _ = run(
        ["transform", path, "--direction", "inverse", "--to", "phase", "--q0", "0.0"],
        capsys,
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["kind"] == "phase"
    np.testing.assert_allclose(doc["payload"]["q"], [0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(doc["payload"]["p"], [0.0, 0.0], atol=1e-12)


def test_transform_stdin(monkeypatch, capsys):
    doc = make_envelope(JacobiMatrix(v=np.zeros(2), c=np.ones(1)))
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    rc, out, _ = run(["transform", "-"], capsys)
    assert rc == 0
    assert json.loads(out)["kind"] == "spectral"


def test_transform_bad_target(tmp_path, capsys):
    path = write_envelope(tmp_path, worked_spectral())
    rc, _, err = run(["transform", path, "--to", "phase"], capsys)
    assert rc == 2
    assert "error:" in err


def test_transform_bad_input(tmp_path, capsys):
    rc, _, err = run(["transform", str(tmp_path / "missing.json")], capsys)
    assert rc == 2
    bad = tmp_path / "bad.json"
    bad.write_text("this is not json")
    rc, _, err = run(["transform", str(bad)], capsys)
    assert rc == 2
    assert "error:" in err


def test_transform_rejects_unnormalized_mass(tmp_path, capsys):
    # sign-indefinite residues parse fine, but the inverse map needs total mass 1
    S = SpectralData(z=np.array([-1.0, 1.0]), rho=np.array([0.4, 0.5]))
    path = write_envelope(tmp_path, S)
    rc, _, err = run(["transform", path, "--direction", "inverse"], capsys)
    assert rc == 2
    assert "error:" in err


def test_transform_refuses_unnormalized_spectral_input(tmp_path, capsys):
    # written back unchanged, rho = [0, 0] would be a state the transforms refuse
    S = SpectralData(z=np.array([-1.0, 1.0]), rho=np.zeros(2))
    path = write_envelope(tmp_path, S)
    for direction in ("forward", "inverse"):
        rc, out, err = run(["transform", path, "--direction", direction, "--to", "jacobi"], capsys)
        assert rc == 2 and out == ""
        assert err == "error: need rho_k > 0 and sum(rho) = 1 within 1e-10\n"
    rc, out, _ = run(["transform", path, "--to", "spectral"], capsys)
    assert rc == 2 and out == ""


def test_transform_unresolved_eigenvalues_exit_3(tmp_path, capsys):
    # eigenvalues 0 and 5e-324 too close to resolve: the residues summed to 1.5
    path = write_envelope(tmp_path, JacobiMatrix(v=np.array([1.0, 1.0, 5e-324]), c=np.array([1.0, 5e-324])))
    rc, out, err = run(["transform", path], capsys)
    assert rc == 3 and out == ""
    assert err.startswith("blow-up: eigenvalues closer together than their accuracy")


def test_transform_residue_underflow_exits_3(tmp_path, capsys):
    # the outer residues are about 1e-400; emitting them as 0 would give a
    # state the inverse transform refuses
    path = write_envelope(tmp_path, JacobiMatrix(v=np.zeros(3), c=np.array([1e-200, 1.0])))
    rc, out, err = run(["transform", path], capsys)
    assert rc == 3 and out == ""
    assert "blow-up:" in err and "Traceback" not in err


def test_evolve_csv(tmp_path, capsys):
    path = write_envelope(tmp_path, worked_spectral())
    out_path = tmp_path / "traj.csv"
    rc, _, _ = run(
        ["evolve", path, "--k", "1", "--t", LN2, "--dt", "0.1", "--file", str(out_path)],
        capsys,
    )
    assert rc == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "t,z0,z1,rho0,rho1,sum_rho_drift,spectrum_drift"
    first = [float(x) for x in lines[1].split(",")]
    last = [float(x) for x in lines[-1].split(",")]
    assert first == [0.0, -1.0, 1.0, 0.5, 0.5, 0.0, 0.0]
    assert last[0] == float(LN2)
    np.testing.assert_allclose(last[3:5], [0.2, 0.8], atol=1e-12)
    # exact propagation moves no mass and no eigenvalue
    assert last[5] == 0.0 and last[6] == 0.0


def test_evolve_json_payload(tmp_path, capsys):
    path = write_envelope(tmp_path, worked_spectral())
    rc, out, _ = run(
        ["evolve", path, "--t", "0.5", "--dt", "0.1", "--out", "json"], capsys
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["kind"] == "spectral"
    assert doc["n"] == 2
    assert doc["fields"] == ["z0", "z1", "rho0", "rho1"]
    assert len(doc["times"]) == len(doc["states"]) == 6
    S = worked_spectral()
    want = exact_flow(S, 1, 0.5)
    np.testing.assert_allclose(doc["states"][-1][2:], want.rho, atol=1e-12)


def test_evolve_rk4_matches_exact(tmp_path, capsys):
    path = write_envelope(tmp_path, worked_spectral())
    rc, out, _ = run(
        [
            "evolve", path, "--method", "rk4-lax", "--t", "1.0", "--dt", "0.001",
            "--record-every", "1000", "--out", "json",
        ],
        capsys,
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["kind"] == "jacobi"
    want = exact_flow(worked_spectral(), 1, 1.0)
    from opentoda import direct_transform

    end = doc["states"][-1]
    J = JacobiMatrix(v=np.array(end[:2]), c=np.array(end[2:]))
    got = direct_transform(J)
    np.testing.assert_allclose(got.rho, want.rho, atol=1e-8)


def test_evolve_blowup_exit_code(tmp_path, capsys):
    # z^3 t leaves the doubles on the first step
    wide = SpectralData(z=np.array([-1e103, 1e103]), rho=np.array([0.5, 0.5]))
    path = write_envelope(tmp_path, wide)
    rc, _, err = run(["evolve", path, "--k", "3", "--t", "1.0"], capsys)
    assert rc == 3
    assert "blow-up" in err


@pytest.mark.parametrize(
    "z, t, dt, error",
    [
        # z t is finite up to t = 1e8 and overflows at the last row, t = 4e8
        ([0.0, 1e300], "4e8", "1e8", "exponents"),
        # rho0 = e^{-600 t} / (1 + e^{-600 t}) underflows to 0 from t = 2 on
        ([-300.0, 300.0], "3", "1", "underflows to 0 at t = 3.0"),
    ],
    ids=["exponent-overflow", "residue-underflow"],
)
@pytest.mark.parametrize("out", ["csv", "json"])
def test_failing_exact_run_writes_nothing(tmp_path, capsys, z, t, dt, error, out):
    S = SpectralData(z=np.array(z), rho=np.array([0.5, 0.5]))
    path = write_envelope(tmp_path, S)
    argv = ["evolve", path, "--method", "exact", "--t", t, "--dt", dt, "--out", out]
    target = tmp_path / "traj.out"
    for extra in ([], ["--file", str(target)]):
        rc, stdout, err = run(argv + extra, capsys)
        assert rc == 3 and stdout == ""
        assert err.startswith("blow-up:") and error in err
        assert not target.exists()


def test_exact_flow_never_emits_a_zero_residue(tmp_path, capsys):
    # the state the flow would reach at t = 2 is refused as input
    envelope = {"kind": "spectral", "n": 2, "payload": {"z": [-300, 300], "rho": [0.5, 0.5]}}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(envelope))
    rc, out, err = run(["evolve", str(path), "--method", "exact", "--t", "1", "--dt", "1"], capsys)
    assert rc == 0
    assert float(out.splitlines()[-1].split(",")[3]) > 0.0
    envelope["payload"]["rho"] = [0.0, 1.0]
    path.write_text(json.dumps(envelope))
    rc, out, _ = run(["evolve", str(path), "--t", "1", "--dt", "1"], capsys)
    assert rc == 2 and out == ""


def test_evolve_bad_spec(tmp_path, capsys):
    path = write_envelope(tmp_path, worked_spectral())
    for argv in (["--k", "0"], ["--t", "inf"], ["--t", "-1"]):
        rc, _, err = run(["evolve", path] + argv, capsys)
        assert rc == 2
        assert "error:" in err


@pytest.mark.parametrize("method", ["exact", "rk4-lax", "rk4-hamiltonian"])
def test_evolve_dt_not_finite_exit_2(tmp_path, capsys, method):
    path = write_envelope(tmp_path, worked_spectral())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, err = run(["evolve", path, "--method", method, "--dt", "inf"], capsys)
    assert rc == 2 and out == ""
    assert "error: dt must be positive and finite" in err
    assert caught == []


@pytest.mark.parametrize("method", ["exact", "rk4-lax"])
def test_evolve_underflowing_step_ratio_ends_on_t(tmp_path, capsys, method):
    # t / dt underflows to 0; the run still takes its one step to t
    path = write_envelope(tmp_path, worked_spectral())
    rc, out, _ = run(["evolve", path, "--method", method, "--t", "1e-320", "--dt", "1e10"], capsys)
    assert rc == 0
    rows = out.splitlines()[1:]
    assert [float(row.split(",")[0]) for row in rows] == [0.0, 1e-320]


def test_evolve_bad_record_every(tmp_path, capsys):
    path = write_envelope(tmp_path, worked_spectral())
    for method in ("exact", "rk4-lax"):
        for every in ("0", "-1"):
            rc, out, err = run(
                ["evolve", path, "--method", method, "--t", "0.1", "--dt", "0.05",
                 "--record-every", every],
                capsys,
            )
            assert rc == 2 and out == ""
            assert "record_every" in err


def test_bracket_command(tmp_path, capsys):
    # phase input exercises the conversion chain up to spectral data
    path = write_envelope(tmp_path, PhasePoint(q=np.zeros(2), p=np.zeros(2)))
    rc, out, _ = run(["bracket", path, "--p", "2", "--q", "3"], capsys)
    assert rc == 0
    doc = json.loads(out)
    assert doc["f"] == "1" and doc["restricted"] is False
    assert abs(doc["value"] - (-49.0 / 576.0)) < 1e-12
    assert abs(doc["closed_form"] - (-49.0 / 576.0)) < 1e-12
    assert doc["closed_form_gap"] < 1e-12
    np.testing.assert_allclose(
        [term["z"] for term in doc["pole_breakdown"]], [-1.0, 1.0], atol=1e-12
    )
    assert abs(sum(t["residue_term"] for t in doc["pole_breakdown"]) - doc["value"]) < 1e-15

    rc, out, _ = run(["bracket", path, "--p", "2", "--q", "3", "--restricted"], capsys)
    doc = json.loads(out)
    assert abs(doc["value"] - (-7.0 / 576.0)) < 1e-12

    rc, out, _ = run(["bracket", path, "--p", "2", "--q", "3", "--f", "2"], capsys)
    doc = json.loads(out)
    assert doc["closed_form"] is None
    assert "closed_form_gap" not in doc


def test_bracket_coincident_points(tmp_path, capsys):
    path = write_envelope(tmp_path, worked_spectral())
    rc, _, err = run(["bracket", path, "--p", "2", "--q", "2"], capsys)
    assert rc == 2
    assert "error:" in err


def test_bracket_non_finite_point_exit_2(tmp_path, capsys):
    path = write_envelope(tmp_path, worked_spectral())
    for point in ("nan", "inf"):
        rc, out, err = run(["bracket", path, "--p", point, "--q", "3"], capsys)
        assert rc == 2 and out == ""
        assert "finite" in err


def test_bracket_overflow_exit_3(tmp_path, capsys):
    # z^200 at poles near +-100 overflows double precision
    path = write_envelope(tmp_path, JacobiMatrix(v=np.array([100.0, -100.0]), c=np.array([1.0])))
    rc, out, err = run(["bracket", path, "--p", "0.5", "--q", "0.25", "--f", "200"], capsys)
    assert rc == 3 and out == ""
    assert err.startswith("blow-up:")


def test_demo(capsys):
    rc, out, _ = run(["demo"], capsys)
    assert rc == 0
    assert "all checks passed" in out
    assert "FAIL" not in out


def test_verify_single_suite(capsys):
    rc, out, err = run(["verify", "--suite", "roundtrip", "--n", "3", "--trials", "5"], capsys)
    assert rc == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["suite"] == "roundtrip"
    assert all(r["max_residual"] <= r["tol"] for r in report["properties"])
    assert "all properties passed" in err


def test_verify_all_deterministic(capsys):
    argv = ["verify", "--suite", "all", "--n", "3", "--trials", "5", "--seed", "7"]
    rc1, out1, _ = run(argv, capsys)
    rc2, out2, _ = run(argv, capsys)
    assert rc1 == rc2 == 0
    assert out1 == out2
    suites = {r["suite"] for r in json.loads(out1)["properties"]}
    assert suites == {"roundtrip", "jacobi", "hierarchy", "darboux", "casimirs"}


def test_verify_negative_control(capsys, monkeypatch):
    corrupt_zrho_tensors(monkeypatch)
    rc, out, err = run(["verify", "--suite", "jacobi", "--n", "3", "--trials", "5"], capsys)
    assert rc == 1
    report = json.loads(out)
    failed = [r for r in report["properties"] if not r["pass"]]
    assert failed
    assert max(r["max_residual"] for r in failed) > 1e-3
    assert "PROPERTY FAILURES" in err


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suite": "roundtrip", "n": 3, "trials": 4}))
    rc, out, _ = run(["verify", "--config", str(cfg)], capsys)
    assert rc == 0
    report = json.loads(out)
    assert report["suite"] == "roundtrip" and report["trials"] == 4

    # explicit flags beat the file
    rc, out, _ = run(["verify", "--config", str(cfg), "--trials", "6"], capsys)
    assert json.loads(out)["trials"] == 6


def test_config_hyphen_keys(tmp_path, capsys):
    path = write_envelope(tmp_path, worked_spectral())
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"record-every": 4, "dt": 0.1, "out": "json"}))
    rc, out, _ = run(["evolve", path, "--t", "0.8", "--config", str(cfg)], capsys)
    assert rc == 0
    doc = json.loads(out)
    np.testing.assert_allclose(doc["times"], [0.0, 0.4, 0.8], atol=1e-15)


def test_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    rc, _, err = run(["verify", "--config", str(cfg)], capsys)
    assert rc == 2
    assert "does not match any flag" in err


def exit_code(argv, capsys):
    """main's return code, or the code of the SystemExit argparse raises."""
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.mark.parametrize(
    "command,doc,message",
    [
        ("verify", [1, 2], "JSON object"),
        ("evolve", {"t": "abc"}, "invalid float value"),
        ("verify", {"suite": "nope"}, "invalid choice"),
        ("verify", {"n": "abc"}, "invalid int value"),
        ("evolve", {"k": 1.5}, "invalid int value"),
        ("verify", {"n": [3]}, "string, number or boolean"),
        ("verify", {"trials": None}, "string, number or boolean"),
    ],
)
def test_config_values_checked_like_flags(tmp_path, capsys, command, doc, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    argv = [command, "--config", str(cfg)]
    if command == "evolve":
        argv.insert(1, write_envelope(tmp_path, worked_spectral()))
    rc, out, err = exit_code(argv, capsys)
    assert rc == 2 and out == ""
    assert message in err


@pytest.mark.parametrize("key", ["config", "fn", "command", "input"])
def test_config_keys_that_are_not_flags(tmp_path, capsys, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: "x"}))
    argv = ["transform", write_envelope(tmp_path, worked_spectral()), "--config", str(cfg)]
    rc, out, err = exit_code(argv, capsys)
    assert rc == 2 and out == ""
    assert err == f"error: config key {key!r} does not match any flag\n"


def test_config_booleans(tmp_path, capsys):
    # true is the bare flag, false leaves it out
    cfg = tmp_path / "cfg.json"
    base = ["bracket", write_envelope(tmp_path, worked_spectral()), "--p", "2", "--q", "3",
            "--config", str(cfg)]
    for value in (True, False):
        cfg.write_text(json.dumps({"restricted": value}))
        rc, out, _ = run(base, capsys)
        assert rc == 0 and json.loads(out)["restricted"] is value


@pytest.mark.parametrize(
    "flag,value", [("--n", "0"), ("--n", "-1"), ("--trials", "0"), ("--trials", "-2")]
)
def test_verify_refuses_sizes_below_one(capsys, flag, value):
    rc, out, err = run(["verify", "--suite", "roundtrip", flag, value], capsys)
    assert rc == 2 and out == ""
    assert "at least 1" in err


def test_verify_refuses_a_negative_seed(capsys):
    # random.Random(-1) would silently draw the stream of seed 1
    rc, out, err = run(["verify", "--seed", "-1"], capsys)
    assert rc == 2 and out == ""
    assert err == "error: --seed must be at least 0, not -1\n"


def test_verify_refuses_trials_below_n(capsys):
    # with fewer trials the largest sizes are never drawn, and reports for
    # different n would differ only in "n"
    rc, out, err = run(["verify", "--n", "8", "--trials", "4"], capsys)
    assert rc == 2 and out == ""
    assert "error: --n 8 needs --trials 8 or more" in err


def test_verify_numerical_failure_exits_3(capsys):
    # the polynomial routes of weyl_three_routes meet complex roots by size 40
    rc, out, err = run(["verify", "--suite", "roundtrip", "--n", "40", "--trials", "40"], capsys)
    assert rc == 3 and out == ""
    assert err.startswith("blow-up: complex roots")


@pytest.mark.parametrize(
    "error",
    [
        opentoda.NonRealOrMultipleRoots,
        opentoda.MultiplePole,
        opentoda.ConstraintBracketNotUnit,
    ],
)
def test_verify_suite_blowups_exit_3(capsys, monkeypatch, error):
    def suite(rng, n, trials):
        raise error("numerical failure")

    monkeypatch.setitem(cli._SUITES, "casimirs", suite)
    rc, out, err = run(["verify", "--suite", "casimirs", "--n", "2", "--trials", "2"], capsys)
    assert rc == 3 and out == ""
    assert err == "blow-up: numerical failure\n"


def _error_classes(base=opentoda.TodaError):
    for cls in base.__subclasses__():
        yield cls
        yield from _error_classes(cls)


def test_exit_code_follows_the_error_taxonomy(capsys, monkeypatch):
    # the class alone decides: every NumericalFailure exits 3, every other
    # TodaError exits 2, with nothing listed in the CLI
    classes = list(_error_classes())
    assert opentoda.NumericalFailure in classes and opentoda.ResidueUnderflow in classes
    for error in classes:
        def suite(rng, n, trials):
            raise error("raised by the suite")

        monkeypatch.setitem(cli._SUITES, "casimirs", suite)
        rc, out, err = run(["verify", "--suite", "casimirs", "--n", "2", "--trials", "2"], capsys)
        blowup = issubclass(error, opentoda.NumericalFailure)
        assert (rc, out) == ((3, "") if blowup else (2, "")), error
        assert err == ("blow-up: " if blowup else "error: ") + "raised by the suite\n"


def test_bracket_restricted_zero_mass_exits_2(tmp_path, capsys):
    # the restricted bracket divides by q0 = sum(rho), which is 0 here
    path = write_envelope(tmp_path, SpectralData(z=np.array([-1.0, 1.0]), rho=np.array([0.5, -0.5])))
    for power in ("0", "2"):
        rc, out, err = run(["bracket", path, "--restricted", "--f", power, "--p", "2", "--q", "3"], capsys)
        assert rc == 2 and out == ""
        assert err == "error: the restricted bracket needs sum(rho) != 0\n"
        rc, out, _ = run(["bracket", path, "--f", power, "--p", "2", "--q", "3"], capsys)
        assert rc == 0 and json.loads(out)["restricted"] is False


def test_rk4_run_leaving_the_jacobi_matrices_exits_3(tmp_path, capsys):
    # one step of the second flow from this momentum takes c0 to -5.7e41
    phase = PhasePoint(q=np.zeros(2), p=np.array([-127341.1121780271, 14873.772799648563]))
    path = write_envelope(tmp_path, phase)
    rc, out, err = run(["evolve", path, "--method", "rk4-lax", "--k", "2", "--t", "0.1", "--dt", "0.1"], capsys)
    assert rc == 3 and out == ""
    assert err == "blow-up: state left c > 0 in step 1 of 1\n"


@pytest.mark.parametrize("route", [["rk4-lax"], ["rk4-hamiltonian", "--p", "1"]])
def test_rk4_blowup_prints_no_numpy_warning(tmp_path, capsys, route):
    # the first step overflows to inf and NaN: the blow-up message is the
    # only line on stderr, and no RuntimeWarning is raised on the way
    phase = PhasePoint(q=np.zeros(3), p=np.array([1e200, -1e200, 3.0]))
    path = write_envelope(tmp_path, phase)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc, out, err = run(["evolve", path, "--method", *route, "--k", "2", "--t", "0.1", "--dt", "0.1"], capsys)
    assert rc == 3 and out == ""
    assert err == "blow-up: state left the finite floats in step 1 of 1\n"


@pytest.mark.parametrize("q", [[2000.0, 0.0], [0.0, 2000.0], [1e308, -1e308]])
def test_unrepresentable_flaschka_coupling_exits_3(tmp_path, capsys, q):
    # a valid phase point whose coupling exp((q_0 - q_1)/2) overflows or
    # underflows to 0: a numerical failure, not an input error about c
    path = write_envelope(tmp_path, PhasePoint(q=np.array(q), p=np.zeros(2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc, out, err = run(["transform", path], capsys)
    assert rc == 3 and out == ""
    assert err == "blow-up: phase point: a Flaschka coupling c_k is not a positive finite double\n"


def test_bracket_on_poles_near_the_largest_double_prints_no_warning(tmp_path, capsys):
    # the pole spacing overflows in the input's own checks; the bracket is finite
    path = tmp_path / "in.json"
    path.write_text('{"kind": "spectral", "n": 2, "payload": {"z": [-1.7e308, 1.7e308], "rho": [0.5, 0.5]}}')
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc, out, err = run(["bracket", str(path), "--p", "2", "--q", "3"], capsys)
    assert rc == 0 and err == ""
    assert np.isfinite(json.loads(out)["value"])


@pytest.mark.parametrize("route", ["weyl_eval", "weyl_rat", "pq_polynomials", "gammas"])
def test_a_nan_weyl_route_fails_the_property(monkeypatch, route):
    # Python's max skips a NaN that is not its first item; each route in turn
    orig = getattr(properties, route)
    nan_route = {
        "weyl_eval": lambda S, x: orig(S, x) * np.nan,
        "weyl_rat": lambda S: lambda x: orig(S)(x) * np.nan,
        "pq_polynomials": lambda J, x: tuple(a * np.nan for a in orig(J, x)),
        "gammas": lambda S: (orig(S)[0] * np.nan, orig(S)[1]),
    }[route]
    monkeypatch.setattr(properties, route, nan_route)
    J = JacobiMatrix(v=np.array([0.5, -0.2, 0.1]), c=np.array([1.0, 0.7]))
    gap = properties.weyl_routes_gap(opentoda.direct_transform(J), J, np.array([4.0, 5.0]))
    assert np.isnan(gap)
    assert not properties._prop("weyl_three_routes", [1e-16, gap], 2)["pass"]


# ---------------------------------------------------------------------------
# the exit-code contract over arbitrary envelopes

# doubles of either sign from the smallest subnormal up to 1.7e308, and 0;
# the draws from [-4, 4] reach the admissible states more often
_MAGNITUDES = st.floats(min_value=5e-324, max_value=1.7e308)
_VALUES = st.one_of(st.just(0.0), _MAGNITUDES, _MAGNITUDES.map(lambda x: -x), st.floats(-4.0, 4.0))


@st.composite
def _fuzz_envelopes(draw):
    n = draw(st.sampled_from((1, 2, 3, 5, 12)))
    kind = draw(st.sampled_from(("phase", "jacobi", "spectral")))

    def values(size):
        return draw(st.lists(_VALUES, min_size=size, max_size=size))

    if kind == "phase":
        payload = {"q": values(n), "p": values(n)}
    elif kind == "jacobi":
        payload = {"v": values(n), "c": values(n - 1)}
    else:
        z, rho = values(n), values(n)
        # also offer the admissible class, so that the checks past the
        # input's own are reached: increasing poles and unit mass
        if draw(st.booleans()):
            z = sorted(z)
        mass = float(np.sum(np.abs(rho)))
        if draw(st.booleans()) and 0.0 < mass < np.inf:
            rho = [abs(r) / mass for r in rho]
        payload = {"z": z, "rho": rho}
    return {"kind": kind, "n": n, "payload": payload}


_FUZZ_COMMANDS = st.one_of(
    st.sampled_from([
        ["transform", "--direction=forward", "--to=jacobi"],
        ["transform", "--direction=forward", "--to=spectral"],
        ["transform", "--direction=inverse", "--to=jacobi"],
        ["transform", "--direction=inverse", "--to=phase"],
    ]),
    st.builds(
        lambda method, k, p, t, dt: ["evolve", f"--method={method}", f"--k={k}", f"--p={p}", f"--t={t}", f"--dt={dt}"],
        st.sampled_from(("exact", "rk4-lax", "rk4-hamiltonian")),
        st.integers(1, 3),
        st.integers(0, 2),
        st.sampled_from(("0.01", "0.1")),
        st.sampled_from(("0.02", "0.1")),
    ),
    st.builds(
        lambda f, p, q, restricted: ["bracket", f"--f={f}", f"--p={p!r}", f"--q={q!r}"] + restricted,
        st.integers(0, 3),
        _VALUES,
        _VALUES,
        st.sampled_from(([], ["--restricted"])),
    ),
)


def _run_on_stdin(argv, text):
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    finally:
        sys.stdin = stdin
    return rc, out.getvalue(), err.getvalue()


def _assert_admissible(names, values):
    """A printed state the package would take as input: finite numbers,
    c_k > 0 on Jacobi rows and rho_k > 0 with unit mass on spectral rows."""
    values = np.asarray(values, dtype=float)
    assert np.all(np.isfinite(values)), dict(zip(names, values))
    c = values[[name.startswith("c") for name in names]]
    rho = values[[name.startswith("rho") for name in names]]
    assert np.all(c > 0.0), c
    if rho.size:
        assert np.all(rho > 0.0) and abs(float(np.sum(rho)) - 1.0) <= 1e-10, rho


# the strategy's own mass sum overflows on its largest draws; the run of
# the command below turns any RuntimeWarning into an error
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(envelope=_fuzz_envelopes(), command=_FUZZ_COMMANDS)
def test_exit_code_contract_on_arbitrary_envelopes(envelope, command):
    argv = [command[0], "-", *command[1:]]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc, out, err = _run_on_stdin(argv, json.dumps(envelope))
    assert rc in (0, 2, 3), err
    if rc:
        assert out == "" and err.startswith("blow-up: " if rc == 3 else "error: ")
        assert err.count("\n") == 1 and err.endswith("\n"), err
        return
    assert err == ""
    if command[0] == "transform":
        doc = json.loads(out)
        parse_envelope(doc)
        payload = doc["payload"]
        _assert_admissible(
            [name for name, row in payload.items() for _ in row],
            [x for row in payload.values() for x in row],
        )
    elif command[0] == "evolve":
        header, *rows = out.splitlines()
        names = header.split(",")[1:]
        for row in rows:
            _assert_admissible(names, row.split(",")[1:])
    else:
        doc = json.loads(out)
        assert np.isfinite(doc["value"])


def test_evolve_step_budget(tmp_path, capsys):
    path = write_envelope(tmp_path, worked_spectral())
    for method in ("exact", "rk4-lax"):
        for every in ("1", "1000000000"):
            rc, out, err = run(
                ["evolve", path, "--method", method, "--t", "1e9", "--dt", "1e-9",
                 "--record-every", every],
                capsys,
            )
            assert rc == 2 and out == ""
            assert "MAX_STEPS" in err


@pytest.mark.parametrize(
    "n, positive, min_gap, rho_floor",
    [(1, False, 0.05, 1e-2), (4, False, 0.05, 1e-2), (6, False, 0.4, 0.05), (4, False, 0.05, 0.0)],
)
def test_rand_spectral_is_distributed_like_rejection(n, positive, min_gap, rho_floor):
    # direct draws against the rejection loops they replace: two-sample KS
    # per coordinate, at a p-value bound fixed before any measurement
    from scipy.stats import ks_2samp

    draws = 2000
    rng, ref = np.random.default_rng(11), np.random.default_rng(12)
    got = [random_spectral(rng, n, positive, min_gap, rho_floor) for _ in range(draws)]
    want = [oracles.rand_spectral(ref, n, positive, min_gap, rho_floor) for _ in range(draws)]
    z, rho = np.array([S.z for S in got]), np.array([S.rho for S in got])
    assert np.all(np.diff(z, axis=1) >= min_gap) and np.all(rho >= rho_floor)
    for a, b in ((z, np.array([w[0] for w in want])), (rho, np.array([w[1] for w in want]))):
        for k in range(n):
            assert ks_2samp(a[:, k], b[:, k]).pvalue > 1e-3, k


def test_verify_reports_the_shared_tolerances(capsys, monkeypatch):
    rc, out, _ = run(["verify", "--suite", "all", "--n", "3", "--trials", "3"], capsys)
    assert rc == 0
    reported = {r["property"]: r["tol"] for r in json.loads(out)["properties"]}
    assert reported == TOL
    # the gate's checks of the shared residuals take their tolerance from the
    # same table: swap in a table of distinct values and see which one is used
    import test_acceptance as gate

    stand_in = {name: float(i + 1) for i, name in enumerate(TOL)}
    used = {}
    monkeypatch.setattr(gate, "TOL", stand_in)
    monkeypatch.setattr(gate, "report", lambda tag, worst, tol: used.update({tag.split()[0]: tol}))
    gate.test_ac01_round_trip()
    gate.test_ac02_spectral_representation()
    gate.test_ac06_hierarchy_degeneracy()
    assert used == {
        "AC1": stand_in["roundtrip_lanczos"],
        "AC2a": stand_in["residue_mass"],
        "AC2b": stand_in["weyl_three_routes"],
        "AC6": stand_in["hamiltonian_field_p_agreement"],
    }


def test_verify_all_passes_at_n8(capsys):
    for n, seed in (("8", "0"), ("14", "7")):
        rc, out, err = run(["verify", "--suite", "all", "--n", n, "--seed", seed], capsys)
        assert rc == 0, err
        assert json.loads(out)["pass"] is True


def test_benchmark_tracer_finds_its_targets():
    # the benchmark wraps these functions by name and times the suites
    # through cli._SUITES; a moved or renamed target breaks only traced runs
    spans = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"))
    assert list(cli._SUITES) == ["roundtrip", "jacobi", "hierarchy", "darboux", "casimirs"]
    originals = dict(cli._SUITES)
    tracer = spans["Tracer"]()
    restore = spans["instrument"](tracer)
    try:
        rng = np.random.default_rng(0)
        for name in originals:
            cli._SUITES[name](rng, 2, 1)
            assert len(tracer.durations(f"cli.suite_{name}")) == 1
    finally:
        restore()
    assert cli._SUITES == originals
    for name in originals:
        assert getattr(cli, f"suite_{name}") is originals[name]


def test_parser_choices_come_from_the_registries():
    from opentoda import flows

    def choices(command, flag):
        sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
        return next(a for a in sub.choices[command]._actions if flag in a.option_strings).choices

    assert tuple(choices("evolve", "--method")) == flows._METHODS
    assert tuple(choices("verify", "--suite")) == (*cli._SUITES, "all")


def test_verify_large_n_exits_2():
    # 15 poles spaced 0.4 apart, as the Darboux suite asks, do not fit in [0.5, 6]
    src = str(Path(opentoda.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "opentoda.cli", "verify", "--n", "15"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "error: 15 poles in [0.5, 6.0] cannot be spaced 0.4 apart" in proc.stderr


def test_conventions_hash_is_sha256_of_conventions():
    # the hash is a pinned constant, so that no process loads OpenSSL for it;
    # an edit to CONVENTIONS must update it
    blob = json.dumps(CONVENTIONS, sort_keys=True).encode()
    assert conventions_hash() == hashlib.sha256(blob).hexdigest()[:12] == "7ec3712b8d37"


_STARTUP_PROBE = textwrap.dedent(
    """
    import contextlib, io, json, sys

    import numpy

    watched = json.loads(sys.argv[2])
    # numpy 1.x loads these itself; only what opentoda adds counts
    preloaded = {name for name in watched if name in sys.modules}
    from opentoda import cli, properties

    for argv in json.loads(sys.argv[1]):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0, argv
    print(json.dumps(sorted(set(watched) & set(sys.modules) - preloaded)))
    """
)


def test_commands_load_neither_hashlib_nor_numpy_polynomial(tmp_path):
    jacobi = write_envelope(tmp_path, JacobiMatrix(v=np.array([0.5, -0.2, 0.1]), c=np.array([1.0, 0.7])))
    spectral = write_envelope(tmp_path, worked_spectral(), name="spectral.json")
    flow = ["--t", "0.01", "--dt", "0.005"]
    commands = [
        ["transform", jacobi],
        ["transform", spectral, "--direction", "inverse"],
        ["bracket", spectral, "--p", "2", "--q", "3"],
        ["evolve", spectral, "--method", "exact", *flow],
        ["evolve", jacobi, "--method", "rk4-lax", "--k", "2", *flow],
        ["evolve", jacobi, "--method", "rk4-hamiltonian", "--k", "2", "--p", "1", *flow],
    ]
    assert _loaded_by(commands, ["hashlib", "_hashlib", "numpy.polynomial"]) == []


def test_verify_loads_neither_numpy_random_nor_hashlib():
    # verify draws from random.Random, and numpy.random imports OpenSSL
    # through secrets and hmac; numpy.polynomial is not watched, because the
    # roundtrip and darboux suites still root polynomials with it
    commands = [["verify", "--suite", "all", "--n", "3"]]
    watched = ["numpy.random", "secrets", "hmac", "hashlib", "_hashlib"]
    assert _loaded_by(commands, watched) == []


def _loaded_by(commands, watched):
    """The watched modules that a fresh process has loaded after it ran each
    command through cli.main, beyond those a bare import of numpy loads."""
    src = str(Path(opentoda.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _STARTUP_PROBE, json.dumps(commands), json.dumps(watched)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)
