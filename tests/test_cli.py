"""Command line front end: envelopes, exit codes, formats, determinism."""

import io
import json

import numpy as np
import pytest

from opentoda import (
    JacobiMatrix,
    PhasePoint,
    SpectralData,
    conventions_hash,
    exact_flow,
)
from opentoda.cli import main, make_envelope, parse_envelope

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


def test_evolve_bad_spec(tmp_path, capsys):
    path = write_envelope(tmp_path, worked_spectral())
    for argv in (["--k", "0"], ["--t", "inf"], ["--t", "-1"]):
        rc, _, err = run(["evolve", path] + argv, capsys)
        assert rc == 2
        assert "error:" in err


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


def test_verify_negative_control(capsys):
    rc, out, err = run(
        ["verify", "--suite", "jacobi", "--n", "3", "--trials", "5", "--negative-control"],
        capsys,
    )
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
