"""CLI subcommands: schemas, determinism, exit codes, manifests."""

import csv
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from conelab.cli import main
from conelab.heat_solver import assemble_mode_operator
from conelab.mellin_sobolev import LogGrid
from conelab.power_calculus import eig_power_oracle

CIRCLE_CFG = {
    "cross_section": {"kind": "circle", "L_over_pi": "2"},
    "operator": {"preset": "laplacian", "max_modes": 3},
    "gamma": -0.5,
    "grid": {"tau_min": -6.0, "points": 129},
    "heat": {"T": 0.01, "dt": 1e-3, "outer_bc": "neumann", "theta": 0.5,
             "snapshot_every": 5},
    "seed": 0,
}


@pytest.fixture
def cfg_path(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(CIRCLE_CFG))
    return p


def test_poles_csv_schema_and_values(cfg_path, tmp_path):
    out = tmp_path / "poles.csv"
    assert main(["poles", "--config", str(cfg_path), "--out", str(out)]) == 0
    rows = list(csv.DictReader(open(out)))
    assert set(rows[0]) == {"mode", "label", "re_rho", "im_rho",
                            "max_log_power", "in_strip"}
    in_strip = {(r["mode"], float(r["re_rho"]), int(r["max_log_power"]))
                for r in rows if r["in_strip"] == "true"}
    assert in_strip == {("k=0", 0.0, 1), ("k=+1", 1.0, 0), ("k=-1", 1.0, 0)}
    assert (tmp_path / "manifest.json").exists()


def test_poles_power_flag(cfg_path, tmp_path):
    out = tmp_path / "poles2.csv"
    assert main(["poles", "--config", str(cfg_path), "--power", "2",
                 "--out", str(out)]) == 0
    rows = [r for r in csv.DictReader(open(out)) if r["in_strip"] == "true"]
    got = {(r["mode"], float(r["re_rho"])) for r in rows}
    assert ("k=0", -2.0) in got and ("k=+1", -1.0) in got


def test_poles_deterministic_bytes(cfg_path, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["poles", "--config", str(cfg_path), "--out", str(a)])
    main(["poles", "--config", str(cfg_path), "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_missing_config_exit_2(tmp_path, capsys):
    rc = main(["poles", "--config", str(tmp_path / "nope.json")])
    assert rc == 2
    assert "nope.json" in capsys.readouterr().err


def test_bad_json_exit_2(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["poles", "--config", str(p)]) == 2


def test_asymptotics_json(cfg_path, tmp_path):
    out = tmp_path / "asym.json"
    assert main(["asymptotics", "--config", str(cfg_path),
                 "--realizations", "DD,max,power:2", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["exact"] is True
    terms = {(e["re_rho"], e["m"], e["mode"]): e["membership"] for e in payload["basis"]}
    assert terms[(0.0, 0, "k=0")]["DD"]["member"] is True
    assert terms[(0.0, 1, "k=0")]["DD"]["member"] is False
    assert terms[(0.0, 1, "k=0")]["max"]["member"] is True


def test_norm_roundtrip(cfg_path, tmp_path, capsys):
    field = tmp_path / "field.csv"
    taus = np.linspace(-6.0, 0.0, 129)
    with open(field, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["tau", "mode", "re", "im"])
        for t in taus:
            w.writerow([f"{t:.17g}", "k=0", f"{math.exp(t):.17g}", "0"])
    rc = main(["norm", "--config", str(cfg_path), "--field", str(field), "--s", "0"])
    assert rc == 0
    assert "norm" in capsys.readouterr().out


def _write_u0(path, nan_row=None):
    """Constant k=0 field on the CIRCLE_CFG grid, optionally with one NaN."""
    taus = np.linspace(-6.0, 0.0, 129)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["tau", "mode", "re", "im"])
        for i, t in enumerate(taus):
            w.writerow([f"{t:.17g}", "k=0", "nan" if i == nan_row else "1", "0"])


def test_solve_heat_and_fit_tip_pipeline(cfg_path, tmp_path):
    u0 = tmp_path / "u0.csv"
    _write_u0(u0)
    outdir = tmp_path / "traj"
    assert main(["solve-heat", "--config", str(cfg_path), "--u0", str(u0),
                 "--out", str(outdir)]) == 0
    snaps = sorted(outdir.glob("snapshot_*.csv"))
    assert len(snaps) == 3  # t = 0, 0.005, 0.01
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["config"]["gamma"] == -0.5
    basis = tmp_path / "basis.json"
    assert main(["asymptotics", "--config", str(cfg_path), "--out", str(basis)]) == 0
    fits = tmp_path / "fits.csv"
    assert main(["fit-tip", "--traj", str(outdir), "--basis", str(basis),
                 "--out", str(fits)]) == 0
    rows = list(csv.DictReader(open(fits)))
    assert set(rows[0]) == {"t", "rho_re", "rho_im", "m", "mode", "c_re", "c_im",
                            "residual", "decay_exp"}
    const_rows = [r for r in rows if r["mode"] == "k=0" and r["m"] == "0"
                  and float(r["rho_re"]) == 0.0]
    assert all(abs(float(r["c_re"]) - 1.0) < 1e-9 for r in const_rows)


@pytest.mark.parametrize("cmd", ["powers", "sectorial-probe", "fit-tip", "norm"])
def test_out_file_in_new_directory(cmd, cfg_path, tmp_path):
    u0, traj, basis = tmp_path / "u0.csv", tmp_path / "traj", tmp_path / "basis.json"
    _write_u0(u0)
    inputs = {"powers": ["--config", str(cfg_path)],
              "sectorial-probe": ["--config", str(cfg_path)],
              "fit-tip": ["--traj", str(traj), "--basis", str(basis)],
              "norm": ["--config", str(cfg_path), "--field", str(u0)]}
    if cmd == "fit-tip":
        assert main(["solve-heat", "--config", str(cfg_path), "--u0", str(u0),
                     "--out", str(traj)]) == 0
        assert main(["asymptotics", "--config", str(cfg_path), "--out", str(basis)]) == 0
    out = tmp_path / "new" / "dir" / "result"
    assert main([cmd, *inputs[cmd], "--out", str(out)]) == 0
    assert out.exists() and (out.parent / "manifest.json").exists()


def test_non_finite_field_csv_exit_2(cfg_path, tmp_path, capsys):
    outdir = tmp_path / "traj"
    basis = tmp_path / "basis.json"
    u0 = tmp_path / "u0.csv"
    _write_u0(u0, nan_row=7)
    assert main(["solve-heat", "--config", str(cfg_path), "--u0", str(u0),
                 "--out", str(outdir)]) == 2
    assert "non-finite" in capsys.readouterr().err
    _write_u0(u0)
    assert main(["solve-heat", "--config", str(cfg_path), "--u0", str(u0),
                 "--out", str(outdir)]) == 0
    assert main(["asymptotics", "--config", str(cfg_path), "--out", str(basis)]) == 0
    _write_u0(sorted(outdir.glob("snapshot_*.csv"))[1], nan_row=7)
    assert main(["fit-tip", "--traj", str(outdir), "--basis", str(basis),
                 "--out", str(tmp_path / "fits.csv")]) == 2
    assert "non-finite" in capsys.readouterr().err


def test_solve_heat_gamma_window_enforced(tmp_path):
    cfg = dict(CIRCLE_CFG)
    cfg["gamma"] = 0.7  # outside (-1, 0)
    p = tmp_path / "bad_gamma.json"
    p.write_text(json.dumps(cfg))
    u0 = tmp_path / "u0.csv"
    u0.write_text("tau,mode,re,im\n")
    assert main(["solve-heat", "--config", str(p), "--u0", str(u0),
                 "--out", str(tmp_path / "o")]) == 2


def test_sectorial_probe_command(cfg_path, tmp_path):
    out = tmp_path / "sect.json"
    assert main(["sectorial-probe", "--config", str(cfg_path),
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["K"] >= 1.0 and payload["shift"] >= 1.0
    assert len(payload["samples"]) > 100
    assert 1 <= payload["iterations"] <= 40
    assert 0 <= payload["unconverged"] <= len(payload["samples"])


def _oracle_power_norm(payload, n, eigenvalue, grid, bc):
    M = (-assemble_mode_operator(n, eigenvalue, grid, bc)).shifted(payload["shift"])
    z = complex(*payload["z"])
    return float(np.linalg.norm(eig_power_oracle(M, z), 2))


def test_powers_command(cfg_path, tmp_path):
    out = tmp_path / "powers.json"
    assert main(["powers", "--config", str(cfg_path), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    # 129 points at tau_min -6: the symmetric form passes the gate, exact route
    assert payload["method"] == "spectral"
    assert 0.0 < payload["gate"] <= 1e-3
    assert payload["tail_bound"] == 0.0 and payload["quadrature"] is None
    want = _oracle_power_norm(payload, 1, 0, LogGrid(-6.0, 129), "neumann")
    assert abs(payload["power_norm"] - want) <= 1e-10 * want


def test_powers_command_dunford_route(tmp_path):
    # the frozen Dirichlet row has a zero band product: no symmetric form
    cfg = dict(CIRCLE_CFG, grid={"tau_min": -4.0, "points": 33},
               heat={"outer_bc": "dirichlet"})
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "powers.json"
    assert main(["powers", "--config", str(p), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["method"] == "dunford" and payload["gate"] is None
    assert payload["tail_bound"] < 1e-9
    quad = payload["quadrature"]
    assert quad["n_quad"] == 64 and quad["tol_tail"] == 1e-10
    assert quad["theta"] == pytest.approx(0.75 * math.pi)
    assert 0.0 < quad["rho"] < payload["min_abs_eig"]
    assert quad["sectorial_bound"] == payload["sectorial_K"]
    assert quad["nodes"] > 0 and quad["r_max"] > quad["rho"]
    want = _oracle_power_norm(payload, 1, 0, LogGrid(-4.0, 33), "dirichlet")
    assert abs(payload["power_norm"] - want) <= 1e-10 * want


def test_powers_command_reports_no_contour_when_skipped(tmp_path):
    # 641 points at tau_min -16 fail the gate; dense_limit 0 skips Dunford
    cfg = dict(CIRCLE_CFG, grid={"tau_min": -16.0, "points": 641},
               powers={"dense_limit": 0})
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "powers.json"
    assert main(["powers", "--config", str(p), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["method"] == "dunford" and payload["gate"] > 1e-3
    assert payload["quadrature"] is None and payload["power_norm"] is None


@pytest.mark.parametrize("cmd", ["poles", "asymptotics", "powers", "sectorial-probe",
                                 "fit-tip", "norm"])
def test_outdir_override_takes_the_out_basename(cmd, cfg_path, tmp_path, monkeypatch):
    u0, traj, basis = tmp_path / "u0.csv", tmp_path / "traj", tmp_path / "basis.json"
    _write_u0(u0)
    if cmd == "fit-tip":
        assert main(["solve-heat", "--config", str(cfg_path), "--u0", str(u0),
                     "--out", str(traj)]) == 0
        assert main(["asymptotics", "--config", str(cfg_path), "--out", str(basis)]) == 0
    inputs = {"fit-tip": ["--traj", str(traj), "--basis", str(basis)],
              "norm": ["--config", str(cfg_path), "--field", str(u0)]}
    override = tmp_path / "override"
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("CONELAB_OUTDIR", str(override))
    argv = [cmd, *inputs.get(cmd, ["--config", str(cfg_path)]), "--out", "newdir/result"]
    assert main(argv) == 0
    assert (override / "result").exists() and (override / "manifest.json").exists()
    assert not (tmp_path / "newdir").exists()


def test_verify_single_suite_exit_zero():
    assert main(["verify", "--suite", "weight-window"]) == 0


def test_entrypoint_subprocess(cfg_path, tmp_path):
    out = tmp_path / "p.csv"
    proc = subprocess.run([sys.executable, "-m", "conelab.cli", "poles",
                           "--config", str(cfg_path), "--out", str(out)],
                          capture_output=True, text=True)
    assert proc.returncode == 0 and out.exists()
