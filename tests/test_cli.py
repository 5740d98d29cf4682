"""CLI subcommands: schemas, determinism, exit codes, manifests."""

import csv
import hashlib
import importlib.util
import json
import math
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import conelab
from conelab import cli
from conelab.cli import _field_templates, _read_field_csv, _write_field_csv, main
from conelab.cone_geometry import CrossSection
from conelab.config import fmt, grid_from_config
from conelab.errors import ConfigError
from conelab.heat_solver import assemble_mode_operator
from conelab.mellin_sobolev import LogGrid, RadialField
from conelab.operators import OperatorMatrix
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
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
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
    with open(out, newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["in_strip"] == "true"]
    got = {(r["mode"], float(r["re_rho"])) for r in rows}
    assert ("k=0", -2.0) in got and ("k=+1", -1.0) in got


def test_poles_deterministic_bytes(cfg_path, tmp_path):
    for command in (["poles"], ["asymptotics", "--realizations", "DD,max,power:2"]):
        a, b = tmp_path / f"{command[0]}_a.out", tmp_path / f"{command[0]}_b.out"
        assert main([*command, "--config", str(cfg_path), "--out", str(a)]) == 0
        assert main([*command, "--config", str(cfg_path), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


# SHA-256 of the symbolic outputs on configs/circle.json. Exact arithmetic
# must reproduce them byte for byte; a change here is a change of results.
SYMBOLIC_DIGESTS = {
    "poles.csv": "e232d59fe000eaed90ba083cba3c05346dad327e27a9102ad1f00842de3e4e27",
    "poles2.csv": "7447a4edd991c14e763b7ad0af2646da5a186893bc919ed8bb49de50b09b5795",
    "asymptotics.json": "7098a88f2c27eb42252ab577af9f44df326b4eca9ca8218621825d06c24c71d8",
}


def _symbolic_digests(cfg: str, outdir: Path, monkeypatch) -> dict:
    """SHA-256 of poles.csv, poles2.csv (--power 2) and asymptotics.json written for cfg."""
    monkeypatch.setenv("CONELAB_OUTDIR", str(outdir))
    assert main(["poles", "--config", cfg]) == 0
    assert main(["poles", "--config", cfg, "--power", "2", "--out", "poles2.csv"]) == 0
    assert main(["asymptotics", "--config", cfg, "--realizations", "DD,max,power:2"]) == 0
    return {name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
            for name in SYMBOLIC_DIGESTS}


def test_symbolic_outputs_pinned(tmp_path, monkeypatch):
    cfg = str(Path(__file__).resolve().parents[1] / "configs" / "circle.json")
    assert _symbolic_digests(cfg, tmp_path, monkeypatch) == SYMBOLIC_DIGESTS


# The same three outputs off the circle: a sphere S^3, and an explicit
# spectrum with a float eigenvalue beside the exact ones.
SYMBOLIC_CONFIGS = {
    "sphere": ({"cross_section": {"kind": "sphere", "n": 3}, "gamma": "1/2",
                "operator": {"preset": "laplacian", "max_modes": 3}}, {
        "poles.csv": "0b3c78373c942a93337ef2c9549be610a72b9da949c32f47ce1d1611fe26f064",
        "poles2.csv": "6612a4f7c2e0019ca8dbc550b4c3ca258581d637c27bb12136c59cfe60b86c56",
        "asymptotics.json": "bd93aade71841d7477d5ef93c41b3a0d75faebf2ef92620f90498dd97881f99f",
    }),
    "explicit": ({"cross_section": {"kind": "explicit", "n": 1,
                                    "eigs": [[0, 1], [-3, 4], [-4.5, 2]]},
                  "gamma": "-1/2", "operator": {"preset": "laplacian", "max_modes": 3}}, {
        "poles.csv": "920285a737122f5fe6cb0bad0302bb3ca1c22c8417d6a3c42f29839ce479990f",
        "poles2.csv": "df6f20d94c4d0a971166ec7c63e337dc371a963718b074af47ee1d1938bad505",
        "asymptotics.json": "db9e241f221497f0f267461b233a95051a917db395fc105197b5d0cb7ec6ce43",
    }),
}


@pytest.mark.parametrize("name", sorted(SYMBOLIC_CONFIGS))
def test_symbolic_outputs_pinned_off_the_circle(name, tmp_path, monkeypatch):
    cfg_json, digests = SYMBOLIC_CONFIGS[name]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(cfg_json))
    assert _symbolic_digests(str(cfg), tmp_path, monkeypatch) == digests


@pytest.mark.parametrize("power", ["0", "-3"])
def test_poles_power_below_one_exit_2(cfg_path, tmp_path, capsys, power):
    out = tmp_path / "poles.csv"
    assert main(["poles", "--config", str(cfg_path), "--power", power,
                 "--out", str(out)]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bad", ["power", "power:", "power:x", "power:0"])
def test_asymptotics_bad_realization_exit_2(cfg_path, tmp_path, capsys, bad):
    out = tmp_path / "asym.json"
    assert main(["asymptotics", "--config", str(cfg_path), "--realizations", f"DD,{bad}",
                 "--out", str(out)]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


def test_asymptotics_builds_each_pole_set_once(tmp_path, monkeypatch):
    import conelab
    calls = {"pole_set": [], "pole_set_power": []}
    for name, log in calls.items():
        fn = getattr(conelab.symbol_algebra, name)

        def counted(*args, _fn=fn, _log=log):
            _log.append(args[2:])
            return _fn(*args)
        for mod in (conelab.symbol_algebra, conelab.asymptotics, conelab.cli):
            if getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, counted)
    cfg = Path(__file__).resolve().parents[1] / "configs" / "circle.json"
    assert main(["asymptotics", "--config", str(cfg), "--realizations", "DD,max,power:2",
                 "--out", str(tmp_path / "asym.json")]) == 0
    assert calls == {"pole_set": [()], "pole_set_power": [(2,)]}


def test_missing_config_exit_2(tmp_path, capsys):
    rc = main(["poles", "--config", str(tmp_path / "nope.json")])
    assert rc == 2
    assert "nope.json" in capsys.readouterr().err


def test_bad_json_exit_2(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["poles", "--config", str(p)]) == 2


@pytest.mark.parametrize("cfg, key", [
    ({"gamma": -0.5}, "cross_section"),
    ({"cross_section": {"kind": "sphere"}}, "'n'"),
    ({"cross_section": {"kind": "explicit", "n": 1}}, "'eigs'"),
    ({"cross_section": {"kind": "circle", "L_over_pi": "abc"}}, "L_over_pi"),
    ({"cross_section": "circle"}, "cross_section"),
    ([CIRCLE_CFG], "JSON object"),
    ({"cross_section": {"kind": "sphere", "n": 343}, "gamma": 0.5}, "cross_section.n"),
    ({"cross_section": {"kind": "sphere", "n": 1}}, "cross_section.n"),
    ({"cross_section": {"kind": "circle", "L": 1e-320}}, "cross_section.L ="),
    ({"cross_section": {"kind": "circle", "L_over_pi": "1e400"}}, "cross_section.L_over_pi"),
    ({"cross_section": {"kind": "circle", "L_over_pi": "1e-400"}}, "cross_section.L_over_pi"),
    ({"cross_section": {"kind": "explicit", "eigs": [[0, 1], [-2, 1.5]]}}, "cross_section.eigs"),
    ({"cross_section": {"kind": "explicit", "eigs": [[0, True], [-2, 1]]}}, "cross_section.eigs"),
], ids=["no-block", "sphere-no-n", "explicit-no-eigs", "bad-L_over_pi", "string-block",
        "not-an-object", "sphere-area-overflow", "sphere-n-1", "L-spectrum-overflow",
        "L_over_pi-overflow", "L_over_pi-spectrum-overflow", "fractional-multiplicity",
        "boolean-multiplicity"])
def test_malformed_cross_section_exit_2(tmp_path, capsys, cfg, key):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert main(["poles", "--config", str(p), "--out", str(tmp_path / "poles.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err


@pytest.mark.parametrize("block, value, cmd, key", [
    ("grid", {"tau_min": "abc", "points": 129}, "solve-heat", "grid.tau_min"),
    ("grid", [1, 2], "sectorial-probe", "'grid'"),
    ("grid", {"tau_min": -6.0, "points": 33.7}, "norm", "grid.points"),
    ("operator", {"max_modes": "x"}, "norm", "operator.max_modes"),
    ("operator", {"warp_a0": "q"}, "poles", "operator.warp_a0"),
    ("operator", {"preset": "explicit"}, "poles", "operator needs 'mu'"),
    ("gamma", "abc", "poles", "gamma must be"),
    ("heat", {"T": "x"}, "solve-heat", "heat.T"),
    ("heat", [1], "sectorial-probe", "'heat'"),
    ("grid", {"tau_min": -1e308, "points": 9}, "sectorial-probe", "grid tau_min"),
    ("grid", {"tau_min": -1e-300, "points": 9}, "sectorial-probe", "grid tau_min"),
    ("grid", {"tau_min": -1e308, "points": 9}, "solve-heat", "grid tau_min"),
    ("heat", {"T": 0.1, "dt": 1e-320}, "solve-heat", "T / dt"),
    ("grid", {"tau_min": -400, "points": 9}, "powers", "exp(-2 tau_min)"),
    ("grid", {"tau_min": -400, "points": 9}, "solve-heat", "exp(-2 tau_min)"),
    ("grid", {"tau_min": -196, "points": 9}, "powers", "band product"),
    ("grid", {"tau_min": -196, "points": 9}, "sectorial-probe", "band product"),
    ("grid", {"tau_min": -196, "points": 9}, "solve-heat", "band product"),
], ids=["grid.tau_min", "grid-list", "grid.points", "operator.max_modes", "operator.warp_a0",
        "explicit-no-mu", "gamma", "heat.T", "heat-list", "grid-spacing-overflow",
        "grid-spacing-underflow", "grid-spacing-overflow-heat", "heat-step-count-overflow",
        "tip-weight-overflow-powers", "tip-weight-overflow-heat", "band-product-overflow-powers",
        "band-product-overflow-sectorial", "band-product-overflow-heat"])
def test_malformed_config_exit_2(tmp_path, capsys, block, value, cmd, key):
    p, u0 = tmp_path / "cfg.json", tmp_path / "u0.csv"
    cfg = dict(CIRCLE_CFG, **{block: value})
    p.write_text(json.dumps(cfg))
    try:        # solve-heat reads u0 once the grid is accepted: u0 on that grid
        grid = grid_from_config(cfg)
    except ConfigError:
        grid = grid_from_config(CIRCLE_CFG)
    _write_u0(u0, taus=grid.tau)
    inputs = {"poles": [], "sectorial-probe": [], "powers": [], "norm": ["--field", str(u0)],
              "solve-heat": ["--u0", str(u0)]}
    out = tmp_path / "out"
    assert main([cmd, "--config", str(p), *inputs[cmd], "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err


@pytest.mark.parametrize("tau_min", [-1e308, -1e-300])
def test_powers_rejects_a_grid_spacing_outside_the_float_range(tau_min, tmp_path, capsys):
    # 1/h^2 of the mode operator would overflow, or h^2 underflow to zero
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(dict(CIRCLE_CFG, grid={"tau_min": tau_min, "points": 9})))
    assert main(["powers", "--config", str(p), "--out", str(tmp_path / "powers.json")]) == 2
    assert capsys.readouterr().err.startswith("config error: grid tau_min")


@pytest.mark.parametrize("points, tau_min, rc", [(8, -4.0, 0), (12, -8.0, 3)])
def test_shift_ladder_doubles_until_the_sector_clears(points, tau_min, rc, tmp_path, capsys):
    # the l=0 Neumann mode on S^20 needs c = 2^13 on 8 points; on 12 points
    # the ladder gives up after its last doubling
    cfg = {"cross_section": {"kind": "sphere", "n": 20},
           "operator": {"preset": "laplacian", "max_modes": 1}, "gamma": 9.0,
           "grid": {"tau_min": tau_min, "points": points}, "heat": {"outer_bc": "neumann"},
           "powers": {"samples": 10}}
    p, out = tmp_path / "cfg.json", tmp_path / "sectorial.json"
    p.write_text(json.dumps(cfg))
    assert main(["sectorial-probe", "--config", str(p), "--out", str(out)]) == rc
    if rc == 0:
        assert json.loads(out.read_text())["shift"] == 8192.0
    else:
        assert "no sectorial shift found on the ladder up to c=16777216.0" \
            in capsys.readouterr().err


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


@pytest.mark.parametrize("operator, cmd", [
    (CIRCLE_CFG["operator"], ["norm", "--s", "1", "--p", "3"]),
    (dict(CIRCLE_CFG["operator"], warp_a0="1/2"), ["poles", "--power", "2"]),
    ({"preset": "explicit", "max_modes": 1, "mu": 2, "coeffs": {"k=0": [[0], [0], [0]]}},
     ["poles"]),
], ids=["norm-s1-p3", "warped-power", "zero-conormal-symbol"])
def test_unsupported_or_degenerate_input_exit_2(operator, cmd, tmp_path, capsys):
    p, field = tmp_path / "cfg.json", tmp_path / "field.csv"
    p.write_text(json.dumps(dict(CIRCLE_CFG, operator=operator)))
    _write_u0(field)
    inputs = ["--field", str(field)] if cmd[0] == "norm" else []
    out = tmp_path / "out.csv"
    assert main([cmd[0], "--config", str(p), *inputs, *cmd[1:], "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["solve-heat", "powers", "sectorial-probe"])
@pytest.mark.parametrize("operator, key", [
    (dict(CIRCLE_CFG["operator"], warp_a0=1), "operator.warp_a0 = 1:"),
    ({"preset": "explicit", "max_modes": 1, "mu": 2, "coeffs": {"k=0": [[0], [0], [1]]}},
     "operator.preset = 'explicit':"),
], ids=["warp", "explicit"])
def test_numeric_commands_refuse_an_operator_they_do_not_discretize(operator, key, cmd,
                                                                     tmp_path, capsys):
    # they assemble the straight Laplacian; a run of it would record another operator
    p, u0, out = tmp_path / "cfg.json", tmp_path / "u0.csv", tmp_path / "out"
    p.write_text(json.dumps(dict(CIRCLE_CFG, operator=operator)))
    _write_u0(u0)
    inputs = ["--u0", str(u0)] if cmd == "solve-heat" else []
    assert main([cmd, "--config", str(p), *inputs, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err
    assert not list(out.glob("snapshot_*"))


def test_poles_of_a_long_circle_are_simple_and_off_zero(tmp_path):
    # q = (2 pi / L)^2 = 3.9e-13 stays a float: k=+1 has two simple poles at +-2 pi / L
    p, out = tmp_path / "cfg.json", tmp_path / "poles.csv"
    p.write_text(json.dumps(dict(CIRCLE_CFG, cross_section={"kind": "circle", "L": 1e7})))
    assert main(["poles", "--config", str(p), "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["mode"] == "k=+1"]
    nu = 2 * math.pi / 1e7
    assert sorted(float(r["re_rho"]) for r in rows) == pytest.approx([-nu, nu], rel=1e-12)
    assert all(r["max_log_power"] == "0" for r in rows)


def _write_u0(path, nan_row=None, taus=np.linspace(-6.0, 0.0, 129)):
    """Constant k=0 field, by default on the CIRCLE_CFG grid, optionally with one NaN."""
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
    with open(fits, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert set(rows[0]) == {"t", "rho_re", "rho_im", "m", "mode", "c_re", "c_im",
                            "residual", "decay_exp"}
    const_rows = [r for r in rows if r["mode"] == "k=0" and r["m"] == "0"
                  and float(r["rho_re"]) == 0.0]
    assert all(abs(float(r["c_re"]) - 1.0) < 1e-9 for r in const_rows)
    assert hashlib.sha256(fits.read_bytes()).hexdigest() == \
        "3af4767fb030cd6530b9f56a624c407af3364b69943846313e709fb6016c5b22"


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


def test_sectorial_probe_computes_the_spectrum_once(cfg_path, tmp_path, spectra):
    out = tmp_path / "sectorial.json"
    assert main(["sectorial-probe", "--config", str(cfg_path), "--out", str(out)]) == 0
    # the first rung of the shift ladder clears the sector; the probe reuses its spectrum
    assert json.loads(out.read_text())["shift"] == 1.0 and spectra == [129]


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


CIRCLE = CrossSection.circle(length_over_pi=Fraction(2))
GRID = LogGrid(-6.0, 129)


def _field(seed=0):
    """A 3-mode field on GRID with extreme values and negative imaginary parts."""
    rng = np.random.default_rng(seed)
    f = RadialField.zeros(GRID, CIRCLE, 2)
    f.values[:] = rng.standard_normal(f.values.shape) - 1j * rng.random(f.values.shape)
    f.values[0, :6] = [-0.0, 5e-324, 1e308, complex(-0.0, -5e-324), 1.7976931348623157e308,
                       complex(1e-300, -1e-300)]
    f.values[1, 0] = complex(-1e308, -1e308)
    return f


def _write_field(path, f):
    """A RadialField to CSV through the snapshot writer."""
    _write_field_csv(path, f.values, _field_templates(f.grid, f.modes))


def test_field_csv_writer_bytes_match_csv_module(tmp_path):
    f = _field()
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    _write_field(got, f)
    with open(want, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["tau", "mode", "re", "im"])
        for i, mode in enumerate(f.modes):
            for tau, v in zip(f.grid.tau, f.values[i]):
                w.writerow([fmt(tau), mode.label, fmt(v.real), fmt(v.imag)])
    data = got.read_bytes()
    assert data == want.read_bytes()
    for row in (b"tau,mode,re,im\r\n-6,k=0,-0,0\r\n", b",k=0,4.9406564584124654e-324,0\r\n",
                b",k=0,1e+308,0\r\n", b",k=0,-0,-4.9406564584124654e-324\r\n",
                b",k=0,1.7976931348623157e+308,0\r\n", b"\r\n-6,k=+1,-1e+308,-1e+308\r\n"):
        assert row in data
    back = _read_field_csv(got, GRID, CIRCLE, 2)
    assert np.array_equal(back.values, f.values)


def test_field_csv_reader_any_column_and_row_order(tmp_path):
    f = _field(1)
    plain = tmp_path / "plain.csv"
    _write_field(plain, f)
    header, *lines = plain.read_text().splitlines()
    order = [2, 0, 3, 1]                     # re,tau,im,mode, then a column to ignore
    cells = [line.split(",") for line in lines]
    np.random.default_rng(2).shuffle(cells)
    names = header.split(",")
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_text("\n".join([",".join(names[j] for j in order) + ",note"]
                                  + [",".join(c[j] for j in order) + ",-" for c in cells]) + "\n")
    a = _read_field_csv(plain, GRID, CIRCLE, 2)
    b = _read_field_csv(shuffled, GRID, CIRCLE, 2)
    assert np.array_equal(a.values, f.values) and np.array_equal(b.values, f.values)


def _per_value_field_writer(path, field):
    """The field writer with one fmt call per value, as it was before block templates."""
    taus = [fmt(t) for t in field.grid.tau.tolist()]
    with open(path, "w", newline="") as fh:
        fh.write("tau,mode,re,im\r\n")
        for mode, row in zip(field.modes, field.values.tolist()):
            fh.write("".join([f"{t},{mode.label},{fmt(v.real)},{fmt(v.imag)}\r\n"
                              for t, v in zip(taus, row)]))


def test_field_csv_block_writer_bytes_equal_the_per_value_writer(tmp_path):
    f = _field(3)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    for label in ("k=0", "50%s%%"):          # a '%' in a label is not a format field
        f.modes = (f.modes[0]._replace(label=label), *f.modes[1:])
        _write_field(got, f)
        _per_value_field_writer(want, f)
        assert got.read_bytes() == want.read_bytes()


def test_field_csv_round_trip_keeps_negative_zeros(tmp_path):
    f = _field(4)
    f.values[1, :4] = [complex(0.0, -0.0), complex(-0.0, -0.0), complex(-0.0, 0.0),
                       complex(2.0, -0.0)]
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    _write_field(first, f)
    back = _read_field_csv(first, GRID, CIRCLE, 2)
    _write_field(second, back)
    assert second.read_bytes() == first.read_bytes()
    assert np.array_equal(np.signbit(back.values.imag[1, :4]), [True, True, False, True])


def test_field_csv_missing_modes_read_as_zero(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("tau,mode,re,im\r\n")
    assert not _read_field_csv(empty, GRID, CIRCLE, 2).values.any()
    one = tmp_path / "one.csv"
    _write_u0(one)                           # k=0 only
    got = _read_field_csv(one, GRID, CIRCLE, 2).values
    assert np.array_equal(got[0], np.ones(129)) and not got[1:].any()


@pytest.mark.parametrize("bad", ["cell", "short-row", "header", "mode"])
def test_malformed_field_csv_exit_2(bad, cfg_path, tmp_path, capsys):
    u0 = tmp_path / "u0.csv"
    _write_u0(u0)
    lines = u0.read_text().splitlines()
    if bad == "cell":
        lines[5] = lines[5].replace(",k=0,1,", ",k=0,abc,")
    elif bad == "short-row":
        lines[5] = lines[5].rsplit(",", 1)[0]
    elif bad == "mode":
        lines[5] = lines[5].replace(",k=0,", ",k=+7,")
    else:
        lines[0] = "tau,mode,re"
    u0.write_text("\n".join(lines) + "\n")
    for argv in (["norm", "--config", str(cfg_path), "--field", str(u0)],
                 ["solve-heat", "--config", str(cfg_path), "--u0", str(u0),
                  "--out", str(tmp_path / "traj")]):
        assert main(argv) == 2
        assert str(u0) in capsys.readouterr().err


@pytest.mark.parametrize("fault", ["missing", "without-time"])
def test_fit_tip_snapshot_without_its_time_exit_2(fault, cfg_path, tmp_path, capsys):
    u0, traj, basis = tmp_path / "u0.csv", tmp_path / "traj", tmp_path / "basis.json"
    _write_u0(u0)
    assert main(["solve-heat", "--config", str(cfg_path), "--u0", str(u0),
                 "--out", str(traj)]) == 0
    assert main(["asymptotics", "--config", str(cfg_path), "--out", str(basis)]) == 0
    if fault == "missing":                   # snapshot_00002 must not stand in for t=0.005
        (traj / "snapshot_00001.csv").unlink()
    else:
        (traj / "snapshot_00003.csv").write_bytes((traj / "snapshot_00002.csv").read_bytes())
    capsys.readouterr()
    assert main(["fit-tip", "--traj", str(traj), "--basis", str(basis),
                 "--out", str(tmp_path / "fits.csv")]) == 2
    err = capsys.readouterr().err
    assert ("snapshot_00001.csv" if fault == "missing" else "snapshot_00003.csv") in err
    assert not (tmp_path / "fits.csv").exists()


@pytest.fixture(scope="module")
def fit_inputs(tmp_path_factory):
    """A solved trajectory and its asymptotics basis for the fit-tip input checks."""
    d = tmp_path_factory.mktemp("fit")
    cfg, u0 = d / "cfg.json", d / "u0.csv"
    cfg.write_text(json.dumps(CIRCLE_CFG))
    _write_u0(u0)
    assert main(["solve-heat", "--config", str(cfg), "--u0", str(u0),
                 "--out", str(d / "traj")]) == 0
    assert main(["asymptotics", "--config", str(cfg), "--out", str(d / "basis.json")]) == 0
    return d / "traj", d / "basis.json"


# the last two hold a JSON integer of 401 digits, beyond the float range
@pytest.mark.parametrize("window", [[0.01, 0.05, 0.1], ["a", "b"], [0.01], "0.01",
                                    [0.001, 10**400], [-10**400, 0.1]])
def test_fit_tip_malformed_window_exit_2(window, fit_inputs, tmp_path, capsys):
    traj, basis = fit_inputs
    cfg, out = tmp_path / "fit.json", tmp_path / "fits.csv"
    cfg.write_text(json.dumps({"fit": {"window": window}}))
    assert main(["fit-tip", "--traj", str(traj), "--basis", str(basis), "--config", str(cfg),
                 "--out", str(out)]) == 2
    assert "config error: fit window" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("fit", [[1], None, "window"], ids=["list", "null", "string"])
def test_fit_tip_malformed_fit_block_exit_2(fit, fit_inputs, tmp_path, capsys):
    traj, basis = fit_inputs
    cfg, out = tmp_path / "fit.json", tmp_path / "fits.csv"
    cfg.write_text(json.dumps({"fit": fit}))
    assert main(["fit-tip", "--traj", str(traj), "--basis", str(basis), "--config", str(cfg),
                 "--out", str(out)]) == 2
    assert "config error: config 'fit' must be an object" in capsys.readouterr().err
    assert not out.exists()


_ENTRY = {"re_rho": 0.0, "im_rho": 0.0, "m": 0, "mode": "k=0"}


@pytest.mark.parametrize("payload", [
    "{not json",
    json.dumps({"terms": [_ENTRY]}),
    json.dumps({"basis": _ENTRY}),
    *[json.dumps({"basis": [{k: v for k, v in _ENTRY.items() if k != key}]})
      for key in _ENTRY],
], ids=["not-json", "no-basis", "basis-not-a-list", *[f"no-{key}" for key in _ENTRY]])
def test_fit_tip_malformed_basis_exit_2(payload, fit_inputs, tmp_path, capsys):
    traj, _basis = fit_inputs
    basis, out = tmp_path / "basis.json", tmp_path / "fits.csv"
    basis.write_text(payload)
    assert main(["fit-tip", "--traj", str(traj), "--basis", str(basis), "--out", str(out)]) == 2
    assert f"config error: basis file {basis}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name, payload", [
    ("trajectory.json", "{not json"),
    ("trajectory.json", json.dumps({"scheme": {}})),
    ("trajectory.json", json.dumps({"times": 0.01})),
    ("trajectory.json", json.dumps([0.0, 0.01])),
    ("trajectory.json", json.dumps({"times": [0.0, "x"]})),
    ("trajectory.json", json.dumps({"times": [0.0, None]})),
    ("trajectory.json", json.dumps({"times": [0.0, True]})),
    ("trajectory.json", '{"times": [0.0, NaN]}'),
    ("trajectory.json", json.dumps({"times": [0.0, 10 ** 400]})),
    ("manifest.json", "{not json"),
    ("manifest.json", json.dumps({"tool": "conelab"})),
    ("manifest.json", json.dumps({"config": [CIRCLE_CFG]})),
], ids=["trajectory-not-json", "no-times", "times-not-a-list", "trajectory-not-an-object",
        "time-string", "time-null", "time-bool", "time-nan", "time-too-large",
        "manifest-not-json", "no-config", "config-not-an-object"])
def test_fit_tip_malformed_trajectory_metadata_exit_2(name, payload, fit_inputs, tmp_path,
                                                       capsys):
    traj, basis = fit_inputs
    copy, out = tmp_path / "traj", tmp_path / "fits.csv"
    shutil.copytree(traj, copy)
    (copy / name).write_text(payload)
    assert main(["fit-tip", "--traj", str(copy), "--basis", str(basis), "--out", str(out)]) == 2
    what = name.removesuffix(".json")
    assert f"config error: {what} file {copy / name}" in capsys.readouterr().err
    assert not out.exists()


def _flip_array_byte(traj):
    """Change one mantissa byte of snapshot 1, mode k=0, point 50 (inside the fit window)."""
    path = traj / "snapshots.npy"
    data = bytearray(path.read_bytes())
    values = np.load(path)
    header = len(data) - values.nbytes
    data[header + np.ravel_multi_index((1, 0, 50), values.shape) * 16 + 3] ^= 0xFF
    path.write_bytes(bytes(data))


def _edit_csv_value(traj):
    """Set the re cell of snapshot 1, mode k=0, point 50 to another finite value."""
    path = traj / "snapshot_00001.csv"
    lines = path.read_bytes().split(b"\r\n")
    cells = lines[1 + 50].split(b",")
    assert cells[1] == b"k=0"
    cells[2] = b"1.5"
    lines[1 + 50] = b",".join(cells)
    path.write_bytes(b"\r\n".join(lines))


def _edit_json(path, edit):
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


_TRAJECTORY_FAULTS = {
    "no-array": lambda traj: (traj / "snapshots.npy").unlink(),
    "array-byte": _flip_array_byte,
    "csv-value": _edit_csv_value,
    "manifest-grid": lambda traj: _edit_json(
        traj / "manifest.json", lambda m: m["config"]["grid"].update(tau_min=-6.5)),
    "no-digest": lambda traj: _edit_json(
        traj / "trajectory.json", lambda meta: meta.pop("snapshots_sha256")),
    "array-truncated": lambda traj: (traj / "snapshots.npy").write_bytes(
        (traj / "snapshots.npy").read_bytes()[:-16]),
    "array-big-endian": lambda traj: np.save(traj / "snapshots.npy",
                                             np.load(traj / "snapshots.npy").astype(">c16")),
}


@pytest.mark.parametrize("fault", list(_TRAJECTORY_FAULTS))
def test_fit_tip_array_fault_reads_as_without_the_array(fault, fit_inputs, tmp_path, capsys):
    """A fault in the array or what its digest covers gives what the CSVs alone give."""
    traj, basis = fit_inputs
    runs = []
    for side in ("faulted", "csv-only", "clean"):
        d = tmp_path / side
        shutil.copytree(traj, d / "traj")
        if side != "clean":
            _TRAJECTORY_FAULTS[fault](d / "traj")
        if side == "csv-only":
            (d / "traj" / "snapshots.npy").unlink(missing_ok=True)
        out = d / "fits.csv"
        capsys.readouterr()
        rc = main(["fit-tip", "--traj", str(d / "traj"), "--basis", str(basis),
                   "--out", str(out)])
        printed = capsys.readouterr()
        runs.append((rc, printed.out.replace(str(d), ""), printed.err.replace(str(d), ""),
                     out.read_bytes() if out.exists() else None))
    faulted, csv_only, clean = runs
    assert faulted == csv_only
    if fault == "csv-value":                 # the edit reaches the fits
        assert faulted[3] != clean[3]
    if fault == "manifest-grid":
        assert faulted[0] == 2 and "does not match the config grid" in faulted[2]
    else:
        assert faulted[0] == 0


def test_fit_tip_reads_the_array_solve_heat_writes(cfg_path, tmp_path, monkeypatch):
    u0, basis = tmp_path / "u0.csv", tmp_path / "basis.json"
    _write_u0(u0)
    a, b = tmp_path / "a", tmp_path / "override"
    assert main(["solve-heat", "--config", str(cfg_path), "--u0", str(u0),
                 "--out", str(a)]) == 0
    monkeypatch.setenv("CONELAB_OUTDIR", str(b))       # the array follows the CSVs
    assert main(["solve-heat", "--config", str(cfg_path), "--u0", str(u0),
                 "--out", str(tmp_path / "unused")]) == 0
    monkeypatch.delenv("CONELAB_OUTDIR")
    assert (a / "snapshots.npy").read_bytes() == (b / "snapshots.npy").read_bytes()
    assert str(a / "snapshots.npy") in json.loads((a / "manifest.json").read_text())["outputs"]
    snaps = sorted(a.glob("snapshot_*.csv"))
    want = np.stack([_read_field_csv(p, GRID, CIRCLE, 3).values for p in snaps])
    assert np.array_equal(np.load(a / "snapshots.npy").view(np.uint64), want.view(np.uint64))
    assert main(["asymptotics", "--config", str(cfg_path), "--out", str(basis)]) == 0

    def no_parse(*args):
        raise AssertionError("fit-tip parsed a snapshot CSV")
    monkeypatch.setattr(conelab.cli, "_read_field_csv", no_parse)
    assert main(["fit-tip", "--traj", str(a), "--basis", str(basis),
                 "--out", str(a / "fits.csv")]) == 0
    monkeypatch.undo()
    (b / "snapshots.npy").unlink()
    assert main(["fit-tip", "--traj", str(b), "--basis", str(basis),
                 "--out", str(b / "fits.csv")]) == 0
    assert (a / "fits.csv").read_bytes() == (b / "fits.csv").read_bytes()


def test_fit_tip_builds_no_field_from_an_intact_array(fit_inputs, tmp_path, monkeypatch):
    traj, basis = fit_inputs
    built = []
    post_init = RadialField.__post_init__
    monkeypatch.setattr(RadialField, "__post_init__",
                        lambda self: built.append(1) or post_init(self))
    assert main(["fit-tip", "--traj", str(traj), "--basis", str(basis),
                 "--out", str(tmp_path / "fits.csv")]) == 0
    assert not built


@pytest.mark.parametrize("case", ["config-dir", "config-utf16", "field-dir", "u0-dir",
                                  "field-ff-byte", "basis-dir"])
def test_unreadable_input_file_exit_2(case, cfg_path, fit_inputs, tmp_path, capsys):
    bad = tmp_path / "bad"
    if case.endswith("-dir"):
        bad.mkdir()
    elif case == "config-utf16":
        bad.write_bytes(b"\xff\xfe{\x00}\x00")
    else:
        _write_u0(bad)
        data = bad.read_bytes()
        bad.write_bytes(data[:40] + b"\xff" + data[40:])    # in a data row
    argv = {
        "config": ["poles", "--config", str(bad), "--out", str(tmp_path / "p.csv")],
        "field": ["norm", "--config", str(cfg_path), "--field", str(bad)],
        "u0": ["solve-heat", "--config", str(cfg_path), "--u0", str(bad),
               "--out", str(tmp_path / "traj")],
        "basis": ["fit-tip", "--traj", str(fit_inputs[0]), "--basis", str(bad),
                  "--out", str(tmp_path / "fits.csv")],
    }[case.split("-")[0]]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(bad) in err


def test_solve_heat_gamma_window_enforced(tmp_path):
    cfg = dict(CIRCLE_CFG)
    cfg["gamma"] = 0.7  # outside (-1, 0)
    p = tmp_path / "bad_gamma.json"
    p.write_text(json.dumps(cfg))
    u0 = tmp_path / "u0.csv"
    u0.write_text("tau,mode,re,im\n")
    assert main(["solve-heat", "--config", str(p), "--u0", str(u0),
                 "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("every", [-1, 2.5])
def test_solve_heat_bad_snapshot_every_exit_2(every, tmp_path, capsys):
    cfg = json.loads(json.dumps(CIRCLE_CFG))
    cfg["heat"]["snapshot_every"] = every
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    u0, outdir = tmp_path / "u0.csv", tmp_path / "traj"
    _write_u0(u0)
    assert main(["solve-heat", "--config", str(p), "--u0", str(u0),
                 "--out", str(outdir)]) == 2
    assert "config error: snapshot_every" in capsys.readouterr().err
    assert not list(outdir.glob("snapshot_*.csv"))


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
    assert payload["tail_bound"] == 0.0 and payload["nodes"] == 0
    assert "quadrature" not in payload
    want = _oracle_power_norm(payload, 1, 0, LogGrid(-6.0, 129), "neumann")
    assert abs(payload["power_norm"] - want) <= 1e-10 * want


def _dirichlet_powers(tmp_path, **powers):
    # the frozen Dirichlet row has a zero band product: a symmetric form
    # without the similarity, so no spectral forming
    cfg = dict(CIRCLE_CFG, grid={"tau_min": -4.0, "points": 33},
               heat={"outer_bc": "dirichlet"}, powers=powers)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "powers.json"
    assert main(["powers", "--config", str(p), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["method"] == "quadrature" and payload["gate"] is None
    assert payload["nodes"] > 0 and 0.0 < payload["tail_bound"] <= 1e-12
    want = _oracle_power_norm(payload, 1, 0, LogGrid(-4.0, 33), "dirichlet")
    assert abs(payload["power_norm"] - want) <= 1e-10 * want
    return payload


def test_powers_command_quadrature_route(tmp_path):
    payload = _dirichlet_powers(tmp_path)
    assert "quadrature" not in payload


def test_powers_command_power_ignores_the_probe_angle(tmp_path):
    # powers.theta is the sector of the probe; the quadrature has no angle
    a = _dirichlet_powers(tmp_path, theta=math.pi / 2)
    b = _dirichlet_powers(tmp_path)
    assert a["theta"] == math.pi / 2 and b["theta"] == pytest.approx(0.75 * math.pi)
    assert a["power_norm"] == b["power_norm"] and a["nodes"] == b["nodes"]


def test_powers_and_sectorial_probe_share_one_ladder(cfg_path, tmp_path):
    sect, powers = tmp_path / "sect.json", tmp_path / "powers.json"
    assert main(["sectorial-probe", "--config", str(cfg_path), "--out", str(sect)]) == 0
    assert main(["powers", "--config", str(cfg_path), "--out", str(powers)]) == 0
    a, b = json.loads(sect.read_text()), json.loads(powers.read_text())
    assert len(a["samples"]) == 601                     # powers.samples defaults to 200
    assert (a["shift"], a["min_abs_eig"]) == (b["shift"], b["min_abs_eig"])
    assert "sectorial_K" not in b


def test_only_sectorial_probe_estimates_resolvent_norms(cfg_path, tmp_path, monkeypatch):
    # the ladder decides from the spectrum; K is the probe's alone
    calls = []
    estimate = OperatorMatrix.inv_norm2_estimate

    def counted(self, lams):
        calls.append(len(lams))
        return estimate(self, lams)

    monkeypatch.setattr(OperatorMatrix, "inv_norm2_estimate", counted)
    assert main(["powers", "--config", str(cfg_path), "--out", str(tmp_path / "p.json")]) == 0
    assert calls == []
    assert main(["sectorial-probe", "--config", str(cfg_path),
                 "--out", str(tmp_path / "s.json")]) == 0
    assert calls == [601]


def test_powers_command_power_near_zero_exit_0(tmp_path):
    # Re z = -0.01: the keyhole's ray end overflowed here; the quadrature has none
    _dirichlet_powers(tmp_path, z_re=-0.01)


def test_powers_command_positive_power_on_dirichlet(tmp_path):
    # the integer part of z = 0.5 is applied to the identity, as in an apply
    _dirichlet_powers(tmp_path, z_re=0.5)


def test_powers_on_a_grid_too_coarse_for_the_symmetric_form_exit_2(tmp_path, capsys):
    # sphere n=5 at h = 4/7: the lower band 1/h^2 - 2/h is negative, so the
    # mode operator has no symmetric form and no real spectrum by structure
    cfg = dict(CIRCLE_CFG, cross_section={"kind": "sphere", "n": 5},
               grid={"tau_min": -4.0, "points": 8})
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "powers.json"
    assert main(["powers", "--config", str(p), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: powers needs grid spacing h < 2/(n-1) = 0.5 for n=5; got h=0.571429" \
        in err
    assert not out.exists()
    # the sectorial probe needs no real spectrum and keeps running there
    sect = tmp_path / "sect.json"
    assert main(["sectorial-probe", "--config", str(p), "--out", str(sect)]) == 0
    assert json.loads(sect.read_text())["K"] >= 1.0


@pytest.mark.parametrize("outer_bc", ["neumann", "dirichlet"])
def test_powers_overflow_exit_3(outer_bc, tmp_path, capsys):
    # M^1000 overflows on either route; the formed power's finiteness check catches it
    cfg = dict(CIRCLE_CFG, heat={"outer_bc": outer_bc}, powers={"z_re": 1000})
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "powers.json"
    assert main(["powers", "--config", str(p), "--out", str(out)]) == 3
    assert "numerical failure: M^z has non-finite entries" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["poles", "asymptotics", "powers", "sectorial-probe"])
def test_non_string_output_dir_exit_2(cmd, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(dict(CIRCLE_CFG, output_dir=5)))
    assert main([cmd, "--config", str(p)]) == 2
    assert "config error: output_dir must be a string, got 5" in capsys.readouterr().err
    p.write_text(json.dumps(dict(CIRCLE_CFG, output_dir=None)))      # the working directory
    assert main([cmd, "--config", str(p)]) == 0
    assert (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("cmd", ["powers", "sectorial-probe"])
def test_unknown_outer_bc_exit_2(cmd, tmp_path, capsys):
    cfg = dict(CIRCLE_CFG, heat={"outer_bc": "robin"})
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert main([cmd, "--config", str(p), "--out", str(tmp_path / "out.json")]) == 2
    assert "config error: unknown outer boundary condition 'robin'" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["powers", "sectorial-probe"])
def test_powers_read_only_the_outer_condition_of_the_heat_block(cmd, tmp_path):
    # T, dt and theta are the march's: a bad value there changes nothing here
    outs = []
    for name, heat in (("plain", {"outer_bc": "neumann"}),
                       ("bad-march", {"outer_bc": "neumann", "T": "x", "dt": None,
                                      "theta": [1]})):
        p, out = tmp_path / f"{name}.json", tmp_path / name / "out.json"
        p.write_text(json.dumps(dict(CIRCLE_CFG, heat=heat)))
        assert main([cmd, "--config", str(p), "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_manifest_records_no_unused_seed(tmp_path):
    # no computation reads a config seed: the manifest only echoes it with the config
    for name, cfg in (("with", CIRCLE_CFG), ("without", {k: v for k, v in CIRCLE_CFG.items()
                                                          if k != "seed"})):
        p, out = tmp_path / f"{name}.json", tmp_path / name / "poles.csv"
        p.write_text(json.dumps(cfg))
        assert main(["poles", "--config", str(p), "--out", str(out)]) == 0
        manifest = json.loads((out.parent / "manifest.json").read_text())
        assert "seed" not in manifest
        assert manifest["config"] == cfg


@pytest.mark.parametrize("key, value", [("samples", -3), ("samples", 2.5), ("samples", 0),
                                        ("theta", 4.0), ("theta", -1.0), ("theta", math.pi),
                                        ("shift0", 0), ("shift0", -1), ("shift0", math.inf),
                                        ("z_re", math.nan), ("z_im", math.inf),
                                        ("z_re", "half")])
@pytest.mark.parametrize("cmd", ["powers", "sectorial-probe"])
def test_bad_powers_block_exit_2(cmd, key, value, tmp_path, capsys):
    cfg = dict(CIRCLE_CFG, grid={"tau_min": -4.0, "points": 33}, powers={key: value})
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "out.json"
    assert main([cmd, "--config", str(p), "--out", str(out)]) == 2
    assert f"config error: powers.{key} must be" in capsys.readouterr().err
    assert not out.exists()


def test_powers_command_computes_the_spectrum_once(cfg_path, tmp_path, spectra):
    # the ladder's last rung keeps its spectrum; the route, the power and min_abs_eig read it
    out = tmp_path / "powers.json"
    assert main(["powers", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert spectra == [129]
    assert json.loads(out.read_text())["method"] == "spectral"


def test_powers_command_reports_no_contour_when_skipped(tmp_path):
    # 769 points at tau_min -16 fail the gate and exceed the dense limit (700)
    cfg = dict(CIRCLE_CFG, grid={"tau_min": -16.0, "points": 769})
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "powers.json"
    assert main(["powers", "--config", str(p), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["method"] == "quadrature" and payload["gate"] > 1e-3
    assert payload["nodes"] is None and payload["power_norm"] is None
    assert payload["tail_bound"] is None


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


def test_verify_ignores_the_output_directory(tmp_path, monkeypatch, capsys):
    # the poles criterion runs the CLI into a directory of its own, silently
    monkeypatch.setenv("CONELAB_OUTDIR", str(tmp_path))
    assert main(["verify", "--suite", "poles"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("[PASS] poles ") and lines[1:] == ["1/1 criteria passed"]
    assert list(tmp_path.iterdir()) == []
    assert os.environ["CONELAB_OUTDIR"] == str(tmp_path)


def test_verify_single_suite_exit_zero():
    assert main(["verify", "--suite", "weight-window"]) == 0


@pytest.mark.parametrize("suite, unknown", [("nope", "['nope']"),
                                            ("weight-window,nope", "['nope']")])
def test_verify_unknown_suite_exit_2(suite, unknown, capsys):
    assert main(["verify", "--suite", suite]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("config error:") and unknown in err
    assert "PASS" not in out          # a known name beside an unknown one does not run


def test_entrypoint_subprocess(cfg_path, tmp_path):
    out = tmp_path / "p.csv"
    # the child finds the package where this process found it, PYTHONPATH set or not
    src = str(Path(conelab.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "conelab.cli", "poles",
                           "--config", str(cfg_path), "--out", str(out)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0 and out.exists()


def test_parser_is_built_once_and_the_command_looked_up_per_call(cfg_path, tmp_path,
                                                                 monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    out = str(tmp_path / "poles.csv")
    assert main(["poles", "--config", str(cfg_path), "--out", out]) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_poles", lambda args: seen.append(args.out) or 0)
    assert main(["poles", "--config", str(cfg_path), "--out", out]) == 0
    assert seen == [out]


def test_benchmark_tracer_records_a_command_after_a_warm_call(cfg_path, tmp_path):
    # the tracer of perfbench/spans.py rebinds cli.cmd_* when it is installed,
    # after earlier calls have built the parser
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", Path(__file__).resolve().parents[1] / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    argv = ["poles", "--config", str(cfg_path), "--out", str(tmp_path / "poles.csv")]
    assert cli.main(argv) == 0
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert tracer.get("cli.poles", "calls") == 1 and tracer.get("cli.poles", "s") > 0
