"""Command-line entry point wiring configs to the computational modules.

Exit codes: 0 success, 1 verification failure, 2 config error, 3 numerical
failure. Every run directory receives a manifest.json sufficient to re-run
the job; CSV payloads are deterministic for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from ._kernels import backend_name
from .asymptotics import AsymptoticsBasis, AsymptoticsTerm, build_realization, domain_membership
from .config import (cross_section_from_config, fmt, gamma_from_config,
                     grid_from_config, load_config, operator_from_config,
                     output_path, powers_from_config)
from .errors import ConelabError, ConfigError
from .mellin_sobolev import LogGrid, RadialField, mellin_norm
from .rational import root_to_complex
from .symbol_algebra import pole_set_power
from .heat_solver import HeatConfig, assemble_mode_operator, solve_heat
from .power_calculus import complex_power, find_sectorial_shift, power_route, sectorial_probe
from .tip_analysis import fit_tip_series

# largest operator whose quadrature power `powers` forms: J unit columns per node
_DENSE_LIMIT = 700


def _write_manifest(outdir: Path, args_echo: dict, cfg: dict, t0: float, outputs: list):
    manifest = {
        "tool": "conelab",
        "version": __version__,
        "backend": backend_name(),
        "command": args_echo,
        "config": cfg,
        "seed": cfg.get("seed", 0),
        "wall_time_s": time.perf_counter() - t0,
        "outputs": outputs,
    }
    with open(outdir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, default=str)


def cmd_poles(args) -> int:
    t0 = time.perf_counter()
    cfg = load_config(args.config)
    path = output_path(args.out, cfg.get("output_dir"), "poles.csv")
    cs = cross_section_from_config(cfg["cross_section"])
    spec = operator_from_config(cfg, cs)
    gamma = gamma_from_config(cfg, cs)
    ps = pole_set_power(spec, gamma, args.power)
    rows = []
    for label, rho, order, inside in ps.candidates:
        z = root_to_complex(rho)
        rows.append((label, z.real, z.imag, order - 1, inside))
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    _write_csv(path, "mode,label,re_rho,im_rho,max_log_power,in_strip",
               [[f"{label},{label},{fmt(re)},{fmt(im)},{mlp},{str(bool(inside)).lower()}"
                 for label, re, im, mlp, inside in rows]])
    _write_manifest(path.parent, {"subcommand": "poles", "power": args.power}, cfg,
                    t0, [str(path)])
    print(f"wrote {path} ({len(rows)} candidate poles, strip "
          f"[{float(ps.strip[0])}, {float(ps.strip[1])}))")
    return 0


def cmd_asymptotics(args) -> int:
    t0 = time.perf_counter()
    cfg = load_config(args.config)
    path = output_path(args.out, cfg.get("output_dir"), "asymptotics.json")
    cs = cross_section_from_config(cfg["cross_section"])
    spec = operator_from_config(cfg, cs)
    gamma = gamma_from_config(cfg, cs)
    names = args.realizations.split(",") if args.realizations else ["DD", "max"]
    maximal = build_realization("max", gamma, spec)    # its admitted terms are the rows
    ps = maximal.admitted.provenance
    realizations = {r: maximal if r == "max" else build_realization(r, gamma, spec)
                    for r in names}
    table = []
    for rho, m, mode in maximal.admitted.terms:
        term = AsymptoticsTerm(rho, m, mode)
        entry = {"re_rho": root_to_complex(rho).real, "im_rho": root_to_complex(rho).imag,
                 "m": m, "mode": mode, "membership": {}}
        for r, realization in realizations.items():
            res = domain_membership(term, realization, gamma, spec)
            entry["membership"][r] = {"member": res.member, "reason": res.reason}
        table.append(entry)
    payload = {"gamma": float(gamma), "strip": [float(ps.strip[0]), float(ps.strip[1])],
               "basis": table,
               "exact": ps.exact, "convention_pending": ps.convention_pending}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
    _write_manifest(path.parent, {"subcommand": "asymptotics"}, cfg, t0, [str(path)])
    print(f"wrote {path} ({len(table)} basis terms)")
    return 0


_FIELD_COLUMNS = ("tau", "mode", "re", "im")


def _write_csv(path: Path, header: str, blocks) -> None:
    """A CSV file: the header line, then each block of rows in one write.

    A block is a list of rows or a str of ended rows. A row is its cells
    joined by commas; cells (numbers, flags, program-made mode labels) need
    no quoting. Lines end in \\r\\n, as the csv module's do.
    """
    with open(path, "w", newline="") as fh:
        fh.write(header + "\r\n")
        for rows in blocks:
            fh.write(rows if isinstance(rows, str) else "".join([f"{row}\r\n" for row in rows]))


def _read_field_csv(path: Path, grid: LogGrid, cs, max_modes: int) -> RadialField:
    """A field from a tau,mode,re,im CSV in any column and row order.

    Modes absent from the file stay zero. A malformed file, a non-finite
    value, a mode off the config grid or an unknown mode is a ConfigError.
    """
    field = RadialField.zeros(grid, cs, max_modes)
    labels = [m.label for m in field.modes]
    # one character beyond the longest label: a longer one stays unknown
    mode_dtype = f"U{max(map(len, labels)) + 1}"
    with open(path) as fh:
        names = fh.readline().rstrip("\n").split(",")
        cols = [i for i, c in enumerate(names) if c in _FIELD_COLUMNS]
        if sorted(names[i] for i in cols) != sorted(_FIELD_COLUMNS):
            raise ConfigError(f"field file {path} needs the columns "
                              f"{','.join(_FIELD_COLUMNS)} once each, not {','.join(names)}")
        dtype = [(names[i], mode_dtype if names[i] == "mode" else "f8") for i in cols]
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)   # a header-only file
                data = np.loadtxt(fh, delimiter=",", quotechar='"', dtype=dtype,
                                  usecols=cols, ndmin=1)
        except ValueError as exc:
            raise ConfigError(f"field file {path} is malformed: {exc}") from exc
    for mode in np.unique(data["mode"]):
        if mode not in labels:
            raise ConfigError(f"field file {path} holds a mode not among "
                              f"{', '.join(labels)}: {str(mode)!r}")
        rows = data[data["mode"] == mode]
        rows = rows[np.lexsort((rows["im"], rows["re"], rows["tau"]))]
        taus, re, im = rows["tau"], rows["re"], rows["im"]
        if not np.all(np.isfinite([taus, re, im])):
            raise ConfigError(f"field file {path} holds a non-finite value in mode {mode}")
        if len(taus) != grid.points or not np.allclose(taus, grid.tau, atol=1e-10):
            raise ConfigError(f"field file {path} does not match the config grid")
        row = field.values[labels.index(mode)]
        row.real, row.imag = re, im           # keeps the sign of a zero
    return field


def _field_templates(field: RadialField) -> list[str]:
    """Each mode's block template: its tau and label cells written out, %.17g for re and im."""
    taus = [fmt(t) for t in field.grid.tau.tolist()]
    return ["".join([f"{t},{mode.label.replace('%', '%%')},%.17g,%.17g\r\n" for t in taus])
            for mode in field.modes]


def _write_field_csv(path: Path, field: RadialField, templates=None):
    """One format call per mode block, on a template of %.17g: the bytes fmt writes.

    templates (``_field_templates``) may be made once for many fields on
    the same grid and mode table.
    """
    if templates is None:
        templates = _field_templates(field)
    values = np.ascontiguousarray(field.values, dtype=np.complex128)
    _write_csv(path, ",".join(_FIELD_COLUMNS),
               (template % tuple(row.view(np.float64).tolist())
                for template, row in zip(templates, values)))


def cmd_norm(args) -> int:
    t0 = time.perf_counter()
    cfg = load_config(args.config)
    cs = cross_section_from_config(cfg["cross_section"])
    grid = grid_from_config(cfg)
    gamma = gamma_from_config(cfg, cs)
    max_modes = int(cfg.get("operator", {}).get("max_modes", 3))
    path = output_path(args.out) if args.out else None
    field = _read_field_csv(Path(args.field), grid, cs, max_modes)
    value = mellin_norm(field, s=args.s, gamma=float(gamma), p=args.p)
    print(f"H^({args.s},{float(gamma)})_{args.p} norm = {fmt(value)}")
    if path is not None:
        with open(path, "w") as fh:
            json.dump({"s": args.s, "gamma": float(gamma), "p": args.p,
                       "norm": value}, fh, indent=2)
        _write_manifest(path.parent, {"subcommand": "norm"}, cfg, t0, [str(path)])
    return 0


def cmd_solve_heat(args) -> int:
    t0 = time.perf_counter()
    cfg = load_config(args.config)
    cs = cross_section_from_config(cfg["cross_section"])
    grid = grid_from_config(cfg)
    gamma = gamma_from_config(cfg, cs, require_window=True)
    heat = cfg.get("heat", {})
    max_modes = int(cfg.get("operator", {}).get("max_modes", 3))
    hc = HeatConfig(cross_section=cs, grid=grid, T=float(heat.get("T", 0.1)),
                    dt=float(heat.get("dt", 1e-4)),
                    outer_bc=heat.get("outer_bc", "dirichlet"),
                    theta=float(heat.get("theta", 0.5)), max_modes=max_modes,
                    snapshot_every=heat.get("snapshot_every", 0))
    meta_path = output_path(None, args.out, "trajectory.json")
    outdir = meta_path.parent
    u0 = _read_field_csv(Path(args.u0), grid, cs, max_modes)
    traj = solve_heat(u0, None, hc)
    outputs = []
    templates = _field_templates(u0)
    for idx, f in enumerate(traj.fields):
        path = outdir / f"snapshot_{idx:05d}.csv"
        _write_field_csv(path, f, templates)
        outputs.append(str(path))
    meta = {"times": traj.times, "scheme": {"theta": hc.theta, "dt": hc.dt},
            "outer_bc": hc.outer_bc, "gamma": float(gamma)}
    with open(meta_path, "w") as fh:
        json.dump(meta, fh, indent=2)
    _write_manifest(outdir, {"subcommand": "solve-heat", "u0": str(args.u0)}, cfg,
                    t0, outputs)
    print(f"wrote {len(outputs)} snapshots to {outdir}")
    return 0


def _read_basis(path: Path) -> AsymptoticsBasis:
    """The basis list of an `asymptotics` output file (re_rho, im_rho, m, mode per entry)."""
    try:
        with open(path) as fh:
            entries = json.load(fh)["basis"]
        if not isinstance(entries, list):
            raise TypeError("'basis' is not a list")
        triples = tuple((complex(b["re_rho"], b["im_rho"]), int(b["m"]), b["mode"])
                        for b in entries)
    except KeyError as exc:
        raise ConfigError(f"basis file {path}: missing key {exc}") from None
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"basis file {path} is not an asymptotics basis: {exc}") from None
    return AsymptoticsBasis(terms=triples, provenance=None)


def cmd_fit_tip(args) -> int:
    t0 = time.perf_counter()
    cfg = load_config(args.config) if args.config else {}
    path = output_path(args.out)
    trajdir = Path(args.traj)
    meta_path = trajdir / "trajectory.json"
    if not meta_path.exists():
        raise ConfigError(f"no trajectory.json in {trajdir}")
    with open(meta_path) as fh:
        meta = json.load(fh)
    basis = _read_basis(Path(args.basis))
    manifest = json.loads((trajdir / "manifest.json").read_text())
    run_cfg = manifest["config"]
    cs = cross_section_from_config(run_cfg["cross_section"])
    grid = grid_from_config(run_cfg)
    max_modes = int(run_cfg.get("operator", {}).get("max_modes", 3))
    window = cfg.get("fit", {}).get("window")
    # snapshot_{idx:05d}.csv holds the field at times[idx]
    snaps = [trajdir / f"snapshot_{idx:05d}.csv" for idx in range(len(meta["times"]))]
    missing = [p.name for p in snaps if not p.exists()]
    extra = sorted({p.name for p in trajdir.glob("snapshot_*.csv")} - {p.name for p in snaps})
    if missing or extra:
        raise ConfigError(f"trajectory {trajdir} does not match its {len(snaps)} times: "
                          f"missing {missing}, without a time {extra}")
    fits = fit_tip_series([_read_field_csv(snap, grid, cs, max_modes) for snap in snaps],
                          basis, window=window, times=meta["times"])
    rows = []
    for fit in fits:
        for fc in fit.coefficients:
            decay = fit.mode_residual_exponents.get(fc.mode, math.nan)
            rows.append(f"{fmt(fit.t)},{fmt(fc.rho.real)},{fmt(fc.rho.imag)},{fc.m},{fc.mode},"
                        f"{fmt(fc.c.real)},{fmt(fc.c.imag)},{fmt(fit.residual_norm)},{fmt(decay)}")
    _write_csv(path, "t,rho_re,rho_im,m,mode,c_re,c_im,residual,decay_exp", [rows])
    _write_manifest(path.parent, {"subcommand": "fit-tip", "traj": str(trajdir)},
                    run_cfg, t0, [str(path)])
    print(f"wrote {path} ({len(rows)} fitted coefficients)")
    return 0


def _shifted_mode_operator(cfg: dict):
    """(M, theta, c, min_abs_eig): M = c - L for the config's first mode, c from the shift ladder.

    The ladder tests the spectrum against the sector of angle `powers.theta`
    from `powers.shift0` on; `powers` and `sectorial-probe` both take this
    one ladder, and only `sectorial-probe` probes the resolvent at c.
    """
    theta, shift0 = powers_from_config(cfg)[1:3]
    cs = cross_section_from_config(cfg["cross_section"])
    mode = cs.mode_table(int(cfg.get("operator", {}).get("max_modes", 1)))[0]
    L = assemble_mode_operator(cs.n, mode.eigenvalue, grid_from_config(cfg),
                               cfg.get("heat", {}).get("outer_bc", "neumann"))
    shift, min_eig = find_sectorial_shift(L, theta, c0=shift0)
    return (-L).shifted(shift), theta, shift, min_eig


def cmd_powers(args) -> int:
    t0 = time.perf_counter()
    cfg = load_config(args.config)
    path = output_path(args.out, cfg.get("output_dir"), "powers.json")
    z = powers_from_config(cfg)[0]
    M, theta, shift, min_eig = _shifted_mode_operator(cfg)
    # at or below the dense limit every route forms, and the power records its route
    route = power_route(M) if M.dim > _DENSE_LIMIT else None
    power = complex_power(M, z) if route is None or route[0] == "spectral" else None
    prov = power.provenance if power is not None else {}
    method, gate = route or (prov["method"], prov["gate"])
    report = {
        "z": [z.real, z.imag], "shift": shift, "theta": theta,
        "min_abs_eig": min_eig,
        "method": method, "gate": gate,
        "nodes": prov.get("nodes"),
        "power_norm": float(np.linalg.norm(power.data, 2)) if power is not None else None,
        "tail_bound": prov.get("tail_bound"),
    }
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
    _write_manifest(path.parent, {"subcommand": "powers"}, cfg, t0, [str(path)])
    print(f"wrote {path} ({method} route)")
    return 0


def cmd_sectorial_probe(args) -> int:
    t0 = time.perf_counter()
    cfg = load_config(args.config)
    path = output_path(args.out, cfg.get("output_dir"), "sectorial.json")
    M, theta, shift, _min_eig = _shifted_mode_operator(cfg)
    report = sectorial_probe(M, theta, n_samples=powers_from_config(cfg)[3])
    payload = {
        "theta": theta, "shift": shift, "K": report.K,
        "min_abs_eig": report.min_abs_eig,
        "iterations": report.iterations,
        "unconverged": report.unconverged,
        "samples": [{"re": l.real, "im": l.imag, "value": v} for l, v in report.samples],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
    _write_manifest(path.parent, {"subcommand": "sectorial-probe"}, cfg, t0, [str(path)])
    print(f"wrote {path} (K = {report.K:.6g} at shift c = {shift})")
    return 0


def cmd_verify(args) -> int:
    from . import verify
    results = verify.run_suite(args.suite)
    verify.print_table(results)
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="conelab",
                                 description="cone-operator singular analysis laboratory")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("poles", help="conormal-symbol pole set as CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--power", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_poles)

    p = sub.add_parser("asymptotics", help="asymptotics basis and membership table")
    p.add_argument("--config", required=True)
    p.add_argument("--realizations", default="")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_asymptotics)

    p = sub.add_parser("norm", help="Mellin-Sobolev norm of a field CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--field", required=True)
    p.add_argument("--s", type=int, default=0)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_norm)

    p = sub.add_parser("solve-heat", help="evolve the heat equation on the model cone")
    p.add_argument("--config", required=True)
    p.add_argument("--u0", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_solve_heat)

    p = sub.add_parser("fit-tip", help="fit tip expansions along a trajectory")
    p.add_argument("--traj", required=True)
    p.add_argument("--basis", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.set_defaults(fn=cmd_fit_tip)

    p = sub.add_parser("powers", help="complex power of the shifted realization")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_powers)

    p = sub.add_parser("sectorial-probe", help="resolvent sector bound probe")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_sectorial_probe)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--suite", default="all")
    p.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ConelabError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
