"""Command-line entry point wiring configs to the computational modules.

Exit codes: 0 success, 1 verification failure, 2 config error (also an
unsupported or degenerate input), 3 numerical failure. Every run directory
receives a manifest.json sufficient to re-run the job; CSV payloads are
deterministic for a fixed config.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import itertools
import json
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from ._kernels import backend_name
from .asymptotics import AsymptoticsBasis, AsymptoticsTerm, build_realization, domain_membership
from .config import (_value, cross_section_from_config, fmt, gamma_from_config,
                     grid_from_config, heat_from_config, load_config, max_modes_from_config,
                     operator_from_config, output_dir_from_config, output_path,
                     powers_from_config)
from .errors import ConelabError, ConfigError, DegenerateSymbolError, UnsupportedError
from .mellin_sobolev import LogGrid, RadialField, mellin_norm
from .rational import root_to_complex
from .symbol_algebra import pole_set_power
from .heat_solver import HeatConfig, assemble_mode_operator, coarse_grid_error, solve_heat
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
        "wall_time_s": time.perf_counter() - t0,
        "outputs": outputs,
    }
    with open(outdir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, default=str)


def cmd_poles(args) -> int:
    t0 = time.perf_counter()
    cfg = load_config(args.config)
    path = output_path(args.out, output_dir_from_config(cfg), "poles.csv")
    cs = cross_section_from_config(cfg)
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
    path = output_path(args.out, output_dir_from_config(cfg), "asymptotics.json")
    cs = cross_section_from_config(cfg)
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


def _write_csv(path: Path, header: str, blocks):
    """A CSV file: the header line, then each block of rows in one write.

    A block is a list of rows or a str of ended rows. A row is its cells
    joined by commas; cells (numbers, flags, program-made mode labels) need
    no quoting. Lines end in \\r\\n, as the csv module's do. Returns the
    SHA-256 of the bytes written, hashed as they are written.
    """
    digest = hashlib.sha256()
    with open(path, "w", newline="") as fh:
        for text in itertools.chain([header + "\r\n"], blocks):
            text = text if isinstance(text, str) else "".join([f"{row}\r\n" for row in text])
            fh.write(text)
            digest.update(text.encode(fh.encoding))
    return digest


def _read_field_csv(path: Path, grid: LogGrid, cs, max_modes: int) -> RadialField:
    """A field from a tau,mode,re,im CSV in any column and row order.

    Modes absent from the file stay zero. A malformed file, a non-finite
    value, a mode off the config grid or an unknown mode is a ConfigError.
    """
    field = RadialField.zeros(grid, cs, max_modes)
    labels = [m.label for m in field.modes]
    # one character beyond the longest label: a longer one stays unknown
    mode_dtype = f"U{max(map(len, labels)) + 1}"
    try:                                      # a directory, bytes that are not text, a bad cell
        with open(path) as fh, warnings.catch_warnings():
            names = fh.readline().rstrip("\n").split(",")
            cols = [i for i, c in enumerate(names) if c in _FIELD_COLUMNS]
            if sorted(names[i] for i in cols) != sorted(_FIELD_COLUMNS):
                raise ConfigError(f"field file {path} needs the columns "
                                  f"{','.join(_FIELD_COLUMNS)} once each, not {','.join(names)}")
            dtype = [(names[i], mode_dtype if names[i] == "mode" else "f8") for i in cols]
            warnings.simplefilter("ignore", UserWarning)       # a header-only file
            data = np.loadtxt(fh, delimiter=",", quotechar='"', dtype=dtype,
                              usecols=cols, ndmin=1)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"field file {path} cannot be read: {exc}") from exc
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


def _field_templates(grid: LogGrid, modes) -> list[str]:
    """Each mode's block template: its tau and label cells written out, %.17g for re and im."""
    taus = [fmt(t) for t in grid.tau.tolist()]
    return ["".join([f"{t},{mode.label.replace('%', '%%')},%.17g,%.17g\r\n" for t in taus])
            for mode in modes]


def _write_field_csv(path: Path, values: np.ndarray, templates: list[str]):
    """One format call per mode block, on a template of %.17g: the bytes fmt writes.

    values holds one field's (modes, points) samples, C-ordered complex128;
    templates (``_field_templates``) are made once for every field on the
    same grid and mode table. Returns the SHA-256 of the file's bytes.
    """
    return _write_csv(path, ",".join(_FIELD_COLUMNS),
                      (template % tuple(row.view(np.float64).tolist())
                       for template, row in zip(templates, values)))


_SNAPSHOT_ARRAY = "snapshots.npy"


def _snapshots_digest(grid: LogGrid, labels: list[str], parts) -> str:
    """trajectory.json's snapshots_sha256 over the grid, the mode labels and the parts.

    The grid (tau_min, points) and the labels go in as JSON, then the SHA-256
    of each part in order: every snapshot CSV, then the array's bytes.
    """
    digest = hashlib.sha256(json.dumps([grid.tau_min, grid.points, labels]).encode())
    for part in parts:
        digest.update(part.digest())
    return digest.hexdigest()


def _snapshot_array_header(shape: tuple[int, int, int]) -> bytes:
    """The .npy header (version 1.0) of a C-ordered complex128 array of this shape."""
    fh = io.BytesIO()
    np.lib.format.write_array_header_1_0(fh, {
        "descr": np.lib.format.dtype_to_descr(np.dtype(np.complex128)),
        "fortran_order": False, "shape": shape})
    return fh.getvalue()


def _write_snapshots(outdir: Path, traj) -> tuple[list[str], str]:
    """(paths, snapshots_sha256): traj.values[k] to snapshot_{k:05d}.csv, and all to snapshots.npy.

    The array holds exactly the values written, complex128 of shape
    (snapshots, modes, J) in index order: its .npy header, then the
    trajectory's array in one write. Each CSV is hashed as its text is
    written, the array once.
    """
    values = np.ascontiguousarray(traj.values, dtype=np.complex128)
    templates = _field_templates(traj.grid, traj.modes)
    paths = [outdir / f"snapshot_{idx:05d}.csv" for idx in range(len(values))]
    parts = [_write_field_csv(path, v, templates) for path, v in zip(paths, values)]
    array_path = outdir / _SNAPSHOT_ARRAY
    with open(array_path, "wb") as fh:
        fh.write(_snapshot_array_header(values.shape))
        fh.write(values)
    digest = _snapshots_digest(traj.grid, [m.label for m in traj.modes],
                               [*parts, hashlib.sha256(values)])
    return [*map(str, paths), str(array_path)], digest


def _read_snapshots(trajdir: Path, snaps: list[Path], meta: dict, grid: LogGrid, cs,
                    max_modes: int) -> np.ndarray:
    """The snapshot values (snapshots, modes, J), from snapshots.npy when snapshots_sha256 vouches.

    The array is taken only under the exact .npy header `_write_snapshots`
    writes for the run config's shape, so its dtype, order and shape are
    known before any value is read, and no file content sizes an allocation.
    The digest is then recomputed from the run config's grid and mode
    labels, the CSV bytes and the array. On a match the CSVs hold the
    array's values (%.17g round-trips every double, and the reader keeps the
    sign of a zero), so parsing them would give the same bits and pass its
    checks. Anything else (no key, no array, another header, a short array,
    a mismatch) reads the CSVs with ``_read_field_csv`` into the same array.
    """
    modes = cs.mode_table(max_modes)
    values = np.empty((len(snaps), len(modes), grid.points), np.complex128)
    header = _snapshot_array_header(values.shape)
    try:
        with open(trajdir / _SNAPSHOT_ARRAY, "rb") as fh:
            intact = fh.read(len(header)) == header and fh.readinto(values) == values.nbytes
    except OSError:
        intact = False
    if intact and meta.get("snapshots_sha256") == _snapshots_digest(
            grid, [m.label for m in modes],
            [*(hashlib.sha256(p.read_bytes()) for p in snaps), hashlib.sha256(values)]):
        return values
    for k, p in enumerate(snaps):
        values[k] = _read_field_csv(p, grid, cs, max_modes).values
    return values


def cmd_norm(args) -> int:
    t0 = time.perf_counter()
    cfg = load_config(args.config)
    cs = cross_section_from_config(cfg)
    grid = grid_from_config(cfg)
    gamma = gamma_from_config(cfg, cs)
    path = output_path(args.out) if args.out else None
    field = _read_field_csv(Path(args.field), grid, cs, max_modes_from_config(cfg))
    value = mellin_norm(field, s=args.s, gamma=float(gamma), p=args.p)
    print(f"H^({args.s},{float(gamma)})_{args.p} norm = {fmt(value)}")
    if path is not None:
        with open(path, "w") as fh:
            json.dump({"s": args.s, "gamma": float(gamma), "p": args.p,
                       "norm": value}, fh, indent=2)
        _write_manifest(path.parent, {"subcommand": "norm"}, cfg, t0, [str(path)])
    return 0


def _straight_laplacian(cfg: dict, cs) -> None:
    """Refuse, naming its key, any operator but the straight cone Laplacian these commands build."""
    spec, block = operator_from_config(cfg, cs), cfg.get("operator", {})   # checked as `poles` does
    key = ("preset" if block.get("preset", "laplacian") != "laplacian"
           else "warp_a0" if spec.n_taylor else None)   # n_taylor: set by a non-zero warp alone
    if key:
        raise ConfigError(f"operator.{key} = {block[key]!r}: solve-heat, powers and "
                          "sectorial-probe discretize the straight cone Laplacian only")


def cmd_solve_heat(args) -> int:
    t0 = time.perf_counter()
    cfg = load_config(args.config)
    cs = cross_section_from_config(cfg)
    _straight_laplacian(cfg, cs)
    grid = grid_from_config(cfg)
    gamma = gamma_from_config(cfg, cs, require_window=True)
    hc = HeatConfig(cross_section=cs, grid=grid, max_modes=max_modes_from_config(cfg),
                    **heat_from_config(cfg))
    meta_path = output_path(None, args.out, "trajectory.json")
    outdir = meta_path.parent
    u0 = _read_field_csv(Path(args.u0), grid, cs, hc.max_modes)
    traj = solve_heat(u0, None, hc)
    outputs, digest = _write_snapshots(outdir, traj)
    meta = {"times": traj.times, "scheme": {"theta": hc.theta, "dt": hc.dt},
            "outer_bc": hc.outer_bc, "gamma": float(gamma), "snapshots_sha256": digest}
    with open(meta_path, "w") as fh:
        json.dump(meta, fh, indent=2)
    _write_manifest(outdir, {"subcommand": "solve-heat", "u0": str(args.u0)}, cfg,
                    t0, outputs)
    print(f"wrote {len(traj.times)} snapshots to {outdir}")
    return 0


def _read_json(path: Path, what: str, key: str, kind: type) -> dict:
    """The JSON object in a `what` file, whose `key` holds a `kind`.

    Anything else (unreadable, not JSON, not an object, no such key, another
    type) is a ConfigError naming the file.
    """
    try:
        with open(path) as fh:
            obj = json.load(fh)
        if not isinstance(obj[key], kind):
            raise TypeError(f"{key!r} is not a {kind.__name__}")
    except KeyError as exc:
        raise ConfigError(f"{what} file {path}: missing key {exc}") from None
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{what} file {path} is malformed: {exc}") from None
    except OSError as exc:
        raise ConfigError(f"{what} file {path} cannot be read: {exc}") from None
    return obj


def _read_basis(path: Path) -> AsymptoticsBasis:
    """The basis list of an `asymptotics` output file (re_rho, im_rho, m, mode per entry)."""
    entries = _read_json(path, "basis", "basis", list)["basis"]
    try:
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
    meta = _read_json(meta_path, "trajectory", "times", list)
    # a bool is not a time, nor a number float() cannot hold
    if not all(type(t) in (int, float) and abs(t) <= sys.float_info.max for t in meta["times"]):
        raise ConfigError(f"trajectory file {meta_path} is malformed: times must be finite numbers")
    basis = _read_basis(Path(args.basis))
    run_cfg = _read_json(trajdir / "manifest.json", "manifest", "config", dict)["config"]
    cs = cross_section_from_config(run_cfg)
    grid = grid_from_config(run_cfg)
    max_modes = max_modes_from_config(run_cfg)
    window = _value(cfg, "fit.window", lambda w: w, "two numbers [x_a, x_b]", None)
    # snapshot_{idx:05d}.csv holds the field at times[idx]
    snaps = [trajdir / f"snapshot_{idx:05d}.csv" for idx in range(len(meta["times"]))]
    missing = [p.name for p in snaps if not p.exists()]
    extra = sorted({p.name for p in trajdir.glob("snapshot_*.csv")} - {p.name for p in snaps})
    if missing or extra:
        raise ConfigError(f"trajectory {trajdir} does not match its {len(snaps)} times: "
                          f"missing {missing}, without a time {extra}")
    series = fit_tip_series(_read_snapshots(trajdir, snaps, meta, grid, cs, max_modes), grid,
                            cs.mode_table(max_modes), basis, window=window, times=meta["times"])
    # one row per (snapshot, term), from Python numbers: fmt sees the same floats bit for bit
    decay = {label: e.tolist() for label, e in series.exponents.items()}
    rows = [f"{fmt(t)},{fmt(rho.real)},{fmt(rho.imag)},{m},{mode},{fmt(c.real)},{fmt(c.imag)},"
            f"{fmt(res)},{fmt(decay[mode][k])}" for k, (t, res, row) in enumerate(zip(
                series.times.tolist(), series.residual_norm.tolist(), series.coefficients.tolist()))
            for (rho, m, mode), c in zip(series.keys, row)]
    _write_csv(path, "t,rho_re,rho_im,m,mode,c_re,c_im,residual,decay_exp", [rows])
    _write_manifest(path.parent, {"subcommand": "fit-tip", "traj": str(trajdir)},
                    run_cfg, t0, [str(path)])
    print(f"wrote {path} ({len(rows)} fitted coefficients)")
    return 0


def _shifted_mode_operator(cfg: dict):
    """(M, theta, c): M = c - L for the config's first mode, c from the shift ladder.

    The ladder starts at `powers.shift0` and tests the spectrum against the
    sector of angle `powers.theta`; M keeps the spectrum of its last rung.
    """
    theta, shift0 = powers_from_config(cfg)[1:3]
    cs = cross_section_from_config(cfg)
    _straight_laplacian(cfg, cs)
    mode = cs.mode_table(max_modes_from_config(cfg))[0]
    # only the outer condition of the heat block: T, dt and theta are not read
    outer_bc = _value(cfg, "heat.outer_bc", lambda bc: bc, "a boundary condition", "neumann")
    L = assemble_mode_operator(cs.n, mode.eigenvalue, grid_from_config(cfg), outer_bc)
    shift, M = find_sectorial_shift(L, theta, c0=shift0)
    return M, theta, shift


def cmd_powers(args) -> int:
    t0 = time.perf_counter()
    cfg = load_config(args.config)
    path = output_path(args.out, output_dir_from_config(cfg), "powers.json")
    z = powers_from_config(cfg)[0]
    M, theta, shift = _shifted_mode_operator(cfg)
    if M.symmetric_form is None:
        raise coarse_grid_error("powers", cross_section_from_config(cfg).n,
                                grid_from_config(cfg).h)
    method, gate = power_route(M)
    formed = method == "spectral" or M.dim <= _DENSE_LIMIT
    data, prov = complex_power(M, z) if formed else (None, {})
    report = {
        "z": [z.real, z.imag], "shift": shift, "theta": theta,
        "min_abs_eig": float(np.min(np.abs(M.eigenvalues()))),
        "method": method, "gate": gate,
        "nodes": prov.get("nodes"),
        "power_norm": float(np.linalg.norm(data, 2)) if formed else None,
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
    path = output_path(args.out, output_dir_from_config(cfg), "sectorial.json")
    M, theta, shift = _shifted_mode_operator(cfg)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; `main` looks up each command when it runs."""
    ap = argparse.ArgumentParser(prog="conelab",
                                 description="cone-operator singular analysis laboratory")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("poles", help="conormal-symbol pole set as CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--power", type=int, default=1)
    p.add_argument("--out")

    p = sub.add_parser("asymptotics", help="asymptotics basis and membership table")
    p.add_argument("--config", required=True)
    p.add_argument("--realizations", default="")
    p.add_argument("--out")

    p = sub.add_parser("norm", help="Mellin-Sobolev norm of a field CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--field", required=True)
    p.add_argument("--s", type=int, default=0)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--out")

    p = sub.add_parser("solve-heat", help="evolve the heat equation on the model cone")
    p.add_argument("--config", required=True)
    p.add_argument("--u0", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("fit-tip", help="fit tip expansions along a trajectory")
    p.add_argument("--traj", required=True)
    p.add_argument("--basis", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config")

    p = sub.add_parser("powers", help="complex power of the shifted realization")
    p.add_argument("--config", required=True)
    p.add_argument("--out")

    p = sub.add_parser("sectorial-probe", help="resolvent sector bound probe")
    p.add_argument("--config", required=True)
    p.add_argument("--out")

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--suite", default="all")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up per call, not bound into the parser: a rebound cmd_* (a tracer's wrapper) runs
    run = {"poles": cmd_poles, "asymptotics": cmd_asymptotics, "norm": cmd_norm,
           "solve-heat": cmd_solve_heat, "fit-tip": cmd_fit_tip, "powers": cmd_powers,
           "sectorial-probe": cmd_sectorial_probe, "verify": cmd_verify}[args.cmd]
    try:
        return run(args)
    except (ConfigError, UnsupportedError, DegenerateSymbolError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ConelabError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
