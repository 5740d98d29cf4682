"""The three benchmark workloads: seeded inputs, operation sequence, output checks.

Every workload makes its inputs once from the seed (the seed varies data
only; sizes are fixed because they set the work), then runs the same
operation sequence as many times as the run allows. Inputs and reference
solutions come from ``scipy.special`` (``jv``, ``jnp_zeros``), never from
``conelab.bessel``, so that Bessel cost stays out of set-up and the
references stay independent of the program.

All program calls go through module attributes (``cli.main``,
``heat_solver.solve_heat``, ...) so that the traced run's wrappers see them.

Workloads and why they were chosen:

- ``cli-heat-tip``: the user pipeline through the in-process CLI (poles,
  asymptotics, solve-heat, fit-tip, norm). Exercises the ``evolve_theta``
  march, CSV writes beside reads and the exact symbolic layer; barely
  touches ``power_calculus``.
- ``powers``: ``sectorial-probe`` and ``powers`` through the CLI plus two
  ``power_domain_probe`` ladders. Dominated by ``_kernels.thomas_batch``,
  used both as Dunford batches over thousands of shifts and as many
  sequential single right-hand-side resolvent solves. No heat march and no
  file I/O of any size.
- ``forced-track``: library ``solve_heat`` with a forcing, so every step
  goes through ``heat_solver.step``; then ``decomposition_track`` over every
  snapshot and ``bessel_series_solution`` at several times. Exercises
  ``tip_analysis`` and ``bessel``, which the other two barely touch.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np
from scipy import special

import conelab.cli as cli
from conelab import asymptotics, heat_solver, power_calculus, symbol_algebra, tip_analysis
from conelab.asymptotics import AsymptoticsTerm
from conelab.cone_geometry import CrossSection
from conelab.mellin_sobolev import LogGrid, RadialField
from conelab.rational import QRat

# circle of circumference 2*pi: mode k=+-j has eigenvalue -j^2 and Bessel
# order nu = |j|; with n = 1 the Neumann condition at x = 1 is J_nu'(k) = 0
CIRCLE = {"kind": "circle", "L_over_pi": "2"}
GAMMA = -0.5

SIZES = {
    "cli-heat-tip": {
        "full": {"points": 513, "tau_min": -8.0, "dt": 2.5e-5, "T": 0.05,
                 "snapshot_every": 100, "max_modes": 3, "terms": 3},
        "smoke": {"points": 513, "tau_min": -8.0, "dt": 1e-4, "T": 0.005,
                  "snapshot_every": 25, "max_modes": 3, "terms": 3},
    },
    "powers": {
        "full": {"points": 9, "tau_min": -4.0, "z_re": -0.5, "samples": 10,
                 "probe_points": 81, "probe_tau_min": -3.0, "probe_levels": 2,
                 "probe_n_quad": 32},
        "smoke": {"points": 9, "tau_min": -4.0, "z_re": -0.9, "samples": 10,
                  "probe_points": 81, "probe_tau_min": -3.0, "probe_levels": 2,
                  "probe_n_quad": 16},
    },
    "forced-track": {
        "full": {"points": 513, "tau_min": -8.0, "dt": 2.5e-5, "T": 0.00625,
                 "max_modes": 2, "oracle_times": 2, "oracle_terms": 3},
        "smoke": {"points": 257, "tau_min": -8.0, "dt": 5e-5, "T": 0.002,
                  "max_modes": 2, "oracle_times": 2, "oracle_terms": 3},
    },
}


class Ledger:
    """Counts attempted and failed operations; an output check is an operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, what: str):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)

    def check(self, name: str, ok: bool, detail: str = ""):
        self.attempted += 1
        if not ok:
            self.fail(f"check {name} failed: {detail}")


class OpFailed(Exception):
    """An operation of the sequence failed; the rest of the iteration is skipped."""


def _cli(ledger: Ledger, argv: list[str]):
    """Run one CLI command in-process; a nonzero exit or a raise is a failure."""
    ledger.attempted += 1
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception as exc:  # the benchmark must keep running and count it
        ledger.fail(f"{argv[0]} raised {type(exc).__name__}: {exc}")
        raise OpFailed from exc
    if rc != 0:
        ledger.fail(f"{argv[0]} exited {rc}: {err.getvalue().strip()}")
        raise OpFailed


def _call(ledger: Ledger, name: str, fn, *args, **kwargs):
    """Run one library call; a raise is a failure."""
    ledger.attempted += 1
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # the benchmark must keep running and count it
        ledger.fail(f"{name} raised {type(exc).__name__}: {exc}")
        raise OpFailed from exc


def _tau(tau_min: float, points: int) -> np.ndarray:
    return np.linspace(tau_min, 0.0, points)


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _neumann_roots(nu: int, count: int) -> np.ndarray:
    """Positive roots of J_nu'(k) = 0 (the k = 0 constant branch excluded)."""
    return special.jnp_zeros(nu, count)


def _rel_l2(a: np.ndarray, b: np.ndarray, tau: np.ndarray) -> float:
    """Relative L2 norm on the cone (n = 1): trapezoid of |u|^2 x^2 dtau."""
    w = np.exp(2.0 * tau)
    num = np.trapezoid(np.abs(a - b) ** 2 * w, tau)
    den = np.trapezoid(np.abs(b) ** 2 * w, tau)
    return float(math.sqrt(num / den)) if den > 0 else float(math.sqrt(num))


def _circle_modes(max_modes: int) -> list[tuple[str, int]]:
    out = [("k=0", 0)]
    for j in range(1, max_modes):
        out += [(f"k=+{j}", j), (f"k=-{j}", j)]
    return out


def _read_field(path: Path) -> dict[str, np.ndarray]:
    by_mode: dict[str, list] = {}
    with open(path) as fh:
        for row in csv.DictReader(fh):
            by_mode.setdefault(row["mode"], []).append(
                (float(row["tau"]), complex(float(row["re"]), float(row["im"]))))
    return {m: np.array([v for _t, v in sorted(rows, key=lambda r: r[0])])
            for m, rows in by_mode.items()}


# -- cli-heat-tip -------------------------------------------------------------

class CliHeatTip:
    """poles, poles --power 2, asymptotics, solve-heat, fit-tip, norm via cli.main."""

    name = "cli-heat-tip"

    def __init__(self, seed: int, workdir: Path, smoke: bool):
        sz = SIZES[self.name]["smoke" if smoke else "full"]
        self.sz = sz
        rng = np.random.default_rng(seed)
        tau = _tau(sz["tau_min"], sz["points"])
        x = np.exp(tau)
        self.tau = tau
        u0, ref = {}, {}
        for label, nu in _circle_modes(sz["max_modes"]):
            ks = _neumann_roots(nu, sz["terms"])
            c = rng.uniform(0.5, 1.0, (2, len(ks))) * rng.choice([-1.0, 1.0], (2, len(ks)))
            c = c[0] + 1j * c[1]
            u0[label] = sum(cj * special.jv(nu, kj * x) for cj, kj in zip(c, ks))
            ref[label] = sum(cj * math.exp(-kj * kj * sz["T"]) * special.jv(nu, kj * x)
                             for cj, kj in zip(c, ks))
            if nu == 0:
                c0 = complex(rng.uniform(0.5, 1.0), rng.uniform(-0.5, 0.5))
                u0[label] = u0[label] + c0
                ref[label] = ref[label] + c0
        self.ref = ref
        self.cfg_path = workdir / "config.json"
        self.u0_path = workdir / "u0.csv"
        cfg = {
            "cross_section": CIRCLE,
            "operator": {"preset": "laplacian", "max_modes": sz["max_modes"]},
            "gamma": GAMMA,
            "grid": {"tau_min": sz["tau_min"], "points": sz["points"]},
            "heat": {"T": sz["T"], "dt": sz["dt"], "outer_bc": "neumann", "theta": 0.5,
                     "snapshot_every": sz["snapshot_every"]},
            "fit": {"window": [0.01, 0.125]},
            "output_dir": str(workdir / "out"),
            "seed": seed,
        }
        self.cfg_path.write_text(json.dumps(cfg, indent=2))
        with open(self.u0_path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["tau", "mode", "re", "im"])
            for label, vals in u0.items():
                for t, v in zip(tau, vals):
                    w.writerow([_fmt(t), label, _fmt(v.real), _fmt(v.imag)])
        self.out = workdir / "out"
        self.n_snaps = int(round(sz["T"] / sz["dt"])) // sz["snapshot_every"] + 1
        self.snap_hash = None

    def run(self, ledger: Ledger):
        o, cfg = self.out, str(self.cfg_path)
        _cli(ledger, ["poles", "--config", cfg, "--out", str(o / "poles.csv")])
        _cli(ledger, ["poles", "--config", cfg, "--power", "2", "--out", str(o / "poles2.csv")])
        _cli(ledger, ["asymptotics", "--config", cfg, "--realizations", "DD,max,power:2",
                      "--out", str(o / "asymptotics.json")])
        _cli(ledger, ["solve-heat", "--config", cfg, "--u0", str(self.u0_path),
                      "--out", str(o / "traj")])
        _cli(ledger, ["fit-tip", "--traj", str(o / "traj"), "--basis",
                      str(o / "asymptotics.json"), "--out", str(o / "fit.csv"),
                      "--config", cfg])
        last = o / "traj" / f"snapshot_{self.n_snaps - 1:05d}.csv"
        _cli(ledger, ["norm", "--config", cfg, "--field", str(last), "--s", "1",
                      "--out", str(o / "norm.json")])
        return last

    @staticmethod
    def closed_form_poles(max_modes: int, power: int) -> set:
        """(mode, re, im, max_log_power, in_strip) rows: roots (n-1)/2 +- nu - 2j."""
        left, right = 1.5 - GAMMA - 2 * power, 1.5 - GAMMA
        rows = set()
        for label, nu in _circle_modes(max_modes):
            orders: dict[float, int] = {}
            for j in range(power):
                for r in (-nu, nu):
                    orders[float(r - 2 * j)] = orders.get(float(r - 2 * j), 0) + 1
            for r, order in orders.items():
                rows.add((label, r, 0.0, order - 1, "true" if left <= r < right else "false"))
        return rows

    def check(self, ledger: Ledger, last: Path) -> dict:
        o = self.out
        for power, fname in ((1, "poles.csv"), (2, "poles2.csv")):
            with open(o / fname) as fh:
                got = {(r["mode"], float(r["re_rho"]), float(r["im_rho"]),
                        int(r["max_log_power"]), r["in_strip"]) for r in csv.DictReader(fh)}
            want = self.closed_form_poles(self.sz["max_modes"], power)
            ledger.check(f"poles-power{power}-closed-form", got == want,
                         f"got {sorted(got)} want {sorted(want)}")
        final = _read_field(last)
        errs = {m: _rel_l2(final[m], self.ref[m], self.tau) for m in self.ref}
        worst = max(errs.values())
        ledger.check("final-snapshot-vs-bessel", worst <= 1e-3, f"per-mode rel L2 {errs}")
        with open(o / "fit.csv") as fh:
            decay = [float(r["decay_exp"]) for r in csv.DictReader(fh)]
        ledger.check("fit-tip-decay-finite", bool(decay) and all(map(math.isfinite, decay)),
                     f"{len(decay)} rows, non-finite: "
                     f"{[d for d in decay if not math.isfinite(d)][:5]}")
        norm = json.loads((o / "norm.json").read_text())["norm"]
        ledger.check("norm-finite", math.isfinite(norm) and norm > 0, f"norm {norm}")
        h = hashlib.sha256()
        snaps = sorted((o / "traj").glob("snapshot_*.csv"))
        for p in snaps:
            h.update(p.read_bytes())
        digest = h.hexdigest()
        if self.snap_hash is None:
            self.snap_hash = digest
        ledger.check("snapshots-count", len(snaps) == self.n_snaps,
                     f"{len(snaps)} snapshots, expected {self.n_snaps}")
        ledger.check("snapshots-byte-identical", digest == self.snap_hash,
                     "snapshot CSVs differ from the first iteration of this run")
        return {"heat_solver.oracle_rel_err": worst}


# -- powers ---------------------------------------------------------------------

class Powers:
    """sectorial-probe and powers via cli.main, then two power_domain_probe ladders."""

    name = "powers"

    def __init__(self, seed: int, workdir: Path, smoke: bool):
        sz = SIZES[self.name]["smoke" if smoke else "full"]
        self.sz = sz
        rng = np.random.default_rng(seed)
        self.z = complex(sz["z_re"], rng.uniform(-0.3, 0.3))
        self.amp_const = float(rng.uniform(0.5, 2.0))
        self.amp_sing = float(rng.uniform(0.5, 2.0))
        self.cs = CrossSection.circle(length_over_pi=2)
        self.cfg_path = workdir / "config.json"
        cfg = {
            "cross_section": CIRCLE,
            "operator": {"preset": "laplacian", "max_modes": 1},
            "gamma": GAMMA,
            "grid": {"tau_min": sz["tau_min"], "points": sz["points"]},
            "heat": {"outer_bc": "neumann"},
            "powers": {"z_re": self.z.real, "z_im": self.z.imag, "theta": 0.75 * math.pi,
                       "shift0": 1.0, "samples": sz["samples"]},
            "output_dir": str(workdir / "out"),
            "seed": seed,
        }
        self.cfg_path.write_text(json.dumps(cfg, indent=2))
        self.out = workdir / "out"

    def _probe_config(self, label: str):
        return power_calculus.PowerProbeConfig(
            cross_section=self.cs, mode_label=label, gamma=GAMMA, shift=1.0,
            tau_min=self.sz["probe_tau_min"], points=self.sz["probe_points"],
            levels=self.sz["probe_levels"], n_quad=self.sz["probe_n_quad"])

    def run(self, ledger: Ledger):
        cfg = str(self.cfg_path)
        _cli(ledger, ["sectorial-probe", "--config", cfg, "--out", str(self.out / "sectorial.json")])
        _cli(ledger, ["powers", "--config", cfg, "--out", str(self.out / "powers.json")])
        const = _call(ledger, "power_domain_probe", power_calculus.power_domain_probe,
                      AsymptoticsTerm(QRat(0), 0, "k=0", c=self.amp_const), 0.5,
                      self._probe_config("k=0"))
        sing = _call(ledger, "power_domain_probe", power_calculus.power_domain_probe,
                     AsymptoticsTerm(QRat(1), 0, "k=+1", c=self.amp_sing), 0.9,
                     self._probe_config("k=+1"))
        return const.verdict, sing.verdict

    def _dense_mode_matrix(self, shift: float) -> np.ndarray:
        """c - L for the k=0 Neumann mode, dense (the assembly is the program's)."""
        L = heat_solver.assemble_mode_operator(1, 0, LogGrid(self.sz["tau_min"],
                                                             self.sz["points"]), "neumann")
        return (-L).shifted(shift).to_dense()

    def check(self, ledger: Ledger, verdicts) -> dict:
        rep = json.loads((self.out / "powers.json").read_text())
        A = self._dense_mode_matrix(rep["shift"])
        evals, V = np.linalg.eig(A)
        oracle = V @ np.diag(np.exp(self.z * np.log(evals.astype(complex)))) @ np.linalg.inv(V)
        ref = float(np.linalg.norm(oracle, 2))
        rel = abs(rep["power_norm"] - ref) / ref if rep["power_norm"] is not None else math.inf
        ledger.check("power-norm-vs-eig-oracle", rel <= 1e-7, f"rel err {rel:.3e}")

        sect = json.loads((self.out / "sectorial.json").read_text())
        A = self._dense_mode_matrix(sect["shift"])
        eye = np.eye(A.shape[0])
        k_dense = 1.0
        for s in sect["samples"]:
            lam = complex(s["re"], s["im"])
            smin = np.linalg.svd(A + lam * eye, compute_uv=False)[-1]
            k_dense = max(k_dense, (1.0 + abs(lam)) / smin)
        K = sect["K"]
        ledger.check("sectorial-K-vs-dense-svd",
                     math.isfinite(K) and 0.95 * k_dense <= K <= k_dense * (1.0 + 1e-9),
                     f"K {K} dense {k_dense}")
        ledger.check("probe-verdicts", verdicts == ("member", "non-member"),
                     f"verdicts {verdicts}")
        return {"power_calculus.oracle_rel_err": rel, "power_calculus.sectorial_K": K,
                "power_calculus.tail_bound": rep["tail_bound"]}


# -- forced-track -----------------------------------------------------------------

class ForcedTrack:
    """Forced solve_heat, decomposition_track over every snapshot, Bessel series oracle."""

    name = "forced-track"

    def __init__(self, seed: int, workdir: Path, smoke: bool):
        sz = SIZES[self.name]["smoke" if smoke else "full"]
        self.sz = sz
        rng = np.random.default_rng(seed)
        self.cs = CrossSection.circle(length_over_pi=2)
        self.grid = LogGrid(sz["tau_min"], sz["points"])
        tau = _tau(sz["tau_min"], sz["points"])
        x = np.exp(tau)
        self.tau, self.x = tau, x
        modes = _circle_modes(sz["max_modes"])
        # per mode: first non-constant Neumann eigenfunction phi_1 = J_nu(k_1 x)
        self.k1 = np.array([_neumann_roots(nu, 1)[0] for _l, nu in modes])
        self.phi = np.stack([special.jv(nu, k * x) for (_l, nu), k in zip(modes, self.k1)])
        self.c0 = rng.uniform(0.5, 1.0, len(modes)) * rng.choice([-1.0, 1.0], len(modes))
        self.amp = rng.uniform(0.5, 1.0, len(modes))
        self.omega = rng.uniform(5.0, 40.0, len(modes))
        self.phase = rng.uniform(0.0, 2.0 * math.pi, len(modes))
        self.const = float(rng.uniform(0.5, 1.5))   # steady constant on k=0
        vals = self.c0[:, None] * self.phi
        vals[0] += self.const
        self.u0 = RadialField(self.grid, self.cs.mode_table(sz["max_modes"]), vals,
                              n=self.cs.n, vol=self.cs.vol)
        self.hc = heat_solver.HeatConfig(cross_section=self.cs, grid=self.grid, T=sz["T"],
                                         dt=sz["dt"], outer_bc="neumann", theta=0.5,
                                         max_modes=sz["max_modes"], snapshot_every=1)
        # Bessel series oracle for the k=0 mode: constant plus Neumann terms
        self.series = rng.uniform(-1.0, 1.0, sz["oracle_terms"])
        self.series_ks = np.concatenate([[0.0], _neumann_roots(0, sz["oracle_terms"] - 1)])
        self.series_times = np.linspace(0.0, 0.1, sz["oracle_times"] + 1)[1:]
        self.spec = symbol_algebra.ConeOperatorSpec.laplacian(self.cs, sz["max_modes"])

    def forcing(self, t: float) -> np.ndarray:
        return (self.amp * np.cos(self.omega * t + self.phase))[:, None] * self.phi

    def exact_coeff(self, t: float) -> np.ndarray:
        """c' = -k^2 c + A cos(w t + p): exact solution of each modal ODE."""
        a, w, p = self.k1 ** 2, self.omega, self.phase
        part = lambda s: self.amp * (a * np.cos(w * s + p) + w * np.sin(w * s + p)) / (a * a + w * w)
        return (self.c0 - part(0.0)) * np.exp(-a * t) + part(t)

    def run(self, ledger: Ledger):
        traj = _call(ledger, "solve_heat", heat_solver.solve_heat, self.u0, self.forcing, self.hc)
        basis = _call(ledger, "enumerate_asymptotics", asymptotics.enumerate_asymptotics,
                      _call(ledger, "pole_set", symbol_algebra.pole_set, self.spec, GAMMA))
        track = _call(ledger, "decomposition_track", tip_analysis.decomposition_track,
                      traj, basis)
        series = [_call(ledger, "bessel_series_solution", heat_solver.bessel_series_solution,
                        self.series, 1, 0, t, self.x, "neumann")
                  for t in self.series_times]
        return traj, track, series

    def check(self, ledger: Ledger, result) -> dict:
        traj, track, series = result
        ok_len = len(traj.fields) == self.hc.n_steps + 1
        ledger.check("snapshot-count", ok_len, f"{len(traj.fields)} snapshots")
        T = traj.times[-1]
        want = self.exact_coeff(T)[:, None] * self.phi
        want[0] += self.const
        final = traj.final().values
        errs = [_rel_l2(final[i], want[i], self.tau) for i in range(len(want))]
        worst = max(errs)
        ledger.check("state-vs-modal-ode", worst <= 1e-3, f"per-mode rel L2 {errs}")
        jump = track.jumps.get((0j, 0, "k=0"), math.inf)
        ledger.check("k0-constant-jump", jump <= 1e-3, f"largest jump {jump:.3e}")
        x = self.x
        err = 0.0
        for t, got in zip(self.series_times, series):
            ref = sum(c * math.exp(-k * k * t) * (special.jv(0, k * x) if k else 1.0)
                      for c, k in zip(self.series, self.series_ks))
            err = max(err, float(np.max(np.abs(got - ref))))
        ledger.check("bessel-series-vs-scipy", err <= 5e-10, f"max abs diff {err:.3e}")
        return {"heat_solver.oracle_rel_err": worst}


WORKLOADS = {cls.name: cls for cls in (CliHeatTip, Powers, ForcedTrack)}
