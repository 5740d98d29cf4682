"""Acceptance suite: every criterion as a callable check with one-line verdicts.

The CLI `verify` subcommand and tests/test_acceptance.py both run these.
Each criterion pins its tolerances here; nothing is deferred to later
calibration.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .asymptotics import AsymptoticsTerm, apply_operator_power, enumerate_asymptotics
from .cone_geometry import CrossSection, indicial_roots_closed_form, weight_window
from .errors import ConelabError, ConfigError
from .heat_solver import (HeatConfig, assemble_mode_operator,
                          bessel_series_solution, relative_l2_error, solve_heat)
from .mellin_sobolev import LogGrid, RadialField
from .operators import OperatorMatrix
from .power_calculus import (PowerProbeConfig, complex_power, eig_power_oracle, power_route,
                             power_domain_probe, sectorial_probe)
from .rational import QRat
from .symbol_algebra import ConeOperatorSpec, pole_set, pole_set_power
from .tip_analysis import decomposition_track, fit_tip_series


@dataclass
class CriterionResult:
    name: str
    passed: bool
    elapsed: float
    budget: float
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name} ({self.elapsed:.2f}s / budget {self.budget:.0f}s): {self.detail}"


def _run(name: str, budget: float, fn) -> CriterionResult:
    t0 = time.perf_counter()
    try:
        ok, detail = fn()
    except ConelabError as exc:
        ok, detail = False, f"error: {exc}"
    except AssertionError as exc:
        ok, detail = False, f"assertion: {exc}"
    elapsed = time.perf_counter() - t0
    if ok and elapsed > budget:
        ok = False
        detail += f" (runtime {elapsed:.1f}s exceeded budget {budget}s)"
    return CriterionResult(name, ok, elapsed, budget, detail)


# -- 1: pole formula reproduction through the CLI ----------------------------

_POLE_CASES = [
    ("circle", Fraction(2), Fraction(-1, 2)),
    ("circle", Fraction(1), Fraction(0)),
    ("circle", Fraction(4), Fraction(-3, 4)),
    ("sphere", 2, Fraction(0)),
]


def _closed_form_poles(cs: CrossSection, gamma: Fraction, max_modes: int):
    """Roots (n-1)/2 +/- nu per mode, strip filtered; orders merged at 0."""
    left = Fraction(cs.n + 1, 2) - gamma - 2
    right = Fraction(cs.n + 1, 2) - gamma
    out = {}
    for mode in cs.mode_table(max_modes):
        keep = {}
        for r in indicial_roots_closed_form(cs.n, mode.eigenvalue):
            rf = float(r)
            if float(left) - 1e-12 <= rf < float(right) - 1e-12:
                key = min(keep, key=lambda k: abs(k - rf), default=None)
                if key is not None and abs(key - rf) < 1e-9:
                    keep[key] += 1
                else:
                    keep[rf] = 1
        out[mode.label] = {r: o - 1 for r, o in keep.items()}
    return out


def _silent_cli(argv: list[str]) -> int:
    """The CLI exit code for argv, its stdout dropped and CONELAB_OUTDIR ignored.

    The files go where argv names them, never into the user's output directory.
    """
    from .cli import main as cli_main

    outdir = os.environ.pop("CONELAB_OUTDIR", None)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli_main(argv)
    finally:
        if outdir is not None:
            os.environ["CONELAB_OUTDIR"] = outdir


def criterion_poles() -> tuple[bool, str]:
    worst = 0.0
    checks = 0
    with tempfile.TemporaryDirectory() as td:
        for kind, param, gamma in _POLE_CASES:
            cfgp = Path(td) / "cfg.json"
            outp = Path(td) / "poles.csv"
            cs_block = {"kind": "circle", "L_over_pi": str(param)} if kind == "circle" \
                else {"kind": "sphere", "n": param}
            cfgp.write_text(json.dumps({
                "cross_section": cs_block,
                "operator": {"preset": "laplacian", "max_modes": 4},
                "gamma": float(gamma)}))
            rc = _silent_cli(["poles", "--config", str(cfgp), "--out", str(outp)])
            if rc != 0:
                return False, f"CLI exit {rc} on {kind} {param}"
            cs = CrossSection.circle(length_over_pi=param) if kind == "circle" \
                else CrossSection.sphere(param)
            want = _closed_form_poles(cs, gamma, 4)
            got: dict = {lbl: {} for lbl in want}
            import csv as _csv
            with open(outp) as fh:
                for row in _csv.DictReader(fh):
                    if row["in_strip"] != "true":
                        continue
                    got[row["mode"]][float(row["re_rho"])] = int(row["max_log_power"])
                    if abs(float(row["im_rho"])) > 1e-12:
                        return False, f"complex pole reported for {kind} {param}"
            for lbl in want:
                if len(want[lbl]) != len(got.get(lbl, {})):
                    return False, (f"{kind} {param} mode {lbl}: expected poles "
                                   f"{sorted(want[lbl])} got {sorted(got.get(lbl, {}))}")
                for r, mlp in want[lbl].items():
                    match = min(got[lbl], key=lambda g: abs(g - r))
                    worst = max(worst, abs(match - r))
                    if abs(match - r) > 1e-12:
                        return False, f"{kind} {param} mode {lbl}: pole {match} vs {r}"
                    if got[lbl][match] != mlp:
                        return False, (f"{kind} {param} mode {lbl} pole {r}: log power "
                                       f"{got[lbl][match]} vs {mlp}")
                    checks += 1
    return True, f"{checks} pole/log-power matches across 4 presets, worst |err| = {worst:.2e}"


# -- 2: weight windows --------------------------------------------------------

def criterion_weight_window() -> tuple[bool, str]:
    win_s2 = weight_window(CrossSection.sphere(2))
    win_c = weight_window(CrossSection.circle(length_over_pi=2))
    errs = [abs(win_s2.lo + 0.5), abs(win_s2.hi - 0.5),
            abs(win_c.lo + 1.0), abs(win_c.hi - 0.0)]
    ok = max(errs) <= 1e-12
    return ok, f"S2 window ({win_s2.lo}, {win_s2.hi}), circle window ({win_c.lo}, {win_c.hi}), worst err {max(errs):.2e}"


# -- 3: indicial annihilation oracle ------------------------------------------

def criterion_annihilation() -> tuple[bool, str]:
    cases = [(CrossSection.circle(length_over_pi=2), Fraction(-1, 2)),
             (CrossSection.sphere(2), Fraction(0))]
    n_terms = 0
    for cs, gamma in cases:
        spec = ConeOperatorSpec.laplacian(cs, 6)
        ps = pole_set(spec, gamma)
        if not ps.exact:
            return False, "pole set fell back to float arithmetic"
        for rho, m, mode in enumerate_asymptotics(ps).terms:
            out = apply_operator_power(spec, AsymptoticsTerm(rho, m, mode), 1)
            if out:
                return False, f"pole_set term ({rho},{m},{mode}) not annihilated: {out}"
            n_terms += 1
        ps2 = pole_set_power(spec, gamma, 2)
        if not ps2.exact:
            return False, "power pole set fell back to float arithmetic"
        for rho, m, mode in enumerate_asymptotics(ps2).terms:
            out = apply_operator_power(spec, AsymptoticsTerm(rho, m, mode), 2)
            if out:
                return False, f"power term ({rho},{m},{mode}) survives A^2: {out}"
            n_terms += 1
    return True, f"{n_terms} basis terms annihilated exactly in rational arithmetic"


# -- 4: solver vs Bessel oracle ------------------------------------------------

def _heat_oracle_error(tau_min: float, J: int, dt: float, coeffs, t_final: float = 0.1) -> float:
    cs = CrossSection.circle(length_over_pi=2)
    g = LogGrid(tau_min, J)
    u0 = RadialField.zeros(g, cs, 1)
    u0.values[0] = bessel_series_solution(coeffs, 1, 0, 0.0, g.x, "dirichlet")
    cfg = HeatConfig(cross_section=cs, grid=g, T=t_final, dt=dt,
                     outer_bc="dirichlet", theta=0.5, max_modes=1)
    traj = solve_heat(u0, None, cfg)
    oracle = u0.copy()
    oracle.values[0] = bessel_series_solution(coeffs, 1, 0, t_final, g.x, "dirichlet")
    return relative_l2_error(traj.final(), oracle)


def criterion_solver_oracle() -> tuple[bool, str]:
    coeffs = [1.0, 0.5]
    err_main = _heat_oracle_error(-8.0, 512, 1e-4, coeffs)
    if err_main > 1e-4:
        return False, f"relative L2 error {err_main:.3e} > 1e-4 at J=512, dt=1e-4"
    es = [_heat_oracle_error(-8.0, J, 2.5e-5, coeffs) for J in (129, 257, 513)]
    sp_orders = [math.log2(es[i] / es[i + 1]) for i in range(2)]
    et = [_heat_oracle_error(-8.0, 2049, dt, coeffs) for dt in (5e-3, 2.5e-3, 1.25e-3)]
    tm_orders = [math.log2(et[i] / et[i + 1]) for i in range(2)]
    orders = sp_orders + tm_orders
    if not all(1.7 <= o <= 2.3 for o in orders):
        return False, f"observed orders outside [1.7, 2.3]: spatial {sp_orders}, temporal {tm_orders}"
    return True, (f"error {err_main:.2e} <= 1e-4; spatial orders "
                  f"{[f'{o:.2f}' for o in sp_orders]}, temporal {[f'{o:.2f}' for o in tm_orders]}")


# -- 5: steady constant preservation -------------------------------------------

def criterion_steady_constant() -> tuple[bool, str]:
    cs = CrossSection.circle(length_over_pi=2)
    g = LogGrid(-8.0, 257)
    u0 = RadialField.zeros(g, cs, 2)
    u0.values[u0.mode_index("k=0")] = 1.0
    cfg = HeatConfig(cross_section=cs, grid=g, T=0.1, dt=1e-3, outer_bc="neumann",
                     theta=0.5, max_modes=2, snapshot_every=10)
    traj = solve_heat(u0, None, cfg)
    worst = float(np.max(np.abs(traj.values[:, u0.mode_index("k=0")] - 1.0)))
    ok = worst <= 1e-10
    return ok, f"{len(traj.times)} snapshots, max deviation from 1 is {worst:.2e}"


# -- 6: tip exponents of the heat run -------------------------------------------

def _bump(x, a, b):
    out = np.zeros_like(x)
    m = (x > a) & (x < b)
    out[m] = np.exp(-1.0 / ((x[m] - a) * (b - x[m])))
    return out / np.max(out[m]) if np.any(m) else out


def criterion_tip_exponent() -> tuple[bool, str]:
    cs = CrossSection.circle(length_over_pi=1)       # circumference pi
    gamma = Fraction(0)
    g = LogGrid(-8.0, 1025)
    spec = ConeOperatorSpec.laplacian(cs, 2)
    u0 = RadialField.zeros(g, cs, 2)
    prof = _bump(g.x, 0.4, 0.8)
    u0.values[u0.mode_index("k=0")] = prof
    u0.values[u0.mode_index("k=+1")] = 0.5 * prof
    u0.values[u0.mode_index("k=-1")] = 0.5 * prof
    cfg = HeatConfig(cross_section=cs, grid=g, T=0.05, dt=1e-4,
                     outer_bc="dirichlet", theta=0.5, max_modes=2)
    traj = solve_heat(u0, None, cfg)
    window = (0.01, 0.125)
    basis1 = enumerate_asymptotics(pole_set(spec, gamma))
    final = traj.values[-1:]                          # the stack of the last snapshot
    expo1 = fit_tip_series(final, g, traj.modes, basis1, window=window).exponents["k=+1"][0]
    if abs(expo1 - 2.0) > 0.02:
        return False, f"mode k=+1 residual exponent {expo1:.4f} not within 1% of 2"
    basis2 = enumerate_asymptotics(pole_set_power(spec, gamma, 2))
    expo2 = fit_tip_series(final, g, traj.modes, basis2, window=window).exponents["k=+1"][0]
    if expo2 - expo1 < 1.5:
        return False, (f"enlarged basis raised the exponent only {expo1:.3f} -> {expo2:.3f} "
                       "(needs >= 1.5 increase)")
    return True, (f"mode k=+1 exponent {expo1:.4f} (target 2 +/- 1%), enlarged basis "
                  f"-> {expo2:.4f} (increase {expo2 - expo1:.2f} >= 1.5)")


# -- 7: decomposition preservation ----------------------------------------------

def criterion_decomposition() -> tuple[bool, str]:
    cs = CrossSection.circle(length_over_pi=2)
    gamma = Fraction(-1, 2)
    g = LogGrid(-8.0, 513)
    spec = ConeOperatorSpec.laplacian(cs, 2)
    # neumann zero-mode basis starts with the k=0 constant branch, so the
    # coefficients below mean: 1 + first nonconstant eigenfunction
    u0 = RadialField.zeros(g, cs, 1)
    u0.values[0] = bessel_series_solution([1.0, 1.0], 1, 0, 0.0, g.x, "neumann")
    cfg = HeatConfig(cross_section=cs, grid=g, T=0.1, dt=5e-5, outer_bc="neumann",
                     theta=0.5, max_modes=1, snapshot_every=1)
    traj = solve_heat(u0, None, cfg)
    basis = enumerate_asymptotics(pole_set(spec, gamma))
    track = decomposition_track(traj, basis)
    jump = track.jumps.get((0j, 0, "k=0"), 0.0)
    if jump > 1e-3:
        return False, f"constant-coefficient jump {jump:.2e} > 1e-3 between snapshots"
    times = [0.01 * i for i in range(1, 11)]
    idx = [min(range(len(traj.times)), key=lambda j: abs(traj.times[j] - t)) for t in times]
    for t, k in zip(times, idx):
        if abs(traj.times[k] - t) > 1e-9:
            return False, f"sample time {t} missing from the trajectory"
    # the oracle at the ten times, fitted as one stack; Python complex, as abs() below reads
    oracle = np.stack([bessel_series_solution([1.0, 1.0], 1, 0, t, g.x, "neumann") for t in times])
    c_o = fit_tip_series(oracle[:, None], g, traj.modes, basis).coefficient(0.0, 0, "k=0").tolist()
    path = track.coefficient(0.0, 0, "k=0").tolist()
    worst = max(abs(path[k] - c) for k, c in zip(idx, c_o))
    ok = worst <= 1e-3
    return ok, (f"constant path vs oracle at 10 times: worst |diff| = {worst:.2e}; "
                f"max consecutive jump {jump:.2e}")


# -- 8: complex powers -------------------------------------------------------------

def criterion_complex_powers() -> tuple[bool, str]:
    rng = np.random.default_rng(2024)
    dirichlet = (-assemble_mode_operator(1, 0, LogGrid(-4.0, 33), "dirichlet")).shifted(1.0)
    worst = np.zeros((2, 2))       # rows symmetrizable, Dirichlet; columns oracle, semigroup
    routes = set()
    for _ in range(20):
        # real bands, products dl[j+1]*du[j] > 0; S diagonally dominant, so mu >= 0.5
        lo, hi = rng.choice([-1.0, 1.0], 7) * rng.uniform(0.5, 2.0, (2, 7))
        e = np.r_[0.0, np.sqrt(lo * hi), 0.0]
        tri = OperatorMatrix.tridiag(np.r_[0.0, lo], e[:-1] + e[1:] + rng.uniform(0.5, 1.5, 8),
                                     np.r_[hi, 0.0])
        z1 = complex(-rng.uniform(0.1, 0.9), rng.uniform(-0.3, 0.3))
        z2 = complex(-rng.uniform(0.1, 0.9), rng.uniform(-0.3, 0.3))
        routes.add(power_route(tri)[0])
        for row, M in enumerate((tri, dirichlet)):
            P1, P2, P12 = (complex_power(M, z).data for z in (z1, z2, z1 + z2))
            worst[row] = np.maximum(worst[row], [np.max(np.abs(P1 - eig_power_oracle(M, z1))),
                                                 np.max(np.abs(P1 @ P2 - P12))])
    routes = (*routes, power_route(dirichlet)[0])
    scalar = complex_power(OperatorMatrix.tridiag([0.0], [2.0], [0.0]), -0.5).data[0, 0]
    scalar_err = abs(scalar - 2.0 ** -0.5)
    ok = routes == ("spectral", "quadrature") and float(worst.max()) <= 1e-7 and scalar_err <= 1e-8
    (so, ss), (qo, qs) = worst
    return ok, (f"symmetrizable tridiagonal ({routes[0]}) oracle err {so:.2e}, semigroup err "
                f"{ss:.2e}; Dirichlet mode ({routes[-1]}) oracle err {qo:.2e}, semigroup err "
                f"{qs:.2e}; all <= 1e-7; scalar [2]^-1/2 err {scalar_err:.2e} <= 1e-8")


# -- 9: power-domain membership -------------------------------------------------

def _bump_field(x):
    out = np.zeros_like(x)
    m = (x > 0.2) & (x < 0.8)
    out[m] = np.exp(-1.0 / ((x[m] - 0.2) * (0.8 - x[m])))
    return out


def criterion_power_domain() -> tuple[bool, str]:
    cs = CrossSection.circle(length_over_pi=2)
    verdicts = []
    for base in ((-3.0, 161), (-4.0, 161)):
        tau_min, points = base
        pc0 = PowerProbeConfig(cross_section=cs, mode_label="k=0", gamma=-0.5,
                               shift=1.0, tau_min=tau_min, points=points)
        pc1 = PowerProbeConfig(cross_section=cs, mode_label="k=+1", gamma=-0.5,
                               shift=1.0, tau_min=tau_min, points=points)
        for z in (0.25, 0.5, 0.9):
            r = power_domain_probe(AsymptoticsTerm(QRat(0), 0, "k=0"), z, pc0)
            verdicts.append(("constant", z, base, r.verdict, "member"))
        r = power_domain_probe(AsymptoticsTerm(QRat(1), 0, "k=+1"), 0.9, pc1)
        verdicts.append(("x^-1", 0.9, base, r.verdict, "non-member"))
        r = power_domain_probe(_bump_field, 0.9, pc0)
        verdicts.append(("bump", 0.9, base, r.verdict, "member"))
    bad = [v for v in verdicts if v[3] != v[4]]
    if bad:
        return False, f"wrong verdicts: {bad}"
    return True, f"{len(verdicts)} verdicts correct across two refinement ladders"


# -- 10: sectoriality probe -------------------------------------------------------

def criterion_sectorial() -> tuple[bool, str]:
    cs = CrossSection.circle(length_over_pi=2)
    theta, c = 0.75 * math.pi, 1.0
    Ks = []
    eig_errs = []
    for J in (257, 513):
        g = LogGrid(-6.0, J)
        M = (-assemble_mode_operator(1, 0, g, "neumann")).shifted(c)
        report = sectorial_probe(M, theta, n_samples=200)
        Ks.append(report.K)
        # the constant is an exact eigenvector of the k=0 Neumann operator with
        # eigenvalue 0, so the smallest |eigenvalue| of c - L is c itself
        eig_errs.append(abs(report.min_abs_eig - c) / c)
        if eig_errs[-1] > 1e-9:
            return False, f"min|eig| = {report.min_abs_eig!r} is not the shift c={c} at J={J}"
        if not math.isfinite(report.K):
            return False, f"unbounded K at J={J}"
    rel = abs(Ks[1] - Ks[0]) / Ks[0]
    ok = rel <= 0.10
    return ok, (f"shift c={c}, K={Ks[1]:.4f}, "
                f"min|eig| = c to {max(eig_errs):.1e} <= 1e-9, "
                f"grid-halving stability {100 * rel:.2f}% <= 10%")


_CRITERIA = [
    ("poles", 1.0, criterion_poles),
    ("weight-window", 1.0, criterion_weight_window),
    ("annihilation", 5.0, criterion_annihilation),
    ("solver-oracle", 60.0, criterion_solver_oracle),
    ("steady-constant", 10.0, criterion_steady_constant),
    ("tip-exponent", 120.0, criterion_tip_exponent),
    ("decomposition", 60.0, criterion_decomposition),
    ("complex-powers", 10.0, criterion_complex_powers),
    ("power-domain", 60.0, criterion_power_domain),
    ("sectorial", 30.0, criterion_sectorial),
]


def run_suite(suite: str = "all") -> list[CriterionResult]:
    """Run the selected criteria ('all' or a comma list of names).

    An unknown name is a ConfigError naming every unknown one; nothing runs.
    """
    known = [name for name, _, _ in _CRITERIA]
    wanted = (known if suite in ("all", "", None)
              else [s.strip() for s in suite.split(",") if s.strip()])
    unknown = [name for name in wanted if name not in known]
    if unknown or not wanted:
        raise ConfigError(f"suite {suite!r} names unknown criteria {unknown}; known: {known}")
    return [_run(name, budget, fn) for name, budget, fn in _CRITERIA if name in wanted]


def print_table(results: list[CriterionResult]):
    for r in results:
        print(r.line())
    n_pass = sum(r.passed for r in results)
    print(f"{n_pass}/{len(results)} criteria passed")
