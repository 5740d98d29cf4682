"""Tip-expansion fitting: idempotence, robustness, exponent detection."""

import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from conelab.asymptotics import AsymptoticsBasis, AsymptoticsTerm, enumerate_asymptotics
from conelab.cone_geometry import CrossSection
from conelab.errors import ConfigError, IllConditionedFitError
from conelab.heat_solver import HeatConfig, solve_heat
from conelab.mellin_sobolev import LogGrid, RadialField
from conelab.rational import QRat, root_to_complex
from conelab.symbol_algebra import ConeOperatorSpec, pole_set
from conelab import tip_analysis
from conelab.tip_analysis import (_decay_exponent, decomposition_track, default_window,
                                  fit_tip_expansion, fit_tip_series)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

CIRCLE = CrossSection.circle(length_over_pi=2)


def _circle_basis(gamma=Fraction(-1, 2), max_modes=2):
    spec = ConeOperatorSpec.laplacian(CIRCLE, max_modes)
    return enumerate_asymptotics(pole_set(spec, gamma))


def test_fit_idempotence_random_draws():
    g = LogGrid(-8.0, 513)
    basis = _circle_basis()
    rng = np.random.default_rng(21)
    for _ in range(100):
        u = RadialField.zeros(g, CIRCLE, 2)
        coeffs = {}
        for rho, m, mode in basis.terms:
            c = complex(rng.standard_normal(), rng.standard_normal())
            coeffs[(complex(rho.to_complex() if isinstance(rho, QRat) else rho), m, mode)] = c
            u.values[u.mode_index(mode)] += c * AsymptoticsTerm(rho, m, mode).evaluate(g.x)
        fit = fit_tip_expansion(u, basis)
        for (rho, m, mode), want in coeffs.items():
            assert abs(fit.coefficient(rho, m, mode) - want) < 1e-8
        assert fit.residual_norm < 1e-10


def test_fit_exact_synthesized_example():
    # 3.0 * constant + 0.5 * x^2-profile on a nu=2 mode (circle of
    # circumference pi, mode k=+1)
    cs = CrossSection.circle(length_over_pi=1)
    g = LogGrid(-8.0, 513)
    triples = ((QRat(0), 0, "k=0"), (QRat(-2), 0, "k=+1"))
    basis = AsymptoticsBasis(terms=triples, provenance=None)
    u = RadialField.zeros(g, cs, 2)
    u.values[u.mode_index("k=0")] = 3.0
    u.values[u.mode_index("k=+1")] = 0.5 * g.x ** 2
    fit = fit_tip_expansion(u, basis)
    assert abs(fit.coefficient(0.0, 0, "k=0") - 3.0) < 1e-8
    assert abs(fit.coefficient(-2.0, 0, "k=+1") - 0.5) < 1e-8


def test_fit_orthogonal_mode_zero():
    g = LogGrid(-8.0, 513)
    basis = _circle_basis()
    u = RadialField.zeros(g, CIRCLE, 2)
    u.values[u.mode_index("k=0")] = 1.0
    fit = fit_tip_expansion(u, basis)
    assert abs(fit.coefficient(1.0, 0, "k=+1")) < 1e-8
    assert abs(fit.coefficient(0.0, 0, "k=0") - 1.0) < 1e-10


def test_window_robustness_on_heat_run():
    cs = CrossSection.circle(length_over_pi=1)
    g = LogGrid(-8.0, 1025)
    x = g.x
    prof = np.zeros_like(x)
    m = (x > 0.4) & (x < 0.8)
    prof[m] = np.exp(-1.0 / ((x[m] - 0.4) * (0.8 - x[m])))
    u0 = RadialField.zeros(g, cs, 2)
    u0.values[0] = prof
    u0.values[1] = 0.5 * prof
    u0.values[2] = 0.5 * prof
    cfg = HeatConfig(cross_section=cs, grid=g, T=0.05, dt=2e-4,
                     outer_bc="dirichlet", theta=0.5, max_modes=2)
    final = solve_heat(u0, None, cfg).final()
    spec = ConeOperatorSpec.laplacian(cs, 2)
    basis = enumerate_asymptotics(pole_set(spec, Fraction(0)))
    fit_a = fit_tip_expansion(final, basis, window=(0.01, 0.125))
    fit_b = fit_tip_expansion(final, basis, window=(0.02, 0.25))
    ca = fit_a.coefficient(0.0, 0, "k=0")
    cb = fit_b.coefficient(0.0, 0, "k=0")
    assert abs(ca - cb) <= 0.02 * abs(ca)


def test_track_constant_steady_state():
    g = LogGrid(-8.0, 257)
    basis = _circle_basis(max_modes=1)
    u0 = RadialField.zeros(g, CIRCLE, 1)
    u0.values[0] = 1.0
    cfg = HeatConfig(cross_section=CIRCLE, grid=g, T=0.05, dt=1e-3,
                     outer_bc="neumann", theta=0.5, max_modes=1,
                     snapshot_every=10)
    traj = solve_heat(u0, None, cfg)
    track = decomposition_track(traj, basis)
    paths = [f.coefficient(0.0, 0, "k=0") for f in track.fits]
    assert all(abs(c - 1.0) < 1e-10 for c in paths)
    assert track.max_jump <= 1e-10


def test_track_zero_trajectory():
    g = LogGrid(-6.0, 129)
    basis = _circle_basis(max_modes=1)
    u0 = RadialField.zeros(g, CIRCLE, 1)
    cfg = HeatConfig(cross_section=CIRCLE, grid=g, T=0.02, dt=1e-3,
                     outer_bc="neumann", theta=0.5, max_modes=1,
                     snapshot_every=5)
    track = decomposition_track(solve_heat(u0, None, cfg), basis)
    assert track.max_jump == 0.0
    assert all(abs(c) == 0.0 for f in track.fits for c in
               [fc.c for fc in f.coefficients])


def _pairwise_jumps(fits):
    """The coefficient jumps by a loop over consecutive pairs of fits."""
    jumps = {}
    for a, b in zip(fits, fits[1:]):
        for fa, fb in zip(a.coefficients, b.coefficients):
            key = (fa.rho, fa.m, fa.mode)
            jumps[key] = max(jumps.get(key, 0.0), abs(fb.c - fa.c))
    return jumps


def test_track_jumps_match_the_pairwise_loop():
    g = LogGrid(-6.0, 129)
    basis = _circle_basis(max_modes=2)
    u0 = RadialField.zeros(g, CIRCLE, 2)
    u0.values[0] = np.cos(3.0 * g.x)
    u0.values[1] = g.x * (1.0 - g.x) + 0.5j * g.x
    u0.values[2] = 0.25 * g.x
    cfg = HeatConfig(cross_section=CIRCLE, grid=g, T=0.02, dt=1e-3,
                     outer_bc="neumann", theta=0.5, max_modes=2, snapshot_every=2)
    traj = solve_heat(u0, None, cfg)
    track = decomposition_track(traj, basis)
    want = _pairwise_jumps(track.fits)
    assert len(track.fits) > 2 and len(want) == len(basis.terms)
    assert list(track.jumps.items()) == list(want.items())
    assert track.max_jump == max(want.values()) > 0.0
    for n in (0, 1):
        one = decomposition_track(SimpleNamespace(fields=traj.fields[:n], times=traj.times[:n]),
                                  basis)
        assert (one.jumps, one.max_jump) == ({}, 0.0)


def test_ill_conditioned_window_rejected():
    g = LogGrid(-8.0, 513)
    # two nearly identical exponents make the design singular on any window
    triples = ((QRat(0), 0, "k=0"), (complex(1e-13, 0.0), 0, "k=0"))
    basis = AsymptoticsBasis(terms=triples, provenance=None)
    u = RadialField.zeros(g, CIRCLE, 1)
    u.values[0] = 1.0
    with pytest.raises(IllConditionedFitError):
        fit_tip_expansion(u, basis)


def test_window_validation():
    g = LogGrid(-6.0, 129)
    basis = _circle_basis(max_modes=1)
    u = RadialField.zeros(g, CIRCLE, 1)
    with pytest.raises(ConfigError):
        fit_tip_expansion(u, basis, window=(0.5, 0.4))
    with pytest.raises(ConfigError):
        fit_tip_expansion(u, basis, window=(0.01, 0.3))


# -- the batched fitter against a per-snapshot reference ------------------------

def _reference_decay(x, r, floor):
    """Scalar two-bin median slope, one residual at a time."""
    mag = np.abs(r)
    keep = mag > max(3.0 * floor, 1e-300)
    if keep.sum() < 6:
        if float(mag.max(initial=0.0)) <= max(3.0 * floor, 1e-300):
            return math.inf
        keep = mag > 1e-300
        if keep.sum() < 6:
            return math.inf
    xs, rm = x[keep], mag[keep]
    gm = math.sqrt(xs[0] * xs[-1])
    lo, hi = xs <= gm, xs > gm
    if lo.sum() < 2 or hi.sum() < 2:
        return 0.0
    num = math.log(float(np.median(rm[hi]))) - math.log(float(np.median(rm[lo])))
    return num / float(np.mean(np.log(xs[hi])) - np.mean(np.log(xs[lo])))


def _reference_fit(snapshot, basis, window=None):
    """One snapshot: weighted np.linalg.lstsq per mode, scalar decay rule."""
    x_a, x_b = window or default_window(snapshot.grid)
    idx = tip_analysis._log_spaced_subsample(snapshot.grid.window_indices(x_a, x_b), 200)
    x = snapshot.grid.x[idx]
    inner = x <= math.sqrt(x_a * x_b)
    coefficients, exponents, floors, inner_res = [], {}, [], []
    res_sq, worst = 0.0, 1.0
    for i, mode in enumerate(snapshot.modes):
        terms = basis.for_mode(mode.label)
        y = snapshot.values[i, idx]
        floor, residual = 0.0, y
        if terms:
            A = np.stack([np.exp(-root_to_complex(rho) * np.log(x)) * np.log(x) ** m
                          for rho, m, _lbl in terms], axis=1)
            sub = x <= x_a * (x_b / x_a) ** 0.25
            if sub.sum() < 2 * len(terms) + 2:
                sub = np.ones_like(sub)
            ymax = np.abs(y[sub]).max()
            w = np.ones(sub.sum()) if ymax == 0 else 1 / np.maximum(np.abs(y[sub]), 1e-3 * ymax)
            sv = np.linalg.svd(A[sub] * w[:, None], compute_uv=False)
            cond = sv[0] / sv[-1]
            worst = max(worst, cond)
            if cond > tip_analysis.COND_LIMIT:
                raise IllConditionedFitError(f"design condition {cond:.2e} on mode "
                                             f"{mode.label}; shift or shrink the fit window")
            c = np.linalg.lstsq(A[sub] * w[:, None], y[sub] * w, rcond=None)[0]
            residual = y - A @ c
            floor = float(np.sqrt(np.mean(np.abs(residual[sub]) ** 2)))
            coefficients += [((root_to_complex(rho), m, mode.label), cv)
                             for (rho, m, _lbl), cv in zip(terms, c)]
        res_sq += float(np.sum(np.abs(residual) ** 2))
        exponents[mode.label] = _reference_decay(x[inner], residual[inner], floor)
        floors.append(floor)
        inner_res.append(residual[inner])
    total = np.sqrt(np.sum(np.abs(np.stack(inner_res)) ** 2, axis=0))
    overall = _reference_decay(x[inner], total, math.sqrt(sum(f * f for f in floors)))
    return coefficients, math.sqrt(res_sq), overall, exponents, worst


def _assert_exponent_close(got, want):
    if math.isfinite(want):
        assert abs(got - want) <= 1e-8
    else:
        assert got == want


def _assert_matches_reference(fit, snapshot, basis, window=None):
    coefficients, res, overall, exponents, cond = _reference_fit(snapshot, basis, window)
    assert [(fc.rho, fc.m, fc.mode) for fc in fit.coefficients] == [k for k, _c in coefficients]
    scale = max([abs(c) for _k, c in coefficients], default=0.0)
    for fc, (_k, want) in zip(fit.coefficients, coefficients):
        assert abs(fc.c - want) <= 1e-12 * scale
    assert abs(fit.residual_norm - res) <= 1e-10 * res
    _assert_exponent_close(fit.residual_decay_exponent, overall)
    assert list(fit.mode_residual_exponents) == list(exponents)
    for label, want in exponents.items():
        _assert_exponent_close(fit.mode_residual_exponents[label], want)
    assert abs(fit.condition - cond) <= 1e-8 * cond


def _series(g, count, seed, basis):
    """Fields of basis terms plus unmodeled x^1.5 and x^2 log x parts, with one zero field.

    The unmodeled part is large enough that the residual is no cancellation of
    the 1/x columns down to rounding, so its exponent is well determined.
    """
    rng = np.random.default_rng(seed)
    fields = []
    for k in range(count):
        u = RadialField.zeros(g, CIRCLE, 2)
        if k != 1:
            for rho, m, mode in basis.terms:
                u.values[u.mode_index(mode)] += (rng.standard_normal() *
                                                 AsymptoticsTerm(rho, m, mode).evaluate(g.x))
            u.values += 100.0 * rng.standard_normal((len(u.modes), 1)) * g.x ** 1.5
            u.values[-1] = rng.standard_normal() * g.x ** 2 * np.log(g.x)
        fields.append(u)
    return fields


def test_series_matches_per_snapshot_reference():
    g = LogGrid(-8.0, 513)
    full = _circle_basis()
    fields = _series(g, 6, 3, full)
    # the last mode gets no basis terms: its whole field is residual
    last = fields[0].modes[-1].label
    basis = AsymptoticsBasis(terms=tuple(t for t in full.terms if t[2] != last),
                             provenance=None)
    fits = fit_tip_series(fields, basis, times=[0.1 * k for k in range(6)])
    assert [f.t for f in fits] == [0.1 * k for k in range(6)]
    for fit, u in zip(fits, fields):
        _assert_matches_reference(fit, u, basis)
    zero = fits[1]                # the all-zero field: zero fit, nothing above resolution
    assert all(fc.c == 0 for fc in zero.coefficients) and zero.residual_norm == 0.0
    assert zero.residual_decay_exponent == math.inf


def test_series_longer_than_a_chunk_equals_single_fits(monkeypatch):
    g = LogGrid(-8.0, 513)
    basis = _circle_basis()
    fields = _series(g, 7, 5, basis)
    monkeypatch.setattr(tip_analysis, "_FIT_ENTRIES", 2 * 5 * 200)   # two fields a chunk
    fits = fit_tip_series(fields, basis, window=(0.001, 0.1))
    monkeypatch.undo()
    assert len(fits) == 7
    for fit, u in zip(fits, fields):
        assert fit == fit_tip_series([u], basis, window=(0.001, 0.1))[0]
        _assert_matches_reference(fit, u, basis, (0.001, 0.1))


def test_decay_exponent_rules_match_scalar_reference():
    x = np.geomspace(1e-3, 1e-1, 40)
    rng = np.random.default_rng(8)
    rows, floors = [], []
    rows.append(x ** 2.5); floors.append(0.0)                       # plain slope
    rows.append(np.full(40, 1e-9)); floors.append(1e-9)             # below its floor: inf
    r = np.full(40, 1e-12); r[:3] = 10.0; rows.append(r); floors.append(0.4)  # <6 above: fallback
    r = np.zeros(40); r[[3, 9, 17]] = 1.0; rows.append(r); floors.append(0.0)  # <6 nonzero: inf
    r = np.zeros(40); r[[0, 30, 31, 32, 33, 34, 35]] = 1.0
    rows.append(r); floors.append(0.0)                              # lower half of 1: 0.0
    for k in range(20):                                             # odd and even counts, ties
        r = np.abs(rng.standard_normal(40)) * x ** rng.uniform(0, 3)
        r[rng.random(40) < 0.3] = 0.0
        r[5] = r[6]
        rows.append(r); floors.append(float(rng.choice([0.0, 1e-6, 1e-3])))
    got = _decay_exponent(x, np.array(rows), np.array(floors))
    want = [_reference_decay(x, r, f) for r, f in zip(rows, floors)]
    assert want[1] == math.inf and want[3] == math.inf and want[4] == 0.0
    assert math.isfinite(want[2])
    for g_, w_ in zip(got, want):
        if math.isfinite(w_):
            assert abs(g_ - w_) <= 1e-12 * max(1.0, abs(w_))
        else:
            assert g_ == w_


def test_ill_conditioned_series_names_first_field_and_mode():
    g = LogGrid(-8.0, 513)
    triples = ((QRat(0), 0, "k=0"), (QRat(-2), 0, "k=+1"), (complex(-2 + 1e-13, 0.0), 0, "k=+1"))
    basis = AsymptoticsBasis(terms=triples, provenance=None)
    fields = _series(g, 3, 2, _circle_basis())
    with pytest.raises(IllConditionedFitError) as want:
        _reference_fit(fields[0], basis)
    with pytest.raises(IllConditionedFitError) as got:
        fit_tip_series(fields, basis)
    assert str(got.value) == str(want.value)
    assert "on mode k=+1;" in str(got.value)


@pytest.mark.parametrize("window", [(0.01, 0.05, 0.1), ("a", "b"), (0.01,), "0.01", "01",
                                    (0.01, math.nan), (True, 0.1)])
def test_malformed_window_is_config_error(window):
    u = RadialField.zeros(LogGrid(-6.0, 129), CIRCLE, 1)
    with pytest.raises(ConfigError, match="fit window"):
        fit_tip_series([u], _circle_basis(max_modes=1), window=window)
