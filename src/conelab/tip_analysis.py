"""Near-tip expansion extraction and decomposition tracking.

Snapshots are fitted per mode against the predicted power-log columns
x^{-rho} log^m x over an inner window; what the fit cannot explain is the
residual, whose log-log slope against x estimates the next exponent in the
expansion. Tracking the fitted coefficients along a trajectory is how the
package observes that the singular-part decomposition survives the
evolution.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .asymptotics import AsymptoticsBasis
from .errors import ConfigError, IllConditionedFitError
from .mellin_sobolev import RadialField
from .rational import root_to_complex

MAX_FIT_POINTS = 200
COND_LIMIT = 1e10
# window samples (fields x modes x points) fitted in one batch. tracemalloc
# puts a chunk's peak at 33-38 bytes a sample: the 16-byte sample, its weight
# and the stacked SVD factors of one mode (3 modes, 109 points), so 2**13
# samples stay near 300 KiB, well within 512 KiB. Larger chunks cut the
# per-chunk overhead but raised the process's peak RSS, so none are taken
_FIT_ENTRIES = (512 << 10) // 64


@dataclass
class FitCoefficient:
    rho: complex
    m: int
    mode: str
    c: complex


@dataclass
class TipFit:
    t: float
    coefficients: list            # FitCoefficient entries
    window: tuple                 # (x_a, x_b)
    residual_norm: float
    residual_decay_exponent: float
    mode_residual_exponents: dict  # label -> slope of log|residual| vs log x
    condition: float

    def coefficient(self, rho, m: int, mode: str) -> complex:
        for fc in self.coefficients:
            if fc.mode == mode and fc.m == m and abs(fc.rho - complex(rho)) < 1e-9:
                return fc.c
        raise ConfigError(f"no fitted coefficient for ({rho}, {m}, {mode})")


def default_window(grid) -> tuple[float, float]:
    """Stay above the truncation closure and below the outer boundary."""
    return (4.0 * math.exp(grid.tau_min), 0.125)


def _log_spaced_subsample(idx: np.ndarray, limit: int) -> np.ndarray:
    if idx.size <= limit:
        return idx
    pick = np.unique(np.geomspace(1, idx.size, limit).astype(int) - 1)
    return idx[pick]


def _decay_exponent(x: np.ndarray, mag: np.ndarray, floor: np.ndarray) -> np.ndarray:
    """Robust slope of log|r| against log x above a resolution floor, row by row.

    Two-bin median estimator: the slope between the median magnitudes of the
    lower and upper halves of the log range. Immune to isolated residual
    zero crossings that wreck a plain regression. ``mag`` holds one |r| per
    row on the ascending abscissae ``x``, ``floor`` one floor per row. A row
    with fewer than 6 points above its floor falls back to every point above
    1e-300; it reads inf when its residual sits fully below the floor or is
    still too sparse, and 0.0 when a half keeps fewer than 2 points.
    """
    thr = np.maximum(3.0 * floor, 1e-300)
    keep = mag > thr[:, None]
    few = keep.sum(axis=1) < 6
    keep[few] = mag[few] > 1e-300
    count = keep.sum(axis=1)
    out = np.where((few & (mag.max(axis=1, initial=0.0) <= thr)) | (count < 6),
                   math.inf, 0.0)
    first = np.argmax(keep, axis=1)
    last = x.size - 1 - np.argmax(keep[:, ::-1], axis=1)
    gm = np.sqrt(x[first] * x[last])[:, None]
    lo, hi = keep & (x <= gm), keep & (x > gm)
    n_lo, n_hi = lo.sum(axis=1), hi.sum(axis=1)
    rows = np.flatnonzero(np.isfinite(out) & (n_lo >= 2) & (n_hi >= 2))
    mag, lo, hi, n_lo, n_hi = mag[rows], lo[rows], hi[rows], n_lo[rows], n_hi[rows]
    log_x = np.log(x)
    out[rows] = ((np.log(_median(mag, hi, n_hi)) - np.log(_median(mag, lo, n_lo)))
                 / (np.where(hi, log_x, 0.0).sum(axis=1) / n_hi
                    - np.where(lo, log_x, 0.0).sum(axis=1) / n_lo))
    return out


def _median(values: np.ndarray, mask: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Per-row median of the masked entries, equal to np.median bit for bit."""
    ordered = np.where(mask, values, math.inf)
    ordered.sort(axis=1)
    rows = np.arange(len(values))
    return 0.5 * (ordered[rows, (count - 1) // 2] + ordered[rows, count // 2])


def _fit_window(grid, window) -> tuple[float, float]:
    """The window as two floats (default_window if None), checked against the grid."""
    if window is None:
        return default_window(grid)
    try:
        x_a, x_b = window
    except (TypeError, ValueError):
        raise ConfigError(f"fit window {window!r} must be two numbers [x_a, x_b]") from None
    if not all(isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)
               for v in (x_a, x_b)):
        raise ConfigError(f"fit window {window!r} must be two finite numbers")
    x_a, x_b = float(x_a), float(x_b)
    if not (math.exp(grid.tau_min) < x_a < x_b):
        raise ConfigError(f"window [{x_a}, {x_b}] must sit inside the grid")
    if x_b > 0.25 + 1e-12:
        raise ConfigError("window must stay at or below x = 1/4")
    return x_a, x_b


def fit_tip_series(fields, basis: AsymptoticsBasis, window: tuple[float, float] | None = None,
                   times=None) -> list[TipFit]:
    """Fit the basis terms to every field over one window, per mode.

    Coefficients come from a relative-error weighted least-squares solve on
    the inner quarter (log scale) of the window: an asymptotic expansion is
    an x -> 0 statement, and estimating there keeps coefficients from
    absorbing the next, not-yet-modeled exponent. The residual is formed
    over the whole window; its decay exponent is measured on the inner half
    above the fit's own resolution floor. Modes without basis columns
    contribute their raw field as residual, which is how a not-yet-modeled
    exponent shows up.

    The fields share one grid and mode table; ``times[k]`` is the time of
    ``fields[k]`` (0.0 for all if omitted). Each fit depends on its own field
    only. The fields are fitted in chunks of at most _FIT_ENTRIES window
    samples, each chunk with one stacked SVD per mode; the first ill
    conditioned (field, mode) in field-then-mode order raises.
    """
    fields = list(fields)
    times = [0.0] * len(fields) if times is None else list(times)
    if len(times) != len(fields):
        raise ConfigError(f"{len(times)} times for {len(fields)} fields")
    if not fields:
        return []
    grid, modes = fields[0].grid, fields[0].modes
    if any(f.grid != grid or f.modes != modes for f in fields):
        raise ConfigError("fields fitted together must share one grid and mode table")
    x_a, x_b = _fit_window(grid, window)
    idx = _log_spaced_subsample(grid.window_indices(x_a, x_b), MAX_FIT_POINTS)
    x = grid.x[idx]               # ascending, so every sub-window below is a prefix
    log_x = np.log(x)
    inner = int(np.count_nonzero(x <= math.sqrt(x_a * x_b)))
    x_cut = x_a * (x_b / x_a) ** 0.25
    designs = []                  # per mode: (coefficient keys, A, sub) or None
    for mode in modes:
        terms = basis.for_mode(mode.label)
        if not terms:
            designs.append(None)
            continue
        cols = []
        for rho, m, _lbl in terms:
            col = np.exp(-root_to_complex(rho) * log_x)
            if m:
                col = col * log_x ** m
            cols.append(col)
        A = np.stack(cols, axis=1)
        sub = int(np.count_nonzero(x <= x_cut))
        if sub < 2 * A.shape[1] + 2:
            sub = x.size
        keys = [(root_to_complex(rho), m, mode.label) for rho, m, _lbl in terms]
        designs.append((keys, A, sub))

    fits: list[TipFit] = []
    step = max(1, _FIT_ENTRIES // (len(modes) * x.size))
    for start in range(0, len(fields), step):
        chunk = fields[start:start + step]
        n = len(chunk)
        # residuals, mode-major and C-ordered: the BLAS path of the stacked
        # products follows the strides, and a fit must not depend on its chunk
        R = np.empty((len(modes), n, x.size), complex)
        for k, f in enumerate(chunk):
            R[:, k] = f.values.take(idx, axis=1)    # modes without columns keep their field
        conds = np.ones((n, len(modes)))
        floors = np.zeros((len(modes), n))
        coeffs = {}
        for i, design in enumerate(designs):
            if design is None:
                continue
            _keys, A, sub = design
            y = R[i, :, :sub]
            mag = np.abs(y)
            ymax = mag.max(axis=1, initial=0.0)[:, None]
            w = 1.0 / np.where(ymax == 0.0, 1.0, np.maximum(mag, 1e-3 * ymax))
            del mag
            U, s, Vh = np.linalg.svd(A[:sub] * w[:, :, None], full_matrices=False)
            pos = s[:, -1] > 0
            conds[:, i] = math.inf
            conds[pos, i] = s[pos, 0] / s[pos, -1]
            # c = Vh^H (U^H b / s), U conjugated in place; a singular design raises below
            s[~pos] = 1.0
            c = (y * w)[:, None, :] @ np.conjugate(U, out=U)
            c = ((c[:, 0] / s)[:, None, :] @ Vh.conj())[:, 0]
            R[i] -= (A @ c[:, :, None])[:, :, 0]
            floors[i] = np.sqrt(np.mean(np.abs(R[i, :, :sub]) ** 2, axis=1))
            coeffs[i] = c
            del y, w, U, s, Vh            # free before the next mode and the residual stage
        bad = np.argwhere(conds > COND_LIMIT)
        if bad.size:
            k, i = bad[0]
            raise IllConditionedFitError(
                f"design condition {conds[k, i]:.2e} on mode {modes[i].label}; "
                "shift or shrink the fit window")

        res_sq = np.abs(R)                # |R|^2 in place: one temporary, not two
        res_sq = np.sum(np.square(res_sq, out=res_sq), axis=2).sum(axis=0)
        inner_mag = np.abs(R[:, :, :inner])
        del R                             # the exponents below need |R| on the inner window only
        mode_exps = _decay_exponent(x[:inner], inner_mag.reshape(-1, inner),
                                    floors.ravel()).reshape(len(modes), n)
        overall = _decay_exponent(x[:inner], np.sqrt(np.sum(inner_mag ** 2, axis=0)),
                                  np.sqrt(np.sum(floors ** 2, axis=0)))
        # Python numbers for the whole chunk at once; np.sqrt rounds as math.sqrt does
        columns = [(designs[i][0], c.tolist()) for i, c in coeffs.items()]
        for k, (t, res, slope, slopes, cond) in enumerate(zip(
                times[start:start + n], np.sqrt(res_sq).tolist(), overall.tolist(),
                mode_exps.T.tolist(), conds.max(axis=1).tolist())):
            coefficients = [FitCoefficient(rho, m, label, cv) for keys, c in columns
                            for (rho, m, label), cv in zip(keys, c[k])]
            fits.append(TipFit(
                t=t, coefficients=coefficients, window=(x_a, x_b), residual_norm=res,
                residual_decay_exponent=slope,
                mode_residual_exponents={mode.label: e for mode, e in zip(modes, slopes)},
                condition=cond))
    return fits


def fit_tip_expansion(snapshot: RadialField, basis: AsymptoticsBasis,
                      window: tuple[float, float] | None = None, t: float = 0.0) -> TipFit:
    """Fit the basis terms to one snapshot over a window: fit_tip_series of one field."""
    return fit_tip_series([snapshot], basis, window=window, times=[t])[0]


@dataclass
class DecompositionTrack:
    fits: list                    # one TipFit per snapshot
    max_jump: float               # worst coefficient jump between fits
    jumps: dict                   # (rho, m, mode) -> max jump


def decomposition_track(traj, basis: AsymptoticsBasis,
                        window: tuple[float, float] | None = None) -> DecompositionTrack:
    """Fit every snapshot and report the coefficient jumps between consecutive fits."""
    fits = fit_tip_series(traj.fields, basis, window=window, times=traj.times)
    jumps: dict = {}
    if len(fits) > 1:
        steps = np.diff([[fc.c for fc in fit.coefficients] for fit in fits], axis=0)
        keys = [(fc.rho, fc.m, fc.mode) for fc in fits[0].coefficients]
        # hypot gives abs() of a Python complex bit for bit; np.abs may differ by an ulp
        jumps = dict(zip(keys, np.hypot(steps.real, steps.imag).max(axis=0).tolist()))
    return DecompositionTrack(fits=fits, max_jump=max(jumps.values(), default=0.0),
                              jumps=jumps)
