"""Near-tip expansion extraction and decomposition tracking.

Snapshots are fitted per mode against the predicted power-log columns
x^{-rho} log^m x over an inner window; what the fit cannot explain is the
residual, whose log-log slope against x estimates the next exponent in the
expansion. Tracking the fitted coefficients along a trajectory is how the
package observes that the singular-part decomposition survives the
evolution. The fit takes a stack of snapshot values, whatever produced it,
and returns one columnar TipSeries: a (snapshots, terms) coefficient array
beside per-snapshot residual norms, conditions and per-mode exponents.
A single snapshot is a stack of one.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .asymptotics import AsymptoticsBasis, AsymptoticsTerm
from .errors import ConfigError, IllConditionedFitError
from .rational import root_to_complex

MAX_FIT_POINTS = 200
COND_LIMIT = 1e10
# window samples (snapshots x modes x points) fitted in one batch. tracemalloc
# puts a chunk's transient peak at 29-34 bytes a sample (25 to 200 snapshots of
# 3 modes, 109 points): the 16-byte sample, then either one mode's sweep (its
# weights and weighted columns on the sub-window) or |residual| on the inner
# window. Each chunk pays a fixed cost in numpy calls; 2**15 samples stay near
# 1 MB and take a 251-snapshot trajectory of that size in 3 chunks
_FIT_ENTRIES = (1 << 20) // 32


@dataclass
class TipSeries:
    """The fits of a stack of snapshots, one row a snapshot and one column a basis term."""

    times: np.ndarray             # (snapshots,)
    keys: list                    # (rho, m, mode label) of each coefficient column
    coefficients: np.ndarray      # (snapshots, keys), complex
    residual_norm: np.ndarray     # (snapshots,)
    exponents: dict               # mode label -> residual decay exponent, (snapshots,)
    condition: np.ndarray         # (snapshots,), the worst mode's design condition

    def coefficient(self, rho, m: int, mode: str) -> np.ndarray:
        """The path of one term's coefficient over the snapshots."""
        key = (complex(rho), m, mode)
        if key not in self.keys:
            raise ConfigError(f"no fitted coefficient for ({rho}, {m}, {mode})")
        return self.coefficients[:, self.keys.index(key)]

    @property
    def jumps(self) -> dict:
        """Key -> largest coefficient change between consecutive snapshots (none below 2)."""
        if len(self.coefficients) < 2:
            return {}
        steps = np.diff(self.coefficients, axis=0)
        # hypot gives abs() of a Python complex bit for bit; np.abs may differ by an ulp
        return dict(zip(self.keys, np.hypot(steps.real, steps.imag).max(axis=0).tolist()))


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
    # a comparison, not math.isfinite: an int beyond the float range fails it, not overflows
    if not all(isinstance(v, numbers.Real) and not isinstance(v, bool)
               and abs(v) <= sys.float_info.max for v in (x_a, x_b)):
        raise ConfigError(f"fit window {window!r} must be two finite numbers")
    x_a, x_b = float(x_a), float(x_b)
    if not (math.exp(grid.tau_min) < x_a < x_b):
        raise ConfigError(f"window [{x_a}, {x_b}] must sit inside the grid")
    if x_b > 0.25 + 1e-12:
        raise ConfigError("window must stay at or below x = 1/4")
    return x_a, x_b


def _scaled(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """z * w, complex z by real w, part by part: numpy would buffer a complex cast of w."""
    out = np.empty(w.shape, complex)
    np.multiply(z.real, w, out=out.real)
    np.multiply(z.imag, w, out=out.imag)
    return out


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum(a * b) over the last axis, each row on its own."""
    return np.einsum("...i,...i->...", a, b)


def _weighted_lstsq(A: np.ndarray, y: np.ndarray, w: np.ndarray):
    """Coefficients minimising |w (sum_j c_j A[j] - y)| and the design's condition, per row.

    ``A`` holds one design column a row, (p, m); ``y`` and ``w`` one snapshot a
    row, (n, m). Modified Gram-Schmidt sweeps the weighted columns with the
    weighted right-hand side carried along (Bjorck 1967), so c solves the
    triangular R c = Q^H (w y); the condition is the ratio of R's extreme
    singular values, inf where R is singular. Every reduction runs over a
    row's own samples, so no row depends on another.
    """
    n, p = len(y), len(A)
    cols = [_scaled(a, w) for a in A] + [_scaled(y, w)]
    r = np.zeros((n, p, p + 1), complex)     # R, and Q^H (w y) as its last column
    for j in range(p):
        q = cols[j]
        qf = q.view(float)
        norm = np.sqrt(_row_dot(qf, qf))
        r[:, j, j] = norm
        qf /= np.where(norm > 0.0, norm, 1.0)[:, None]
        np.conjugate(q, out=q)            # q^H for the products, in place
        for k in range(j + 1, p + 1):
            r[:, j, k] = _row_dot(q, cols[k])
        if j < p - 1:                     # past the last column no update is read
            np.conjugate(q, out=q)
            for k in range(j + 1, p + 1):
                cols[k] -= r[:, j, k, None] * q
    diag = r[:, range(p), range(p)].real
    c = np.zeros((n, p), complex)
    for j in reversed(range(p)):
        c[:, j] = (r[:, j, p] - _row_dot(r[:, j, j + 1:p], c[:, j + 1:])) / np.where(
            diag[:, j] > 0.0, diag[:, j], 1.0)
    # the condition as hi / lo; for p = 2 in closed form, sigma_max^2 over
    # |det R| = sigma_max sigma_min, from sums of squares that cannot cancel
    if p == 1:
        hi = lo = diag[:, 0]
    elif p == 2:
        a, d, b2 = diag[:, 0], diag[:, 1], np.abs(r[:, 0, 1]) ** 2
        hi = 0.5 * (a * a + b2 + d * d + np.sqrt(((a - d) ** 2 + b2) * ((a + d) ** 2 + b2)))
        lo = a * d
    else:
        s = np.linalg.svd(r[:, :, :p], compute_uv=False)
        hi, lo = s[:, 0], s[:, -1]
    cond = np.full(n, math.inf)
    pos = lo > 0.0
    cond[pos] = hi[pos] / lo[pos]
    return c, cond


def _fit_mode(y: np.ndarray, A: np.ndarray, sub: int):
    """Fit one mode's columns ``A`` (p, points) to the rows of ``y`` on the sub-window.

    The relative-error weight of a sample is max|y| / |y|, capped at 1000.
    Scaling a row's weights leaves its fit unchanged; this scale keeps the
    weighted columns within 1000 times the design, whatever the size of the
    snapshot. ``y`` is left holding the residual over the whole window.
    Returns the coefficients (n, p), the design condition and the residual's
    RMS on the sub-window, per row.
    """
    w = np.abs(y[:, :sub])
    ymax = w.max(axis=1, initial=0.0)[:, None]
    w /= np.where(ymax == 0.0, 1.0, ymax)
    c, cond = _weighted_lstsq(A[:, :sub], y[:, :sub],
                              np.reciprocal(np.maximum(w, 1e-3, out=w), out=w))
    for cj, a in zip(c.T, A):                 # y - sum_j c_j A_j, row by row
        y -= cj[:, None] * a
    r = y[:, :sub].view(float)
    return c, cond, np.sqrt(_row_dot(r, r) / sub)


def fit_tip_series(values, grid, modes, basis: AsymptoticsBasis,
                   window: tuple[float, float] | None = None, times=None) -> TipSeries:
    """Fit the basis terms to every snapshot over one window, per mode.

    Coefficients come from a relative-error weighted least-squares solve on
    the inner quarter (log scale) of the window: an asymptotic expansion is
    an x -> 0 statement, and estimating there keeps coefficients from
    absorbing the next, not-yet-modeled exponent. The residual is formed
    over the whole window; each mode's decay exponent is measured on the
    inner half above the fit's own resolution floor. Modes without basis
    columns contribute their raw values as residual, which is how a
    not-yet-modeled exponent shows up.

    ``values[k]`` holds snapshot k on ``grid``, of shape (len(modes),
    grid.points); ``times[k]`` is its time (0.0 for all if omitted). An empty
    stack is checked like any other. Row k of the returned series depends on
    snapshot k only; its columns are the basis terms of each mode in turn,
    in mode order. The snapshots are
    fitted in chunks of at most _FIT_ENTRIES window samples, each chunk with
    one Gram-Schmidt sweep per mode, written straight into the series'
    arrays; the first ill conditioned (snapshot, mode) in snapshot-then-mode
    order raises.
    """
    values = np.asarray(values, dtype=complex)
    n = len(values)
    times = np.zeros(n) if times is None else np.array(times, dtype=float)
    if len(times) != n:
        raise ConfigError(f"{len(times)} times for {n} snapshots")
    terms = [basis.for_mode(mode.label) for mode in modes]
    keys = [(root_to_complex(rho), m, mode.label)
            for mode, mode_terms in zip(modes, terms) for rho, m, _lbl in mode_terms]
    exponents = np.zeros((n, len(modes)))
    series = TipSeries(times=times, keys=keys, coefficients=np.zeros((n, len(keys)), complex),
                       residual_norm=np.zeros(n),
                       exponents={mode.label: e for mode, e in zip(modes, exponents.T)},
                       condition=np.ones(n))
    if values.shape[1:] != (len(modes), grid.points):
        raise ConfigError(f"snapshot shape {values.shape[1:]} does not match "
                          f"({len(modes)}, {grid.points})")
    x_a, x_b = _fit_window(grid, window)
    idx = _log_spaced_subsample(grid.window_indices(x_a, x_b), MAX_FIT_POINTS)
    x = grid.x[idx]               # ascending, so every sub-window below is a prefix
    inner = int(np.count_nonzero(x <= math.sqrt(x_a * x_b)))
    x_cut = x_a * (x_b / x_a) ** 0.25
    designs = []                  # per mode: (its series columns, design (p, points), sub) or None
    first = 0
    for mode_terms in terms:
        if not mode_terms:
            designs.append(None)
            continue
        A = np.stack([AsymptoticsTerm(rho, m, lbl).evaluate(x) for rho, m, lbl in mode_terms])
        sub = int(np.count_nonzero(x <= x_cut))
        if sub < 2 * len(A) + 2:
            sub = x.size
        designs.append((slice(first, first + len(A)), A, sub))
        first += len(A)

    step = max(1, _FIT_ENTRIES // (len(modes) * x.size))
    for start in range(0, n, step):
        # the window samples of the chunk, (snapshot, mode, point): one copy, rows contiguous
        R = values[start:start + step].take(idx, axis=2)
        rows = slice(start, start + len(R))
        conds = np.ones((len(R), len(modes)))
        floors = np.zeros((len(R), len(modes)))
        for i, design in enumerate(designs):
            if design is not None:
                columns, A, sub = design
                c, conds[:, i], floors[:, i] = _fit_mode(R[:, i], A, sub)
                series.coefficients[rows, columns] = c
        bad = np.argwhere(conds > COND_LIMIT)
        if bad.size:
            k, i = bad[0]
            raise IllConditionedFitError(
                f"design condition {conds[k, i]:.2e} on mode {modes[i].label}; "
                "shift or shrink the fit window")

        series.residual_norm[rows] = np.sqrt(_row_dot(R.view(float), R.view(float)).sum(axis=1))
        series.condition[rows] = conds.max(axis=1)
        inner_mag = np.abs(R[:, :, :inner]).reshape(-1, inner)
        del R                             # the exponents below need |R| on the inner window only
        exponents[rows] = _decay_exponent(x[:inner], inner_mag, floors.ravel()).reshape(
            len(floors), len(modes))
        del inner_mag                     # free before the next chunk's samples
    return series


def decomposition_track(traj, basis: AsymptoticsBasis) -> TipSeries:
    """The coefficient paths of a trajectory: fit_tip_series of its array, grid, modes and times."""
    return fit_tip_series(traj.values, traj.grid, traj.modes, basis, times=traj.times)
