"""Weighted Mellin-Sobolev norms on log-radial grids.

The collar quadrature norm is the package's reference norm: with tau = log x
the weighted integrals become trapezoid sums on a uniform tau grid and
(x d/dx) becomes d/dtau, realized by second-order finite differences.
Cross-section derivatives enter through |lambda_mode|^(|alpha|/2) spectral
weights; modal coefficient fields are taken against eigenfunctions with
squared L2 mass equal to the cross-section volume.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .cone_geometry import CrossSection, Mode, mode_index
from .errors import ConfigError, UnsupportedError


@dataclass(frozen=True)
class LogGrid:
    """Uniform grid in tau = log x over [tau_min, 0]; the last node is x = 1."""

    tau_min: float
    points: int

    def __post_init__(self):
        if self.tau_min >= 0:
            raise ConfigError("tau_min must be negative")
        # the mode operators' weight exp(-2 tau) must be finite; then so is h^2, never overflowing
        if not -2.0 * self.tau_min < math.log(sys.float_info.max):
            raise ConfigError(f"grid tau_min {self.tau_min!r} is below -354.89: exp(-2 tau_min) "
                              "must be a finite float")
        if self.points < 8:
            raise ConfigError("need at least 8 grid points")
        h2 = self.h * self.h
        if not (0.0 < h2 and 1.0 / h2 < math.inf):
            raise ConfigError(f"grid tau_min {self.tau_min!r} over {self.points} points gives "
                              f"spacing h = {self.h!r}; h^2 and 1/h^2 must be finite non-zero floats")

    @property
    def h(self) -> float:
        return -self.tau_min / (self.points - 1)

    @property
    def tau(self) -> np.ndarray:
        return np.linspace(self.tau_min, 0.0, self.points)

    @property
    def x(self) -> np.ndarray:
        return np.exp(self.tau)

    def extended(self) -> "LogGrid":
        """Doubled span toward the tip, same spacing."""
        return LogGrid(2.0 * self.tau_min, 2 * self.points - 1)

    def window_indices(self, x_lo: float, x_hi: float) -> np.ndarray:
        x = self.x
        idx = np.nonzero((x >= x_lo) & (x <= x_hi))[0]
        if idx.size < 4:
            raise ConfigError(f"window [{x_lo}, {x_hi}] covers fewer than 4 grid points")
        return idx


def smooth_cutoff(x: np.ndarray) -> np.ndarray:
    """C-infinity profile: 1 on x <= 1/2, 0 on x >= 1."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    out[x <= 0.5] = 1.0
    mid = (x > 0.5) & (x < 1.0)
    t = (x[mid] - 0.5) / 0.5
    f1 = np.exp(-1.0 / (1.0 - t))
    f0 = np.exp(-1.0 / t)
    out[mid] = f1 / (f1 + f0)
    return out


@dataclass
class RadialField:
    """Per-mode complex samples on a shared LogGrid.

    The constructor casts the values to complex and rejects a wrong shape
    or a non-finite value with ConfigError.
    """

    grid: LogGrid
    modes: tuple[Mode, ...]
    values: np.ndarray           # shape (n_modes, points), complex
    n: int = 1                   # cross-section dimension
    vol: float = 1.0             # cross-section volume

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (len(self.modes), self.grid.points):
            raise ConfigError(f"field shape {self.values.shape} does not match "
                              f"({len(self.modes)}, {self.grid.points})")
        if not np.all(np.isfinite(self.values)):
            raise ConfigError("field contains non-finite values")

    @staticmethod
    def zeros(grid: LogGrid, cs: CrossSection, max_modes: int) -> "RadialField":
        modes = cs.mode_table(max_modes)
        return RadialField(grid, modes, np.zeros((len(modes), grid.points), complex),
                           n=cs.n, vol=cs.vol)

    def mode_index(self, label: str) -> int:
        return mode_index(self.modes, label)

    def copy(self) -> "RadialField":
        return RadialField(self.grid, self.modes, self.values.copy(), self.n, self.vol)


def dtau(values: np.ndarray, h: float) -> np.ndarray:
    """d/dtau along the last axis: central inside, 2nd-order one-sided at ends."""
    return np.gradient(values, h, axis=-1, edge_order=2)


def mellin_norm(u: RadialField, s: int, gamma: float, p: float = 2.0) -> float:
    """Collar-quadrature H^{s,gamma}_p norm of a radial field.

    For s >= 1 only p = 2 is supported (spectral cross-section weights).
    The collar part integrates |x^{(n+1)/2-gamma} (x d/dx)^k u|^p against
    dx/x with |lambda|^a weights for a + k <= s and the cut-off applied;
    the interior part repeats the sums for (1-cutoff) u without the weight.
    """
    if s < 0 or int(s) != s:
        raise ConfigError("s must be a non-negative integer")
    if not (1.0 < p < math.inf):
        raise ConfigError("p must lie in (1, inf)")
    if s >= 1 and p != 2.0:
        raise UnsupportedError("s >= 1 requires p = 2 (spectral derivative weights)")
    if not np.all(np.isfinite(u.values)):
        raise ConfigError("field contains non-finite values")

    n = u.n
    h = u.grid.h
    weight = np.exp(((n + 1) / 2.0 - gamma) * u.grid.tau)
    omega = smooth_cutoff(u.grid.x)
    total = 0.0
    for i, mode in enumerate(u.modes):
        lam = abs(float(mode.eigenvalue))
        collar = omega * u.values[i]
        interior = (1.0 - omega) * u.values[i]
        dk_c, dk_i = collar, interior
        for k in range(s + 1):
            if k > 0:
                dk_c = dtau(dk_c, h)
                dk_i = dtau(dk_i, h)
            t_c = float(np.trapezoid(np.abs(weight * dk_c) ** p, dx=h))
            t_i = float(np.trapezoid(np.abs(dk_i) ** p, dx=h))
            for a in range(s + 1 - k):
                lamw = lam ** a
                total += u.vol * mode.multiplicity * lamw * t_c
                total += u.vol * mode.multiplicity * lamw * t_i
    return total ** (1.0 / p)
