"""Heat evolution on the model cone [0,1] x cross-section, per radial mode.

The Laplacian acts per mode as e^{-2 tau} (d_tt + (n-1) d_t + lambda) on the
log-radial grid. The inner truncation row selects the regular solution:
modes with lambda != 0 extrapolate along the decaying indicial root, the
zero mode carries a zero-(x d/dx) closure so constants are admitted, which
is exactly the constants-extended realization the evolution theory uses.
A classical Bessel series solution on the same geometry serves as the
independent oracle.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import bessel
from ._kernels import evolve_theta
from .cone_geometry import CrossSection, Mode, bessel_order
from .errors import ConfigError, NumericalError
from .mellin_sobolev import LogGrid, RadialField
from .operators import OperatorMatrix


@dataclass
class HeatConfig:
    cross_section: CrossSection
    grid: LogGrid
    T: float
    dt: float
    outer_bc: str = "dirichlet"          # 'dirichlet' | 'neumann' at x = 1
    theta: float = 0.5                   # 1/2 trapezoidal .. 1 implicit Euler
    max_modes: int = 1
    snapshot_every: int = 0              # 0: only the final state

    def __post_init__(self):
        if self.T <= 0 or self.dt <= 0:
            raise ConfigError("T and dt must be positive")
        if not math.isfinite(self.T / self.dt):
            raise ConfigError(f"T / dt = {self.T!r} / {self.dt!r} is not a finite step count")
        if self.dt > 1.0:
            raise ConfigError("dt > 1 rejected as a sanity bound")
        if not 0.5 <= self.theta <= 1.0:
            raise ConfigError("theta-scheme supported for theta in [1/2, 1]")
        if self.outer_bc not in ("dirichlet", "neumann"):
            raise ConfigError(f"unknown outer boundary condition {self.outer_bc!r}")
        every = self.snapshot_every
        if (isinstance(every, bool) or not isinstance(every, numbers.Real) or every < 0
                or not float(every).is_integer()):
            raise ConfigError(f"snapshot_every must be a whole number >= 0, not {every!r}")
        self.snapshot_every = int(every)

    @property
    def n_steps(self) -> int:
        n = int(round(self.T / self.dt))
        if abs(n * self.dt - self.T) > 1e-9 * self.T:
            raise ConfigError("T must be an integer multiple of dt")
        return n

    @property
    def snapshot_count(self) -> int:
        """How many states a march keeps: those at steps 0, every, 2*every, ... and n_steps."""
        n = self.n_steps
        return -(-n // (self.snapshot_every or n)) + 1


@dataclass
class HeatTrajectory:
    """The state values[k], of shape (modes, points), at times[k], increasing.

    ``values`` is the march's array; every snapshot shares the grid, mode
    table, n and vol. ``fields`` and ``final()`` build RadialFields on request.
    """

    times: list
    values: np.ndarray                    # (snapshots, modes, points), complex
    grid: LogGrid
    modes: tuple[Mode, ...]
    n: int
    vol: float

    def __post_init__(self):
        if any(t2 <= t1 for t1, t2 in zip(self.times, self.times[1:])):
            raise ConfigError("snapshot times must increase strictly")

    def _field(self, values) -> RadialField:
        return RadialField(self.grid, self.modes, values, self.n, self.vol)

    @property
    def fields(self) -> list[RadialField]:
        return [self._field(v) for v in self.values]

    def final(self) -> RadialField:
        return self._field(self.values[-1])


def regular_indicial_root(n: int, eigenvalue) -> float:
    """The non-negative root of s^2 + (n-1)s + lambda = 0 (bounded solution)."""
    return -0.5 * (n - 1) + float(bessel_order(n, eigenvalue))


def assemble_mode_operator(n: int, eigenvalue, grid: LogGrid, outer_bc: str) -> OperatorMatrix:
    """Tridiagonal discretization of e^{-2 tau}(d_tt + (n-1) d_t + lambda).

    Interior rows use central differences. The inner row eliminates the
    ghost node via the regularity closure (mirror for the zero mode, power
    extrapolation x^{s+} otherwise); the outer row encodes the boundary
    condition (zero row for dirichlet so the boundary value is frozen,
    mirror ghost for neumann).
    """
    if outer_bc not in ("dirichlet", "neumann"):
        raise ConfigError(f"unknown outer boundary condition {outer_bc!r}")
    J = grid.points
    h = grid.h
    lam = float(eigenvalue)
    w = np.exp(-2.0 * grid.tau)
    lo = 1.0 / h**2 - (n - 1) / (2.0 * h)     # u_{j-1} coefficient
    hi = 1.0 / h**2 + (n - 1) / (2.0 * h)     # u_{j+1} coefficient
    mid = -2.0 / h**2 + lam

    dl = np.full(J, lo, dtype=complex)
    d = np.full(J, mid, dtype=complex)
    du = np.full(J, hi, dtype=complex)

    # inner closure at tau_min
    if lam == 0.0:
        # zero-(x d/dx): ghost u_{-1} = u_{+1}
        du[0] = hi + lo
    else:
        s_plus = regular_indicial_root(n, eigenvalue)
        ghost = math.exp(-h * s_plus)         # u ~ x^{s+}: u_{-1} = ghost * u_0
        d[0] = mid + lo * ghost
        du[0] = hi

    # outer row at x = 1
    if outer_bc == "dirichlet":
        dl[-1] = 0.0
        d[-1] = 0.0
    else:
        dl[-1] = lo + hi                      # ghost u_J = u_{J-2}
        d[-1] = mid

    dl *= w
    d *= w
    du *= w
    dl[0] = 0.0
    du[-1] = 0.0
    return OperatorMatrix.tridiag(dl, d, du)


def _mode_operators(cfg: HeatConfig) -> tuple[tuple[Mode, ...], list[OperatorMatrix]]:
    modes = cfg.cross_section.mode_table(cfg.max_modes)
    ops = [assemble_mode_operator(cfg.cross_section.n, m.eigenvalue, cfg.grid,
                                  cfg.outer_bc) for m in modes]
    return modes, ops


def coarse_grid_error(what: str, n: int, h: float) -> ConfigError:
    """The error for h >= 2/(n-1), where a mode operator's lower band is zero or negative."""
    return ConfigError(f"{what} needs grid spacing h < 2/(n-1) = {2.0 / (n - 1):.6g} "
                       f"for n={n}; got h={h:.6g}")


def _symmetric_system(ops, cfg: HeatConfig, what: str = "the heat march"):
    """Stacked symmetric forms (d, e, scale) of the marched rows, and the frozen coupling.

    A Dirichlet operator's last row is zero (the frozen boundary value), so
    the march keeps rows 0..J-2 and returns L[J-2, J-1] of each mode as the
    coupling; a Neumann operator is marched whole and the coupling is None.
    Every band product must be positive, else coarse_grid_error naming `what`.
    """
    frozen = cfg.outer_bc == "dirichlet"
    forms = []
    for op in ops:
        if frozen:
            op = OperatorMatrix.tridiag(*(band[:-1] for band in op.data))
        form = op.symmetric_form
        if form is None or form[2] is None:
            raise coarse_grid_error(what, cfg.cross_section.n, cfg.grid.h)
        forms.append(form)
    d, e, log_delta = (np.stack(part) for part in zip(*forms))
    coupling = np.array([op.data[2][-2].real for op in ops]) if frozen else None
    return d, e, np.exp(log_delta), coupling


def check_march_grid(cfg: HeatConfig, what: str) -> None:
    """Raise, naming `what` and without marching, the grid error solve_heat would raise.

    That is coarse_grid_error where a marched mode operator lacks a symmetric
    form with positive band products, and the ConfigError of an overflowing one.
    """
    _symmetric_system(_mode_operators(cfg)[1], cfg, what)


def solve_heat(u0: RadialField, f_provider, cfg: HeatConfig, on_snapshot=None) -> HeatTrajectory:
    """March u' = L u + f from u0 to T, collecting configured snapshots.

    Each step solves (I - theta dt L) u+ = (I + (1-theta) dt L) u + dt f
    in ``evolve_theta``, on the symmetric form L = D^-1 S D of every mode
    (``OperatorMatrix.symmetric_form``): the march carries v = D u, and
    I - theta dt S is symmetric positive definite and factored once. The
    forcing is evaluated once per time level s*dt and blended as
    theta f(t+dt) + (1-theta) f(t). A dirichlet row is left out of the
    march: its boundary value stays frozen, bit for bit, and takes no
    forcing. A grid too coarse for a symmetric form (h >= 2/(n-1)) raises
    ConfigError. The trajectory keeps the march's array, checked once for
    finite values after the march, and builds no field. on_snapshot, if
    given, is ``evolve_theta``'s hook: on_snapshot(k, row) once row k is
    final, before that check.
    """
    if u0.grid.points != cfg.grid.points or u0.grid.tau_min != cfg.grid.tau_min:
        raise ConfigError("initial field lives on a different grid than the config")
    modes, ops = _mode_operators(cfg)
    if len(u0.modes) != len(modes):
        raise ConfigError("initial field mode table does not match the config")
    n_steps = cfg.n_steps
    every = cfg.snapshot_every if cfg.snapshot_every > 0 else n_steps
    forcing = None
    if f_provider is not None:
        f_old = np.asarray(f_provider(0.0))

        def forcing(s):
            nonlocal f_old
            f_new = np.asarray(f_provider(s * cfg.dt))   # a real forcing stays real
            fb = cfg.theta * f_new + (1.0 - cfg.theta) * f_old
            f_old = f_new
            return cfg.dt * fb

    values = evolve_theta(*_symmetric_system(ops, cfg), cfg.theta, cfg.dt,
                          u0.values, n_steps, every, forcing, on_snapshot=on_snapshot)
    if not np.isfinite(values).all():
        raise NumericalError(f"non-finite state in the theta march (theta={cfg.theta}, "
                             f"dt={cfg.dt})")
    # rows at steps 0, every, 2*every, ... and n_steps
    times = [s * cfg.dt for s in (*range(0, n_steps, every), n_steps)]
    return HeatTrajectory(times, values, u0.grid, u0.modes, u0.n, u0.vol)


def bessel_series_solution(u0_modal_coeffs, n: int, eigenvalue, t: float,
                           x_points, outer_bc: str):
    """Separation-of-variables oracle for one mode on the straight cone.

    The expansion basis is x^{-(n-1)/2} J_nu(k_j x) with k_j the outer-BC
    roots (neumann on the zero mode starts with the k = 0 constant branch);
    the solution scales each coefficient by exp(-k_j^2 t).
    """
    coeffs = list(u0_modal_coeffs)
    nu = float(bessel_order(n, eigenvalue))
    x = np.asarray(x_points, dtype=float)
    out = np.zeros_like(x, dtype=complex)
    for c, k in zip(coeffs, bessel_mode_roots(n, eigenvalue, outer_bc, len(coeffs))):
        out = out + c * math.exp(-k * k * t) * bessel.radial_eigenfunction(nu, n, k, x)
    return out


@functools.lru_cache(maxsize=256)
def bessel_mode_roots(n: int, eigenvalue, outer_bc: str, count: int) -> tuple[float, ...]:
    """Outer-BC eigenvalue roots k_j for one mode (k = 0 first when admitted).

    Memoised: the series oracle asks for the same roots at every time. A
    failed root search raises and is not cached.
    """
    ks = (0.0,) if outer_bc == "neumann" and float(eigenvalue) == 0.0 else ()
    nu = float(bessel_order(n, eigenvalue))
    return (ks + tuple(bessel.radial_eigenvalue_roots(nu, n, outer_bc, count - len(ks))))[:count]


def grid_l2(field_values: np.ndarray, grid: LogGrid, n: int) -> float:
    """L2 norm on the cone: integral of |u|^2 x^n dx as a tau trapezoid."""
    integrand = np.abs(np.atleast_2d(field_values)) ** 2 * np.exp((n + 1) * grid.tau)
    return float(np.sqrt(np.sum(np.trapezoid(integrand, dx=grid.h))))


def relative_l2_error(a: RadialField, b: RadialField) -> float:
    diff = grid_l2(a.values - b.values, a.grid, a.n)
    ref = grid_l2(b.values, b.grid, b.n)
    if ref == 0.0:
        return diff
    return diff / ref
