"""Radial eigenvalue roots and eigenfunctions for the straight-cone heat oracle.

J_nu and J'_nu come from scipy.special (jv, jvp). The roots of the outer
boundary condition are conelab's own: bracketed by a sign scan and polished
by bisection plus Newton. A polish that does not converge, or that leaves
its bracket, raises NumericalError instead of returning an unchecked root.
"""

from __future__ import annotations

import numpy as np
from scipy.special import jv, jvp

from .errors import NumericalError

_SCAN_STEP = 0.05      # spacing of the sign scan that brackets the roots


def _bisect_newton(f, df, lo: float, hi: float) -> float:
    """Root of f in [lo, hi], where f changes sign: bisection, then Newton on f/df.

    The polish has converged when a step falls below 1e-15 relative, or when
    f changes sign across a step below 1e-14 relative (rounding in f can make
    Newton alternate between two nearby floats that bracket the root).
    """
    a, b = lo, hi
    fa = f(a)
    for _ in range(60):
        mid = 0.5 * (a + b)
        fm = f(mid)
        if fa * fm <= 0:
            b = mid
        else:
            a, fa = mid, fm
        if b - a < 1e-9:
            break
    r = 0.5 * (a + b)
    fr = f(r)
    for _ in range(8):
        d = df(r)
        if d == 0:
            break
        step = fr / d
        r -= step
        f_new = f(r)
        scale = max(1.0, abs(r))
        if abs(step) < 1e-15 * scale or (fr * f_new <= 0 and abs(step) < 1e-14 * scale):
            if not lo <= r <= hi:
                raise NumericalError(f"Newton polish left the bracket [{lo}, {hi}]: {r}")
            return float(r)
        fr = f_new
    raise NumericalError(f"Newton polish did not converge in [{lo}, {hi}] (last iterate {r})")


def radial_eigenvalue_roots(nu: float, n: int, outer_bc: str, count: int) -> list[float]:
    """Positive roots k of the outer boundary condition at x = 1.

    dirichlet: J_nu(k) = 0; neumann: k J'_nu(k) - (n-1)/2 J_nu(k) = 0
    (the derivative of x^{-(n-1)/2} J_nu(k x) at x = 1). The k = 0 constant
    branch of the Neumann zero mode is added by heat_solver.bessel_mode_roots.
    """
    if outer_bc == "dirichlet":
        f = lambda k: jv(nu, k)
        df = lambda k: jvp(nu, k)
    elif outer_bc == "neumann":
        half = 0.5 * (n - 1)
        f = lambda k: k * jvp(nu, k) - half * jv(nu, k)
        df = lambda k: (1.0 - half) * jvp(nu, k) + k * jvp(nu, k, 2)
    else:
        raise NumericalError(f"unknown outer boundary condition {outer_bc!r}")

    roots: list[float] = []
    k = _SCAN_STEP
    fprev = f(k)
    guard = 0
    while len(roots) < count:
        k2 = k + _SCAN_STEP
        fcur = f(k2)
        if fprev == 0.0:
            roots.append(k)
        elif fprev * fcur < 0:
            roots.append(_bisect_newton(f, df, k, k2))
        k, fprev = k2, fcur
        guard += 1
        if guard > 200_000:
            raise NumericalError(f"failed to bracket {count} roots for nu={nu}, bc={outer_bc}")
    return roots[:count]


def radial_eigenfunction(nu: float, n: int, k: float, x: np.ndarray) -> np.ndarray:
    """x^{-(n-1)/2} J_nu(k x); the k = 0 limit is the constant 1."""
    x = np.asarray(x, dtype=float)
    if k == 0.0:
        return np.ones_like(x)
    pref = x ** (-0.5 * (n - 1)) if n != 1 else 1.0
    return pref * jv(nu, k * x)
