"""Radial eigenvalue roots against library and high-precision zeros."""

import math

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import jn_zeros, jnp_zeros, jv, jvp

from conelab.bessel import _bisect_newton, radial_eigenfunction, radial_eigenvalue_roots
from conelab.errors import NumericalError


def test_dirichlet_zeros_vs_mpmath():
    roots = radial_eigenvalue_roots(0.0, 1, "dirichlet", 3)
    for j, r in enumerate(roots, start=1):
        assert abs(r - float(mpmath.besseljzero(0, j))) < 5e-12
    # the classical constant, recomputed to full precision
    assert abs(roots[0] - 2.404825557695773) < 1e-12


def test_neumann_zero_of_jprime():
    # mpmath counts z = 0 as the first zero of J0'; ours starts positive
    r = radial_eigenvalue_roots(0.0, 1, "neumann", 1)[0]
    assert abs(r - float(mpmath.besseljzero(0, 2, derivative=1))) < 1e-10


@pytest.mark.parametrize("nu", [0, 1, 2, 3, 5])
def test_roots_match_library_zeros(nu):
    # n = 1: the Neumann condition is J'_nu(k) = 0; jnp_zeros(0, .) skips k = 0 too
    assert np.allclose(radial_eigenvalue_roots(nu, 1, "dirichlet", 6), jn_zeros(nu, 6),
                       rtol=0, atol=1e-12)
    assert np.allclose(radial_eigenvalue_roots(nu, 1, "neumann", 6), jnp_zeros(nu, 6),
                       rtol=0, atol=1e-12)


def test_neumann_half_term():
    # n = 2, nu = 1/2: x^{-1/2} J_{1/2}(k x) ~ sin(k x) / x, so the Neumann
    # condition at x = 1 reads tan k = k
    roots = np.array(radial_eigenvalue_roots(0.5, 2, "neumann", 4))
    assert np.max(np.abs(np.sin(roots) - roots * np.cos(roots))) < 1e-13
    assert abs(roots[0] - 4.493409457909064) < 1e-12


def test_neumann_root_with_flat_condition():
    # n = 4, nu = 7/4: the first root has a small derivative, and rounding in
    # the condition makes Newton alternate between two floats around it
    ref = brentq(lambda k: k * jvp(1.75, k) - 1.5 * jv(1.75, k), 1.1, 1.2, xtol=1e-15)
    assert abs(radial_eigenvalue_roots(1.75, 4, "neumann", 1)[0] - ref) < 1e-13


@pytest.mark.parametrize("scale", [-1.0, 1e3])
def test_bisect_newton_reports_failed_polish(scale):
    # a wrong derivative makes Newton diverge (-1) or crawl (1e3): no silent root
    with pytest.raises(NumericalError):
        _bisect_newton(lambda k: jv(0, k), lambda k: scale * jvp(0, k), 2.0, 3.0)


def test_radial_eigenfunction_constant_branch():
    x = np.linspace(0.01, 1.0, 17)
    assert np.allclose(radial_eigenfunction(1.0, 2, 0.0, x), 1.0)


def test_eigenfunction_satisfies_radial_ode():
    # u = x^{-(n-1)/2} J_nu(k x) must satisfy u'' + n/x u' + lam/x^2 u = -k^2 u
    n, lam = 2, -2.0
    nu = math.sqrt(((n - 1) / 2.0) ** 2 - lam)
    k = radial_eigenvalue_roots(nu, n, "dirichlet", 1)[0]
    x = np.linspace(0.2, 0.9, 301)
    h = x[1] - x[0]
    u = radial_eigenfunction(nu, n, k, x)
    upp = (u[2:] - 2 * u[1:-1] + u[:-2]) / h ** 2
    up = (u[2:] - u[:-2]) / (2 * h)
    xm = x[1:-1]
    res = upp + n / xm * up + lam / xm ** 2 * u[1:-1] + k * k * u[1:-1]
    assert np.max(np.abs(res)) < 5e-3 * k * k * np.max(np.abs(u))
