"""Mellin-Sobolev quadrature norms."""

import math
from fractions import Fraction

import numpy as np
import pytest

from conelab.asymptotics import AsymptoticsTerm
from conelab.cone_geometry import CrossSection
from conelab.errors import ConfigError, UnsupportedError
from conelab.mellin_sobolev import LogGrid, RadialField, dtau, mellin_norm, smooth_cutoff
from conelab.rational import QRat

CIRCLE = CrossSection.circle(length_over_pi=2)


def _sharp_cutoff(x: np.ndarray, edge: float = 0.5, edge_value: float = 0.5) -> np.ndarray:
    """Indicator of x <= edge with an adjustable value on the edge node.

    When the edge lands on a grid node, edge_value = 2**(-1/p) keeps the
    trapezoid quadrature of |u|^p second order through the jump (the
    closed-form norm oracles use p = 2, hence 2**-0.5).
    """
    x = np.asarray(x, dtype=float)
    out = np.where(x < edge, 1.0, 0.0)
    out[np.isclose(x, edge, rtol=1e-12, atol=1e-14)] = edge_value
    return out


def _edge_grid(m: int) -> LogGrid:
    # x = 1/2 lands exactly on a node
    return LogGrid(-16.0 * math.log(2.0), 2 ** m + 1)


def test_closed_form_norm():
    # sharp cutoff * x, mode 0, n=1, s=0, gamma=0: norm^2 = 2 pi / 64 = pi/32
    g = _edge_grid(12)
    u = RadialField.zeros(g, CIRCLE, 1)
    u.values[0] = _sharp_cutoff(g.x, edge_value=2 ** -0.5) * g.x
    val = mellin_norm(u, s=0, gamma=0.0)
    assert abs(val - math.sqrt(math.pi / 32.0)) < 1e-4


def test_zero_field_and_scaling():
    g = LogGrid(-8.0, 257)
    u = RadialField.zeros(g, CIRCLE, 2)
    assert mellin_norm(u, 1, 0.25) == 0.0
    u.values[0] = smooth_cutoff(g.x) * g.x ** 1.3
    u.values[1] = smooth_cutoff(g.x) * g.x ** 0.7
    base = mellin_norm(u, 1, 0.25)
    c = 2.5 - 1.3j
    v = u.copy()
    v.values *= c
    assert abs(mellin_norm(v, 1, 0.25) - abs(c) * base) < 1e-12 * base


def test_grid_convergence_second_order():
    vals = []
    for m in (9, 10, 11, 12):
        g = _edge_grid(m)
        u = RadialField.zeros(g, CIRCLE, 1)
        u.values[0] = smooth_cutoff(g.x) * g.x ** 1.5
        vals.append(mellin_norm(u, 1, 0.0))
    diffs = [abs(a - b) for a, b in zip(vals, vals[1:])]
    orders = [math.log2(a / b) for a, b in zip(diffs, diffs[1:])]
    assert all(1.7 <= o <= 2.3 for o in orders), orders


def test_gamma_monotone_for_inner_supported():
    rng = np.random.default_rng(5)
    g = LogGrid(-8.0, 513)
    for _ in range(10):
        a = rng.uniform(0.8, 2.0)
        u = RadialField.zeros(g, CIRCLE, 1)
        u.values[0] = _sharp_cutoff(g.x) * g.x ** a
        n0 = mellin_norm(u, 0, 0.0)
        n1 = mellin_norm(u, 0, 0.25)
        assert n1 >= n0 - 1e-12


def test_norm_detects_nan():
    g = LogGrid(-4.0, 65)
    u = RadialField.zeros(g, CIRCLE, 1)
    with pytest.raises(ConfigError):
        u.values[0, 3] = math.nan
        mellin_norm(u, 0, 0.0)


def test_p_restriction():
    g = LogGrid(-4.0, 65)
    u = RadialField.zeros(g, CIRCLE, 1)
    with pytest.raises(UnsupportedError):
        mellin_norm(u, 1, 0.0, p=3.0)
    # p != 2 fine at s = 0
    assert mellin_norm(u, 0, 0.0, p=3.0) == 0.0


def test_nonmember_norm_grows_under_extension():
    # term x^{-2}, n=1, gamma=1/2: clearly non-member; norms must grow >=
    # 10x per tau_min doubling (divergence rate e^{1.5 |tau_min|})
    term = AsymptoticsTerm(QRat(2), 0, "k=0")
    norms = []
    grid = LogGrid(-4.0, 129)
    for _ in range(3):
        u = RadialField.zeros(grid, CIRCLE, 1)
        u.values[0] = smooth_cutoff(grid.x) * term.evaluate(grid.x)
        norms.append(mellin_norm(u, 0, 0.5))
        grid = grid.extended()
    assert norms[1] / norms[0] >= 10.0 and norms[2] / norms[1] >= 10.0


def test_member_norm_stabilizes_under_extension():
    term = AsymptoticsTerm(QRat(Fraction(-1, 4)), 0, "k=0")
    norms = []
    grid = LogGrid(-4.0, 129)
    for _ in range(3):
        u = RadialField.zeros(grid, CIRCLE, 1)
        u.values[0] = smooth_cutoff(grid.x) * term.evaluate(grid.x)
        norms.append(mellin_norm(u, 0, 0.0))
        grid = grid.extended()
    assert abs(norms[2] - norms[1]) < 0.02 * norms[1]


def test_dtau_second_order_ends():
    g = LogGrid(-2.0, 401)
    f = np.exp(0.7 * g.tau)
    d = dtau(f, g.h)
    assert np.max(np.abs(d - 0.7 * f)) < 5e-5


def test_grid_validation():
    with pytest.raises(ConfigError):
        LogGrid(0.5, 65)
    with pytest.raises(ConfigError):
        LogGrid(-1.0, 4)
    g = LogGrid(-3.0, 65)
    assert g.x[-1] == 1.0 and abs(g.h - 3.0 / 64.0) < 1e-15
