"""Theta-scheme heat evolution against stencil identities and the Bessel oracle."""

import math

import numpy as np
import pytest

from conelab import bessel, heat_solver
from conelab.cone_geometry import CrossSection
from conelab.errors import ConfigError, NumericalError
from conelab.heat_solver import (HeatConfig, assemble_mode_operator,
                                 bessel_mode_roots, bessel_series_solution,
                                 grid_l2, regular_indicial_root,
                                 relative_l2_error, solve_heat)
from conelab.mellin_sobolev import LogGrid, RadialField

CIRCLE = CrossSection.circle(length_over_pi=2)
SPHERE = CrossSection.sphere(2)


def test_interior_stencil_n1_mode0():
    g = LogGrid(-4.0, 65)
    op = assemble_mode_operator(1, 0, g, "dirichlet")
    dl, d, du = op.data
    j = 10
    w = math.exp(-2.0 * g.tau[j])
    h2 = g.h ** 2
    assert abs(dl[j] - w / h2) < 1e-12 * w / h2
    assert abs(d[j] + 2 * w / h2) < 1e-12 * w / h2
    assert abs(du[j] - w / h2) < 1e-12 * w / h2


def test_constants_annihilated_neumann():
    g = LogGrid(-5.0, 97)
    op = assemble_mode_operator(3, 0, g, "neumann")
    out = op.matvec(np.ones(g.points, dtype=complex))
    assert np.max(np.abs(out)) < 1e-9


def test_regular_solution_interior_residual():
    # n=2, lambda=-2: q(1) = 1 + 1 - 2 = 0, so x^1 is annihilated to O(h^2)
    assert regular_indicial_root(2, -2) == pytest.approx(1.0)
    errs = []
    for J in (129, 257):
        g = LogGrid(-3.0, J)
        op = assemble_mode_operator(2, -2, g, "dirichlet")
        u = g.x.astype(complex)
        res = op.matvec(u)[1:-1]
        errs.append(float(np.max(np.abs(res))))
    assert errs[1] < errs[0] / 3.0  # second-order interior decay


def test_step_zero_and_steady():
    g = LogGrid(-6.0, 129)
    cfg = HeatConfig(cross_section=CIRCLE, grid=g, T=1e-3, dt=1e-3,
                     outer_bc="neumann", theta=0.5, max_modes=1)
    u = RadialField.zeros(g, CIRCLE, 1)
    out = solve_heat(u, None, cfg).final()
    assert np.all(out.values == 0)
    u.values[0] = 1.0
    out = solve_heat(u, None, cfg).final()
    assert np.max(np.abs(out.values - 1.0)) < 1e-12


@pytest.mark.parametrize("outer_bc", ["neumann", "dirichlet"])
def test_forced_march_matches_dense_theta_steps(outer_bc):
    g = LogGrid(-4.0, 33)
    dt, n_steps, every = 1e-3, 10, 3
    u0 = RadialField.zeros(g, CIRCLE, 2)
    nm = len(u0.modes)
    k = np.arange(1, nm + 1)
    u0.values[:] = np.cos(np.outer(k, g.x)) - 0.4j * np.sin(np.outer(k, 2.0 * g.x))
    u0.values[:, -1] = [-0.0, complex(0.3, -0.0), complex(-2.0, 1e-300)][:nm]
    omega = np.array([40.0, 25.0, 60.0])[:nm, None]
    f = lambda t: (np.sin(omega * t + 0.3) + 0.5j * np.cos(omega * t)) * (1.0 + g.x)
    Ls = [assemble_mode_operator(1, m.eigenvalue, g, outer_bc).to_dense() for m in u0.modes]
    eye = np.eye(g.points)
    for theta in (0.5, 0.75, 1.0):
        cfg = HeatConfig(cross_section=CIRCLE, grid=g, T=n_steps * dt, dt=dt,
                         outer_bc=outer_bc, theta=theta, max_modes=2, snapshot_every=every)
        traj = solve_heat(u0, f, cfg)
        u = u0.values.copy()
        want = [u.copy()]
        for s in range(1, n_steps + 1):
            fb = theta * f(s * dt) + (1.0 - theta) * f((s - 1) * dt)
            if outer_bc == "dirichlet":
                fb[:, -1] = 0.0                      # the boundary value stays frozen
            u = np.stack([np.linalg.solve(eye - theta * dt * L,
                                          (eye + (1.0 - theta) * dt * L) @ u[b] + dt * fb[b])
                          for b, L in enumerate(Ls)])
            if s % every == 0 or s == n_steps:
                want.append(u.copy())
        assert traj.times == [s * dt for s in (0, 3, 6, 9, 10)]
        got = np.stack([fl.values for fl in traj.fields])
        want = np.stack(want)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        if outer_bc == "dirichlet":             # frozen bit for bit, signs of zeros too
            bits = lambda a: np.ascontiguousarray(a).view(np.uint64)
            assert np.array_equal(bits(got[:, :, -1]),
                                  bits(np.broadcast_to(u0.values[:, -1], got.shape[:2])))


@pytest.mark.parametrize("outer_bc", ["neumann", "dirichlet"])
@pytest.mark.parametrize("tau_min, points", [(-4.0, 9), (-7.0, 8)])
def test_grid_too_coarse_for_the_symmetric_form_raises_config_error(outer_bc, tau_min,
                                                                    points):
    # n = 5: the lower band 1/h^2 - 2/h is zero at h = 1/2 and negative beyond
    g = LogGrid(tau_min, points)
    assert g.h >= 0.5
    cs = CrossSection.sphere(5)
    cfg = HeatConfig(cross_section=cs, grid=g, T=0.01, dt=1e-3, outer_bc=outer_bc,
                     max_modes=2)
    with pytest.raises(ConfigError, match=rf"h < 2/\(n-1\) = 0\.5 for n=5; got h={g.h:g}"):
        solve_heat(RadialField.zeros(g, cs, 2), None, cfg)


def test_eigenfunction_exponential_decay():
    g = LogGrid(-7.0, 513)
    k1 = bessel_mode_roots(1, 0, "dirichlet", 1)[0]
    u0 = RadialField.zeros(g, CIRCLE, 1)
    u0.values[0] = bessel_series_solution([1.0], 1, 0, 0.0, g.x, "dirichlet")
    cfg = HeatConfig(cross_section=CIRCLE, grid=g, T=0.05, dt=5e-5,
                     outer_bc="dirichlet", theta=0.5, max_modes=1)
    traj = solve_heat(u0, None, cfg)
    want = u0.copy()
    want.values = u0.values * math.exp(-k1 * k1 * 0.05)
    assert relative_l2_error(traj.final(), want) < 2e-4


def test_solver_linearity():
    g = LogGrid(-5.0, 129)
    rng = np.random.default_rng(0)
    cfg = HeatConfig(cross_section=CIRCLE, grid=g, T=0.02, dt=1e-3,
                     outer_bc="neumann", theta=0.5, max_modes=1)

    def make(seed):
        u = RadialField.zeros(g, CIRCLE, 1)
        u.values[0] = np.interp(g.tau, np.linspace(g.tau_min, 0, 9),
                                np.random.default_rng(seed).standard_normal(9))
        return u

    u, v = make(1), make(2)
    f = lambda t: np.full((1, g.points), 0.3 * math.sin(t), dtype=complex)
    g_fn = lambda t: np.full((1, g.points), 0.1 * math.cos(t), dtype=complex)
    a, b = 2.0, -1.5
    uv = RadialField.zeros(g, CIRCLE, 1)
    uv.values = a * u.values + b * v.values
    fg = lambda t: a * f(t) + b * g_fn(t)
    t1 = solve_heat(u, f, cfg).final().values
    t2 = solve_heat(v, g_fn, cfg).final().values
    t3 = solve_heat(uv, fg, cfg).final().values
    assert np.max(np.abs(t3 - (a * t1 + b * t2))) < 1e-12


def test_non_finite_forcing_raises_numerical_error():
    g = LogGrid(-5.0, 65)
    cfg = HeatConfig(cross_section=CIRCLE, grid=g, T=0.003, dt=1e-3,
                     outer_bc="neumann", theta=0.5, max_modes=1)
    u0 = RadialField.zeros(g, CIRCLE, 1)
    f = lambda t: np.full((1, g.points), math.inf, dtype=complex)
    with pytest.raises(NumericalError), np.errstate(invalid="ignore"):
        solve_heat(u0, f, cfg)


def test_one_non_finite_forcing_step_raises_numerical_error():
    g = LogGrid(-5.0, 65)
    cfg = HeatConfig(cross_section=CIRCLE, grid=g, T=0.01, dt=1e-3, outer_bc="neumann",
                     theta=0.5, max_modes=1, snapshot_every=1)
    u0 = RadialField.zeros(g, CIRCLE, 1)
    bad_t = 4 * cfg.dt

    def f(t):
        return np.full((1, g.points), math.nan if t == bad_t else 1.0)
    with pytest.raises(NumericalError), np.errstate(invalid="ignore"):
        solve_heat(u0, f, cfg)
    with pytest.raises(ConfigError, match="non-finite"):
        RadialField(g, u0.modes, np.full((1, g.points), math.nan))


def test_non_finite_snapshot_with_finite_final_state_raises(monkeypatch):
    # the single check covers every row of the trajectory, not only the last
    g = LogGrid(-5.0, 65)
    cfg = HeatConfig(cross_section=CIRCLE, grid=g, T=0.005, dt=1e-3, outer_bc="neumann",
                     theta=0.5, max_modes=1, snapshot_every=1)
    march = heat_solver.evolve_theta

    def overflowing(*args):
        traj = march(*args)
        traj[2, 0, 7] = complex(math.inf, 0.0)   # a middle row; the last one stays finite
        return traj
    monkeypatch.setattr(heat_solver, "evolve_theta", overflowing)
    with pytest.raises(NumericalError, match="non-finite"):
        solve_heat(RadialField.zeros(g, CIRCLE, 1), None, cfg)


def test_discrete_maximum_principle_theta1():
    g = LogGrid(-5.0, 129)
    rng = np.random.default_rng(4)
    u0 = RadialField.zeros(g, CIRCLE, 1)
    u0.values[0] = np.abs(rng.standard_normal(g.points))
    cfg = HeatConfig(cross_section=CIRCLE, grid=g, T=0.05, dt=1e-3,
                     outer_bc="neumann", theta=1.0, max_modes=1,
                     snapshot_every=1)
    traj = solve_heat(u0, None, cfg)
    maxima = [float(np.max(np.abs(f.values.real))) for f in traj.fields]
    assert all(b <= a + 1e-12 for a, b in zip(maxima, maxima[1:]))


def test_smoothing_rough_data():
    # rough initial data: discrete Laplacian norms at t = 0.1 finite and
    # stable (<= 20% change) under grid halving; theta = 1 so the stiffest
    # modes are actually damped (trapezoidal rule only oscillates them)
    coarse = np.random.default_rng(11).standard_normal(33)
    vals = []
    for J in (257, 513):
        g = LogGrid(-6.0, J)
        u0 = RadialField.zeros(g, CIRCLE, 1)
        u0.values[0] = np.interp(g.tau, np.linspace(g.tau_min, 0.0, 33), coarse)
        cfg = HeatConfig(cross_section=CIRCLE, grid=g, T=0.1, dt=2.5e-4,
                         outer_bc="neumann", theta=1.0, max_modes=1)
        traj = solve_heat(u0, None, cfg)
        op = assemble_mode_operator(1, 0, g, "neumann")
        lap1 = op.matvec(traj.final().values[0])
        lap2 = op.matvec(lap1)
        vals.append((grid_l2(lap1, g, 1), grid_l2(lap2, g, 1)))
    (l1a, l2a), (l1b, l2b) = vals
    assert all(map(math.isfinite, (l1a, l2a, l1b, l2b)))
    assert abs(l1b - l1a) <= 0.2 * l1a
    assert abs(l2b - l2a) <= 0.2 * l2a


def test_oracle_reproduces_t0_and_scaling():
    g = LogGrid(-6.0, 257)
    coeffs = [0.7, -0.3, 0.1]
    at0 = bessel_series_solution(coeffs, 1, -1, 0.0, g.x, "dirichlet")
    k = bessel_mode_roots(1, -1, "dirichlet", 3)
    single = bessel_series_solution([1.0], 1, -1, 0.25, g.x, "dirichlet")
    ref = bessel_series_solution([1.0], 1, -1, 0.0, g.x, "dirichlet")
    assert np.max(np.abs(single - math.exp(-k[0] ** 2 * 0.25) * ref)) < 1e-10
    # t=0 series identity against direct evaluation
    from conelab.bessel import radial_eigenfunction
    direct = sum(c * radial_eigenfunction(math.sqrt(1.0), 1, kk, g.x)
                 for c, kk in zip(coeffs, k))
    assert np.max(np.abs(at0 - direct)) < 1e-10


def test_config_validation():
    g = LogGrid(-4.0, 65)
    with pytest.raises(ConfigError):
        HeatConfig(cross_section=CIRCLE, grid=g, T=0.1, dt=2.0)
    with pytest.raises(ConfigError):
        HeatConfig(cross_section=CIRCLE, grid=g, T=0.1, dt=1e-3, theta=0.3)
    with pytest.raises(ConfigError):
        HeatConfig(cross_section=CIRCLE, grid=g, T=0.1, dt=1e-3, outer_bc="robin")


@pytest.mark.parametrize("bad", [-1, -5, 2.5, float("nan"), True, "3", None])
def test_snapshot_every_must_be_a_whole_number_at_least_zero(bad):
    g = LogGrid(-4.0, 65)
    with pytest.raises(ConfigError, match="snapshot_every"):
        HeatConfig(cross_section=CIRCLE, grid=g, T=0.1, dt=1e-3, snapshot_every=bad)
    for ok, want in ((0, 0), (7, 7), (4.0, 4), (np.int64(3), 3)):
        every = HeatConfig(cross_section=CIRCLE, grid=g, T=0.1, dt=1e-3,
                           snapshot_every=ok).snapshot_every
        assert every == want and type(every) is int


def test_mode_roots_memoised_and_failures_not_cached(monkeypatch):
    bessel_mode_roots.cache_clear()
    calls = []
    real = bessel.radial_eigenvalue_roots

    def flaky(*args):
        calls.append(args)
        if len(calls) == 1:
            raise NumericalError("bracketing failed")
        return real(*args)

    monkeypatch.setattr(bessel, "radial_eigenvalue_roots", flaky)
    with pytest.raises(NumericalError):
        bessel_mode_roots(1, -7, "dirichlet", 4)
    first = bessel_mode_roots(1, -7, "dirichlet", 4)
    assert bessel_mode_roots(1, -7, "dirichlet", 4) is first
    assert len(calls) == 2 and isinstance(first, tuple)
    assert first == tuple(real(math.sqrt(7.0), 1, "dirichlet", 4))
    assert bessel_mode_roots(1, 0, "neumann", 3)[0] == 0.0
