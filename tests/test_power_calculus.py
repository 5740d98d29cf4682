"""Sectorial probes, complex powers, domain probes."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from conelab import operators, power_calculus
from conelab._kernels import thomas_batch
from conelab.asymptotics import AsymptoticsTerm
from conelab.cone_geometry import CrossSection, weight_window
from conelab.errors import ConfigError, NotSectorialError
from conelab.heat_solver import assemble_mode_operator
from conelab.mellin_sobolev import LogGrid
from conelab.operators import OperatorMatrix
from conelab.power_calculus import (PowerProbeConfig, complex_power, eig_power_oracle,
                                    find_sectorial_shift, _real_spectrum_nodes, _sector_samples,
                                    power_domain_probe, power_route, sectorial_probe)
from conelab.rational import QRat

CIRCLE = CrossSection.circle(length_over_pi=2)


def _symmetrizable_tridiagonal(rng, dim):
    """Real bands with products dl[j+1]*du[j] > 0; S is diagonally dominant, mu >= 0.5."""
    lo, hi = rng.choice([-1.0, 1.0], dim - 1) * rng.uniform(0.5, 2.0, (2, dim - 1))
    e = np.r_[0.0, np.sqrt(lo * hi), 0.0]
    return OperatorMatrix.tridiag(np.r_[0.0, lo], e[:-1] + e[1:] + rng.uniform(0.5, 1.5, dim),
                                  np.r_[hi, 0.0])


def test_scalar_powers():
    M = OperatorMatrix.tridiag([0.0], [2.0], [0.0])
    assert abs(complex_power(M, -1.0).data[0, 0] - 0.5) < 1e-10
    assert abs(complex_power(M, -0.5).data[0, 0] - 2.0 ** -0.5) < 1e-8


def test_diagonal_power():
    D = OperatorMatrix.tridiag(np.zeros(2), [1.0, 4.0], np.zeros(2))
    P = complex_power(D, -0.3).data
    assert abs(P[0, 0] - 1.0) < 1e-8 and abs(P[1, 1] - 4.0 ** -0.3) < 1e-8
    assert abs(P[0, 1]) < 1e-10 and abs(P[1, 0]) < 1e-10


def test_oracle_equivalence_and_semigroup():
    rng = np.random.default_rng(7)
    M = _symmetrizable_tridiagonal(rng, 8)
    z1, z2 = -0.6 + 0.2j, -0.35 - 0.15j
    P1, P2 = complex_power(M, z1).data, complex_power(M, z2).data
    assert np.max(np.abs(P1 - eig_power_oracle(M, z1))) < 1e-7
    assert np.max(np.abs(P1 @ P2 - complex_power(M, z1 + z2).data)) < 1e-7


def test_tighter_quadrature_tolerance_takes_more_nodes(monkeypatch):
    # a tighter a priori bound takes more nodes on the same contour
    M = _dirichlet_mode(33)
    a = complex_power(M, -0.4)
    assert a.provenance["method"] == "quadrature"
    monkeypatch.setattr(power_calculus, "_QUAD_TOL", 1e-15)
    b = complex_power(M, -0.4)
    assert b.provenance["nodes"] > a.provenance["nodes"]
    assert np.max(np.abs(a.data - b.data)) < 1e-8


def test_apply_matches_formed_power():
    rng = np.random.default_rng(5)
    M = _symmetrizable_tridiagonal(rng, 8)
    P = complex_power(M, -0.5).data
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    assert np.max(np.abs(complex_power(M, -0.5, v) - P @ v)) < 1e-9
    V = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
    assert np.max(np.abs(complex_power(M, -0.5, V) - P @ V)) < 1e-9


@pytest.mark.parametrize("k, imag", [(None, 0.0), (1, 0.0), (5, 0.0), (None, 1.0)],
                         ids=["None", "1", "5", "None-complex"])
def test_quadrature_node_chunks_stay_bounded(k, imag, monkeypatch):
    M = (-assemble_mode_operator(1, 0, LogGrid(-16.0, 641), "neumann")).shifted(1.0)
    shape = (M.dim,) if k is None else (M.dim, k)
    v = np.ones(shape) + 1j * imag
    # a complex v goes in as two real columns, Re v and Im v
    limit = max(1, power_calculus._RESOLVENT_ENTRIES // (v.size * (2 if imag else 1)))
    calls = []
    solve = OperatorMatrix.solve_shifted_batch

    def counted(self, lams, rhs):
        calls.append(len(lams))
        return solve(self, lams, rhs)

    monkeypatch.setattr(OperatorMatrix, "solve_shifted_batch", counted)
    nodes = []

    def recorded(*args):
        out = _real_spectrum_nodes(*args)
        nodes.append(len(out[0]))
        return out

    monkeypatch.setattr(power_calculus, "_real_spectrum_nodes", recorded)
    out = complex_power(M, -0.1, v)
    assert out.shape == shape
    assert sum(calls) == nodes[0] // 2 and len(calls) > 1 and max(calls) <= limit


def test_complex_power_integer_and_fraction():
    rng = np.random.default_rng(9)
    M = _symmetrizable_tridiagonal(rng, 8)
    v = rng.standard_normal(8)
    want = eig_power_oracle(M, 1.5) @ v
    got = complex_power(M, 1.5, v)
    assert np.max(np.abs(got - want)) < 1e-7
    # plain integer power
    got2 = complex_power(M, 2.0, v)
    A = M.to_dense()
    assert np.max(np.abs(got2 - A @ (A @ v))) < 1e-9


def test_imaginary_power_regularized():
    rng = np.random.default_rng(13)
    M = _symmetrizable_tridiagonal(rng, 8)
    v = rng.standard_normal(8)
    got = complex_power(M, 0.5j, v)
    want = eig_power_oracle(M, 0.5j) @ v
    assert np.max(np.abs(got - want)) < 1e-6


def test_sectorial_probe_diag_matches_closed_form():
    M = OperatorMatrix.tridiag(np.zeros(2), [1.0, 2.0], np.zeros(2))
    rep = sectorial_probe(M, math.pi / 2, n_samples=200)
    closed = max((1.0 + abs(l)) / min(abs(1.0 + l), abs(2.0 + l))
                 for l, _ in rep.samples)
    assert abs(rep.K - closed) < 1e-9
    # the true supremum sqrt(2) sits at |lambda| = 1 on the imaginary rays
    assert rep.K <= math.sqrt(2) + 1e-9


def test_sectorial_probe_scalar_identity():
    rep = sectorial_probe(OperatorMatrix.tridiag([0.0], [1.0], [0.0]), 0.0, n_samples=60)
    assert abs(rep.K - 1.0) < 1e-12


def test_sectorial_rejects_sector_hit():
    M = OperatorMatrix.tridiag(np.zeros(2), [-1.0, 2.0], np.zeros(2))
    with pytest.raises(NotSectorialError):
        sectorial_probe(M, 0.5)
    # k=+-1 Neumann mode shifted by -5: one eigenvalue at -1.61, at a size
    # where every eigenvalue still gets tested
    M = (-assemble_mode_operator(1, -1, LogGrid(-6.0, 2049), "neumann")).shifted(-5.0)
    with pytest.raises(NotSectorialError, match="-1.61"):
        sectorial_probe(M, 0.75 * math.pi)


def test_weighted_probe_matches_base():
    # power-scale lemma: W = M^2 commutes with the resolvent, so the
    # weighted resolvent W (M+lam)^-1 W^-1 is the base one
    rng = np.random.default_rng(1)
    A = _symmetrizable_tridiagonal(rng, 8).to_dense()
    W = A @ A
    for lam in (0.0, 2.0, 3.0 * np.exp(0.6j * math.pi)):
        R = np.linalg.inv(A + lam * np.eye(8))
        assert np.max(np.abs(W @ R @ np.linalg.inv(W) - R)) <= 1e-12 * np.max(np.abs(R))


def test_find_sectorial_shift_ladder():
    g = LogGrid(-5.0, 129)
    L = assemble_mode_operator(1, 0, g, "neumann")
    c, M = find_sectorial_shift(L, 0.75 * math.pi)
    rep = sectorial_probe(M, 0.75 * math.pi, n_samples=40)
    assert c >= 1.0 and math.isfinite(rep.K)
    assert rep.min_abs_eig == float(np.min(np.abs(M.eigenvalues())))
    assert all(np.array_equal(a, b) for a, b in zip(M.data, (-L).shifted(c).data))


def test_sectorial_probe_takes_the_ladders_spectrum(spectra):
    L = assemble_mode_operator(1, 0, LogGrid(-5.0, 129), "neumann")
    theta = 0.75 * math.pi
    c, M = find_sectorial_shift(L, theta)
    assert spectra == [129]                   # the first rung clears the sector
    kept = sectorial_probe(M, theta, n_samples=40)
    assert spectra == [129]
    fresh = sectorial_probe((-L).shifted(c), theta, n_samples=40)
    assert spectra == [129, 129]
    assert (fresh.K, fresh.min_abs_eig, fresh.samples) == (kept.K, kept.min_abs_eig,
                                                          kept.samples)


def test_power_domain_probe_verdicts():
    pc0 = PowerProbeConfig(cross_section=CIRCLE, mode_label="k=0", gamma=-0.5,
                           shift=1.0, tau_min=-3.0, points=121, levels=3)
    r = power_domain_probe(AsymptoticsTerm(QRat(0), 0, "k=0"), 0.5, pc0)
    assert r.verdict == "member"
    pc1 = PowerProbeConfig(cross_section=CIRCLE, mode_label="k=+1", gamma=-0.5,
                           shift=1.0, tau_min=-3.0, points=121, levels=3)
    r2 = power_domain_probe(AsymptoticsTerm(QRat(1), 0, "k=+1"), 0.9, pc1)
    assert r2.verdict == "non-member"
    assert all(rr >= r2.thresholds[1] for rr in r2.ratios)


@pytest.mark.parametrize("levels", [0, 1])
def test_power_domain_probe_needs_two_levels(levels):
    # one level has no norm ratio, and all([]) would read "member"
    with pytest.raises(ConfigError, match="levels >= 2"):
        PowerProbeConfig(cross_section=CIRCLE, mode_label="k=+1", gamma=-0.5, shift=1.0,
                         levels=levels)


def test_power_domain_probe_unknown_mode():
    pc = PowerProbeConfig(cross_section=CIRCLE, mode_label="k=+99", gamma=-0.5, shift=1.0)
    with pytest.raises(ConfigError, match="k=\\+99"):
        power_domain_probe(AsymptoticsTerm(QRat(0), 0, "k=0"), 0.5, pc)


def test_probe_and_weight_window_build_no_64_mode_table(monkeypatch):
    # both walk the spectrum only up to what they look for
    table = CrossSection.mode_table

    def no_full_table(cs, max_modes):
        assert max_modes < 64, "a 64-mode table was built"
        return table(cs, max_modes)
    monkeypatch.setattr(CrossSection, "mode_table", no_full_table)
    win = weight_window(CIRCLE)
    assert (win.lo, win.hi) == (-1.0, 0.0)
    pc = PowerProbeConfig(cross_section=CIRCLE, mode_label="k=+1", gamma=-0.5, shift=1.0,
                          points=33, levels=2)
    report = power_domain_probe(AsymptoticsTerm(QRat(1), 0, "k=+1"), 0.5, pc)
    assert report.verdict in ("member", "non-member", "inconclusive") and len(report.ratios) == 1


def test_power_domain_probe_unknown_outer_bc():
    pc = PowerProbeConfig(cross_section=CIRCLE, mode_label="k=0", gamma=-0.5, shift=1.0,
                          outer_bc="robin")
    with pytest.raises(ConfigError, match="robin"):
        power_domain_probe(AsymptoticsTerm(QRat(0), 0, "k=0"), 0.5, pc)


def test_zero_eigenvalue_is_not_sectorial():
    with pytest.raises(NotSectorialError, match="branch cut"):
        complex_power(OperatorMatrix.tridiag(np.zeros(2), [0.0, 1.0], np.zeros(2)), -0.5)


def test_complex_shifted_mode_operator_is_not_sectorial():
    # complex bands leave no symmetric form, so no real spectrum by
    # structure; a tolerance on Im mu let the wide 321- and 641-point
    # spectra through
    for tau_min, J in ((-4.0, 33), (-10.0, 321), (-16.0, 641)):
        M = (-assemble_mode_operator(1, 0, LogGrid(tau_min, J), "neumann")).shifted(1.0)
        for v in (None, np.ones(J)):
            with pytest.raises(NotSectorialError, match="no symmetric form: complex bands"):
                complex_power(M.shifted(0.5j), -0.5, v)


def test_complex_power_needs_a_real_spectrum_by_structure():
    negative = OperatorMatrix.tridiag(np.full(9, -1.0), np.full(9, 3.0), np.ones(9))
    for v in (None, np.ones(negative.dim)):
        with pytest.raises(NotSectorialError, match="no symmetric form: complex bands or a "
                                                    "negative band product"):
            complex_power(negative, 0.5, v)
    M = _symmetrizable_tridiagonal(np.random.default_rng(17), 8)
    z = -0.5 + 0.3j
    P = complex_power(M, z)
    assert P.provenance["method"] == "spectral"
    assert 0.0 < P.provenance["gate"] <= power_calculus._SPECTRAL_GATE
    assert P.provenance["nodes"] == 0 and P.provenance["tail_bound"] == 0.0
    want = eig_power_oracle(M, z)
    assert np.max(np.abs(P.data - want)) <= 1e-12 * np.max(np.abs(want))


def _shifted_mode(J):
    return (-assemble_mode_operator(1, 0, LogGrid(-4.0, J), "neumann")).shifted(1.0)


@pytest.mark.parametrize("make", [
    lambda: _shifted_mode(65),
    lambda: (-assemble_mode_operator(1, 0, LogGrid(-4.0, 65), "dirichlet")).shifted(1.0),
    lambda: (-assemble_mode_operator(2, -2, LogGrid(-4.0, 65), "neumann")).shifted(1.0),
    lambda: OperatorMatrix.tridiag(np.zeros(9), np.arange(9.0, 0.0, -1.0), np.zeros(9)),
], ids=["neumann-k0", "dirichlet-frozen-row", "n2-neumann", "diagonal-zero-products"])
def test_tridiagonal_eigenvalues_match_dense(make):
    M = make()
    got = M.eigenvalues()
    assert got.dtype == float            # the symmetric tridiagonal path
    want = np.sort(np.linalg.eigvals(M.to_dense()).real)
    assert np.max(np.abs(np.sort(got) - want) / np.abs(want)) <= 1e-10


@pytest.mark.parametrize("make", [
    lambda: _shifted_mode(33).shifted(0.5j),                             # complex diagonal
    lambda: OperatorMatrix.tridiag(np.full(9, -1.0), np.ones(9), np.ones(9)),  # products < 0
    lambda: OperatorMatrix.tridiag(np.full(9, 1j), np.ones(9), np.ones(9)),    # complex products
], ids=["complex-shift", "negative-products", "complex-products"])
def test_general_band_eigenvalues_fall_back_to_dense(make):
    M = make()
    got, want = np.sort(M.eigenvalues()), np.sort(np.linalg.eigvals(M.to_dense()))
    assert got.dtype == complex
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("J", [9, 33])
def test_batched_inv_norm_matches_scalar_calls_and_svd(J, monkeypatch):
    M = _shifted_mode(J)
    lams = np.array(_sector_samples(0.75 * math.pi, 10, 1e6))
    with monkeypatch.context() as m:
        # with no early stop every shift runs the iteration of a scalar call
        m.setattr(operators, "_STOP_TOL", 0.0)
        batch = M.inv_norm2_estimate(lams)[0]
        scalar = np.array([M.inv_norm2_estimate(lam)[0][0] for lam in lams])
    assert np.max(np.abs(batch - scalar) / scalar) <= 1e-13
    norms, iterations, unconverged = M.inv_norm2_estimate(lams)
    assert 1 <= iterations <= 40 and 0 <= unconverged <= len(lams)
    A = M.to_dense()
    exact = np.array([1.0 / np.linalg.svd(A + lam * np.eye(J), compute_uv=False)[-1]
                      for lam in lams])
    assert np.all(norms >= 0.98 * exact) and np.all(norms <= exact * (1 + 1e-12))


def _lockstep_inv_norm(M, lams):
    """The resolvent-norm estimate with every shift iterated until all pass the stopping test."""
    lams = np.asarray(lams, dtype=complex)
    dl, d, du = M.data
    dlh = np.zeros_like(dl)
    dlh[1:] = np.conj(du[:-1])
    duh = np.zeros_like(du)
    duh[:-1] = np.conj(dl[1:])
    D = d + lams[:, None]
    bands = (np.broadcast_to(dl, D.shape), D, np.broadcast_to(du, D.shape))
    adjoint = (np.broadcast_to(dlh, D.shape), np.conj(D), np.broadcast_to(duh, D.shape))
    rng = np.random.default_rng(operators._NORM_SEED)
    v = rng.standard_normal(M.dim) + 1j * rng.standard_normal(M.dim)
    v = np.tile(v / np.linalg.norm(v), (len(lams), 1))
    sigma = np.zeros(len(lams))
    moving = np.ones(len(lams), dtype=bool)
    it = 0
    while it < operators._NORM_ITERS and moving.any():
        it += 1
        w = thomas_batch(*adjoint, thomas_batch(*bands, v))
        nw = np.linalg.norm(w, axis=1)
        moving = np.abs(nw - sigma) >= operators._STOP_TOL * nw
        sigma, v = nw, w / nw[:, None]
    return np.sqrt(sigma), it, int(moving.sum())


@pytest.mark.parametrize("n_samples", [10, 200])
def test_deflated_inv_norm_matches_lockstep(n_samples):
    M = (-assemble_mode_operator(1, 0, LogGrid(-6.0, 129), "neumann")).shifted(1.0)
    lams = _sector_samples(0.75 * math.pi, n_samples, 1e6)
    norms, iterations, unconverged = M.inv_norm2_estimate(lams)
    want, want_iterations, want_unconverged = _lockstep_inv_norm(M, lams)
    assert np.max(np.abs(norms - want) / want) <= 1e-12
    assert (iterations, unconverged) == (want_iterations, want_unconverged)
    assert 0 < unconverged < len(lams)       # samples left the batch at different times


def test_inv_norm_stops_when_converged():
    M = OperatorMatrix.tridiag(np.zeros(9), np.arange(1.0, 10.0), np.zeros(9))
    lams = np.array([0.0, 1j, -0.5 + 2j])
    norms, iterations, unconverged = M.inv_norm2_estimate(lams)
    assert iterations < 40 and unconverged == 0
    assert np.allclose(norms, 1.0 / np.abs(1.0 + lams), rtol=1e-12)
    A = M.to_dense()
    exact = [np.linalg.norm(np.linalg.inv(A + lam * np.eye(9)), 2) for lam in lams]
    assert np.allclose(exact, norms, rtol=1e-12)
    # far out on the rays the shifted diagonal entries crowd together and
    # some samples stop at the cap; the report says how many
    rep = sectorial_probe(M, 0.75 * math.pi, n_samples=10)
    lams = np.array(_sector_samples(0.75 * math.pi, 10, 1e6))
    _norms, iterations, unconverged = M.inv_norm2_estimate(lams)
    assert (rep.iterations, rep.unconverged) == (iterations, unconverged)
    assert iterations == 40 and unconverged > 0


@pytest.mark.parametrize("a", [1.0, 3.7, 50.0])
@pytest.mark.parametrize("z", [-0.25, -0.5 + 0.3j, -0.9])
def test_quadrature_nodes_reproduce_scalar_power(a, z):
    lams, weights, _bound = _real_spectrum_nodes(0.5, 50.0, complex(z))
    assert abs(np.sum(weights / (a + lams)) - a ** z) <= 1e-9 * abs(a ** z)


def test_tridiagonal_power_chunks_match_dense_route():
    M = _shifted_mode(33)       # an apply to the identity: 3 nodes per kernel call
    z = -0.5 + 0.1j
    tri = complex_power(M, z, np.eye(33))
    dense = complex_power(M, z)         # the spectral forming of the same operator
    assert dense.provenance["method"] == "spectral"
    assert np.max(np.abs(tri - dense.data)) <= 1e-12 * np.max(np.abs(dense.data))


@pytest.mark.parametrize("z", [-0.5 + 0.2j, 0.5, 0.9, 0.5j, 1 + 0.5j, 2 + 0.3j])
@pytest.mark.parametrize("n, eigenvalue", [(1, 0), (1, -1), (2, 0), (2, -2)],
                         ids=["n1-k0", "n1-k+1", "n2-k0", "n2-k+1"])
def test_spectral_power_matches_oracle(n, eigenvalue, z):
    # the off-diagonal of the symmetric form carries sign(du): without it the
    # eigenvectors, and so M^z, are O(1) wrong while the eigenvalues are right
    M = (-assemble_mode_operator(n, eigenvalue, LogGrid(-4.0, 33), "neumann")).shifted(1.0)
    P = complex_power(M, z)
    assert P.provenance["method"] == "spectral" and P.provenance["tail_bound"] == 0.0
    want = eig_power_oracle(M, z)
    assert np.max(np.abs(P.data - want)) <= 1e-10 * np.max(np.abs(want))
    # every apply takes the quadrature: on the identity it forms the same matrix
    Q = complex_power(M, z, np.eye(33))
    assert np.max(np.abs(Q - P.data)) <= 1e-10 * np.max(np.abs(P.data))
    v = np.linspace(1.0, 2.0, 33)
    got = complex_power(M, z, v)
    assert np.max(np.abs(got - want @ v)) <= 1e-10 * np.max(np.abs(want @ v))


def _dirichlet_mode(J):
    return (-assemble_mode_operator(1, 0, LogGrid(-4.0, J), "dirichlet")).shifted(1.0)


def test_badly_conditioned_and_dirichlet_operators_take_quadrature():
    M = (-assemble_mode_operator(1, 0, LogGrid(-16.0, 641), "neumann")).shifted(1.0)
    method, gate = power_route(M)
    assert method == "quadrature" and gate > 1e-3
    M = _dirichlet_mode(33)
    assert power_route(M) == ("quadrature", None)
    P = complex_power(M, -0.5 + 0.2j)
    assert P.provenance["method"] == "quadrature" and P.provenance["nodes"] > 0
    assert 0.0 < P.provenance["tail_bound"] <= power_calculus._QUAD_TOL
    want = eig_power_oracle(M, -0.5 + 0.2j)
    assert np.max(np.abs(P.data - want)) <= 1e-10 * np.max(np.abs(want))
    v = np.linspace(1.0, 2.0, 33)
    assert np.max(np.abs(complex_power(M, 0.5, v) - eig_power_oracle(M, 0.5) @ v)) \
        <= 1e-10 * np.max(np.abs(v))


@pytest.mark.parametrize("z", [-0.5 + 0.2j, 0.5, 0.99, 0.5j, 1 + 0.5j, 2 + 0.3j,
                               -1.5 + 0.2j, -2.0])
def test_quadrature_matches_the_dirichlet_oracle(z):
    # an integer part of z leaves a remainder with Re in [-1, 0), never Re 0
    M = _dirichlet_mode(33)
    want = eig_power_oracle(M, z)
    P = complex_power(M, z)
    assert P.provenance["method"] == "quadrature"
    assert np.max(np.abs(P.data - want)) <= 1e-10 * np.max(np.abs(want))
    v = np.linspace(1.0, 2.0, 33)
    got = complex_power(M, z, v)
    assert np.max(np.abs(got - want @ v)) <= 1e-10 * np.max(np.abs(want @ v))


@pytest.mark.parametrize("label, eigenvalue", [("k=0", 0), ("k=+1", -1)])
def test_semigroup_matches_one_solve_past_the_gate(label, eigenvalue):
    # M^(-0.5+0.2i) M^(-0.5-0.2i) v = M^-1 v, the right side by one LAPACK solve
    grid = LogGrid(-16.0, 641)
    M = (-assemble_mode_operator(1, eigenvalue, grid, "neumann")).shifted(1.0)
    assert power_route(M)[0] == "quadrature"
    v = np.ones(641) if label == "k=0" else 1.0 / grid.x
    got = complex_power(M, -0.5 - 0.2j, complex_power(M, -0.5 + 0.2j, v))
    want = np.linalg.solve(M.to_dense(), v)
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


@pytest.mark.parametrize("z", [-0.5, -0.1, -0.01, -0.99, -0.5 + 0.3j, -1 + 0.5j])
def test_real_spectrum_nodes_reproduce_scalar_powers(z):
    lams, weights, bound = _real_spectrum_nodes(1.0, 4.5e17, complex(z))
    assert bound <= power_calculus._QUAD_TOL and len(lams) == len(weights)
    a = np.geomspace(1.0, 4.5e17, 200)
    got = np.sum(weights / (a[:, None] + lams), axis=1)
    assert np.max(np.abs(got - a ** z) / np.abs(a ** z)) <= 5e-11


@pytest.mark.parametrize("lo, hi, z", [(0.5, 50.0, -0.5 + 0.3j), (1.0, 4.5e17, -0.1),
                                       (0.3, 6e11, -0.9 - 2.0j), (2.0, 3.0, -1.0)])
def test_real_spectrum_nodes_come_in_exact_conjugate_pairs(lo, hi, z):
    # the quadrature solves one node of each pair and conjugates for the other
    lams, weights, _bound = _real_spectrum_nodes(lo, hi, complex(z))
    n = len(lams) // 2
    assert len(lams) == 2 * n == len(weights)
    assert np.array_equal(lams[::-1], lams.conj())
    assert np.all(lams[:n].imag > 0) or np.all(lams[:n].imag < 0)


@pytest.mark.parametrize("J", [33, 257])
@pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
def test_quadrature_node_count_covers_imaginary_part(J, s):
    # the trapezoid error grows like exp(2 pi |Im z|): the node count pays for it
    M = _dirichlet_mode(J)
    z = -0.5 + 1j * s
    P = complex_power(M, z)
    assert P.provenance["method"] == "quadrature"
    assert 0.0 < P.provenance["tail_bound"] <= power_calculus._QUAD_TOL
    want = eig_power_oracle(M, z)
    assert np.max(np.abs(P.data - want)) <= 1e-11 * np.max(np.abs(want))


@pytest.mark.parametrize("z", [-0.5, -0.5 + 0.3j, 0.7 - 0.2j])
def test_complex_apply_is_real_and_imaginary_applies(z):
    M = _dirichlet_mode(33)
    rng = np.random.default_rng(11)
    for v in (rng.standard_normal(33) + 1j * rng.standard_normal(33),
              rng.standard_normal((33, 3)) + 1j * rng.standard_normal((33, 3))):
        got = complex_power(M, z, v)
        parts = complex_power(M, z, v.real) + 1j * complex_power(M, z, v.imag)
        assert np.max(np.abs(got - parts)) <= 1e-14 * np.max(np.abs(parts))
        want = eig_power_oracle(M, z) @ v
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def test_lowest_eigenvalue_past_the_gate():
    # the quadrature's interval and the positivity check read eigenvalues()[0];
    # constants span the kernel of L on k=0 Neumann, so M = 1 - L has lowest eigenvalue 1
    M = (-assemble_mode_operator(1, 0, LogGrid(-16.0, 513), "neumann")).shifted(1.0)
    assert power_route(M)[0] == "quadrature"
    assert abs(M.eigenvalues()[0] - 1.0) <= 1e-9


@pytest.mark.parametrize("z", [-0.5, -0.3 + 0.4j, -1.0 + 0.2j])
def test_quadrature_keeps_an_exact_eigenvector_past_the_gate(z):
    # M 1 = 1 on k=0 Neumann, so M^z 1 = 1 for every z
    M = (-assemble_mode_operator(1, 0, LogGrid(-16.0, 641), "neumann")).shifted(1.0)
    assert power_route(M)[0] == "quadrature"
    assert np.max(np.abs(complex_power(M, z, np.ones(641)) - 1.0)) <= 1e-10


def test_benchmark_tracer_counts_one_solve_per_node_pair(monkeypatch):
    # the per-layer row count of perfbench/spans.py, unedited, halves with the pairing
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", Path(__file__).resolve().parents[1] / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    nodes = []

    def recorded(*args):
        out = _real_spectrum_nodes(*args)
        nodes.append(len(out[0]))
        return out

    monkeypatch.setattr(power_calculus, "_real_spectrum_nodes", recorded)
    pc = PowerProbeConfig(cross_section=CIRCLE, mode_label="k=+1", gamma=-0.5, shift=1.0,
                          points=33, levels=2)
    tracer = spans.Tracer()
    tracer.install()
    try:
        power_domain_probe(AsymptoticsTerm(QRat(1), 0, "k=+1"), 0.5, pc)
    finally:
        tracer.uninstall()
    rows = tracer.get("operators.solve_shifted_batch", "rows")
    assert len(nodes) == 2 and rows > 0 and rows == sum(nodes) // 2
    assert tracer.get("kernels.thomas_batch", "rows") == rows


@pytest.mark.parametrize("make, v, route", [
    (lambda: _dirichlet_mode(33), None, "quadrature"),
    (lambda: (-assemble_mode_operator(1, 0, LogGrid(-16.0, 161), "neumann")).shifted(1.0),
     None, "quadrature"),
    (lambda: _shifted_mode(33), None, "spectral"),
    (lambda: _shifted_mode(33), np.ones(33), "quadrature"),
], ids=["dirichlet", "gated-out", "spectral", "apply"])
def test_one_spectrum_per_call(make, v, route, spectra):
    M = make()
    outs = [complex_power(M, z, v) for z in (0.5 + 0.1j, -0.5, 1.25)]
    assert spectra == [M.dim]                 # three powers of one operator
    if v is None:
        assert all(out.provenance["method"] == route for out in outs)


def test_spectral_power_rejects_eigenvalue_on_the_cut():
    # symmetric form [[-1, 1], [1, 2]]: eigenvalues -1.30 and 2.30
    M = OperatorMatrix.tridiag([0.0, 1.0], [-1.0, 2.0], [1.0, 0.0])
    assert power_route(M)[0] == "spectral"
    with pytest.raises(NotSectorialError, match="branch cut"):
        complex_power(M, 0.5)
