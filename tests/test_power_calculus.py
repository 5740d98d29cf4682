"""Sectorial probes, Dunford powers, domain probes."""

import math

import numpy as np
import pytest

from conelab import operators, power_calculus
from conelab._kernels import thomas_batch
from conelab.asymptotics import AsymptoticsTerm
from conelab.cone_geometry import CrossSection
from conelab.errors import ConfigError, NotSectorialError, NumericalError
from conelab.heat_solver import assemble_mode_operator
from conelab.mellin_sobolev import LogGrid
from conelab.operators import OperatorMatrix
from conelab.power_calculus import (ContourSpec, PowerProbeConfig, complex_power,
                                    dunford_apply, dunford_power, eig_power_oracle,
                                    find_sectorial_shift,
                                    _contour_nodes, _sector_samples, power_domain_probe,
                                    power_route, sectorial_probe)
from conelab.rational import QRat

CIRCLE = CrossSection.circle(length_over_pi=2)


def _random_hpd(rng, dim=8, shift=0.5):
    A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return OperatorMatrix.dense(A @ A.conj().T / dim + shift * np.eye(dim))


def test_scalar_powers():
    M = OperatorMatrix.dense([[2.0]])
    assert abs(dunford_power(M, -1.0).data[0, 0] - 0.5) < 1e-10
    assert abs(dunford_power(M, -0.5).data[0, 0] - 2.0 ** -0.5) < 1e-8


def test_diagonal_power():
    D = OperatorMatrix.dense(np.diag([1.0, 4.0]))
    P = dunford_power(D, -0.3).data
    assert abs(P[0, 0] - 1.0) < 1e-8 and abs(P[1, 1] - 4.0 ** -0.3) < 1e-8
    assert abs(P[0, 1]) < 1e-10 and abs(P[1, 0]) < 1e-10


def test_oracle_equivalence_and_semigroup():
    rng = np.random.default_rng(7)
    M = _random_hpd(rng)
    z1, z2 = -0.6 + 0.2j, -0.35 - 0.15j
    P1, P2 = dunford_power(M, z1).data, dunford_power(M, z2).data
    assert np.max(np.abs(P1 - eig_power_oracle(M, z1))) < 1e-7
    assert np.max(np.abs(P1 @ P2 - dunford_power(M, z1 + z2).data)) < 1e-7


def test_contour_independence():
    rng = np.random.default_rng(3)
    M = _random_hpd(rng)
    rho = 0.5 * float(np.min(np.abs(M.eigenvalues())))
    a = dunford_power(M, -0.4, ContourSpec(rho=rho, n_quad=64)).data
    b = dunford_power(M, -0.4, ContourSpec(rho=rho, n_quad=128)).data
    assert np.max(np.abs(a - b)) < 1e-8


def test_dunford_apply_matches_power():
    rng = np.random.default_rng(5)
    M = _random_hpd(rng)
    P = dunford_power(M, -0.5).data
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    assert np.max(np.abs(dunford_apply(M, -0.5, v) - P @ v)) < 1e-9
    V = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
    assert np.max(np.abs(dunford_apply(M, -0.5, V) - P @ V)) < 1e-9


@pytest.mark.parametrize("k", [None, 1, 5])
def test_dunford_node_chunks_stay_bounded(k, monkeypatch):
    M = (-assemble_mode_operator(1, 0, LogGrid(-16.0, 641), "neumann")).shifted(1.0)
    shape = (M.dim,) if k is None else (M.dim, k)
    v = np.ones(shape)
    limit = max(1, power_calculus._RESOLVENT_ENTRIES // v.size)
    calls = []
    solve = OperatorMatrix.solve_shifted_batch

    def counted(self, lams, rhs):
        calls.append(len(lams))
        return solve(self, lams, rhs)

    monkeypatch.setattr(OperatorMatrix, "solve_shifted_batch", counted)
    contour = ContourSpec(rho=0.5, n_quad=16)
    out = dunford_apply(M, -0.1, v, contour)
    assert out.shape == shape
    nodes = len(_contour_nodes(contour, -0.1 + 0j)[0])
    assert sum(calls) == nodes and len(calls) > 1 and max(calls) <= limit


def test_complex_power_integer_and_fraction():
    rng = np.random.default_rng(9)
    M = _random_hpd(rng)
    v = rng.standard_normal(8)
    want = eig_power_oracle(M, 1.5) @ v
    got = complex_power(M, 1.5, v)
    assert np.max(np.abs(got - want)) < 1e-7
    # plain integer power
    got2 = complex_power(M, 2.0, v)
    assert np.max(np.abs(got2 - M.data @ (M.data @ v))) < 1e-9


def test_imaginary_power_regularized():
    rng = np.random.default_rng(13)
    M = _random_hpd(rng)
    v = rng.standard_normal(8)
    got = complex_power(M, 0.5j, v)
    want = eig_power_oracle(M, 0.5j) @ v
    assert np.max(np.abs(got - want)) < 1e-6


def test_sectorial_probe_diag_matches_closed_form():
    M = OperatorMatrix.dense(np.diag([1.0, 2.0]))
    rep = sectorial_probe(M, math.pi / 2, n_samples=200)
    closed = max((1.0 + abs(l)) / min(abs(1.0 + l), abs(2.0 + l))
                 for l, _ in rep.samples)
    assert abs(rep.K - closed) < 1e-9
    # the true supremum sqrt(2) sits at |lambda| = 1 on the imaginary rays
    assert rep.K <= math.sqrt(2) + 1e-9


def test_sectorial_probe_scalar_identity():
    rep = sectorial_probe(OperatorMatrix.dense([[1.0]]), 0.0, n_samples=60)
    assert abs(rep.K - 1.0) < 1e-12


def test_sectorial_rejects_sector_hit():
    M = OperatorMatrix.dense(np.diag([-1.0, 2.0]))
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
    A = _random_hpd(rng, shift=1.0).data
    W = A @ A
    for lam in (0.0, 2.0, 3.0 * np.exp(0.6j * math.pi)):
        R = np.linalg.inv(A + lam * np.eye(8))
        assert np.max(np.abs(W @ R @ np.linalg.inv(W) - R)) <= 1e-12 * np.max(np.abs(R))


def test_find_sectorial_shift_ladder():
    g = LogGrid(-5.0, 129)
    L = assemble_mode_operator(1, 0, g, "neumann")
    c, rep = find_sectorial_shift(L, 0.75 * math.pi, n_samples=40)
    assert c >= 1.0 and math.isfinite(rep.K)


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


def test_power_domain_probe_unknown_mode():
    pc = PowerProbeConfig(cross_section=CIRCLE, mode_label="k=+99", gamma=-0.5, shift=1.0)
    with pytest.raises(ConfigError, match="k=\\+99"):
        power_domain_probe(AsymptoticsTerm(QRat(0), 0, "k=0"), 0.5, pc)


def test_power_domain_probe_unknown_outer_bc():
    pc = PowerProbeConfig(cross_section=CIRCLE, mode_label="k=0", gamma=-0.5, shift=1.0,
                          outer_bc="robin")
    with pytest.raises(ConfigError, match="robin"):
        power_domain_probe(AsymptoticsTerm(QRat(0), 0, "k=0"), 0.5, pc)


def test_dunford_rejects_nonnegative_exponent():
    M = OperatorMatrix.dense([[2.0]])
    with pytest.raises(ConfigError):
        dunford_power(M, 0.5)


def test_tail_bound_guard():
    # at Re z = -0.01 the ray end that meets tol_tail overflows a float; it
    # stops at the 1e300 ceiling, where the tail bound misses the tolerance
    M = OperatorMatrix.dense([[2.0]])
    contour = ContourSpec(rho=1.0, tol_tail=1e-10)
    assert contour.ray_end(-0.01 + 0j)[0] == 1e300
    with pytest.raises(NumericalError, match="tail bound"):
        dunford_power(M, -0.01, contour)
    # the Dunford remainder of z = 0.99 is -0.01
    M = (-assemble_mode_operator(1, 0, LogGrid(-4.0, 33), "dirichlet")).shifted(1.0)
    with pytest.raises(NumericalError, match="tail bound"):
        complex_power(M, 0.99, np.ones(33))


def test_contour_without_rho_takes_half_the_smallest_eigenvalue():
    M = (-assemble_mode_operator(1, 0, LogGrid(-4.0, 33), "dirichlet")).shifted(1.0)
    z = -0.5 + 0.2j
    P = complex_power(M, z, contour=ContourSpec(n_quad=48))
    assert P.provenance["method"] == "dunford"
    assert P.provenance["contour"].rho == 0.5 * float(np.min(np.abs(M.eigenvalues())))
    want = eig_power_oracle(M, z)
    assert np.max(np.abs(P.data - want)) <= 1e-8 * np.max(np.abs(want))
    with pytest.raises(NotSectorialError, match="zero eigenvalue"):
        dunford_power(OperatorMatrix.dense(np.diag([0.0, 1.0])), -0.5)


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
    dense = OperatorMatrix.dense(M.to_dense())
    assert dense.inv_norm2_estimate(lams)[1:] == (0, 0)       # exact, no iteration
    assert np.allclose(dense.inv_norm2_estimate(lams)[0], norms, rtol=1e-12)
    # far out on the rays the shifted diagonal entries crowd together and
    # some samples stop at the cap; the report says how many
    rep = sectorial_probe(M, 0.75 * math.pi, n_samples=10)
    lams = np.array(_sector_samples(0.75 * math.pi, 10, 1e6))
    _norms, iterations, unconverged = M.inv_norm2_estimate(lams)
    assert (rep.iterations, rep.unconverged) == (iterations, unconverged)
    assert iterations == 40 and unconverged > 0


@pytest.mark.parametrize("spec, z, count", [((0.5, 16), -0.5 + 0.2j, 720),
                                            ((0.01, 48), -0.9, 1392)])
def test_contour_node_count(spec, z, count):
    lams, weights, _tail = _contour_nodes(ContourSpec(rho=spec[0], n_quad=spec[1]), z)
    assert len(lams) == len(weights) == count


@pytest.mark.parametrize("a", [1.0, 3.7, 50.0])
@pytest.mark.parametrize("z", [-0.25, -0.5 + 0.3j, -0.9])
def test_contour_reproduces_scalar_power(a, z):
    lams, weights, _tail = _contour_nodes(ContourSpec(rho=0.5), z)
    assert abs(np.sum(weights / (a + lams)) - a ** z) <= 1e-9 * abs(a ** z)


def test_tridiagonal_power_chunks_match_dense_route():
    M = _shifted_mode(33)       # 12 chunks of nodes, a few nodes per kernel call
    z = -0.5 + 0.1j
    contour = ContourSpec(rho=0.5, n_quad=32)
    tri = dunford_power(M, z, contour).data
    dense = dunford_power(OperatorMatrix.dense(M.to_dense()), z, contour).data
    assert np.max(np.abs(tri - dense)) <= 1e-12 * np.max(np.abs(dense))


@pytest.mark.parametrize("z", [-0.5 + 0.2j, 0.5, 0.9, 0.5j])
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
    v = np.linspace(1.0, 2.0, 33)
    got = complex_power(M, z, v)
    assert np.max(np.abs(got - want @ v)) <= 1e-10 * np.max(np.abs(want @ v))


def test_badly_conditioned_and_dirichlet_operators_take_dunford():
    M = (-assemble_mode_operator(1, 0, LogGrid(-16.0, 641), "neumann")).shifted(1.0)
    method, gate = power_route(M)
    assert method == "dunford" and gate > 1e-3
    M = (-assemble_mode_operator(1, 0, LogGrid(-4.0, 33), "dirichlet")).shifted(1.0)
    assert power_route(M) == ("dunford", None)
    P = complex_power(M, -0.5 + 0.2j)
    assert P.provenance["method"] == "dunford" and P.provenance["nodes"] > 0
    want = eig_power_oracle(M, -0.5 + 0.2j)
    assert np.max(np.abs(P.data - want)) <= 1e-8 * np.max(np.abs(want))
    v = np.linspace(1.0, 2.0, 33)
    assert np.max(np.abs(complex_power(M, 0.5, v) - eig_power_oracle(M, 0.5) @ v)) \
        <= 1e-7 * np.max(np.abs(v))


def test_spectral_power_rejects_eigenvalue_on_the_cut():
    # symmetric form [[-1, 1], [1, 2]]: eigenvalues -1.30 and 2.30
    M = OperatorMatrix.tridiag([0.0, 1.0], [-1.0, 2.0], [1.0, 0.0])
    assert power_route(M)[0] == "spectral"
    with pytest.raises(NotSectorialError, match="branch cut"):
        complex_power(M, 0.5)
