"""LAPACK tridiagonal kernels against dense linear algebra."""

import numpy as np
import pytest
from scipy.linalg.lapack import zgtsv, zgttrf, zgttrs

from conelab import _kernels
from conelab.errors import ConfigError, NumericalError
from conelab.operators import OperatorMatrix


def _random_bands(rng, nb, J):
    dl = rng.standard_normal((nb, J)) * 0.1 + 0j
    du = rng.standard_normal((nb, J)) * 0.1 + 0j
    d = (2.0 + np.abs(rng.standard_normal((nb, J)))).astype(complex)  # diagonally dominant
    dl[:, 0] = 0.0
    du[:, -1] = 0.0
    return dl, d, du


def _pivoting_bands(rng, nb, J):
    """Bands whose leading diagonal is zero or tiny: elimination must swap rows."""
    dl = rng.standard_normal((nb, J)) + 1j * rng.standard_normal((nb, J))
    du = rng.standard_normal((nb, J)) + 1j * rng.standard_normal((nb, J))
    d = 1e-8 * rng.standard_normal((nb, J)) + 0j
    d[:, 0] = 0.0
    dl[:, 0] = 0.0
    du[:, -1] = 0.0
    return dl, d, du


def _dense(dl, d, du):
    return np.diag(d) + np.diag(dl[1:], -1) + np.diag(du[:-1], 1)


def test_thomas_batch_matches_dense_solve():
    rng = np.random.default_rng(8)
    for bands in (_random_bands, _pivoting_bands):
        dl, d, du = bands(rng, 3, 40)
        rhs = rng.standard_normal((3, 40)) + 1j * rng.standard_normal((3, 40))
        out = _kernels.thomas_batch(dl, d, du, rhs)
        for b in range(3):
            A = _dense(dl[b], d[b], du[b])
            assert np.allclose(out[b], np.linalg.solve(A, rhs[b]), rtol=1e-9, atol=1e-11)
            assert np.allclose(A @ out[b], rhs[b], atol=1e-11)


def test_matvec_matches_dense():
    rng = np.random.default_rng(2)
    dl, d, du = _random_bands(rng, 2, 17)
    u = rng.standard_normal((2, 17)) + 0j
    out = _kernels.tridiag_matvec(dl, d, du, u)
    for b in range(2):
        assert np.allclose(out[b], _dense(dl[b], d[b], du[b]) @ u[b])


def test_evolve_theta_equals_stepwise():
    rng = np.random.default_rng(5)
    for bands in (_random_bands, _pivoting_bands):
        dl, d, du = bands(rng, 2, 25)
        Adl, Ad, Adu = -0.5 * dl, 1.0 - 0.5 * d, -0.5 * du
        Bdl, Bd, Bdu = 0.5 * dl, 1.0 + 0.5 * d, 0.5 * du
        if bands is _pivoting_bands:
            Ad = d.copy()              # A itself needs row interchanges
        u0 = rng.standard_normal((2, 25)) + 0j
        u0_before = u0.copy()
        terms = rng.standard_normal((7, 2, 25)) + 1j * rng.standard_normal((7, 2, 25))
        for forcing in (None, lambda step: terms[step]):
            final, snaps = _kernels.evolve_theta(Adl, Ad, Adu, Bdl, Bd, Bdu, u0, 6, 2,
                                                 forcing)
            assert np.array_equal(u0, u0_before)
            u = u0.copy()
            for step in range(1, 7):
                rhs = _kernels.tridiag_matvec(Bdl, Bd, Bdu, u)
                if forcing is not None:
                    rhs = rhs + terms[step]
                u = _kernels.thomas_batch(Adl, Ad, Adu, rhs)
            assert np.allclose(final, u, atol=1e-12)
            assert snaps.shape == (3, 2, 25)
            assert np.allclose(snaps[-1], u, atol=1e-12)
            # two dense steps (3 and 4) from the first snapshot reproduce the second
            for b in range(2):
                A, B = _dense(Adl[b], Ad[b], Adu[b]), _dense(Bdl[b], Bd[b], Bdu[b])
                f3, f4 = (0, 0) if forcing is None else (terms[3, b], terms[4, b])
                two = np.linalg.solve(A, B @ np.linalg.solve(A, B @ snaps[0, b] + f3) + f4)
                assert np.allclose(snaps[1, b], two, rtol=1e-8, atol=1e-10)


def _unstacked_march(Adl, Ad, Adu, Bdl, Bd, Bdu, u0, n_steps, snap_every, forcing):
    """The march with B u on 2-D row slices, as evolve_theta formed it before B was stacked."""
    Bdl, Bd, Bdu = (np.ascontiguousarray(b, dtype=np.complex128) for b in (Bdl, Bd, Bdu))
    *lu, info = zgttrf(*_kernels._stacked(Adl, Ad, Adu))
    assert info == 0
    u = np.array(u0, dtype=np.complex128)
    snaps = []
    for step in range(1, n_steps + 1):
        rhs = Bd * u
        rhs[:, 1:] += Bdl[:, 1:] * u[:, :-1]
        rhs[:, :-1] += Bdu[:, :-1] * u[:, 1:]
        if forcing is not None:
            rhs += forcing(step)
        x, info = zgttrs(*lu, rhs.reshape(-1))
        assert info == 0
        u = x.reshape(u.shape)
        if step % snap_every == 0:
            snaps.append(u)
    return u, np.array(snaps).reshape(-1, *u.shape)


@pytest.mark.parametrize("nb,J", [(4, 2), (2, 25), (5, 129)])
def test_evolve_theta_matches_the_unstacked_march_bit_for_bit(nb, J):
    rng = np.random.default_rng(100 * nb + J)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    for kind in ("complex", "pivoting", "frozen"):
        dl, d, du = cplx(nb, J), cplx(nb, J), cplx(nb, J)
        Adl, Ad, Adu = -0.3 * dl, 1.0 - 0.3 * d, -0.3 * du
        Bdl, Bd, Bdu = 0.7 * dl, 1.0 + 0.7 * d, 0.7 * du
        if kind == "pivoting":
            Ad = 1e-8 * cplx(nb, J)             # A itself needs row interchanges
            Ad[:, 0] = 0.0
        if kind == "frozen":                    # a Dirichlet row: u[:, -1] never moves
            Adl[:, -1] = Bdl[:, -1] = 0.0
            Ad[:, -1] = Bd[:, -1] = 1.0
        for band in (Adl, Bdl):
            band[:, 0] = 1e3 * cplx(nb)         # garbage in the unused corners
        for band in (Adu, Bdu):
            band[:, -1] = -1e3 * cplx(nb)
        u0 = cplx(nb, J)
        terms = cplx(8, nb, J)
        if kind == "frozen":
            terms[:, :, -1] = 0.0
        before = [a.copy() for a in (Bdl, Bd, Bdu, u0)]
        for forcing in (None, lambda step: terms[step]):
            final, snaps = _kernels.evolve_theta(Adl, Ad, Adu, Bdl, Bd, Bdu, u0, 7, 2,
                                                 forcing)
            ref_final, ref_snaps = _unstacked_march(Adl, Ad, Adu, Bdl, Bd, Bdu, u0, 7, 2,
                                                    forcing)
            assert np.array_equal(final, ref_final)
            assert snaps.shape == ref_snaps.shape == (3, nb, J)
            assert np.array_equal(snaps, ref_snaps)
            for a, b in zip((Bdl, Bd, Bdu, u0), before):
                assert np.array_equal(a, b)


def test_singular_system_raises_numerical_error():
    rng = np.random.default_rng(1)
    dl, d, du = _random_bands(rng, 2, 12)
    d[1, -1] = dl[1, -1] = 0.0                      # zero last row in batch row 1
    with pytest.raises(NumericalError, match="batch row 1"):
        _kernels.thomas_batch(dl, d, du, np.ones((2, 12)))
    with pytest.raises(NumericalError, match="batch row 1"):
        _kernels.evolve_theta(dl, d, du, dl, d, du, np.ones((2, 12)), 2, 1)


def test_solve_shifted_zero_last_row_raises_numerical_error():
    dl, d, du = (np.full(9, v, dtype=complex) for v in (1.0, -2.0, 1.0))
    dl[0] = du[-1] = 0.0
    dl[-1] = d[-1] = 0.0
    op = OperatorMatrix.tridiag(dl, d, du)
    with pytest.raises(NumericalError):
        op.solve_shifted_batch(np.array([0.0]), np.ones(9))


@pytest.mark.parametrize("kind, dim", [("tridiag", 3), ("tridiag", 9),
                                       ("dense", 3), ("dense", 9)])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_operator_rejects_non_finite_entries(kind, dim, bad):
    bands = [np.ones(dim, dtype=complex) for _ in range(3)]
    bands[0][0] = bad                  # the unused slot dl[0] is stored too
    dense = np.eye(dim, dtype=complex)
    dense[0, -1] = bad
    with pytest.raises(ConfigError, match="non-finite"):
        OperatorMatrix(kind, bands if kind == "tridiag" else dense)


@pytest.mark.parametrize("rhs_shape", [(7,), (7, 3)])
def test_dense_solve_shifted_batch_matches_per_shift_solve(rhs_shape):
    rng = np.random.default_rng(4)
    A = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
    rhs = rng.standard_normal(rhs_shape) + 1j * rng.standard_normal(rhs_shape)
    lams = np.array([0.0, 1.5j, -0.3 + 2.0j, 4.0])
    got = OperatorMatrix.dense(A).solve_shifted_batch(lams, rhs)
    assert got.shape == (len(lams),) + rhs_shape
    for lam, sol in zip(lams, got):
        assert np.allclose(sol, np.linalg.solve(A + lam * np.eye(7), rhs), rtol=1e-12, atol=0)


def test_backend_name():
    assert _kernels.backend_name() == "lapack"


def _per_row_zgtsv(dl, d, du, rhs):
    """Reference: one zgtsv call per batch row, as a solve on its own."""
    out = np.empty(np.shape(rhs), dtype=complex)
    for b in range(len(d)):
        *_, out[b], info = zgtsv(dl[b, 1:], d[b], du[b, :-1], rhs[b])
        assert info == 0
    return out


def test_thomas_batch_stacked_chunks_equal_per_row_solves():
    rng = np.random.default_rng(11)
    # full per-row bands whose unused corners hold garbage, over several chunks
    nb, J = 3 * _kernels._CHUNK // 40 + 5, 40
    for bands in (_random_bands, _pivoting_bands):
        dl, d, du = bands(rng, nb, J)
        dl[:, 0], du[:, -1] = 3.0 + 1j, -7.0
        rhs = rng.standard_normal((nb, J)) + 1j * rng.standard_normal((nb, J))
        before = [a.copy() for a in (dl, d, du, rhs)]
        out = _kernels.thomas_batch(dl, d, du, rhs)
        assert np.all(out == _per_row_zgtsv(dl, d, du, rhs))
        assert all(np.array_equal(a, b) for a, b in zip((dl, d, du, rhs), before))
    # broadcast read-only bands and right-hand sides with a trailing axis
    nb, J, k = 50, 33, 7
    assert nb * J * k > 2 * _kernels._CHUNK
    dl, d, du = _pivoting_bands(rng, 1, J)
    shape = (nb, J)
    D = d + rng.standard_normal((nb, 1)) + 1j * rng.standard_normal((nb, 1))
    B = rng.standard_normal((J, k)) + 1j * rng.standard_normal((J, k))
    DL, DU, R = (np.broadcast_to(dl[0], shape), np.broadcast_to(du[0], shape),
                 np.broadcast_to(B, (nb, J, k)))
    out = _kernels.thomas_batch(DL, D, DU, R)
    assert out.shape == (nb, J, k)
    assert np.all(out == _per_row_zgtsv(DL, D, DU, R))


def test_zero_pivot_in_later_chunk_names_row_and_position():
    rng = np.random.default_rng(4)
    J = 40
    nb = 3 * (_kernels._CHUNK // J) + 2
    dl, d, du = _random_bands(rng, nb, J)
    row, pos = nb - 2, 17                     # in the last chunk
    dl[row] = 0.0                             # upper bidiagonal: no elimination
    d[row, pos - 1] = 0.0
    msg = rf"batch row {row}: {{}} found a zero pivot at position {pos}$"
    with pytest.raises(NumericalError, match=msg.format("zgtsv")):
        _kernels.thomas_batch(dl, d, du, np.ones((nb, J)))
    with pytest.raises(NumericalError, match=msg.format("zgttrf")):
        _kernels.evolve_theta(dl, d, du, dl, d, du, np.ones((nb, J)), 1, 1)
    with pytest.raises(NumericalError, match=msg.format("zgttrf")):
        _kernels.factor_batch(dl, d, du)


def _adjoint_bands(dl, d, du):
    """Bands of the adjoint of each block: sub- and superdiagonal swap and conjugate."""
    dlh, duh = np.zeros_like(dl), np.zeros_like(du)
    dlh[:, 1:] = np.conj(du[:, :-1])
    duh[:, :-1] = np.conj(dl[:, 1:])
    return dlh, np.conj(d), duh


@pytest.mark.parametrize("J", [24, 25])
def test_factor_batch_solves_both_directions(J):
    rng = np.random.default_rng(J)
    nb = 6
    for bands in (_random_bands, _pivoting_bands):
        dl, d, du = bands(rng, nb, J)
        dl[:, 0], du[:, -1] = 3.0 + 1j, -7.0          # garbage in the unused corners
        rhs = rng.standard_normal((nb, J)) + 1j * rng.standard_normal((nb, J))
        before = [a.copy() for a in (dl, d, du, rhs)]
        lu = _kernels.factor_batch(dl, d, du)
        if bands is _pivoting_bands:                  # elimination swapped rows
            assert np.any(lu[4] != np.arange(1, nb * J + 1))
        for trans, want in (("N", _kernels.thomas_batch(dl, d, du, rhs)),
                            ("C", _kernels.thomas_batch(*_adjoint_bands(dl, d, du), rhs))):
            x, info = zgttrs(*lu, rhs.reshape(-1), trans=trans)
            assert info == 0
            err = np.max(np.abs(x.reshape(nb, J) - want), axis=1)
            assert np.all(err <= 1e-13 * np.max(np.abs(want), axis=1))
        assert all(np.array_equal(a, b) for a, b in zip((dl, d, du, rhs), before))


def test_inv_norm_estimate_never_writes_its_inputs():
    # its solves run in place, on a start vector of its own
    rng = np.random.default_rng(9)
    dl, d, du = _pivoting_bands(rng, 1, 16)
    M = OperatorMatrix.tridiag(dl[0], d[0] + 3.0, du[0])
    lams = np.array([0.0, 1.0 + 2.0j, -0.5 + 4.0j])   # contiguous complex: no copy on entry
    before = [a.copy() for a in (*M.data, lams)]
    M.inv_norm2_estimate(lams)
    assert all(np.array_equal(a, b) for a, b in zip((*M.data, lams), before))
