"""LAPACK tridiagonal kernels against dense linear algebra."""

import dataclasses
import itertools

import numpy as np
import pytest
from scipy.linalg.lapack import zgtsv, zgttrs

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
    for b in range(2):
        M = OperatorMatrix.tridiag(dl[b], d[b], du[b])
        A = _dense(dl[b], d[b], du[b])
        assert np.allclose(M.matvec(u[b]), A @ u[b])
        assert np.allclose(M.matvec(u.T), A @ u.T)     # a block of columns
    dl[0, 0], du[0, -1] = 3.0, -7.0                     # the unused corners are not read
    M = OperatorMatrix.tridiag(dl[0], d[0], du[0])
    assert np.allclose(M.matvec(u[0]), _dense(dl[0], d[0], du[0]) @ u[0])


def _symmetric_modes(rng, nb, m):
    """Symmetric forms (d, e, scale) of nb modes L = D^-1 S D: S is negative definite."""
    e = rng.standard_normal((nb, m - 1))
    d = -(1.0 + rng.random((nb, m)))
    d[:, 1:] -= np.abs(e)                   # diagonally dominant: S <= -I
    d[:, :-1] -= np.abs(e)
    scale = np.exp(rng.uniform(-8.0, 0.0, (nb, m)))
    return d, e, scale


def _dense_mode(d, e, scale, coupling, J):
    """The (J, J) mode operator: D^-1 S D on the first m rows, then a frozen zero row."""
    m = len(d)
    L = np.zeros((J, J))
    L[:m, :m] = (np.diag(d) + np.diag(e, 1) + np.diag(e, -1)) * scale[None, :] / scale[:, None]
    if m < J:
        L[m - 1, m] = coupling
    return L


def test_evolve_theta_equals_stepwise():
    rng = np.random.default_rng(5)
    nb, J, theta, dt = 2, 25, 0.6, 0.05
    for m in (J, J - 1):                    # without and with a frozen Dirichlet row
        d, e, scale = _symmetric_modes(rng, nb, m)
        coupling = rng.standard_normal(nb) if m < J else None
        u0 = rng.standard_normal((nb, J)) + 1j * rng.standard_normal((nb, J))
        u0_before = u0.copy()
        terms = rng.standard_normal((7, nb, J)) + 1j * rng.standard_normal((7, nb, J))
        # rows at steps 0, 2, 4, 6 and at 0, 4, 6: the last step falls off the grid
        for every, forcing in itertools.product(
                (2, 4), (None, lambda step: terms[step], lambda step: terms[step].real)):
            traj = _kernels.evolve_theta(d, e, scale, coupling, theta, dt, u0, 6, every,
                                         forcing)
            assert np.array_equal(u0, u0_before)
            assert traj.shape == ({2: 4, 4: 3}[every], nb, J)
            assert np.array_equal(traj[0], u0)
            for b in range(nb):
                L = _dense_mode(d[b], e[b], scale[b], None if coupling is None else coupling[b],
                                J)
                A, B = np.eye(J) - theta * dt * L, np.eye(J) + (1.0 - theta) * dt * L
                u = u0[b]
                for step in range(1, 7):
                    f = np.zeros(J, complex) if forcing is None else forcing(step)[b] + 0j
                    f[m:] = 0.0                 # frozen columns take no forcing
                    u = np.linalg.solve(A, B @ u + f)
                    if step % every == 0 or step == 6:
                        got = traj[-(-step // every), b]
                        assert np.max(np.abs(got - u)) <= 1e-12 * np.max(np.abs(u))
                assert np.all(traj[:, b, m:] == u0[b, m:])   # frozen columns in every row


@pytest.mark.parametrize("nb,J", [(4, 2), (2, 25), (5, 129)])
def test_evolve_theta_matches_the_unstacked_march_bit_for_bit(nb, J):
    # the stacked march gives every mode the values of a march of that mode
    # on its own, up to the sign of a zero (== treats -0 and 0 alike)
    rng = np.random.default_rng(100 * nb + J)
    for m in (J, J - 1):
        d, e, scale = _symmetric_modes(rng, nb, m)
        coupling = rng.standard_normal(nb) if m < J else None
        u0 = rng.standard_normal((nb, J)) + 1j * rng.standard_normal((nb, J))
        u0[0] = 0.0                             # a mode at rest
        u0[:, m:] = complex(-0.0, 5e-324)
        terms = rng.standard_normal((8, nb, J)) + 1j * rng.standard_normal((8, nb, J))
        terms[:, :, m:] = np.nan                # frozen columns of a forcing are not read
        before = [a.copy() for a in (d, e, scale, u0)]
        for forcing in (None, lambda step: terms[step]):
            # rows at steps 0, 2, 4, 6 and 7
            traj = _kernels.evolve_theta(d, e, scale, coupling, 0.7, 0.3, u0, 7, 2, forcing)
            assert traj.shape == (5, nb, J)
            for b in range(nb):
                # LAPACK solves a lone 1x1 system by a multiply with 1/d, not a
                # division: a mode with m = 1 is marched beside a copy of itself
                own = [b] if m > 1 else [b, b]
                alone = None if forcing is None else (lambda step, own=own: terms[step, own])
                ref = _kernels.evolve_theta(
                    d[own], e[own], scale[own], None if coupling is None else coupling[own],
                    0.7, 0.3, u0[own], 7, 2, alone)
                assert np.array_equal(traj[:, b], ref[:, 0])
                if m == 1:                      # the lone 1x1 system agrees to rounding
                    lone = _kernels.evolve_theta(
                        d[b:b + 1], e[b:b + 1], scale[b:b + 1], coupling[b:b + 1], 0.7, 0.3,
                        u0[b:b + 1], 7, 2, None if forcing is None else
                        (lambda step, b=b: terms[step, b:b + 1]))
                    assert np.allclose(lone[-1], traj[-1, b:b + 1], rtol=1e-14, atol=0)
            # frozen columns: u0 bit for bit in every row, row 0 included
            frozen = traj[:, :, m:].view(np.uint64)
            assert np.all(frozen == u0[:, m:].view(np.uint64))
            assert np.all(traj[0].view(np.uint64) == u0.view(np.uint64))
            assert np.all(np.isfinite(traj))
            for a, b in zip((d, e, scale, u0), before):
                assert np.array_equal(a, b)


def test_singular_system_raises_numerical_error():
    rng = np.random.default_rng(1)
    dl, d, du = _random_bands(rng, 2, 12)
    d[1, -1] = dl[1, -1] = 0.0                      # zero last row in batch row 1
    with pytest.raises(NumericalError, match="batch row 1"):
        _kernels.thomas_batch(dl, d, du, np.ones((2, 12)))
    # an indefinite S_A = I - theta*dt*S: S has an eigenvalue above 1/(theta*dt)
    d, e, scale = _symmetric_modes(rng, 2, 12)
    d[1, 5] = 40.0
    with pytest.raises(NumericalError, match="not positive definite in batch row 1"):
        _kernels.evolve_theta(d, e, scale, None, 0.5, 0.1, np.ones((2, 12)), 2, 1)


def test_solve_shifted_zero_last_row_raises_numerical_error():
    dl, d, du = (np.full(9, v, dtype=complex) for v in (1.0, -2.0, 1.0))
    dl[0] = du[-1] = 0.0
    dl[-1] = d[-1] = 0.0
    op = OperatorMatrix.tridiag(dl, d, du)
    with pytest.raises(NumericalError):
        op.solve_shifted_batch(np.array([0.0]), np.ones(9))


@pytest.mark.parametrize("dim", [3, 9], ids=["tridiag-3", "tridiag-9"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_operator_rejects_non_finite_entries(dim, bad):
    bands = [np.ones(dim, dtype=complex) for _ in range(3)]
    bands[0][0] = bad                  # the unused slot dl[0] is stored too
    with pytest.raises(ConfigError, match="non-finite"):
        OperatorMatrix(tuple(bands))


def test_operator_owns_read_only_bands():
    bands = [np.ones(3, dtype=complex) for _ in range(3)]
    M = OperatorMatrix.tridiag(*bands)
    bands[1][0] = 5.0                           # the caller's array was copied
    assert M.data[1][0] == 1.0
    for band in M.data:
        with pytest.raises(ValueError, match="read-only"):
            band[0] = 2.0
    with pytest.raises(ValueError, match="read-only"):
        M.eigenvalues()[0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        M.data = tuple(bands)


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
    # full per-row bands whose unused corners hold garbage, over 3 * 4096 entries
    nb, J = 3 * 4096 // 40 + 5, 40
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
    assert nb * J * k > 2 * 4096
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
    nb = 3 * (4096 // J) + 2
    dl, d, du = _random_bands(rng, nb, J)
    row, pos = nb - 2, 17                     # far into the stacked system
    dl[row] = 0.0                             # upper bidiagonal: no elimination
    d[row, pos - 1] = 0.0
    msg = rf"batch row {row}: {{}} found a zero pivot at position {pos}$"
    with pytest.raises(NumericalError, match=msg.format("zgtsv")):
        _kernels.thomas_batch(dl, d, du, np.ones((nb, J)))
    # S_A = I - S is diagonal in that row, with a first negative entry at pos
    sd, se, scale = _symmetric_modes(rng, nb, J)
    se[row], sd[row, pos - 1:] = 0.0, 3.0
    with pytest.raises(NumericalError, match=msg.format("dpttrf").replace("zero", "non-positive")):
        _kernels.evolve_theta(sd, se, scale, None, 1.0, 1.0, np.ones((nb, J)), 1, 1)
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


def test_solve_normal_is_the_solve_then_the_adjoint_solve():
    rng = np.random.default_rng(12)
    dl, d, du = _pivoting_bands(rng, 3, 20)
    lu = _kernels.factor_batch(dl, d, du)
    rhs = rng.standard_normal(60) + 1j * rng.standard_normal(60)
    x, _ = zgttrs(*lu, rhs)
    want, _ = zgttrs(*lu, x, trans="C")
    b = rhs.copy()
    got = _kernels.solve_normal(lu, b)
    assert np.array_equal(got, want)
    for row in range(3):                      # (A A^*)^-1 of each block
        A = _dense(dl[row], d[row], du[row])
        part = slice(20 * row, 20 * row + 20)
        assert np.allclose(A @ A.conj().T @ got[part], rhs[part], rtol=1e-9, atol=1e-9)


def test_inv_norm_estimate_never_writes_its_inputs():
    # its solves run in place, on a start vector of its own
    rng = np.random.default_rng(9)
    dl, d, du = _pivoting_bands(rng, 1, 16)
    M = OperatorMatrix.tridiag(dl[0], d[0] + 3.0, du[0])
    lams = np.array([0.0, 1.0 + 2.0j, -0.5 + 4.0j])   # contiguous complex: no copy on entry
    before = [a.copy() for a in (*M.data, lams)]
    M.inv_norm2_estimate(lams)
    assert all(np.array_equal(a, b) for a, b in zip((*M.data, lams), before))
