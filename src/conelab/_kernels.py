"""Batched tridiagonal kernels: one stacked LAPACK call per chunk of the batch.

Band convention: a batch of nb systems of size J is stored as three (nb, J)
arrays (dl, d, du) with dl[:, 0] and du[:, -1] unused. Set those two entries
to zero and the batch is one block-diagonal tridiagonal system of size
nb*J, so one LAPACK call solves every block: ``zgtsv`` for solves, and
``factor_batch`` (one ``zgttrf``) once plus ``zgttrs`` per solve for the
resolvent-norm estimate. Both pivot by rows, which the shifted resolvents
need: they are neither diagonally dominant nor M-matrices.

The theta march (``evolve_theta``) needs no pivoting: it runs on the
symmetric form of the mode operators, where I - theta*dt*S is symmetric
positive definite, with one ``dpttrf`` (L D L^T) for all modes and one
``dpttrs`` per step.

Why the blocks stay independent: the subdiagonal entry at a block boundary
is zero, so elimination never swaps rows across it and any multiplier it
forms there is an exact zero; a row interchange inside a block only carries
that block's zeroed du[-1] into the fill-in. Every product that reaches
across a boundary therefore has an exact zero factor, which changes no
value while the neighbouring block is finite, and inside a block LAPACK
does the operations of a solve on its own. The values agree exactly; the
one possible trace is the sign of a zero in the solution, which can differ
from that of a solve on its own (seen when a block's right-hand side is
all zeros). The same holds for ``dpttrf``/``dpttrs``, whose off-diagonal
is zero at every block boundary.

Chunks: one ``thomas_batch`` call takes at most _CHUNK solution entries
(block rows times right-hand sides, at least one block). Bands and
right-hand sides are converted and copied one chunk at a time, so a batch
over thousands of shifts never holds a second full copy of broadcast
bands. ``factor_batch`` and the march factor their whole batch in one
call: the factors are kept for every later solve, so they are one full
copy. An exactly singular block (``info > 0``), or a march whose
I - theta*dt*S is not positive definite, raises NumericalError naming its
batch row and the pivot position inside it.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs, zgtsv, zgttrf

from .errors import NumericalError

_CHUNK = 4096          # solution entries per stacked LAPACK call


def _check(info: int, routine: str, first_row: int, J: int):
    if info > 0:
        row, pos = divmod(info - 1, J)
        raise NumericalError(f"singular tridiagonal system in batch row {first_row + row}: "
                             f"{routine} found a zero pivot at position {pos + 1}")


def _stacked(dl, d, du):
    """Fresh copies of (nb, J) bands as one block-diagonal system of size nb*J."""
    lo = np.array(dl, dtype=np.complex128, order="C")
    diag = np.array(d, dtype=np.complex128, order="C")
    up = np.array(du, dtype=np.complex128, order="C")
    lo[:, 0] = 0.0
    up[:, -1] = 0.0
    return lo.ravel()[1:], diag.ravel(), up.ravel()[:-1]


def factor_batch(dl, d, du):
    """LU factors of (nb, J) bands stacked into one block-diagonal system: one ``zgttrf``.

    Returns the factors (dl, d, du, du2, ipiv) as ``zgttrs`` takes them; a
    solve with trans 'N' applies the inverse, one with trans 'C' the inverse
    of the adjoint. The bands are copied, never written. An exactly singular
    block raises NumericalError naming its batch row and pivot position.
    """
    *lu, info = zgttrf(*_stacked(dl, d, du), overwrite_dl=1, overwrite_d=1, overwrite_du=1)
    _check(info, "zgttrf", 0, np.shape(d)[1])
    return lu


def thomas_batch(dl, d, du, rhs):
    """Solve batched tridiagonal systems; leading axis is the batch.

    rhs is (nb, J), or (nb, J, k) for k right-hand sides per system. Inputs
    may be read-only or broadcast views: nothing is written to them.
    """
    nb, J = np.shape(d)
    rhs = np.asarray(rhs)
    vector = rhs.ndim == 2
    if vector:
        rhs = rhs[..., None]
    k = rhs.shape[2]
    out = np.empty((k, nb, J), dtype=np.complex128)
    step = max(1, _CHUNK // (J * k))
    for s in range(0, nb, step):
        e = min(s + step, nb)
        # column c of the stacked system is rhs[s:e, :, c]: Fortran order
        b = np.array(rhs[s:e].transpose(2, 0, 1), dtype=np.complex128,
                     order="C").reshape(k, -1).T
        # overwrite_dl/d/du/b on the chunk's own copies, passed by position:
        # keywords cost about 1 us per call
        *_, x, info = zgtsv(*_stacked(dl[s:e], d[s:e], du[s:e]), b, 1, 1, 1, 1)
        _check(info, "zgtsv", s, J)
        out[:, s:e] = x.T.reshape(k, e - s, J)
    return out[0] if vector else out.transpose(1, 2, 0)


def tridiag_matvec(dl, d, du, u):
    """Batched tridiagonal matrix-vector product on the flat stacked bands (``_stacked``)."""
    x = np.ascontiguousarray(u, dtype=np.complex128).reshape(-1)
    lo, diag, up = _stacked(dl, d, du)
    out = diag * x
    out[1:] += lo * x[:-1]
    out[:-1] += up * x[1:]
    return out.reshape(np.shape(u))


def evolve_theta(d, e, scale, coupling, theta, dt, u0, n_steps, snap_every, forcing=None):
    """March A u+ = B u + forcing(step) for n_steps on the symmetric form, snapshotting.

    Each of the nb modes has a real mode operator L = D^-1 S D on its first
    m = d.shape[1] rows: S is symmetric tridiagonal with diagonal d (nb, m)
    and off-diagonal e (nb, m-1), and D = diag(scale). A = I - theta*dt*L
    and B = I + (1-theta)*dt*L, so B = (1/theta) I - ((1-theta)/theta) A and
    a step needs no B: on v = D u it is

        v+ = S_A^-1 (v/theta + D forcing(step)) - ((1-theta)/theta) v,

    with S_A = D A D^-1 = I - theta*dt*S symmetric positive definite. S_A
    is stacked over the modes and factored once (one ``dpttrf``); the state
    is one real (2, nb*m) array of real and imaginary parts, so each step is
    one ``dpttrs`` with two right-hand sides. Each mode gets the values of
    a march on its own, up to the sign of a zero.

    Columns m.. of u0 are frozen (a Dirichlet row, m = J-1): they are copied
    bit for bit into every snapshot, and the entry L[m-1, m] of each mode,
    given in coupling (nb,), enters row m-1 as the constant dt*L[m-1, m]*u0[m]
    (that is -A[m-1, m]/theta times u0[m]). coupling is None when m = J.
    forcing, if given, maps the step index (1..n_steps) to the (nb, J) term
    added to the right-hand side of A u+ = B u; its frozen columns are not read.
    A non-positive pivot of S_A raises NumericalError naming its batch row.
    Returns (final state, snapshots array of shape (n_steps//snap_every, nb, J)).
    """
    u0 = np.asarray(u0)
    nb, J = u0.shape
    m = np.shape(d)[1]
    off = np.zeros((nb, m))                 # zero at every block boundary
    off[:, :-1] = e
    off = -theta * dt * off.reshape(-1)
    # nb*m - 1 entries; the wrapper takes one even for a 1x1 system
    ad, ae, info = dpttrf(1.0 - theta * dt * np.ravel(d), off[:max(off.size - 1, 1)],
                          overwrite_d=1, overwrite_e=1)
    if info > 0:
        row, pos = divmod(info - 1, m)
        raise NumericalError(f"theta system not positive definite in batch row {row}: "
                             f"dpttrf found a non-positive pivot at position {pos + 1}")
    v = np.empty((2, nb, m))
    np.multiply(u0.real[:, :m], scale, out=v[0])
    np.multiply(u0.imag[:, :m], scale, out=v[1])
    w = np.empty_like(v)
    b = w.reshape(2, -1).T                  # Fortran order: dpttrs solves it in place
    if coupling is not None:
        c = dt * coupling * u0[:, m] * scale[:, m - 1]
        push = np.stack([c.real, c.imag])
    inv, keep = 1.0 / theta, (1.0 - theta) / theta
    snaps = np.empty((n_steps // snap_every, nb, J), dtype=complex)
    snaps[:, :, m:] = u0[:, m:]
    for step in range(1, n_steps + 1):
        np.multiply(v, inv, out=w)
        if coupling is not None:
            w[:, :, -1] += push
        if forcing is not None:
            f = forcing(step)[:, :m]
            w[0] += f.real * scale
            if np.iscomplexobj(f):
                w[1] += f.imag * scale
        dpttrs(ad, ae, b, overwrite_b=1)
        v *= -keep
        v += w
        if step % snap_every == 0:
            _unscale(v, scale, snaps[step // snap_every - 1])
    final = np.empty((nb, J), dtype=complex)
    final[:, m:] = u0[:, m:]
    return _unscale(v, scale, final), snaps


def _unscale(v, scale, out):
    """Write u = D^-1 v into the first m columns of the complex (nb, J) array out."""
    m = v.shape[2]
    np.divide(v[0], scale, out=out.real[:, :m])
    np.divide(v[1], scale, out=out.imag[:, :m])
    return out


def backend_name() -> str:
    return "lapack"
