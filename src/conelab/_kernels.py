"""Batched tridiagonal kernels: one stacked LAPACK call per chunk of the batch.

Band convention: a batch of nb systems of size J is stored as three (nb, J)
arrays (dl, d, du) with dl[:, 0] and du[:, -1] unused. Set those two entries
to zero and the batch is one block-diagonal tridiagonal system of size
nb*J, so one LAPACK call solves every block: ``zgtsv`` for solves, and
``factor_batch`` (one ``zgttrf``) once plus ``zgttrs`` per solve for the
theta march and the resolvent-norm estimate. Both pivot by rows, which the
shifted resolvents need: they are neither diagonally dominant nor
M-matrices. The march stacks B the same way and forms B u on
the flat arrays, where the zeroed corners keep each block's product exact.

Why the blocks stay independent: the subdiagonal entry at a block boundary
is zero, so elimination never swaps rows across it and any multiplier it
forms there is an exact zero; a row interchange inside a block only carries
that block's zeroed du[-1] into the fill-in. Every product that reaches
across a boundary therefore has an exact zero factor, which changes no
value while the neighbouring block is finite, and inside a block LAPACK
does the operations of a solve on its own. The values agree exactly; the
one possible trace is the sign of a zero in the solution, which can differ
from that of a solve on its own (seen when a block's right-hand side is
all zeros).

Chunks: one ``thomas_batch`` call takes at most _CHUNK solution entries
(block rows times right-hand sides, at least one block). Bands and
right-hand sides are converted and copied one chunk at a time, so a batch
over thousands of shifts never holds a second full copy of broadcast
bands. ``factor_batch`` factors its whole batch in one call: its factors
are kept for every later solve, so they are one full copy. An exactly
singular block (``info > 0``) raises NumericalError naming its batch row and
the pivot position inside it.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import zgtsv, zgttrf, zgttrs

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


def _matvec(bands, x, out, prod):
    """out = B x on flat stacked bands (``_stacked``); prod is work space of size x.size - 1."""
    lo, diag, up = bands
    np.multiply(diag, x, out=out)
    out[1:] += np.multiply(lo, x[:-1], out=prod)
    out[:-1] += np.multiply(up, x[1:], out=prod)
    return out


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
    """Batched tridiagonal matrix-vector product."""
    u = np.ascontiguousarray(u, dtype=np.complex128)
    out = np.empty_like(u)
    _matvec(_stacked(dl, d, du), u.reshape(-1), out.reshape(-1), np.empty(u.size - 1, complex))
    return out


def evolve_theta(Adl, Ad, Adu, Bdl, Bd, Bdu, u0, n_steps, snap_every, forcing=None):
    """March u <- A^-1 (B u + forcing(step)) for n_steps, snapshotting every snap_every.

    A = I - theta*dt*L and B = I + (1-theta)*dt*L are prefactored bands;
    both are stacked once into block-diagonal systems of size nb*J. A is
    factored once and each step is one solve; B u is formed on the flat
    stacked bands, whose zeroed corners make each block's product exact.
    forcing, if given, maps the step index (1..n_steps) to the term added
    to the right-hand side of that step.
    Returns (final state, snapshots array of shape (n_steps//snap_every, ...)).
    """
    lo, up = _stacked(Bdl, Bd, Bdu)[::2]              # B is only read: its diagonal needs no copy
    B = lo, np.ascontiguousarray(Bd, dtype=np.complex128).reshape(-1), up
    lu = factor_batch(Adl, Ad, Adu)
    u = np.array(u0, dtype=np.complex128, order="C")   # never the caller's array
    rhs = np.empty_like(u)
    prod = np.empty(u.size - 1, dtype=np.complex128)
    snaps = np.empty((n_steps // snap_every, *u.shape), dtype=complex)
    for step in range(1, n_steps + 1):
        y = _matvec(B, u.reshape(-1), rhs.reshape(-1), prod)   # a view of rhs
        if forcing is not None:
            rhs += forcing(step)
        zgttrs(*lu, y, overwrite_b=1)                   # solves in place
        u, rhs = rhs, u
        if step % snap_every == 0:
            snaps[step // snap_every - 1] = u
    return u, snaps


def backend_name() -> str:
    return "lapack"
