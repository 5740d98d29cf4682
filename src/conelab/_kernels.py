"""Batched tridiagonal kernels on LAPACK's pivoted routines.

Solves go through ``zgtsv`` (one call per batch row); the theta march
factors each row of A once with ``zgttrf`` and reuses the factors through
``zgttrs`` every step. Both pivot by rows, which the shifted resolvents
need: they are neither diagonally dominant nor M-matrices. An exactly
singular system (``info > 0``) raises NumericalError.

Band convention: tridiagonal systems are stored as three length-J arrays
(dl, d, du) with dl[0] and du[-1] unused, batched over a leading axis.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import zgtsv, zgttrf, zgttrs

from .errors import NumericalError


def _c128(a):
    return np.ascontiguousarray(a, dtype=np.complex128)


def _check(info: int, routine: str, row: int):
    if info > 0:
        raise NumericalError(f"singular tridiagonal system in batch row {row}: "
                             f"{routine} found a zero pivot at position {info}")


def _matvec(dl, d, du, u, out):
    """out = A u with tridiagonal A, batched."""
    out[:, :] = d * u
    out[:, 1:] += dl[:, 1:] * u[:, :-1]
    out[:, :-1] += du[:, :-1] * u[:, 1:]
    return out


def thomas_batch(dl, d, du, rhs):
    """Solve batched tridiagonal systems; leading axis is the batch."""
    dl, d, du, rhs = map(_c128, (dl, d, du, rhs))
    out = np.empty_like(rhs)
    for b in range(d.shape[0]):
        *_, out[b], info = zgtsv(dl[b, 1:], d[b], du[b, :-1], rhs[b])
        _check(info, "zgtsv", b)
    return out


def tridiag_matvec(dl, d, du, u):
    """Batched tridiagonal matrix-vector product."""
    out = np.empty_like(np.asarray(u, dtype=complex))
    return _matvec(np.asarray(dl), np.asarray(d), np.asarray(du),
                   np.asarray(u, dtype=complex), out)


def evolve_theta(Adl, Ad, Adu, Bdl, Bd, Bdu, u0, n_steps, snap_every):
    """March u <- A^-1 B u for n_steps, snapshotting every snap_every steps.

    A = I - theta*dt*L and B = I + (1-theta)*dt*L are prefactored bands.
    Returns (final state, snapshots array of shape (n_steps//snap_every, ...)).
    """
    Adl, Ad, Adu, Bdl, Bd, Bdu = map(_c128, (Adl, Ad, Adu, Bdl, Bd, Bdu))
    u = _c128(u0).copy()          # marched in place; never the caller's array
    factors = []
    for b in range(Ad.shape[0]):
        *lu, info = zgttrf(Adl[b, 1:], Ad[b], Adu[b, :-1])
        _check(info, "zgttrf", b)
        factors.append(lu)
    snaps = np.empty((n_steps // snap_every, *u.shape), dtype=complex)
    rhs = np.empty_like(u)
    for step in range(1, n_steps + 1):
        _matvec(Bdl, Bd, Bdu, u, rhs)
        for b, lu in enumerate(factors):
            u[b], _ = zgttrs(*lu, rhs[b])
        if step % snap_every == 0:
            snaps[step // snap_every - 1] = u
    return u, snaps


def backend_name() -> str:
    return "lapack"
