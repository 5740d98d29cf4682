"""Batched tridiagonal kernels: conelab's LAPACK layer, one stacked call per batch.

No other module calls LAPACK or reads its factor format. Entry points:
``thomas_batch`` solves a batch (``zgtsv``); ``factor_batch`` factors one
(``zgttrf``) for ``solve_normal``, which applies (A A^*)^-1 on the factors
(``zgttrs`` with the inverse, then its adjoint: the resolvent-norm
estimate); ``evolve_theta`` runs the theta march of the heat modes and
returns its trajectory as one array, handing each row to an optional hook
once it is final; ``backend_name`` names the backend.

Band convention: a batch of nb systems of size J is stored as three (nb, J)
arrays (dl, d, du) with dl[:, 0] and du[:, -1] unused. Set those two entries
to zero and the batch is one block-diagonal tridiagonal system of size
nb*J, so one LAPACK call solves every block. ``zgtsv`` and ``zgttrf`` pivot
by rows, which the shifted resolvents need: they are neither diagonally
dominant nor M-matrices. The march needs no pivoting: on the symmetric form
of the mode operators I - theta*dt*S is symmetric positive definite, so it
takes one ``dpttrf`` (L D L^T) for all modes and one ``dpttrs`` per step.

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

Batches: callers bound them, and each call copies its whole batch once.
``complex_power`` hands ``thomas_batch`` at most 4096 solution entries, or
one shift, and one node of each conjugate pair of its quadrature: the real
bands give the partner's solve by conjugation, and a complex right-hand
side arrives as its real and imaginary columns. ``factor_batch`` and the
march factor their whole batch in one call: the factors are kept for every
later solve. An exactly singular block (``info > 0``), or a march whose
I - theta*dt*S is not positive definite, raises NumericalError naming its
batch row and the pivot position inside it.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs, zgtsv, zgttrf, zgttrs

from .errors import NumericalError


def _check(info: int, routine: str, J: int):
    if info > 0:
        row, pos = divmod(info - 1, J)
        raise NumericalError(f"singular tridiagonal system in batch row {row}: "
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

    Returns the factors (dl, d, du, du2, ipiv) as ``zgttrs`` takes them, for
    ``solve_normal``. The bands are copied, never written. An exactly singular
    block raises NumericalError naming its batch row and pivot position.
    """
    *lu, info = zgttrf(*_stacked(dl, d, du), overwrite_dl=1, overwrite_d=1, overwrite_du=1)
    _check(info, "zgttrf", np.shape(d)[1])
    return lu


def solve_normal(lu, b):
    """(A A^*)^-1 b on the factors ``factor_batch`` made of A, in place on b.

    b is the stacked right-hand side (nb*J,), overwritten: two ``zgttrs``
    solves on the same factors, A^-1 (trans 'N') and then A^-* (trans 'C').
    """
    x, _ = zgttrs(*lu, b, overwrite_b=1)
    x, _ = zgttrs(*lu, x, trans="C", overwrite_b=1)
    return x


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
    # column c of the stacked system is rhs[:, :, c]: Fortran order
    b = np.array(rhs.transpose(2, 0, 1), dtype=np.complex128, order="C").reshape(k, -1).T
    # overwrite_dl/d/du/b on the batch's own copies, passed by position:
    # keywords cost about 1 us per call
    *_, x, info = zgtsv(*_stacked(dl, d, du), b, 1, 1, 1, 1)
    _check(info, "zgtsv", J)
    out = x.T.reshape(k, nb, J)
    return out[0] if vector else out.transpose(1, 2, 0)


def evolve_theta(d, e, scale, coupling, theta, dt, u0, n_steps, snap_every, forcing=None,
                 on_snapshot=None):
    """March A u+ = B u + forcing(step) for n_steps on the symmetric form; return the trajectory.

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
    bit for bit into every row of the trajectory, and the entry L[m-1, m] of
    each mode, given in coupling (nb,), enters row m-1 as the constant
    dt*L[m-1, m]*u0[m] (that is -A[m-1, m]/theta times u0[m]). coupling is
    None when m = J. forcing, if given, maps the step index (1..n_steps) to
    the (nb, J) term added to the right-hand side of A u+ = B u; its frozen
    columns are not read. A non-positive pivot of S_A raises NumericalError
    naming its batch row. Returns the trajectory, one complex array: row
    ceil(s/snap_every) holds the state at step s = 0, snap_every,
    2*snap_every, ... and n_steps, and row 0 is a copy of u0. on_snapshot,
    if given, is called as on_snapshot(k, row) as soon as row k is final,
    row 0 before the first step; row is the trajectory's C-ordered (nb, J)
    row k, to be read and not written.
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
    rows = -(-n_steps // snap_every) + 1
    traj = np.empty((rows, nb, J), dtype=complex)
    traj[0] = u0
    traj[1:, :, m:] = u0[:, m:]
    if on_snapshot is not None:
        on_snapshot(0, traj[0])
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
        if keep == 1.0:                     # theta = 1/2: w - v, the same bits as -v + w
            np.subtract(w, v, out=v)
        else:
            v *= -keep
            v += w
        if step % snap_every == 0 or step == n_steps:
            k = -(-step // snap_every)
            row = traj[k]                   # u = D^-1 v in the first m columns
            np.divide(v[0], scale, out=row.real[:, :m])
            np.divide(v[1], scale, out=row.imag[:, :m])
            if on_snapshot is not None:
                on_snapshot(k, row)
    return traj


def backend_name() -> str:
    return "lapack"
