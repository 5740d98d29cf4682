"""Discretized per-mode operators: tridiagonal core plus boundary rows."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from ._kernels import thomas_batch, tridiag_matvec
from .errors import ConfigError, NumericalError

_STOP_TOL = 1e-12      # relative change between iterations that ends an estimate
_NORM_ITERS = 40       # iteration cap of an estimate
_NORM_SEED = 3         # seed of the shared start vector


@dataclass
class OperatorMatrix:
    """Dense or tridiagonal complex matrix with provenance metadata.

    Tridiagonal storage keeps three length-J bands (dl, d, du) with dl[0]
    and du[-1] unused; dense storage keeps the full array. Provenance
    records where the matrix came from so probe reports are reproducible.
    """

    kind: str                    # 'tridiag' | 'dense'
    data: tuple | np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind == "tridiag":
            dl, d, du = (np.asarray(a, dtype=complex) for a in self.data)
            if not (dl.shape == d.shape == du.shape) or d.ndim != 1:
                raise ConfigError("tridiagonal bands must be three equal-length 1-d arrays")
            self.data = (dl, d, du)
        elif self.kind == "dense":
            self.data = np.asarray(self.data, dtype=complex)
            if self.data.ndim != 2 or self.data.shape[0] != self.data.shape[1]:
                raise ConfigError("dense operator must be a square matrix")
        else:
            raise ConfigError(f"unknown operator storage {self.kind!r}")
        if not np.isfinite(self.data).all():
            raise ConfigError("operator contains non-finite entries")

    @staticmethod
    def tridiag(dl, d, du, **provenance) -> "OperatorMatrix":
        return OperatorMatrix("tridiag", (dl, d, du), dict(provenance))

    @staticmethod
    def dense(a, **provenance) -> "OperatorMatrix":
        return OperatorMatrix("dense", a, dict(provenance))

    @property
    def dim(self) -> int:
        return len(self.data[1]) if self.kind == "tridiag" else self.data.shape[0]

    def to_dense(self) -> np.ndarray:
        if self.kind == "dense":
            return np.array(self.data)
        dl, d, du = self.data
        a = np.diag(d)
        a += np.diag(dl[1:], -1)
        a += np.diag(du[:-1], 1)
        return a

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """M v for a vector (dim,) or a block of columns (dim, k)."""
        v = np.asarray(v, dtype=complex)
        if self.kind == "dense":
            return self.data @ v
        cols = v.reshape(self.dim, -1).T
        bands = (np.broadcast_to(b, cols.shape) for b in self.data)
        return tridiag_matvec(*bands, cols).T.reshape(v.shape)

    def shifted(self, c: complex) -> "OperatorMatrix":
        """M + c*I with provenance recording the shift."""
        prov = dict(self.provenance)
        prov["shift"] = prov.get("shift", 0.0) + c
        if self.kind == "dense":
            return OperatorMatrix("dense", self.data + c * np.eye(self.dim), prov)
        dl, d, du = self.data
        return OperatorMatrix("tridiag", (dl.copy(), d + c, du.copy()), prov)

    def __neg__(self) -> "OperatorMatrix":
        if self.kind == "dense":
            return OperatorMatrix("dense", -self.data, dict(self.provenance))
        dl, d, du = self.data
        return OperatorMatrix("tridiag", (-dl, -d, -du), dict(self.provenance))

    def solve_shifted_batch(self, lams: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """(M + lam_i)^-1 rhs for a batch of shifts and one right-hand side.

        rhs is a vector (dim,) or a block of columns (dim, k); returns
        (len(lams), dim) or (len(lams), dim, k).
        """
        lams = np.asarray(lams, dtype=complex)
        rhs = np.asarray(rhs, dtype=complex)
        if self.kind == "dense":
            n, dim = len(lams), self.dim
            block = np.broadcast_to(rhs.reshape(dim, -1), (n, dim, rhs.size // dim))
            sol = np.linalg.solve(self.data + lams[:, None, None] * np.eye(dim), block)
            return sol.reshape((n,) + rhs.shape)
        dl, d, du = self.data
        shape = (len(lams), self.dim)
        return thomas_batch(np.broadcast_to(dl, shape), d + lams[:, None],
                            np.broadcast_to(du, shape),
                            np.broadcast_to(rhs, shape + rhs.shape[1:]))

    def _symmetric_form(self) -> tuple | None:
        """(d, e, log_delta) with M = D^-1 S D, or None where the bands forbid it.

        S is the real symmetric tridiagonal with diagonal d and off-diagonal
        e[j] = sign(du[j]) sqrt(dl[j+1] du[j]); D = diag(exp(log_delta)).
        The eigenvalues of S ignore the sign of e, its eigenvectors do not.
        It needs real bands with products dl[j+1]*du[j] >= 0, else None. A
        zero product (the frozen Dirichlet row is one) splits M into blocks:
        S keeps M's eigenvalues but no D exists, and log_delta is None.
        """
        if self.kind != "tridiag":
            return None
        dl, d, du = self.data
        if dl.imag.any() or d.imag.any() or du.imag.any():
            return None
        lo, hi = dl.real[1:], du.real[:-1]
        p = lo * hi
        if np.any(p < 0):
            return None
        e = np.sign(hi) * np.sqrt(p)
        if not p.all():
            return d.real, e, None
        # (delta[j+1] / delta[j])^2 = du[j] / dl[j+1], summed in logs
        log_delta = np.concatenate([[0.0], np.cumsum(0.5 * (np.log(np.abs(hi))
                                                             - np.log(np.abs(lo))))])
        return d.real, e, log_delta - log_delta.max()

    def eigenvalues(self) -> np.ndarray:
        """The spectrum; exact symmetric tridiagonal eigenvalues where the bands allow.

        A tridiagonal with a symmetric form (_symmetric_form) takes
        eigvalsh_tridiagonal on it; any other operator takes dense eigvals.
        """
        form = self._symmetric_form()
        if form is not None:
            return eigvalsh_tridiagonal(form[0], form[1])
        return np.linalg.eigvals(self.to_dense())

    def inv_norm2_estimate(self, lams) -> tuple[np.ndarray, int, int]:
        """||(M+lam)^-1||_2 for each shift in lams: power iteration on the normal equations.

        Every shift iterates from the same seeded start vector: two batched
        solves per iteration, with (M+lam)^-1 and then its adjoint. A shift
        leaves the batch once its sigma (the estimate of the squared norm)
        changes by less than _STOP_TOL relative between iterations, and the
        loop ends when no shift is left or after _NORM_ITERS iterations.
        Power iteration approaches the norm from below.

        Returns (norms, iterations, unconverged): the estimates in the order
        of lams, the iterations run, and how many shifts still missed the
        stopping test at the end. Dense storage gives exact norms with 0
        iterations.
        """
        lams = np.atleast_1d(np.asarray(lams, dtype=complex))
        if self.kind == "dense":
            eye = np.eye(self.dim)
            norms = [np.linalg.norm(np.linalg.inv(self.data + lam * eye), 2) for lam in lams]
            return np.array(norms), 0, 0
        dl, d, du = self.data
        # bands of the adjoint: sub/super diagonals swap and conjugate
        dlh = np.zeros_like(dl)
        dlh[1:] = np.conj(du[:-1])
        duh = np.zeros_like(du)
        duh[:-1] = np.conj(dl[1:])
        rng = np.random.default_rng(_NORM_SEED)
        v = rng.standard_normal(self.dim) + 1j * rng.standard_normal(self.dim)
        v = np.tile(v / np.linalg.norm(v), (len(lams), 1))
        sigma = np.zeros(len(lams))
        live = np.arange(len(lams))           # shifts still in the batch
        D = d + lams[:, None]
        it = 0
        while it < _NORM_ITERS and live.size:
            it += 1
            shape = D.shape
            w = thomas_batch(np.broadcast_to(dlh, shape), np.conj(D), np.broadcast_to(duh, shape),
                             thomas_batch(np.broadcast_to(dl, shape), D,
                                          np.broadcast_to(du, shape), v))
            nw = np.linalg.norm(w, axis=1)
            bad = ~np.isfinite(nw) | (nw == 0)
            if bad.any():
                raise NumericalError("resolvent norm estimate failed at "
                                     f"lam={lams[live[np.argmax(bad)]]}")
            moving = np.abs(nw - sigma[live]) >= _STOP_TOL * nw
            sigma[live] = nw
            live, D, v = live[moving], D[moving], w[moving] / nw[moving, None]
        return np.sqrt(sigma), it, live.size
