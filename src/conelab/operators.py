"""Discretized per-mode operators: tridiagonal core plus boundary rows."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.linalg import eigvals, eigvalsh
from scipy.linalg import eigvalsh_tridiagonal
from scipy.linalg.lapack import zgttrs

from ._kernels import factor_batch, thomas_batch, tridiag_matvec
from .errors import ConfigError, NumericalError

_STOP_TOL = 1e-12      # relative change between iterations that ends an estimate
_NORM_ITERS = 40       # iteration cap of an estimate
_NORM_SEED = 3         # seed of the shared start vector


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Immutable dense or tridiagonal complex matrix with provenance metadata.

    Tridiagonal storage keeps three length-J bands (dl, d, du) with dl[0] and
    du[-1] unused; dense storage keeps the full array and has no band operations.
    The constructor keeps read-only copies of the bands (or the array), so the
    real structure and the spectrum derived from them are computed once, on first use.
    Provenance records where the matrix came from so probe reports are reproducible.
    """

    kind: str                    # 'tridiag' | 'dense'
    data: tuple | np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind == "tridiag":
            data = tuple(_read_only(np.array(a, dtype=complex)) for a in self.data)
            dl, d, du = data
            if not (dl.shape == d.shape == du.shape) or d.ndim != 1:
                raise ConfigError("tridiagonal bands must be three equal-length 1-d arrays")
        elif self.kind == "dense":
            data = _read_only(np.array(self.data, dtype=complex))
            if data.ndim != 2 or data.shape[0] != data.shape[1]:
                raise ConfigError("dense operator must be a square matrix")
        else:
            raise ConfigError(f"unknown operator storage {self.kind!r}")
        if not np.isfinite(data).all():
            raise ConfigError("operator contains non-finite entries")
        object.__setattr__(self, "data", data)

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

    def _bands(self) -> tuple:
        """(dl, d, du); band operations need tridiagonal storage."""
        if self.kind != "tridiag":
            raise ConfigError(f"band operations need tridiagonal storage, not {self.kind}")
        return self.data

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """M v for a vector (dim,) or a block of columns (dim, k)."""
        v = np.asarray(v, dtype=complex)
        cols = v.reshape(self.dim, -1).T
        bands = (np.broadcast_to(b, cols.shape) for b in self._bands())
        return tridiag_matvec(*bands, cols).T.reshape(v.shape)

    def shifted(self, c: complex) -> "OperatorMatrix":
        """M + c*I with provenance recording the shift."""
        dl, d, du = self._bands()
        prov = dict(self.provenance, shift=self.provenance.get("shift", 0.0) + c)
        return OperatorMatrix("tridiag", (dl, d + c, du), prov)

    def __neg__(self) -> "OperatorMatrix":
        dl, d, du = self._bands()
        return OperatorMatrix("tridiag", (-dl, -d, -du), dict(self.provenance))

    def solve_shifted_batch(self, lams: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """(M + lam_i)^-1 rhs for a batch of shifts and one right-hand side.

        rhs is a vector (dim,) or a block of columns (dim, k); returns
        (len(lams), dim) or (len(lams), dim, k). The caller bounds the batch.
        """
        dl, d, du = self._bands()
        lams = np.asarray(lams, dtype=complex)
        rhs = np.asarray(rhs, dtype=complex)
        shape = (len(lams), self.dim)
        return thomas_batch(np.broadcast_to(dl, shape), d + lams[:, None],
                            np.broadcast_to(du, shape),
                            np.broadcast_to(rhs, shape + rhs.shape[1:]))

    @cached_property
    def real_structure(self) -> tuple:
        """(form, why), decided on first use: why is None if the spectrum is real
        by structure, else what the operator lacks.

        form is the symmetric form (d, e, log_delta), M = D^-1 S D: S is real
        symmetric tridiagonal with diagonal d and off-diagonal e[j] =
        sign(du[j]) sqrt(dl[j+1] du[j]) (its eigenvectors, not its eigenvalues,
        depend on that sign), D = diag(exp(log_delta)). It needs real bands
        with products dl[j+1]*du[j] >= 0; a zero product (the frozen Dirichlet
        row) splits M into blocks, and no D exists: log_delta is None. form is
        None for dense storage, whose spectrum is real when it is Hermitian to
        rounding (max|A - A^H| <= dim eps max|A|).
        """
        if self.kind == "dense":
            a, eps = self.data, np.finfo(float).eps
            hermitian = np.abs(a - a.conj().T).max() <= self.dim * eps * np.abs(a).max()
            return None, (None if hermitian else "dense, not Hermitian")
        dl, d, du = self.data
        lo, hi = dl.real[1:], du.real[:-1]
        p = lo * hi
        if dl.imag.any() or d.imag.any() or du.imag.any() or np.any(p < 0):
            return None, "no symmetric form: complex bands or a negative band product"
        e = _read_only(np.sign(hi) * np.sqrt(p))
        if not p.all():
            return (d.real, e, None), None
        # (delta[j+1] / delta[j])^2 = du[j] / dl[j+1], summed in logs
        log_delta = np.concatenate([[0.0], np.cumsum(0.5 * (np.log(np.abs(hi))
                                                             - np.log(np.abs(lo))))])
        return (d.real, e, _read_only(log_delta - log_delta.max())), None

    @cached_property
    def _spectrum(self) -> np.ndarray:
        form, why = self.real_structure
        if why is not None:
            return _read_only(eigvals(self.to_dense()))
        return _read_only(eigvalsh(self.data) if form is None else eigvalsh_tridiagonal(*form[:2]))

    def eigenvalues(self) -> np.ndarray:
        """The spectrum, computed on first use and kept read-only."""
        return self._spectrum

    def inv_norm2_estimate(self, lams) -> tuple[np.ndarray, int, int]:
        """||(M+lam)^-1||_2 for each shift in lams: power iteration on the normal equations.

        Every shift iterates from the same seeded start vector. The batch of
        shifted operators M + lam is factored once (factor_batch, one
        stacked zgttrf), and each iteration makes two solves on those
        factors: zgttrs with trans 'N' applies (M+lam)^-1, and with trans
        'C' its adjoint. A shift leaves the batch once its sigma (the
        estimate of the squared norm) changes by less than _STOP_TOL
        relative between iterations; the shifts left are then refactored
        once, and the loop ends when no shift is left or after _NORM_ITERS
        iterations. Power iteration approaches the norm from below.

        Returns (norms, iterations, unconverged): the estimates in the order
        of lams, the iterations run, and how many shifts still missed the
        stopping test at the end.
        """
        dl, d, du = self._bands()
        lams = np.atleast_1d(np.asarray(lams, dtype=complex))
        rng = np.random.default_rng(_NORM_SEED)
        v = rng.standard_normal(self.dim) + 1j * rng.standard_normal(self.dim)
        v = np.tile(v / np.linalg.norm(v), (len(lams), 1))
        sigma = np.zeros(len(lams))
        live = np.arange(len(lams))           # shifts still in the batch
        D = d + lams[:, None]
        lu = None                             # factors of the live batch
        it = 0
        while it < _NORM_ITERS and live.size:
            it += 1
            if lu is None:
                lu = factor_batch(np.broadcast_to(dl, D.shape), D, np.broadcast_to(du, D.shape))
            # (M+lam)^-1 and then its adjoint, in place on v: a fresh array of this loop
            x, _ = zgttrs(*lu, v.reshape(-1), overwrite_b=1)
            x, _ = zgttrs(*lu, x, trans="C", overwrite_b=1)
            w = x.reshape(v.shape)
            nw = np.linalg.norm(w, axis=1)
            bad = ~np.isfinite(nw) | (nw == 0)
            if bad.any():
                raise NumericalError("resolvent norm estimate failed at "
                                     f"lam={lams[live[np.argmax(bad)]]}")
            moving = np.abs(nw - sigma[live]) >= _STOP_TOL * nw
            sigma[live] = nw
            if not moving.all():
                live, D, lu = live[moving], D[moving], None
            v = w[moving] / nw[moving, None]
        return np.sqrt(sigma), it, live.size
