"""Discretized per-mode operators: tridiagonal core plus boundary rows."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from ._kernels import factor_batch, solve_normal, thomas_batch
from .errors import ConfigError, NotSectorialError, NumericalError

_STOP_TOL = 1e-12      # relative change between iterations that ends an estimate
_NORM_ITERS = 40       # iteration cap of an estimate
_NORM_SEED = 3         # seed of the shared start vector


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Immutable tridiagonal complex matrix: its three bands and nothing else.

    It keeps three length-J bands (dl, d, du) with dl[0] and du[-1] unused.
    The constructor keeps read-only copies of the bands, so the symmetric
    form and the spectrum derived from them are computed once, on first use.
    """

    data: tuple

    def __post_init__(self):
        data = tuple(_read_only(np.array(a, dtype=complex)) for a in self.data)
        dl, d, du = data
        if not (dl.shape == d.shape == du.shape) or d.ndim != 1:
            raise ConfigError("tridiagonal bands must be three equal-length 1-d arrays")
        if not np.isfinite(data).all():
            raise ConfigError("operator contains non-finite entries")
        object.__setattr__(self, "data", data)

    @staticmethod
    def tridiag(dl, d, du) -> "OperatorMatrix":
        return OperatorMatrix((dl, d, du))

    @property
    def dim(self) -> int:
        return len(self.data[1])

    def to_dense(self) -> np.ndarray:
        dl, d, du = self.data
        return np.diag(d) + np.diag(dl[1:], -1) + np.diag(du[:-1], 1)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """M v for a vector (dim,) or a block of columns (dim, k)."""
        dl, d, du = (band[:, None] for band in self.data)
        v = np.asarray(v, dtype=complex)
        cols = v.reshape(self.dim, -1)
        out = d * cols
        out[1:] += dl[1:] * cols[:-1]
        out[:-1] += du[:-1] * cols[1:]
        return out.reshape(v.shape)

    def shifted(self, c: complex) -> "OperatorMatrix":
        """M + c*I."""
        dl, d, du = self.data
        return OperatorMatrix((dl, d + c, du))

    def __neg__(self) -> "OperatorMatrix":
        dl, d, du = self.data
        return OperatorMatrix((-dl, -d, -du))

    def solve_shifted_batch(self, lams: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """(M + lam_i)^-1 rhs for a batch of shifts and one right-hand side.

        rhs is a vector (dim,) or a block of columns (dim, k); returns
        (len(lams), dim) or (len(lams), dim, k). The caller bounds the batch.
        """
        dl, d, du = self.data
        lams = np.asarray(lams, dtype=complex)
        rhs = np.asarray(rhs, dtype=complex)
        shape = (len(lams), self.dim)
        return thomas_batch(np.broadcast_to(dl, shape), d + lams[:, None],
                            np.broadcast_to(du, shape),
                            np.broadcast_to(rhs, shape + rhs.shape[1:]))

    @cached_property
    def symmetric_form(self) -> tuple | None:
        """The symmetric form (d, e, log_delta), decided on first use; None without one.

        M = D^-1 S D: S is real symmetric tridiagonal with diagonal d and
        off-diagonal e[j] = sign(du[j]) sqrt(dl[j+1] du[j]) (its eigenvectors,
        not its eigenvalues, depend on that sign), D = diag(exp(log_delta)).
        It needs real bands with products dl[j+1]*du[j] >= 0, and is None
        otherwise: then M has no real spectrum by structure. A zero product
        (the frozen Dirichlet row) splits M into blocks, and no D exists:
        log_delta is None. A product beyond the float range (finite bands,
        such as the exp(-2 tau) rows of a grid reaching far toward the tip)
        raises ConfigError.
        """
        dl, d, du = self.data
        lo, hi = dl.real[1:], du.real[:-1]
        with np.errstate(over="ignore"):
            p = lo * hi
        if dl.imag.any() or d.imag.any() or du.imag.any() or np.any(p < 0):
            return None
        if np.isinf(p).any():
            raise ConfigError("band product of the symmetric form overflows: a product "
                              "dl[j+1]*du[j] exceeds the float range")
        e = _read_only(np.sign(hi) * np.sqrt(p))
        if not p.all():
            return d.real, e, None
        # (delta[j+1] / delta[j])^2 = du[j] / dl[j+1], summed in logs
        log_delta = np.concatenate([[0.0], np.cumsum(0.5 * (np.log(np.abs(hi))
                                                             - np.log(np.abs(lo))))])
        return d.real, e, _read_only(log_delta - log_delta.max())

    @cached_property
    def _spectrum(self) -> np.ndarray:
        form = self.symmetric_form
        if form is None:
            raise NotSectorialError("no real spectrum by structure: no symmetric form: "
                                    "complex bands or a negative band product")
        return _read_only(eigvalsh_tridiagonal(*form[:2]))

    def eigenvalues(self) -> np.ndarray:
        """The real spectrum in ascending order, computed on first use and kept read-only.

        It exists by structure only: without a symmetric form it raises
        NotSectorialError.
        """
        return self._spectrum

    def inv_norm2_estimate(self, lams) -> tuple[np.ndarray, int, int]:
        """||(M+lam)^-1||_2 for each shift in lams: power iteration on the normal equations.

        Every shift iterates from the same seeded start vector. The batch of
        shifted operators M + lam is factored once (factor_batch, one
        stacked zgttrf), and each iteration applies (M+lam)^-1 and then its
        adjoint on those factors (solve_normal). A shift leaves the batch
        once its sigma (the estimate of the squared norm) changes by less
        than _STOP_TOL relative between iterations; the shifts left are then
        refactored once, and the loop ends when no shift is left or after
        _NORM_ITERS iterations. Power iteration approaches the norm from below.

        Returns (norms, iterations, unconverged): the estimates in the order
        of lams, the iterations run, and how many shifts still missed the
        stopping test at the end.
        """
        dl, d, du = self.data
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
            w = solve_normal(lu, v.reshape(-1)).reshape(v.shape)
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
