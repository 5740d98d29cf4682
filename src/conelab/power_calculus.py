"""Sectoriality probes and complex powers.

Operators here are finite-dimensional stand-ins: discretized per-mode radial
operators, tridiagonal. complex_power forms M^z exactly from the spectrum of
a symmetric form within the conditioning gate, and by the quadrature of
Hale, Higham & Trefethen otherwise. Both need a spectrum real by structure
and positive; mu^z is the principal branch.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import ellipj, ellipk, ellipkm1

from .cone_geometry import LOOKUP_REACH, find_mode
from .errors import ConfigError, NotSectorialError, NumericalError
from .operators import OperatorMatrix

# conditioning gate of spectral forming: eps * max|mu| / min|mu| of the
# symmetric form; above it the eigenvectors lose too many digits to the
# band range (probe norms go O(1) wrong at 641 points, tau_min -16)
_SPECTRAL_GATE = 1e-3

# a priori error bound the real-spectrum quadrature picks its node count for
_QUAD_TOL = 1e-12

# memory bound of the node loop: complex entries of resolvent columns held
# for one chunk of nodes (2**12 entries, 64 KiB)
_RESOLVENT_ENTRIES = 1 << 12

# largest |lambda| the sectorial probe samples on each ray
_LAM_MAX = 1e6

# power-domain verdicts: norm ratios between ladder levels at or below the
# first mean membership, at or above the second non-membership
_STABILIZE_RATIO = 1.2
_BLOWUP_RATIO = 5.0


@dataclass
class SectorialReport:
    K: float
    samples: list                # (lambda, (1+|lambda|)*norm) pairs
    min_abs_eig: float           # min |eig| of the probed operator
    iterations: int = 0          # power iterations run by the norm estimate
    unconverged: int = 0         # samples still changing at the last iteration


def _sector_samples(theta: float, n_samples: int, lam_max: float) -> list[complex]:
    radii = np.geomspace(1e-6, lam_max, n_samples)
    lams: list[complex] = [0.0 + 0.0j]
    rays = [0.0] if theta == 0.0 else [0.0, theta, -theta]
    for ang in rays:
        lams.extend(r * cmath.exp(1j * ang) for r in radii)
    return lams


def _check_sector_clear(M: OperatorMatrix, theta: float) -> float:
    """spec(-M) must miss the sector |arg| <= theta (theta >= 0). Returns min |eig|.

    The spectrum is real and ascending (OperatorMatrix.eigenvalues): -e has
    argument pi for e > 0 and lies in every sector for e <= 0. So if any
    eigenvalue puts -M inside the sector, the lowest does: one test of it
    decides, and when it passes it is min |eig|.
    """
    lowest = M.eigenvalues()[0]
    if lowest < 1e-14 or math.pi <= theta + 1e-12:
        raise NotSectorialError(f"not sectorial at angle {theta:.4f}: eigenvalue {lowest} "
                                "puts -M inside the sector")
    return float(lowest)


def sectorial_probe(M: OperatorMatrix, theta: float, n_samples: int = 200) -> SectorialReport:
    """K = max over sampled lambda in S_theta of (1+|lambda|) ||(M+lambda)^-1||.

    Samples run log-spaced along the boundary rays +/- theta, the positive
    real axis, and lambda = 0 exactly. _check_sector_clear first tests
    the spectrum of M against the sector and gives min |eig|; M keeps its
    spectrum, so a later route or power on it is not diagonalized again.
    One batched inv_norm2_estimate call gives every
    resolvent norm, factoring each live batch of shifted operators once;
    its iteration count and the number of samples that missed its stopping
    test go into the report.
    """
    min_eig = _check_sector_clear(M, theta)
    lams = _sector_samples(theta, n_samples, _LAM_MAX)
    norms, iterations, unconverged = M.inv_norm2_estimate(lams)
    vals = (1.0 + np.abs(lams)) * norms
    return SectorialReport(K=max(float(vals.max()), 1.0), samples=list(zip(lams, vals.tolist())),
                           min_abs_eig=min_eig, iterations=iterations, unconverged=unconverged)


# -- complex powers ---------------------------------------------------------

def _real_spectrum_nodes(lo: float, hi: float, z: complex):
    """Nodes/weights for A^z with spec(A) in [lo, hi], 0 < lo < hi, -1 <= Re z < 0.

    Hale, Higham & Trefethen (SIAM J. Numer. Anal. 46, 2008), method 2: the
    Dunford integral in w = sqrt(lambda) over the image of the line
    Im t = K'/2 under w = (lo hi)^(1/4) (1/k + sn t) / (1/k - sn t), by the
    trapezoid rule on 2N nodes. Its error estimate reaches the w with
    |arg w| < pi, where |w^(2z)| <= exp(2 pi |Im z|) |w|^(2 Re z): that
    factor enters the bound, and N is the least with the a priori bound
    exp(2 pi |Im z| - 2 pi^2 N / (log(hi/lo) + 6)) at most _QUAD_TOL. sn, cn
    and dn of the complex nodes come from real ellipj by Abramowitz &
    Stegun 16.21, on the N abscissae t of [-K, K] only: the mirrored
    abscissa 2K - t has the same sn and dn and the negated cn, so node
    2N-1-j is built as the exact conjugate of node j (w conjugated, dw
    conjugated and negated). Returns (lams, weights, bound): sum_j
    weights[j] (A + lams[j])^-1 approximates A^z within the a priori bound,
    and lams[2N-1-j] == conj(lams[j]) bit for bit.
    """
    q = (hi / lo) ** 0.25
    k, p = (q - 1.0) / (q + 1.0), 4.0 * q / (q + 1.0) ** 2     # p = 1 - k^2
    K, Kp = ellipkm1(p), ellipk(p)
    rate = 2.0 * math.pi ** 2 / (math.log(hi / lo) + 6.0)
    growth = 2.0 * math.pi * abs(z.imag)
    n = math.ceil((math.log(1.0 / _QUAD_TOL) + growth) / rate)
    h = 2.0 * K / n
    s, c, d, _ = ellipj(-K + (np.arange(n) + 0.5) * h, k * k)
    s1, c1, d1, _ = ellipj(0.5 * Kp, p)
    den = c1 * c1 + k * k * (s * s1) ** 2
    sn = (s * d1 + 1j * c * d * s1 * c1) / den
    cn = (c * c1 - 1j * s * d * s1 * d1) / den
    dn = (d * c1 * d1 - 1j * k * k * s * c * s1) / den
    w = (lo * hi) ** 0.25 * (1.0 / k + sn) / (1.0 / k - sn)
    dw = (lo * hi) ** 0.25 * (2.0 / k) * cn * dn / (1.0 / k - sn) ** 2
    w, dw = np.r_[w, w[::-1].conj()], np.r_[dw, -dw[::-1].conj()]
    # lambda = w^2 gives (1/pi i) * integral of w^(2z+1) (w^2 - A)^-1 dw; the
    # nodes run clockwise, which turns (w^2 - A)^-1 into (A - w^2)^-1
    weights = h / (math.pi * 1j) * np.exp((2.0 * z + 1.0) * np.log(w)) * dw
    return -w * w, weights, math.exp(growth - rate * n)


class FormedPower(namedtuple("FormedPower", "data provenance")):
    """M^z formed: the dense array and its provenance; a non-finite entry is a NumericalError."""

    def __new__(cls, data: np.ndarray, provenance: dict):
        if not np.isfinite(data).all():
            raise NumericalError(f"M^z has non-finite entries at z={provenance['z']}")
        return super().__new__(cls, data, provenance)


def power_route(M: OperatorMatrix) -> tuple[str, float | None]:
    """The route by which complex_power forms M^z, and its gate value.

    'spectral' takes M = D^-1 S D (OperatorMatrix.symmetric_form) while the
    gate eps * max|mu| / min|mu| over the eigenvalues of S is at most
    _SPECTRAL_GATE; 'quadrature' takes the rest (gate None without D).
    """
    amu = np.abs(M.eigenvalues())         # NotSectorialError without a symmetric form
    if M.symmetric_form[2] is None:
        return "quadrature", None
    gate = float(np.finfo(float).eps * amu.max() / amu.min()) if amu.min() > 0 else math.inf
    return ("spectral" if gate <= _SPECTRAL_GATE else "quadrature"), gate


def _quadrature_power(M: OperatorMatrix, z: complex, out: np.ndarray) -> tuple:
    """(M^z out, nodes, tail_bound): the integer part m of z by m products (or -m
    solves), the rest on [min mu / 2, hi], hi the Gershgorin bound of S.

    The 2N nodes come in conjugate pairs (_real_spectrum_nodes) and M has
    real bands (power_route), so for a real u (M + conj(lam))^-1 u =
    conj((M + lam)^-1 u): only the N nodes of one half-plane are solved,
    and the solve X at a node counts as w X + w' conj(X), w' the weight of
    its partner. A complex out goes in as the columns Re out and Im out of
    one batched solve, and M^z out = M^z Re out + i M^z Im out.
    """
    m = int(z.real) if z.imag == 0 and z.real.is_integer() else math.floor(z.real) + 1
    for _ in range(abs(m)):
        out = M.matvec(out) if m > 0 else M.solve_shifted_batch([0.0], out)[0]
    if z == m:
        return out, 0, 0.0
    d, e, _ = M.symmetric_form
    hi = float(np.max(d + np.abs(np.r_[e, 0.0]) + np.abs(np.r_[0.0, e])))
    lams, weights, tail = _real_spectrum_nodes(0.5 * M.eigenvalues()[0], hi, z - m)
    n = len(lams) // 2
    # the first half's nodes: node 2N-1-j adds w' conj(X) = conj(conj(w') X)
    lams, half, mirror = lams[:n], weights[:n], weights[::-1][:n].conj()
    cols = out.reshape(M.dim, -1)
    k = cols.shape[1]
    rhs = np.hstack([cols.real, cols.imag]) if cols.imag.any() else cols.real
    acc, step = np.zeros(rhs.shape, dtype=complex), max(1, _RESOLVENT_ENTRIES // rhs.size)
    for s in range(0, n, step):
        sol = M.solve_shifted_batch(lams[s:s + step], rhs)
        acc += np.tensordot(half[s:s + step], sol, axes=1)
        acc += np.tensordot(mirror[s:s + step], sol, axes=1).conj()
    if rhs.shape[1] > k:
        acc = acc[:, :k] + 1j * acc[:, k:]
    return acc.reshape(out.shape), 2 * n, tail


def complex_power(M: OperatorMatrix, z: complex, v: np.ndarray | None = None):
    """M^z as a FormedPower (v None) by power_route's route, or M^z v by the quadrature.

    NotSectorialError names what M lacks for a real spectrum by structure
    (power_route), or an eigenvalue <= 0. Spectral: M^z = D^-1 V diag(mu^z)
    V^T D from eigh_tridiagonal(S). The quadrature forms M^z on the identity:
    one solve per conjugate pair of its 2N nodes, in chunks of at most
    _RESOLVENT_ENTRIES resolvent entries (a complex v holds two real columns
    per column). Provenance: "method", "gate", "nodes" (2N) and
    "tail_bound", the error bound.
    """
    z = complex(z)
    method, gate = power_route(M)
    lowest = M.eigenvalues()[0]
    if lowest <= 0:
        raise NotSectorialError(f"eigenvalue {lowest} on the branch cut of M^z")
    if v is not None:
        return _quadrature_power(M, z, np.asarray(v, dtype=complex))[0]
    with np.errstate(over="ignore", invalid="ignore"):     # FormedPower checks the result
        if method == "spectral":
            d, e, log_delta = M.symmetric_form
            mu, V = eigh_tridiagonal(d, e)
            out = (V * np.exp(z * np.log(mu))) @ V.T
            out *= np.exp(log_delta[None, :] - log_delta[:, None])
            nodes, tail = 0, 0.0
        else:
            out, nodes, tail = _quadrature_power(M, z, np.eye(M.dim, dtype=complex))
    return FormedPower(out, dict(z=z, method=method, gate=gate, tail_bound=tail, nodes=nodes))


def eig_power_oracle(M: OperatorMatrix, z: complex) -> np.ndarray:
    """Eigendecomposition power for diagonalizable M with spectrum off the cut."""
    A = M.to_dense()
    evals, V = np.linalg.eig(A)
    if np.any((np.abs(evals.imag) < 1e-14) & (evals.real <= 0)):
        raise NumericalError("eigenvalue on the branch cut; oracle undefined")
    pz = np.exp(complex(z) * np.log(evals.astype(complex)))
    return V @ np.diag(pz) @ np.linalg.inv(V)


# -- complex-power domain membership probe -----------------------------------

@dataclass(frozen=True)
class PowerProbeConfig:
    """Shifted per-mode realization and the refinement ladder (levels >= 2) for the probe."""

    cross_section: object
    mode_label: str
    gamma: float
    shift: float                 # c in M = c - L
    outer_bc: str = "neumann"
    tau_min: float = -3.0
    points: int = 161
    levels: int = 3
    n_quad: int = 48             # unused: the quadrature picks its node count

    def __post_init__(self):
        # a verdict reads norm ratios between levels; one level has none
        if self.levels < 2:
            raise ConfigError(f"probe needs levels >= 2, got {self.levels}")


@dataclass
class PowerProbeReport:
    verdict: str                 # 'member' | 'non-member' | 'inconclusive'
    ratios: list                 # norm ratio between consecutive levels
    thresholds: tuple


def power_domain_probe(target, z: complex, probe: PowerProbeConfig) -> PowerProbeReport:
    """Verdict on membership of a term, or a function of x, in D(M^z) for the shifted realization.

    Levels extend the grid toward the tip (tau_min doubles, spacing fixed)
    and evaluate the weighted base-space norm of M^z applied to the sampled
    data. Stabilizing norms mean membership, blow-up by _BLOWUP_RATIO
    per level means non-membership, anything else is inconclusive;
    the thresholds are heuristics and travel with the report.
    """
    from .asymptotics import AsymptoticsTerm
    from .heat_solver import assemble_mode_operator
    from .mellin_sobolev import LogGrid, RadialField, mellin_norm

    z = complex(z)
    if not 0.0 < z.real:
        raise ConfigError("probe expects 0 < Re z")
    cs = probe.cross_section
    mode = find_mode(cs.walk(LOOKUP_REACH), probe.mode_label)
    norms = []
    grid = LogGrid(probe.tau_min, probe.points)
    for _ in range(probe.levels):
        M = (-assemble_mode_operator(cs.n, mode.eigenvalue, grid, probe.outer_bc)
             ).shifted(probe.shift)
        if isinstance(target, AsymptoticsTerm):
            vals = target.evaluate(grid.x)
        else:
            vals = np.asarray(target(grid.x), dtype=complex)
        w = complex_power(M, z, vals)
        f = RadialField(grid, (mode,), w[None, :], n=cs.n, vol=cs.vol)
        norms.append(mellin_norm(f, s=0, gamma=probe.gamma))
        grid = grid.extended()
    ratios = [norms[i + 1] / norms[i] if norms[i] > 0 else math.inf
              for i in range(len(norms) - 1)]
    if all(r <= _STABILIZE_RATIO for r in ratios):
        verdict = "member"
    elif all(r >= _BLOWUP_RATIO for r in ratios):
        verdict = "non-member"
    else:
        verdict = "inconclusive"
    return PowerProbeReport(verdict=verdict, ratios=ratios,
                            thresholds=(_STABILIZE_RATIO, _BLOWUP_RATIO))
