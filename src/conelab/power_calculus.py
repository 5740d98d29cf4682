"""Sectoriality probes and complex powers.

Operators here are finite-dimensional stand-ins (discretized per-mode radial
operators or plain matrices). complex_power takes the exact spectral route
for a mode operator whose symmetric form passes the conditioning gate, and
the Dunford integral otherwise. The Dunford integral runs over the keyhole
contour: in along the lower ray arg(-theta), around the circle of radius
rho through the negative axis, out along arg(+theta); the branch of
(-lambda)^z is the principal one, cut along the positive real axis.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ConfigError, NotSectorialError, NumericalError
from .operators import OperatorMatrix

# conditioning gate of the spectral route: eps * max|mu| / min|mu| of the
# symmetric form; above it the eigenvectors lose too many digits to the
# band range (probe norms go O(1) wrong at 641 points, tau_min -16)
_SPECTRAL_GATE = 1e-3

# memory bound of the Dunford node loop: complex entries of resolvent columns
# held for one chunk of contour nodes (2**16 entries, 1 MiB)
_RESOLVENT_ENTRIES = 1 << 16

# largest |lambda| the sectorial probe samples on each ray
_LAM_MAX = 1e6

# rungs of the shift ladder: c0 doubles at most this many times
_MAX_DOUBLINGS = 24

# power-domain verdicts: norm ratios between ladder levels at or below the
# first mean membership, at or above the second non-membership
_STABILIZE_RATIO = 1.2
_BLOWUP_RATIO = 5.0


@dataclass(frozen=True)
class ContourSpec:
    rho: float | None = None     # circle radius; None: half the smallest |eigenvalue|
    theta: float = 0.75 * math.pi
    n_quad: int = 64             # Gauss-Legendre points per segment
    tol_tail: float = 1e-10
    sectorial_bound: float = 10.0  # K used in the analytic tail bound

    def __post_init__(self):
        if not 0.0 < self.theta < math.pi:
            raise ConfigError("contour angle must lie in (0, pi)")
        if self.rho is not None and self.rho < 0:
            raise ConfigError("contour radius must be >= 0")

    def ray_end(self, z: complex) -> tuple[float, float]:
        """(r_max, tail): where the rays stop for the power z, and the analytic tail bound there.

        r_max puts the tail at tol_tail, kept within [10 max(rho, 1), 1e300];
        near Re z = 0 the ceiling leaves the tail above the tolerance.
        """
        rez = z.real
        try:
            r_max = (self.tol_tail * math.pi * (-rez) / self.sectorial_bound) ** (1.0 / rez)
        except OverflowError:
            r_max = math.inf
        r_max = min(max(r_max, 10.0 * max(self.rho, 1.0)), 1e300)
        return r_max, self.sectorial_bound / math.pi * r_max ** rez / (-rez)


@dataclass
class SectorialReport:
    K: float
    theta: float
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
    """Check every eigenvalue: spec(-M) must miss the sector |arg| <= theta. Returns min |eig|."""
    eigs = M.eigenvalues()
    for e in eigs:
        me = -e
        if abs(me) < 1e-14 or abs(cmath.phase(me)) <= theta + 1e-12:
            raise NotSectorialError(
                f"not sectorial at angle {theta:.4f}: eigenvalue {e} puts "
                f"-M inside the sector")
    return float(np.min(np.abs(eigs)))


def sectorial_probe(M: OperatorMatrix, theta: float, n_samples: int = 200) -> SectorialReport:
    """K = max over sampled lambda in S_theta of (1+|lambda|) ||(M+lambda)^-1||.

    Samples run log-spaced along the boundary rays +/- theta, the positive
    real axis, and lambda = 0 exactly. _check_sector_clear first tests
    every eigenvalue of M against the sector and gives min |eig|. One
    batched inv_norm2_estimate call gives every resolvent norm; its
    iteration count and the number of samples that missed its stopping
    test go into the report.
    """
    min_eig = _check_sector_clear(M, theta)
    lams = _sector_samples(theta, n_samples, _LAM_MAX)
    norms, iterations, unconverged = M.inv_norm2_estimate(lams)
    vals = (1.0 + np.abs(lams)) * norms
    return SectorialReport(K=max(float(vals.max()), 1.0), theta=theta,
                           samples=list(zip(lams, vals.tolist())),
                           min_abs_eig=min_eig, iterations=iterations,
                           unconverged=unconverged)


def find_sectorial_shift(L: OperatorMatrix, theta: float, c0: float = 1.0, *,
                         n_samples: int) -> tuple[float, SectorialReport]:
    """Doubling-ladder search for a shift c with c - L sectorial of angle theta.

    A numerical surrogate for the existence statement; reports the first c
    on the ladder whose shifted operator clears the sector.
    """
    c = c0
    for _ in range(_MAX_DOUBLINGS):
        try:
            report = sectorial_probe((-L).shifted(c), theta, n_samples=n_samples)
            return c, report
        except NotSectorialError:
            c *= 2.0
    raise NotSectorialError(f"no sectorial shift found on the ladder up to c={c}")


# -- Dunford complex powers -------------------------------------------------

def _contour_nodes(contour: ContourSpec, z: complex):
    """Quadrature nodes/weights for (1/2 pi i) * integral over the keyhole.

    Returns (lams, weights) with the 1/(2 pi i) factor and the orientation
    folded into the weights, plus the reported analytic tail bound.
    """
    if z.real >= 0:
        raise ConfigError("Dunford quadrature needs Re z < 0")
    rho, theta = contour.rho, contour.theta
    r_max, tail = contour.ray_end(z)
    xg, wg = leggauss(contour.n_quad)
    # circle arc, traversed from 2pi-theta down to theta (through the cut-free
    # negative axis): contributes minus the increasing-angle integral
    a, b = theta, 2.0 * math.pi - theta
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    arc = rho * np.exp(1j * (mid + half * xg))
    arc_w = -wg * half * 1j * arc * _neglam_pow(arc, z)
    # rays, integrated in log r segment by segment (one per decade); nodes
    # run segment by segment, then Gauss point, then upper/lower ray
    n_dec = max(1, int(math.ceil(math.log10(max(r_max / max(rho, 1e-300), 10.0)))))
    logs = np.log(np.geomspace(max(rho, 1e-300), r_max, n_dec + 1))
    smid, shalf = 0.5 * (logs[:-1] + logs[1:]), 0.5 * (logs[1:] - logs[:-1])
    r = np.exp(smid[:, None] + shalf[:, None] * xg)[..., None]
    sgn = np.array([1.0, -1.0])
    ray = np.exp(sgn * 1j * theta)
    lam = r * ray
    # dr = r ds; ray direction e^{sgn i theta}; lower ray reversed
    ray_w = sgn * wg[:, None] * shalf[:, None, None] * r * ray * _neglam_pow(lam, z)
    scale = 1.0 / (2.0j * math.pi)
    return (np.concatenate([arc, lam.ravel()]),
            scale * np.concatenate([arc_w, ray_w.ravel()]), tail)


def _neglam_pow(lam, z: complex):
    return np.exp(z * np.log(-lam))


def _dunford(M: OperatorMatrix, z: complex, v, contour: ContourSpec | None):
    """The Dunford node loop: (A^z v, contour, tail bound, node count) for Re z < 0.

    v is a vector (dim,) or a block of columns (dim, k). contour None means
    ContourSpec(); a contour without rho gets half the smallest |eigenvalue|
    of M, and the returned contour carries it. Nodes are solved in chunks of
    at most _RESOLVENT_ENTRIES resolvent entries, so memory stays bounded
    whatever the node count.
    """
    contour = contour or ContourSpec()
    if contour.rho is None:
        min_eig = float(np.min(np.abs(M.eigenvalues())))
        if min_eig <= 0:
            raise NotSectorialError("operator has (numerically) zero eigenvalue")
        contour = replace(contour, rho=0.5 * min_eig)
    lams, weights, tail = _contour_nodes(contour, z)
    if tail > 10.0 * contour.tol_tail:
        raise NumericalError(f"ray truncation tail bound {tail:.2e} above tolerance; "
                             "increase R_max")
    v = np.asarray(v, dtype=complex)
    acc = np.zeros(v.shape, dtype=complex)
    step = max(1, _RESOLVENT_ENTRIES // v.size)
    for s in range(0, len(lams), step):
        acc += np.tensordot(weights[s:s + step],
                            M.solve_shifted_batch(lams[s:s + step], v), axes=1)
    return acc, contour, tail, len(lams)


def dunford_apply(M: OperatorMatrix, z: complex, v: np.ndarray,
                  contour: ContourSpec | None = None) -> np.ndarray:
    """A^z v for Re z < 0 without forming the matrix; v is a vector or a block of columns."""
    return _dunford(M, complex(z), v, contour)[0]


def dunford_power(M: OperatorMatrix, z: complex, contour: ContourSpec | None = None) -> OperatorMatrix:
    """A^z for Re z < 0: the Dunford node loop on the identity.

    Dense result; the tail bound of the ray truncation is recorded in the
    provenance and must sit below the contour tolerance.
    """
    z = complex(z)
    acc, contour, tail, nodes = _dunford(M, z, np.eye(M.dim), contour)
    return OperatorMatrix.dense(acc, z=z, contour=contour, tail_bound=tail, nodes=nodes,
                                r_max=contour.ray_end(z)[0], base=M.provenance)


def power_route(M: OperatorMatrix) -> tuple[str, float | None]:
    """The route complex_power takes for M, 'spectral' or 'dunford', and its gate value.

    The gate value is eps * max|mu| / min|mu| over the eigenvalues of M's
    symmetric form; the spectral route needs it at or below _SPECTRAL_GATE.
    An operator without a similarity to a symmetric form (dense storage,
    complex bands, a negative or zero product dl[j+1]*du[j]) has no gate
    value (None) and goes to Dunford.
    """
    form = M._symmetric_form()
    if form is None or form[2] is None:
        return "dunford", None
    mu = np.abs(M.eigenvalues())
    gate = float(np.finfo(float).eps * mu.max() / mu.min()) if mu.min() > 0 else math.inf
    return ("spectral" if gate <= _SPECTRAL_GATE else "dunford"), gate


def complex_power(M: OperatorMatrix, z: complex, v: np.ndarray | None = None,
                  contour: ContourSpec | None = None):
    """M^z as a dense OperatorMatrix (v None), or M^z v; spectral where the gate allows.

    Spectral route: M = D^-1 S D with S real symmetric tridiagonal, so
    M^z = D^-1 V diag(mu^z) V^T D from eigh_tridiagonal(S) = (mu, V). It is
    exact for every z, purely imaginary z included; the contour is unused.
    Every other operator, and a symmetric form whose eps*kappa exceeds
    _SPECTRAL_GATE, takes Dunford: dunford_power for the matrix (Re z < 0),
    dunford_apply for a vector, with Re z >= 0 split into an integer part
    applied directly and a remainder with Re w in [-1, 0]. The matrix's
    provenance records "method" and "gate" (see power_route); the spectral
    route has tail_bound 0.0 and no contour. A contour without rho has its
    radius set from M's spectrum only on the Dunford route.
    """
    z = complex(z)
    method, gate = power_route(M)
    if method == "dunford":
        if v is None:
            power = dunford_power(M, z, contour)
            power.provenance.update(method=method, gate=gate)
            return power
        m_int = max(1, math.ceil(z.real)) if z.real >= 0 else 0   # Re(z - m_int) <= 0
        out = np.asarray(v, dtype=complex)
        if z != m_int:
            out = dunford_apply(M, z - m_int, out, contour)
        for _ in range(m_int):
            out = M.matvec(out)
        return out
    from scipy.linalg import eigh_tridiagonal
    d, e, log_delta = M._symmetric_form()
    mu, V = eigh_tridiagonal(d, e)
    if mu[0] <= 0:
        raise NotSectorialError(f"eigenvalue {mu[0]} on the branch cut of M^z")
    pz = np.exp(z * np.log(mu))
    if v is None:
        P = (V * pz) @ V.T * np.exp(log_delta[None, :] - log_delta[:, None])
        return OperatorMatrix.dense(P, z=z, method=method, gate=gate, contour=None,
                                    tail_bound=0.0, base=M.provenance)
    delta = np.exp(log_delta)
    return V @ (pz * (V.T @ (delta * np.asarray(v, dtype=complex)))) / delta


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
    """Shifted per-mode realization and the refinement ladder for the probe."""

    cross_section: object
    mode_label: str
    gamma: float
    shift: float                 # c in M = c - L, found by the shift ladder
    outer_bc: str = "neumann"
    tau_min: float = -3.0
    points: int = 161
    levels: int = 3
    n_quad: int = 48


@dataclass
class PowerProbeReport:
    verdict: str                 # 'member' | 'non-member' | 'inconclusive'
    z: complex
    norms: list
    ratios: list
    grids: list                  # (tau_min, points) per level
    thresholds: tuple
    config: PowerProbeConfig


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
    mode = next((m for m in cs.mode_table(64) if m.label == probe.mode_label), None)
    if mode is None:
        raise ConfigError(f"unknown probe mode {probe.mode_label!r}")
    contour = ContourSpec(n_quad=probe.n_quad)
    norms = []
    grids = []
    grid = LogGrid(probe.tau_min, probe.points)
    for _ in range(probe.levels):
        M = (-assemble_mode_operator(cs.n, mode.eigenvalue, grid, probe.outer_bc)
             ).shifted(probe.shift)
        if isinstance(target, AsymptoticsTerm):
            vals = target.evaluate(grid.x)
        else:
            vals = np.asarray(target(grid.x), dtype=complex)
        w = complex_power(M, z, vals, contour)
        f = RadialField(grid, (mode,), w[None, :], n=cs.n, vol=cs.vol)
        norms.append(mellin_norm(f, s=0, gamma=probe.gamma))
        grids.append((grid.tau_min, grid.points))
        grid = grid.extended()
    ratios = [norms[i + 1] / norms[i] if norms[i] > 0 else math.inf
              for i in range(len(norms) - 1)]
    if all(r <= _STABILIZE_RATIO for r in ratios):
        verdict = "member"
    elif all(r >= _BLOWUP_RATIO for r in ratios):
        verdict = "non-member"
    else:
        verdict = "inconclusive"
    return PowerProbeReport(verdict=verdict, z=z, norms=norms, ratios=ratios,
                            grids=grids,
                            thresholds=(_STABILIZE_RATIO, _BLOWUP_RATIO),
                            config=probe)
