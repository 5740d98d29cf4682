"""Conormal symbols, Taylor/recursive symbol families, and pole sets.

A cone operator is stored per cross-section mode as the collar coefficients
a_0(x)..a_mu(x) acting on that mode's eigenspace; the conormal symbol is
sum a_k(0) lambda^k. Pole sets Q_{A,gamma} collect the poles of the
recursively defined inverse families inside the weight strip
[(n+1)/2 - gamma - mu, (n+1)/2 - gamma).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

from .cone_geometry import CrossSection, Mode
from .errors import ConfigError, DegenerateSymbolError, UnsupportedError
from .rational import (Poly, QRat, RationalFamily, poly_roots,
                       root_to_complex, roots_equal)


@dataclass(frozen=True)
class ConeOperatorSpec:
    """Order-mu cone operator, diagonal over a fixed mode table.

    coeffs maps a mode label to the tuple (a_0(x), ..., a_mu(x)) of Poly in
    x; the value a_k(0) multiplies (-x d/dx)^k on that mode. Polynomial
    coefficients carry the Taylor data at x = 0 directly.
    """

    mu: int
    n: int
    modes: tuple[Mode, ...]
    coeffs: dict
    n_taylor: int = 0
    name: str = "custom"

    def __post_init__(self):
        if self.mu < 1:
            raise ConfigError("operator order mu must be >= 1")
        for m in self.modes:
            if m.label not in self.coeffs:
                raise ConfigError(f"missing coefficients for mode {m.label}")
            if len(self.coeffs[m.label]) != self.mu + 1:
                raise ConfigError(f"mode {m.label}: need exactly mu+1 coefficient polynomials")

    @property
    def warped(self) -> bool:
        return any(p.degree > 0 for polys in self.coeffs.values() for p in polys)

    def mode(self, label: str) -> Mode:
        for m in self.modes:
            if m.label == label:
                return m
        raise ConfigError(f"unknown mode {label!r}")

    @staticmethod
    def laplacian(cs: CrossSection, max_modes: int, warp_a0=None) -> "ConeOperatorSpec":
        """Laplace-Beltrami collar operator of the straight cone metric.

        In the (-x d/dx) convention: a_2 = 1, a_1 = -(n-1), a_0 = lambda_mode.
        With warp_a0 = w the zero-order coefficient becomes lambda*(1 + w*x),
        the minimal warped test case.
        """
        modes = cs.mode_table(max_modes)
        coeffs = {}
        for m in modes:
            lam = m.eigenvalue
            a0 = Poly([lam]) if warp_a0 in (None, 0) else Poly([lam, QRat(lam) * QRat(warp_a0)])
            coeffs[m.label] = (a0, Poly([-(cs.n - 1)]), Poly([1]))
        return ConeOperatorSpec(mu=2, n=cs.n, modes=modes, coeffs=coeffs,
                                n_taylor=1 if warp_a0 else 0, name="laplacian")


def conormal_symbol(spec: ConeOperatorSpec, mode: str) -> Poly:
    """sigma_M(A)(lambda) restricted to one mode: sum_k a_k(0) lambda^k."""
    polys = spec.coeffs[spec.mode(mode).label]
    return Poly([(p.coeffs[0] if p.coeffs else QRat(0)) for p in polys])


def taylor_symbols(spec: ConeOperatorSpec, mode: str) -> list[Poly]:
    """f_0..f_{mu-1}: f_nu collects the nu-th Taylor coefficients of a_k."""
    if spec.n_taylor < spec.mu - 1 and spec.warped:
        raise ConfigError(f"insufficient Taylor data: need order {spec.mu - 1}, have {spec.n_taylor}")
    polys = spec.coeffs[spec.mode(mode).label]
    out = []
    for nu in range(spec.mu):
        coeffs_nu = []
        for p in polys:
            coeffs_nu.append(p.coeffs[nu] if nu < len(p.coeffs) else QRat(0))
        out.append(Poly(coeffs_nu))
    return out


def recursive_symbols(spec: ConeOperatorSpec, mode: str) -> list[RationalFamily]:
    """g_0 = 1/f_0, then g_k = -(T^{-k} f_0^{-1}) sum_{i<k} (T^{-i} f_{k-i}) g_i."""
    fs = taylor_symbols(spec, mode)
    f0 = fs[0]
    if f0.is_zero():
        raise DegenerateSymbolError(f"degenerate conormal symbol on mode {mode}")
    g = [RationalFamily(Poly.constant(1), f0)]
    inv_f0 = RationalFamily(Poly.constant(1), f0)
    for k in range(1, spec.mu):
        acc = RationalFamily(Poly())
        for i in range(k):
            if not (fs[k - i].is_zero() or g[i].is_zero()):    # a zero term adds nothing
                acc = acc + RationalFamily(fs[k - i].shift(-i)) * g[i]
        g.append(acc if acc.is_zero() else -(inv_f0.shift(-k)) * acc)
    return g


@dataclass(frozen=True)
class PoleEntry:
    rho: object                  # QRat (exact) or complex
    mode_orders: dict            # label -> pole order (>= 1)

    @property
    def rho_complex(self) -> complex:
        return root_to_complex(self.rho)


@dataclass(frozen=True)
class PoleSet:
    entries: tuple[PoleEntry, ...]
    strip: tuple                 # (left closed, right open), Fraction or float
    gamma: object
    mu: int
    n: int
    power: int = 1
    exact: bool = True
    convention_pending: bool = False
    # every candidate root before the strip filter: (mode, rho, order, in_strip)
    candidates: tuple = ()


def strip_bounds(n: int, gamma, mu: int, power: int = 1):
    """Weight strip endpoints for A^power; exact when gamma is exact."""
    g = Fraction(gamma) if isinstance(gamma, (int, Fraction, float)) else gamma
    left = Fraction(n + 1, 2) - g - mu * power
    right = Fraction(n + 1, 2) - g
    return left, right


def _in_strip(rho, left: Fraction, right: Fraction) -> bool:
    # the strip constrains the real part only; left edge closed, right open
    if isinstance(rho, QRat):
        return left <= rho.re < right
    re = complex(rho).real
    return re >= float(left) - 1e-12 and re < float(right) - 1e-12


def _find_root(pairs: list, rho):
    """The first [root, value] pair whose root roots_equal matches rho, or None."""
    return next((pair for pair in pairs if roots_equal(pair[0], rho)), None)


def _pole_set(spec: ConeOperatorSpec, gamma, power: int, mode_poles, combine) -> PoleSet:
    """Shared body of pole_set and pole_set_power.

    mode_poles(label) yields the (root, order, is_exact) poles of one mode;
    combine(old, new) joins the orders of equal roots within a mode. Roots
    inside the strip are then merged across modes, keeping per-mode orders.
    """
    if not spec.modes:
        raise ConfigError("a pole set requires at least one mode")
    left, right = strip_bounds(spec.n, gamma, spec.mu, power)
    merged: list = []            # [rho, {label: order}], exact rho preferred
    exact = True
    candidates = []
    for m in spec.modes:
        found: list = []         # [root, order] for this mode
        for root, order, is_exact in mode_poles(m.label):
            exact = exact and is_exact
            hit = _find_root(found, root)
            if hit is None:
                found.append([root, order])
            else:
                hit[1] = combine(hit[1], order)
        for rho, order in found:
            inside = _in_strip(rho, left, right)
            candidates.append((m.label, rho, order, inside))
            if inside:
                hit = _find_root(merged, rho)
                if hit is None:
                    hit = [rho, {}]
                    merged.append(hit)
                hit[1][m.label] = hit[1].get(m.label, 0) + order
                if isinstance(rho, QRat):
                    hit[0] = rho
    entries = sorted((PoleEntry(rho=rho, mode_orders=dict(sorted(orders.items())))
                      for rho, orders in merged),
                     key=lambda e: (e.rho_complex.real, e.rho_complex.imag))
    return PoleSet(entries=tuple(entries), strip=(left, right), gamma=gamma, mu=spec.mu,
                   n=spec.n, power=power, exact=exact, convention_pending=spec.warped,
                   candidates=tuple(candidates))


def pole_set(spec: ConeOperatorSpec, gamma) -> PoleSet:
    """Q_{A,gamma}: poles of g_0..g_{mu-1} per mode inside the weight strip.

    A root's order on a mode is its largest order over the families g_k.
    """
    def poles(label):
        for fam in recursive_symbols(spec, label):
            if not fam.is_zero() and fam.den.degree >= 1:
                yield from fam.poles()
    return _pole_set(spec, gamma, 1, poles, max)


def pole_set_power(spec: ConeOperatorSpec, gamma, k: int) -> PoleSet:
    """Q_{A^k,gamma}: union over j < k of (roots of f_0) - j*mu, orders summed.

    The convention is fixed by the exact power-log calculus: A^k applied to
    x^{-rho} log^m x picks up the factor prod_j f_0(rho + j*mu), so the pole
    order at rho is the summed root multiplicity across the shifted copies.
    """
    if k < 1:
        raise ConfigError("power k must be >= 1")
    if k == 1:
        return pole_set(spec, gamma)
    if spec.warped:
        raise UnsupportedError("pole_set_power with k >= 2 is unsupported for warped coefficients in v1")

    def poles(label):
        f0 = conormal_symbol(spec, label)
        if f0.is_zero():
            raise DegenerateSymbolError(f"degenerate conormal symbol on mode {label}")
        for root, order, is_exact in (poly_roots(f0) if f0.degree >= 1 else []):
            for j in range(k):
                rho = (root - QRat(j * spec.mu)) if isinstance(root, QRat) \
                    else (complex(root) - j * spec.mu)
                yield rho, order, is_exact
    return _pole_set(spec, gamma, k, poles, operator.add)
