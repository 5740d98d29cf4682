"""Asymptotics-space bases, exact power-log calculus, domain membership.

Near the tip a singular term is c * x^{-rho} * log^m(x) on one mode. The
whole module works modulo a fixed interior cut-off: commutator terms of the
operator with the cut-off are smooth and supported away from the tip, so
they never affect membership questions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .errors import ConfigError, UnsupportedError
from .rational import QRat, root_to_complex, roots_equal
from .symbol_algebra import (ConeOperatorSpec, PoleSet, pole_set,
                             pole_set_power, strip_bounds)


@dataclass(frozen=True)
class AsymptoticsTerm:
    rho: object            # QRat (exact) or complex
    m: int                 # log power
    mode: str
    c: object = 1          # coefficient, QRat or complex

    def __post_init__(self):
        if self.m < 0:
            raise ConfigError("log power m must be >= 0")

    @property
    def rho_complex(self) -> complex:
        return root_to_complex(self.rho)

    @property
    def c_complex(self) -> complex:
        return root_to_complex(self.c)

    def evaluate(self, x):
        """Radial profile c * x^{-rho} * log^m x on positive samples x."""
        x = np.asarray(x, dtype=float)
        rho = self.rho_complex
        vals = self.c_complex * np.exp(-rho * np.log(x))
        if self.m:
            vals = vals * np.log(x) ** self.m
        return vals


@dataclass(frozen=True)
class AsymptoticsBasis:
    terms: tuple                 # (rho, m, mode) triples, no coefficients
    provenance: PoleSet

    def __len__(self):
        return len(self.terms)

    def for_mode(self, label: str):
        return [t for t in self.terms if t[2] == label]

    def contains(self, rho, m: int, mode: str) -> bool:
        return any(t[2] == mode and t[1] == m and roots_equal(t[0], rho)
                   for t in self.terms)


def enumerate_asymptotics(ps: PoleSet) -> AsymptoticsBasis:
    """One (rho, m, mode) triple per admitted log power 0..M of each pole."""
    triples = []
    for entry in ps.entries:
        for label, order in entry.mode_orders.items():
            for m in range(order):
                triples.append((entry.rho, m, label))
    triples.sort(key=lambda t: (t[2], root_to_complex(t[0]).real,
                                root_to_complex(t[0]).imag, t[1]))
    return AsymptoticsBasis(terms=tuple(triples), provenance=ps)


def _exactable(v) -> bool:
    return isinstance(v, (QRat, int, Fraction))


def _as_scalar(v, exact: bool):
    if exact:
        return v if isinstance(v, QRat) else QRat(v)
    return root_to_complex(v)


def apply_operator_symbolic(spec: ConeOperatorSpec, term: AsymptoticsTerm) -> list[AsymptoticsTerm]:
    """Apply x^{-mu} sum a_k(x) (-x d/dx)^k exactly to one power-log term.

    On the span of x^{-rho} log^j the derivation acts as rho*I - N with N
    the log-lowering nilpotent, each x-power d in a coefficient shifts rho
    by -d, and the x^{-mu} prefactor shifts rho by +mu. Arithmetic is exact
    whenever rho, the coefficient, and the operator data are all rational.
    """
    mode = spec.mode(term.mode)
    polys = spec.coeffs[mode.label]
    exact = _exactable(term.rho) and _exactable(term.c) and all(
        all(isinstance(c, QRat) for c in p.coeffs) for p in polys)
    rho = _as_scalar(term.rho, exact)
    zero = QRat(0) if exact else 0j

    out = []
    for k, a_k in enumerate(polys):
        if a_k.is_zero():
            continue
        # v[j] = coefficient of log^j after applying (-x d/dx)^k
        v = [zero] * (term.m + 1)
        v[term.m] = _as_scalar(term.c, exact)
        for _ in range(k):
            w = [zero] * (term.m + 1)
            for j in range(term.m + 1):
                w[j] = rho * v[j]
                if j + 1 <= term.m:
                    w[j] = w[j] - (j + 1) * v[j + 1]
            v = w
        for d, cd in enumerate(a_k.coeffs):
            if not cd:
                continue
            cval = cd if exact else cd.to_complex()
            new_rho = rho + (spec.mu - d)
            out.extend(AsymptoticsTerm(new_rho, j, term.mode, cval * vj)
                       for j, vj in enumerate(v) if vj)
    return merge_terms(out)


def apply_operator_power(spec: ConeOperatorSpec, term: AsymptoticsTerm, k: int) -> list[AsymptoticsTerm]:
    """k-fold symbolic application, merging termwise after each pass."""
    current = [term]
    for _ in range(k):
        nxt: list[AsymptoticsTerm] = []
        for t in current:
            nxt.extend(apply_operator_symbolic(spec, t))
        current = merge_terms(nxt)
    return current


def merge_terms(terms) -> list[AsymptoticsTerm]:
    """Canonical merge: coefficients of equal (rho, m, mode) are summed.

    Sums that vanish (exactly, or below 1e-14 in floating point) are dropped.
    """
    out: list[AsymptoticsTerm] = []
    for t in terms:
        i = next((i for i, u in enumerate(out) if u.mode == t.mode and u.m == t.m
                  and roots_equal(u.rho, t.rho)), None)
        if i is None:
            out.append(t)
        elif isinstance(out[i].c, QRat) and isinstance(t.c, QRat):
            out[i] = replace(out[i], c=out[i].c + t.c)
        else:
            out[i] = replace(out[i], c=out[i].c_complex + t.c_complex)
    out = [t for t in out if (t.c if isinstance(t.c, QRat) else abs(t.c_complex) > 1e-14)]
    out.sort(key=lambda t: (t.mode, t.rho_complex.real, t.rho_complex.imag, t.m))
    return out


@dataclass(frozen=True)
class MembershipResult:
    member: bool | None          # None marks an undecidable boundary case
    reason: str

    def __bool__(self):
        if self.member is None:
            raise UnsupportedError(f"boundary case: {self.reason}")
        return self.member


def _re_compare(rho, edge):
    """-1 below, 0 on, +1 above the edge; exact when both sides are exact."""
    if isinstance(rho, QRat):
        re = rho.re
        e = Fraction(edge)
        return (re > e) - (re < e)
    re = complex(rho).real
    e = float(edge)
    if abs(re - e) <= 1e-12 * max(1.0, abs(e)):
        return 0
    return 1 if re > e else -1


@dataclass(frozen=True)
class Realization:
    """A realization's domain, built once to classify many terms.

    A term belongs when Re rho lies below `left`, the strip's left edge, or
    when it is among the `admitted` asymptotics; `reason` says why then.
    """
    left: object
    admitted: AsymptoticsBasis
    reason: str

    def classify(self, term: AsymptoticsTerm) -> MembershipResult:
        if self.admitted.contains(term.rho, term.m, term.mode):
            return MembershipResult(True, self.reason)
        cmp = _re_compare(term.rho, self.left)
        if cmp < 0:
            return MembershipResult(True, f"minimal-domain regularity: Re rho < {self.left}")
        if cmp == 0:
            return MembershipResult(None, f"Re rho sits exactly on the strip edge {self.left}; "
                                          "minimal-vs-maximal attribution undecidable, "
                                          "reported not classified")
        return MembershipResult(False, f"Re rho >= strip left edge {self.left} and term is "
                                       "not among the realization's admitted asymptotics")


def build_realization(realization: str, gamma, spec: ConeOperatorSpec) -> Realization:
    """The domain of 'min', 'DD', 'max' or 'power:k', with k >= 1.

    Minimal-domain regularity means Re rho strictly below the strip's left
    edge (log powers are harmless under a strict inequality); 'max' admits
    the pole basis, 'DD' exactly the constants, 'power:k' the basis of
    Q_(A^k), which makes it the maximal domain of A^k.
    """
    if isinstance(realization, str) and realization.startswith("power:") \
            and realization[6:].isdecimal() and int(realization[6:]) >= 1:
        k = int(realization[6:])
        return Realization(strip_bounds(spec.n, gamma, spec.mu, power=k)[0],
                           enumerate_asymptotics(pole_set_power(spec, gamma, k)),
                           f"term appears in the Q_(A^{k}) asymptotics basis")
    left, right = strip_bounds(spec.n, gamma, spec.mu)
    if realization == "max":
        return Realization(left, enumerate_asymptotics(pole_set(spec, gamma)),
                           "term appears in the maximal-domain asymptotics basis")
    if realization == "DD":
        constants = tuple((QRat(0), 0, m.label) for m in spec.modes
                          if float(m.eigenvalue) == 0.0) if left <= 0 < right else ()
        return Realization(left, AsymptoticsBasis(constants, None),
                           "constants are adjoined to the minimal domain by the realization")
    if realization == "min":
        return Realization(left, AsymptoticsBasis((), None), "")
    raise ConfigError(f"bad realization {realization!r}: "
                      "expected min, DD, max or power:k with k >= 1")


def domain_membership(term: AsymptoticsTerm, realization, gamma,
                      spec: ConeOperatorSpec) -> MembershipResult:
    """Decide symbolically whether a power-log term lies in a realization domain.

    realization is a Realization, or anything build_realization takes.
    Exactly-on-the-edge cases come back as boundary, never classified.
    """
    if not isinstance(realization, Realization):
        realization = build_realization(realization, gamma, spec)
    return realization.classify(term)
