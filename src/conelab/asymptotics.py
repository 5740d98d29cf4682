"""Asymptotics-space bases, exact power-log calculus, domain membership.

Near the tip a singular term is c * x^{-rho} * log^m(x) on one mode. The
whole module works modulo a fixed interior cut-off: commutator terms of the
operator with the cut-off are smooth and supported away from the tip, so
they never affect membership questions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

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
        return root_to_complex(self.rho) if isinstance(self.rho, QRat) else complex(self.rho)

    @property
    def c_complex(self) -> complex:
        return root_to_complex(self.c) if isinstance(self.c, QRat) else complex(self.c)

    def evaluate(self, x):
        """Radial profile c * x^{-rho} * log^m x on positive samples x."""
        import numpy as np
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
    return root_to_complex(v) if isinstance(v, QRat) else complex(v)


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
    one = QRat(1) if exact else 1 + 0j

    # accumulate output coefficients keyed by (rho', m')
    out: dict = {}

    def add(key_rho, m, val):
        for (kr, km) in list(out):
            if km == m and (kr == key_rho if exact else roots_equal(kr, key_rho)):
                out[(kr, km)] = out[(kr, km)] + val
                return
        out[(key_rho, m)] = val

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
            for j, vj in enumerate(v):
                if vj:
                    add(new_rho, j, cval * vj)

    result = []
    for (r, m), c in out.items():
        if exact:
            if not c:
                continue
        elif abs(c) <= 1e-14:
            continue
        result.append(AsymptoticsTerm(rho=r, m=m, mode=term.mode, c=c))
    result.sort(key=lambda t: (t.rho_complex.real, t.rho_complex.imag, t.m))
    return result


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
    """Canonical merge: identical (rho, m, mode) coefficients are summed."""
    out: list[AsymptoticsTerm] = []
    for t in terms:
        hit = None
        for i, u in enumerate(out):
            if u.mode == t.mode and u.m == t.m and (
                    (isinstance(u.rho, QRat) and isinstance(t.rho, QRat) and u.rho == t.rho)
                    or (not (isinstance(u.rho, QRat) and isinstance(t.rho, QRat))
                        and roots_equal(u.rho, t.rho))):
                hit = i
                break
        if hit is None:
            out.append(t)
        else:
            u = out[hit]
            if isinstance(u.c, QRat) and isinstance(t.c, QRat):
                c = u.c + t.c
                dead = not c
            else:
                c = u.c_complex + t.c_complex
                dead = abs(c) <= 1e-14
            if dead:
                out.pop(hit)
            else:
                out[hit] = replace(u, c=c)
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


def domain_membership(term: AsymptoticsTerm, realization, gamma,
                      spec: ConeOperatorSpec) -> MembershipResult:
    """Decide symbolically whether a power-log term lies in a realization domain.

    realization is 'min', 'max', 'DD', or ('power', k). Minimal-domain
    regularity means Re rho strictly below the strip's left edge (log powers
    are harmless under a strict inequality); 'max' adds the pole basis, 'DD'
    adds exactly the constants, ('power', k) is the maximal domain of A^k.
    Exactly-on-the-edge cases come back as boundary, never classified.
    """
    if isinstance(realization, str) and realization.startswith("power"):
        realization = ("power", int(realization.split(":")[1] if ":" in realization
                                    else realization.replace("power", "").strip("() ")))
    power = 1
    kind = realization
    if isinstance(realization, tuple):
        kind, power = realization
        if kind != "power" or power < 1:
            raise ConfigError(f"bad realization {realization!r}")

    left, _right = strip_bounds(spec.n, gamma, spec.mu, power=power)

    if kind in ("max",):
        basis = enumerate_asymptotics(pole_set(spec, gamma))
        if basis.contains(term.rho, term.m, term.mode):
            return MembershipResult(True, "term appears in the maximal-domain asymptotics basis")
    elif kind == "power":
        basis = enumerate_asymptotics(pole_set_power(spec, gamma, power))
        if basis.contains(term.rho, term.m, term.mode):
            return MembershipResult(True, f"term appears in the Q_(A^{power}) asymptotics basis")
    elif kind == "DD":
        left1, right1 = strip_bounds(spec.n, gamma, spec.mu)
        zero_labels = {m.label for m in spec.modes if float(m.eigenvalue) == 0.0}
        zero_in_strip = left1 <= 0 < right1
        if zero_in_strip and term.m == 0 and roots_equal(term.rho, QRat(0)) \
                and term.mode in zero_labels:
            return MembershipResult(True, "constants are adjoined to the minimal domain by the realization")
    elif kind != "min":
        raise ConfigError(f"unknown realization {realization!r}")

    cmp = _re_compare(term.rho, left)
    if cmp < 0:
        return MembershipResult(True, f"minimal-domain regularity: Re rho < {left}")
    if cmp == 0:
        return MembershipResult(None, f"Re rho sits exactly on the strip edge {left}; "
                                      "minimal-vs-maximal attribution undecidable, reported not classified")
    return MembershipResult(False, f"Re rho >= strip left edge {left} and term is not "
                                   "among the realization's admitted asymptotics")
