"""Exact arithmetic carriers: Gaussian rationals, dense polynomials, rational families.

Everything here is exact. Polynomials are dense with Gaussian-rational
coefficients; rational families are quotients kept in lowest terms with a
monic denominator, so equality of families is equality of the normal form.
Float inputs are admitted (a binary float is an exact rational) and root
extraction decides afterwards whether a root deserves an exact label.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import NumericalError

# merging tolerance for numerically coincident roots; exact roots bypass it
TOL_POLE = 1e-9

_SNAP_DENOMS = (1, 2, 3, 4, 6, 8, 12, 16, 24, 10_000, 1_000_000)


def _frac(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, (int, float)):
        return Fraction(v)  # a float's exact binary value
    raise TypeError(f"cannot coerce {type(v).__name__} to Fraction")


class QRat:
    """A Gaussian rational a + b*i with exact Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _frac(re)
        self.im = _frac(im)

    def __add__(self, other):
        o = _coerce(other)
        return NotImplemented if o is None else QRat(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = _coerce(other)
        return NotImplemented if o is None else QRat(self.re - o.re, self.im - o.im)

    def __mul__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        if not (self.im or o.im):          # real times real: the same Fractions, fewer of them
            return QRat(self.re * o.re, self.im)
        return QRat(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        if not o.im:                        # a real divisor divides each part
            if not o.re:
                raise ZeroDivisionError("division by zero QRat")
            return QRat(self.re / o.re, self.im / o.re)
        d = o.re * o.re + o.im * o.im       # > 0: the divisor has an imaginary part
        return QRat((self.re * o.re + self.im * o.im) / d,
                    (self.im * o.re - self.re * o.im) / d)

    def __rtruediv__(self, other):
        o = _coerce(other)
        return NotImplemented if o is None else o / self

    def __neg__(self):
        return QRat(-self.re, -self.im)

    def __eq__(self, other):
        o = _coerce(other)
        return NotImplemented if o is None else (self.re == o.re and self.im == o.im)

    def __hash__(self):
        # == coerces int, Fraction and float, so a real value hashes like its Fraction
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if self.im == 0:
            return f"{self.re}"
        return f"({self.re}{'+' if self.im >= 0 else '-'}{abs(self.im)}i)"


def _coerce(v):
    if isinstance(v, QRat):
        return v
    if isinstance(v, (int, Fraction, float)):
        return QRat(v)
    return None


class Poly:
    """Dense polynomial over QRat, coefficients ascending in the variable."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, QRat) else QRat(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def constant(c) -> "Poly":
        return Poly([c])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        other = self._as_poly(other)
        return NotImplemented if other is None else self.coeffs == other.coeffs

    def __hash__(self):
        # a constant (zero included) hashes like the number it equals
        if len(self.coeffs) > 1:
            return hash(self.coeffs)
        return hash(self.coeffs[0] if self.coeffs else 0)

    def __add__(self, other):
        other = self._as_poly(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other):
        other = self._as_poly(other)
        if other is None:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Poly()
        out = [QRat(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        out = Poly.constant(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    @staticmethod
    def _as_poly(v):
        if isinstance(v, Poly):
            return v
        if isinstance(v, (int, Fraction, float, QRat)):
            return Poly.constant(v)
        return None

    def divmod(self, other: "Poly"):
        """Exact Euclidean division (quotient, remainder)."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = [QRat(0)] * max(0, len(self.coeffs) - len(other.coeffs) + 1)
        rem = list(self.coeffs)
        dlead = other.coeffs[-1]
        dn = len(other.coeffs)
        while len(rem) >= dn:
            c = rem[-1] / dlead
            pos = len(rem) - dn
            q[pos] = c
            for i, b in enumerate(other.coeffs):
                rem[pos + i] = rem[pos + i] - c * b
            while rem and not rem[-1]:
                rem.pop()
        return Poly(q), Poly(rem)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lead = self.coeffs[-1]
        return Poly([c / lead for c in self.coeffs])

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def derivative(self) -> "Poly":
        return Poly([QRat(i) * c for i, c in enumerate(self.coeffs)][1:])

    def shift(self, sigma) -> "Poly":
        """Return p(X + sigma); this is the T^sigma action on symbols."""
        out = Poly()
        xs = Poly([sigma, 1])
        for c in reversed(self.coeffs):
            out = out * xs + Poly.constant(c)
        return out

    def eval_exact(self, v) -> QRat:
        acc = QRat(0)
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc

    def eval(self, z: complex) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + c.to_complex()
        return acc

    def to_complex_coeffs(self) -> np.ndarray:
        """Descending complex coefficients (numpy.roots convention)."""
        return np.array([c.to_complex() for c in reversed(self.coeffs)] or [0j])

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            parts.append(f"{c}" if i == 0 else (f"{c}*X^{i}" if i > 1 else f"{c}*X"))
        return "Poly(" + " + ".join(parts) + ")"


class RationalFamily:
    """Quotient of two Poly in lowest terms with monic denominator.

    The canonical normal form makes == meaningful; the round-trip law
    f * RationalFamily(f.den, f.num) == 1 is exercised in the tests.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = Poly._as_poly(num)
        den = Poly.constant(1) if den is None else Poly._as_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("rational family with zero denominator")
        if num.is_zero():
            self.num, self.den = Poly(), Poly.constant(1)
            return
        if num.degree > 0 and den.degree > 0:    # else the gcd is a constant
            g = num.gcd(den)
            if g.degree > 0:
                num, den = num // g, den // g
        lead = den.coeffs[-1]
        self.num = Poly([c / lead for c in num.coeffs])
        self.den = Poly([c / lead for c in den.coeffs])

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other):
        other = self._as_family(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    @staticmethod
    def _as_family(v):
        if isinstance(v, RationalFamily):
            return v
        p = Poly._as_poly(v)
        return None if p is None else RationalFamily(p)

    def __add__(self, other):
        o = self._as_family(other)
        if o is None:
            return NotImplemented
        return RationalFamily(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._as_family(other)
        return NotImplemented if o is None else self + (-o)

    def __neg__(self):
        return RationalFamily(-self.num, self.den)

    def __mul__(self, other):
        o = self._as_family(other)
        if o is None:
            return NotImplemented
        return RationalFamily(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def shift(self, sigma) -> "RationalFamily":
        """T^sigma action: evaluate the family at (lambda + sigma)."""
        return RationalFamily(self.num.shift(sigma), self.den.shift(sigma))

    def poles(self):
        """Poles with orders: list of (location, order, is_exact)."""
        return poly_roots(self.den)

    def __repr__(self):
        return f"RationalFamily({self.num!r} / {self.den!r})"


def _snap_fraction(x: float):
    """Candidate exact rationals near a float, best first (ties in denominator order)."""
    exact = Fraction(x)
    near = (f for f in map(exact.limit_denominator, _SNAP_DENOMS) if abs(float(f) - x) < 1e-6)
    return sorted(dict.fromkeys(near), key=lambda f: abs(float(f) - x))


def poly_roots(p: Poly):
    """Roots of p with multiplicities.

    Returns a list of (root, multiplicity, exact) where root is a QRat when
    the root was verified exactly (snap then exact division) and a complex
    float otherwise. Float roots come from the companion matrix (LAPACK
    balancing via numpy.roots) with one Newton polish each, then clusters
    within TOL_POLE are merged; exact roots never merge with anything.
    """
    if p.is_zero():
        raise NumericalError("root extraction on the zero polynomial")
    out = []
    remaining = p
    # exact pass: the first snapped candidate of a float root that is a root
    # is divided out as often as it divides
    for r in _float_roots(p):
        cands = (QRat(a, b) for a in _snap_fraction(r.real) for b in _snap_fraction(r.imag))
        cand = next((c for c in cands if not remaining.eval_exact(c)), None)
        if cand is None:
            continue
        lin, mult = Poly([-cand, 1]), 0
        q, rem = remaining.divmod(lin)
        while rem.is_zero():
            remaining, mult = q, mult + 1
            q, rem = remaining.divmod(lin)
        out.append((cand, mult, True))
    if remaining.degree >= 1:
        floats = _float_roots(remaining)
        clusters: list[list[complex]] = []
        for r in sorted(floats, key=lambda z: (z.real, z.imag)):
            for cl in clusters:
                if abs(r - cl[0]) <= TOL_POLE * max(1.0, abs(cl[0])):
                    cl.append(r)
                    break
            else:
                clusters.append([r])
        for cl in clusters:
            out.append((complex(np.mean(cl)), len(cl), False))
    out.sort(key=_root_sort_key)
    return out


def _root_sort_key(entry):
    z = root_to_complex(entry[0])
    return (z.real, z.imag)


def _float_roots(p: Poly) -> list[complex]:
    coeffs = p.to_complex_coeffs()
    if len(coeffs) <= 1:
        return []
    rts = np.roots(coeffs)
    dp = p.derivative()
    polished = []
    for r in rts:
        d = dp.eval(r)
        if abs(d) > 1e-8:
            r = r - p.eval(r) / d  # one Newton polish
        polished.append(complex(r))
    return polished


def root_to_complex(r) -> complex:
    return r.to_complex() if isinstance(r, QRat) else complex(r)


def roots_equal(a, b) -> bool:
    if isinstance(a, QRat) and isinstance(b, QRat):
        return a == b
    za, zb = root_to_complex(a), root_to_complex(b)
    return abs(za - zb) <= TOL_POLE * max(1.0, abs(za))
