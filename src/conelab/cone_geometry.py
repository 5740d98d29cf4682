"""Model cross-sections: spectra, Bessel orders, admissible weight windows.

Cross-sections are spectrum-only. Everything downstream consumes the mode
table, one (label, eigenvalue, multiplicity) per mode; eigenfunctions are
never materialized. Circle and sphere eigenvalues are kept as exact
rationals so that coincident conormal-symbol poles can be told apart from
nearly coincident ones.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import ConfigError


# S^n for these n: math.gamma in the area of S^n overflows from n = 343 on
SPHERE_DIMENSIONS = range(2, 343)


class Mode(NamedTuple):
    label: str
    eigenvalue: object  # Fraction (exact) or float
    multiplicity: int


@dataclass(frozen=True)
class WeightWindow:
    lo: float
    hi: float

    def contains(self, gamma: float) -> bool:
        return self.lo < gamma < self.hi


@dataclass(frozen=True)
class CrossSection:
    """kind in {circle, sphere, explicit}; n is the cross-section dimension."""

    kind: str
    n: int
    # circle: q = (2*pi/L)^2, exact Fraction when derivable, else float
    circle_q: object = None
    explicit_eigs: tuple = ()
    vol: float = 1.0

    @staticmethod
    def circle(length: float | None = None, length_over_pi=None) -> "CrossSection":
        """Circle of circumference L; pass length_over_pi for exact spectra."""
        try:
            if length_over_pi is not None:
                lop = Fraction(length_over_pi)
                if lop <= 0:
                    raise ConfigError("circle circumference must be positive")
                q = Fraction(2, 1) ** 2 / lop ** 2
                L, qf = float(lop) * math.pi, float(q)
            elif length is not None:
                if not length > 0:
                    raise ConfigError("circle circumference must be positive")
                L = float(length)
                r = 2.0 * math.pi / L
                qf = r ** 2
                # L = 2 pi a / b with a, b <= 1000 snaps 2 pi / L to b/a and q to its
                # square: a relative test on so few fractions takes no other L, and a
                # positive q never snaps to 0
                snap = Fraction(r).limit_denominator(1000)
                exact = 0 < snap.numerator <= 1000 and abs(float(snap) - r) < 1e-12 * r
                q = snap ** 2 if exact else qf
            else:
                raise ConfigError("circle needs 'L' or 'L_over_pi'")
        except OverflowError:
            L = qf = math.inf
        if not (0.0 < L < math.inf and qf < math.inf):
            raise ConfigError("circle circumference L > 0 and (2 pi / L)^2 must be finite floats")
        return CrossSection(kind="circle", n=1, circle_q=q, vol=L)

    @staticmethod
    def sphere(n: int) -> "CrossSection":
        if n not in SPHERE_DIMENSIONS:
            raise ConfigError(f"sphere cross-section needs n from 2 to 342, got {n!r}")
        area = 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)
        return CrossSection(kind="sphere", n=n, vol=area)

    @staticmethod
    def explicit(eigs, n: int = 1, volume: float = 1.0) -> "CrossSection":
        """Explicit (eigenvalue <= 0, multiplicity >= 1) list, sorted non-increasing."""
        clean = []
        for ev, mult in eigs:
            evx = Fraction(ev) if isinstance(ev, (int, Fraction, str)) else float(ev)
            if not abs(evx) <= sys.float_info.max:
                raise ConfigError(f"eigenvalue {ev} does not fit a finite float")
            if float(evx) > 0:
                raise ConfigError(f"positive eigenvalue {ev}: boundary Laplacian must be non-positive")
            if isinstance(mult, bool) or not isinstance(mult, numbers.Real) or mult % 1 or mult < 1:
                raise ConfigError(f"multiplicity {mult!r} must be a whole number >= 1")
            clean.append((evx, int(mult)))
        clean.sort(key=lambda t: -float(t[0]))
        return CrossSection(kind="explicit", n=n, explicit_eigs=tuple(clean), vol=volume)

    # -- spectrum ---------------------------------------------------------

    def mode_table(self, max_modes: int) -> tuple[Mode, ...]:
        """The spectrum as per-label modes, for the first max_modes eigenvalues.

        circle: k=0, then k=+j and k=-j with eigenvalue -q*j*j, multiplicity 1
        each; sphere: l=j with eigenvalue -j(j+n-1) and the harmonic
        multiplicity; explicit: the first max_modes entries as e{i}.
        """
        if max_modes < 1:
            raise ConfigError("max_modes must be >= 1")
        return tuple(self.walk(max_modes))

    def walk(self, max_modes: int):
        """The modes of mode_table(max_modes) in its order, each built when the walk reaches it."""
        if self.kind == "circle":
            for j in range(max_modes):
                ev = -self.circle_q * j * j
                if j == 0:
                    yield Mode("k=0", ev, 1)
                else:
                    yield Mode(f"k=+{j}", ev, 1)
                    yield Mode(f"k=-{j}", ev, 1)
        elif self.kind == "sphere":
            for l in range(max_modes):
                yield Mode(f"l={l}", Fraction(-l * (l + self.n - 1)),
                           sphere_multiplicity(self.n, l))
        else:
            for i, (ev, mult) in enumerate(self.explicit_eigs[:max_modes]):
                yield Mode(f"e{i}", ev, mult)


# eigenvalue indices a walk by label or to lambda_1 covers: those of mode_table(64)
LOOKUP_REACH = 64


def find_mode(modes, label: str) -> Mode:
    """The mode with this label in a mode table, or in a walk, which stops at it."""
    for m in modes:
        if m.label == label:
            return m
    raise ConfigError(f"unknown mode {label!r}")


def mode_index(modes, label: str) -> int:
    """Position of the mode with this label in a mode table."""
    return modes.index(find_mode(modes, label))


def sphere_multiplicity(n: int, l: int) -> int:
    """Dimension of degree-l spherical harmonics on S^n."""
    if l == 0:
        return 1
    return math.comb(n + l, n) - math.comb(n + l - 2, n)


def bessel_order(n: int, eigenvalue):
    """nu = sqrt(((n-1)/2)^2 - eigenvalue); exact Fraction for perfect squares."""
    if float(eigenvalue) > 0:
        raise ConfigError("eigenvalue must be <= 0")
    if isinstance(eigenvalue, (int, Fraction)):
        rad = Fraction(n - 1, 2) ** 2 - Fraction(eigenvalue)
        num, den = rad.numerator, rad.denominator
        rn, rd = math.isqrt(num), math.isqrt(den)
        if rn * rn == num and rd * rd == den:
            return Fraction(rn, rd)
        return math.sqrt(float(rad))
    return math.sqrt(((n - 1) / 2.0) ** 2 - float(eigenvalue))


def weight_window(cs: CrossSection) -> WeightWindow:
    """Admissible gamma interval for the constants-extended Laplacian realization.

    lo = (n-3)/2, hi = min(-1 + sqrt(((n-1)/2)^2 - lambda_1), (n+1)/2) with
    lambda_1 the greatest non-zero eigenvalue. Empty windows raise instead of
    returning a degenerate interval.
    """
    modes = cs.walk(LOOKUP_REACH)      # stops at lambda_1
    first = next(modes, None)
    if first is None or float(first.eigenvalue) != 0.0 or first.multiplicity != 1:
        raise ConfigError("weight window defined for connected cross-sections only "
                          "(zero eigenvalue must be simple)")
    lam1 = next((m.eigenvalue for m in modes if float(m.eigenvalue) != 0.0), None)
    if lam1 is None:
        raise ConfigError("cross-section has no non-zero eigenvalue")
    n = cs.n
    lo = (n - 3) / 2.0
    hi = min(-1.0 + float(bessel_order(n, lam1)), (n + 1) / 2.0)
    if lo >= hi:
        raise ConfigError(f"no admissible weight: window ({lo}, {hi}) is empty")
    return WeightWindow(lo, hi)


def indicial_roots_closed_form(n: int, eigenvalue):
    """The two conormal-symbol poles (n-1)/2 +/- bessel_order for one mode."""
    nu = bessel_order(n, eigenvalue)
    half = Fraction(n - 1, 2)      # a float nu makes both roots floats
    return (half - nu, half + nu)
