"""Power-log calculus against an independent symbolic oracle, membership logic."""

import random
from fractions import Fraction

import pytest
import sympy

from conelab.asymptotics import (AsymptoticsTerm, apply_operator_power,
                                 apply_operator_symbolic, domain_membership,
                                 enumerate_asymptotics, merge_terms)
from conelab.cone_geometry import CrossSection
from conelab.errors import UnsupportedError
from conelab.rational import Poly, QRat
from conelab.symbol_algebra import (ConeOperatorSpec, conormal_symbol, pole_set,
                                    pole_set_power)

CIRCLE = CrossSection.circle(length_over_pi=2)
SPHERE = CrossSection.sphere(2)


def test_enumerate_circle_basis():
    from conelab.rational import root_to_complex
    spec = ConeOperatorSpec.laplacian(CIRCLE, 2)
    basis = enumerate_asymptotics(pole_set(spec, Fraction(-1, 2)))
    triples = {(root_to_complex(r), m, lbl) for r, m, lbl in basis.terms}
    assert triples == {(0j, 0, "k=0"), (0j, 1, "k=0"),
                       (1 + 0j, 0, "k=+1"), (1 + 0j, 0, "k=-1")}


def test_enumerate_empty():
    modes = CIRCLE.mode_table(1)
    spec = ConeOperatorSpec(mu=1, n=1, modes=modes,
                            coeffs={"k=0": (Poly([1]), Poly([]))})
    assert len(enumerate_asymptotics(pole_set(spec, 0))) == 0


def _sympy_apply(spec, mode_label, rho, m, times=1):
    """Independent oracle: apply the collar operator with sympy calculus."""
    x = sympy.Symbol("x", positive=True)
    polys = spec.coeffs[mode_label]
    expr = x ** (-sympy.Rational(rho.numerator, rho.denominator)) * sympy.log(x) ** m
    for _ in range(times):
        acc = 0
        for k, a_k in enumerate(polys):
            term = expr
            for _ in range(k):
                term = -x * sympy.diff(term, x)
            a_poly = sum(sympy.Rational(c.re.numerator, c.re.denominator) * x ** d
                         for d, c in enumerate(a_k.coeffs))
            acc = acc + a_poly * term
        expr = sympy.expand(acc / x ** spec.mu)
    return sympy.simplify(expr)


def _terms_to_sympy(terms):
    x = sympy.Symbol("x", positive=True)
    acc = 0
    for t in terms:
        rho = t.rho.re if hasattr(t.rho, "re") and isinstance(t.rho, QRat) else t.rho
        c = t.c
        c_s = sympy.Rational(c.re.numerator, c.re.denominator) if isinstance(c, QRat) \
            else sympy.nsimplify(complex(c).real)
        r_s = sympy.Rational(rho.numerator, rho.denominator)
        acc = acc + c_s * x ** (-r_s) * sympy.log(x) ** t.m
    return sympy.simplify(acc)


def test_apply_trivial_cases():
    spec = ConeOperatorSpec.laplacian(CIRCLE, 2)
    assert apply_operator_symbolic(spec, AsymptoticsTerm(QRat(0), 0, "k=0")) == []
    assert apply_operator_symbolic(spec, AsymptoticsTerm(QRat(0), 1, "k=0")) == []
    assert apply_operator_symbolic(spec, AsymptoticsTerm(QRat(-1), 0, "k=+1")) == []


def test_apply_matches_sympy_oracle():
    rng = random.Random(7)
    spec = ConeOperatorSpec.laplacian(CIRCLE, 3)
    warped = ConeOperatorSpec.laplacian(CIRCLE, 2, warp_a0=1)
    for trial in range(12):
        use = spec if trial % 2 else warped
        mode = rng.choice([m.label for m in use.modes])
        rho = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        m = rng.randint(0, 2)
        got = apply_operator_symbolic(use, AsymptoticsTerm(QRat(rho), m, mode))
        want = _sympy_apply(use, mode, rho, m)
        assert sympy.simplify(_terms_to_sympy(got) - want) == 0


def test_apply_linearity():
    spec = ConeOperatorSpec.laplacian(CIRCLE, 2)
    rng = random.Random(3)
    for _ in range(10):
        rho = Fraction(rng.randint(-4, 4), rng.randint(1, 2))
        a, b = Fraction(rng.randint(1, 5)), Fraction(rng.randint(-5, -1))
        t1 = AsymptoticsTerm(QRat(rho), 1, "k=+1", c=QRat(a))
        t2 = AsymptoticsTerm(QRat(rho), 0, "k=+1", c=QRat(b))
        out_sum = merge_terms(apply_operator_symbolic(spec, t1)
                              + apply_operator_symbolic(spec, t2))
        scaled = merge_terms(
            apply_operator_symbolic(spec, AsymptoticsTerm(QRat(rho), 1, "k=+1", c=QRat(a)))
            + apply_operator_symbolic(spec, AsymptoticsTerm(QRat(rho), 0, "k=+1", c=QRat(b))))
        assert [(t.rho, t.m, t.c) for t in out_sum] == [(t.rho, t.m, t.c) for t in scaled]


def test_leading_coefficient_is_indicial_value():
    # output coefficient at (rho + mu, m) equals f0(rho) exactly
    spec = ConeOperatorSpec.laplacian(CIRCLE, 3)
    rng = random.Random(19)
    for _ in range(50):
        mode = rng.choice([m.label for m in spec.modes])
        rho = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        out = apply_operator_symbolic(spec, AsymptoticsTerm(QRat(rho), 0, mode))
        f0 = conormal_symbol(spec, mode)
        val = f0.eval_exact(QRat(rho))
        lead = [t for t in out if t.rho == QRat(rho + 2) and t.m == 0]
        if not val:
            assert not lead
        else:
            assert len(lead) == 1 and lead[0].c == val


def test_power_annihilation_validates_pole_set_power():
    for cs, gamma in [(CIRCLE, Fraction(-1, 2)), (SPHERE, Fraction(0))]:
        spec = ConeOperatorSpec.laplacian(cs, 4)
        ps2 = pole_set_power(spec, gamma, 2)
        for rho, m, mode in enumerate_asymptotics(ps2).terms:
            assert apply_operator_power(spec, AsymptoticsTerm(rho, m, mode), 2) == []


def test_domain_membership_dd_and_max():
    spec = ConeOperatorSpec.laplacian(CIRCLE, 2)
    gamma = Fraction(-1, 2)
    const = AsymptoticsTerm(QRat(0), 0, "k=0")
    logt = AsymptoticsTerm(QRat(0), 1, "k=0")
    pole1 = AsymptoticsTerm(QRat(1), 0, "k=+1")
    assert domain_membership(const, "DD", gamma, spec).member is True
    assert domain_membership(logt, "DD", gamma, spec).member is False
    assert domain_membership(logt, "max", gamma, spec).member is True
    assert domain_membership(pole1, "DD", gamma, spec).member is False
    assert domain_membership(pole1, "max", gamma, spec).member is True


def test_domain_membership_min_and_power():
    spec = ConeOperatorSpec.laplacian(CIRCLE, 2)
    gamma = Fraction(-1, 2)
    smooth = AsymptoticsTerm(QRat(-3), 0, "k=+1")   # x^3, below the strip
    assert domain_membership(smooth, "min", gamma, spec).member is True
    # power(1) coincides with max
    for term in (AsymptoticsTerm(QRat(1), 0, "k=+1"), AsymptoticsTerm(QRat(0), 1, "k=0"),
                 smooth):
        assert domain_membership(term, "power:1", gamma, spec).member == \
            domain_membership(term, "max", gamma, spec).member
    # the mode-2 constant is killed by A^2 but not A: outside D(A_max),
    # inside D(A^2_max)
    spec3 = ConeOperatorSpec.laplacian(CIRCLE, 3)
    c2 = AsymptoticsTerm(QRat(0), 0, "k=+2")
    assert domain_membership(c2, "max", gamma, spec3).member is False
    assert domain_membership(c2, "power:2", gamma, spec3).member is True


def test_domain_membership_boundary_reported():
    spec = ConeOperatorSpec.laplacian(CIRCLE, 2)
    # strip left edge for gamma=-1/2 is -1/2: a term exactly on it
    term = AsymptoticsTerm(QRat(Fraction(-1, 2)), 0, "k=+1")
    res = domain_membership(term, "min", Fraction(-1, 2), spec)
    assert res.member is None
    with pytest.raises(UnsupportedError):
        bool(res)


def test_irrational_poles_take_the_floating_point_path():
    # nu = sqrt(2) on the eigenvalue -2 mode: the pole set is inexact, the
    # operator acts in complex arithmetic and each basis term cancels to []
    spec = ConeOperatorSpec.laplacian(CrossSection.explicit([(0, 1), (-2, 1)]), 2)
    ps = pole_set(spec, Fraction(-1, 2))
    assert ps.exact is False
    terms = enumerate_asymptotics(ps).terms
    assert any(isinstance(rho, complex) for rho, _m, _label in terms)
    for rho, m, label in terms:
        assert apply_operator_power(spec, AsymptoticsTerm(rho, m, label), 1) == []
