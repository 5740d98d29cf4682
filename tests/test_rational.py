"""Exact scalar, polynomial, and rational-family arithmetic."""

import random
from fractions import Fraction

import pytest

from conelab.rational import Poly, QRat, RationalFamily, poly_roots


def test_qrat_field_ops():
    a = QRat(Fraction(1, 2), Fraction(-3, 4))
    b = QRat(2, 1)
    assert a + b == QRat(Fraction(5, 2), Fraction(1, 4))
    assert (a * b) / b == a
    assert a - a == QRat(0)
    assert 1 / QRat(0, 1) == QRat(0, -1)
    assert QRat(3) * Fraction(1, 3) == QRat(1)


def test_poly_divmod_exact():
    p = Poly([2, 0, 1]) * Poly([-1, 1]) + Poly([5])
    q, r = p.divmod(Poly([-1, 1]))
    assert q == Poly([2, 0, 1])
    assert r == Poly([5])


def test_poly_shift_is_translation():
    p = Poly([1, 2, 3])  # 1 + 2x + 3x^2
    sh = p.shift(Fraction(-1, 2))
    for v in (0, 1, Fraction(2, 3)):
        assert sh.eval_exact(v) == p.eval_exact(QRat(v) + QRat(Fraction(-1, 2)))


def test_gcd_monic_canonical():
    a = Poly([1, 1]) * Poly([2, 1]) * Poly([0, 3])
    b = Poly([1, 1]) * Poly([0, 7])
    g = a.gcd(b)
    assert g == (Poly([1, 1]) * Poly([0, 1])).monic()


def test_family_normal_form_roundtrip():
    rng = random.Random(11)
    for _ in range(100):
        deg = rng.randint(1, 6)
        coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(deg)]
        coeffs.append(Fraction(rng.randint(1, 6)))  # nonzero leading coefficient
        f = RationalFamily(Poly(coeffs))
        assert f * RationalFamily(f.den, f.num) == RationalFamily(Poly([1]))


def test_family_add_cancels():
    f = RationalFamily(Poly([0, 1]), Poly([1, 1]))
    assert f - f == RationalFamily(Poly([]))
    g = f + RationalFamily(Poly([1]), Poly([1, 1]))
    # (x + 1)/(x + 1) reduces to the constant 1
    assert g == RationalFamily(Poly([1]))


def test_poly_roots_exact_with_multiplicity():
    # (x - 1/2)^2 (x + 3)
    p = Poly([Fraction(-1, 2), 1]) ** 2 * Poly([3, 1])
    roots = poly_roots(p)
    assert all(exact for _, _, exact in roots)
    as_set = {(r.re, mult) for r, mult, _ in roots}
    assert as_set == {(Fraction(1, 2), 2), (Fraction(-3), 1)}


def test_poly_roots_gaussian_integer():
    # x^2 + 1
    roots = poly_roots(Poly([1, 0, 1]))
    ims = sorted(r.im for r, _, exact in roots if exact)
    assert ims == [Fraction(-1), Fraction(1)]


def test_poly_roots_float_fallback_merges():
    # irrational roots: x^2 - 2
    roots = poly_roots(Poly([-2, 0, 1]))
    assert all(not exact for _, _, exact in roots)
    vals = sorted(complex(r).real for r, _, _ in roots)
    assert abs(vals[0] + 2 ** 0.5) < 1e-12 and abs(vals[1] - 2 ** 0.5) < 1e-12


def test_zero_division_guards():
    with pytest.raises(ZeroDivisionError):
        RationalFamily(Poly([1]), Poly([]))


def _gaussian_rationals(seed, count):
    """Seeded Gaussian rationals: about half real, both signs, zero parts included."""
    rng = random.Random(seed)

    def part():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 7))
    return [QRat(part(), part() if rng.random() < 0.5 else 0) for _ in range(count)]


def test_real_fast_paths_match_the_general_formula():
    vals = _gaussian_rationals(5, 40)
    assert sum(not v.im for v in vals) >= 10 and sum(bool(v.im) for v in vals) >= 10
    for a in vals:
        for b in vals:
            # (a + bi)(c + di) and (a + bi)/(c + di), formed on Fractions alone
            re = a.re * b.re - a.im * b.im
            im = a.re * b.im + a.im * b.re
            prod = a * b
            assert (prod.re, prod.im) == (re, im)
            assert type(prod.re) is Fraction and type(prod.im) is Fraction
            d = b.re * b.re + b.im * b.im
            if d == 0:
                with pytest.raises(ZeroDivisionError):
                    a / b
                continue
            quot = a / b
            assert (quot.re, quot.im) == ((a.re * b.re + a.im * b.im) / d,
                                          (a.im * b.re - a.re * b.im) / d)
            assert type(quot.re) is Fraction and type(quot.im) is Fraction
            assert repr(quot) == repr(QRat((a.re * b.re + a.im * b.im) / d,
                                           (a.im * b.re - a.re * b.im) / d))


@pytest.mark.parametrize("zero", [QRat(0), 0, Fraction(0), 0.0])
def test_real_zero_divisor_raises(zero):
    for a in (QRat(Fraction(3, 4)), QRat(-2, 5), QRat(0)):
        with pytest.raises(ZeroDivisionError):
            a / zero
    with pytest.raises(ZeroDivisionError):
        1 / QRat(0)


def test_hashes_agree_with_equality():
    assert QRat(1) in {1} and QRat(Fraction(1, 2)) in {0.5} and QRat(-3) in {Fraction(-3)}
    assert 2 in {QRat(2)} and Fraction(1, 3) in {QRat(Fraction(1, 3))}
    assert {QRat(0): "zero"}[0] == "zero"
    assert QRat(1, 1) in {QRat(1, 1)} and QRat(1, 1) not in {1}
    assert Poly([]) in {0} and Poly([5]) in {5} and Poly([QRat(1, 2)]) in {QRat(1, 2)}
    assert {Poly([Fraction(1, 2)]): "half"}[0.5] == "half"
    assert 3 in {Poly([3])} and Poly([1, 1]) in {Poly([1, 1])}
    for a, b in ((QRat(7), 7), (QRat(Fraction(-5, 2)), -2.5), (Poly([]), 0),
                 (Poly([4]), QRat(4)), (Poly([2, 1]), Poly([QRat(2), 1]))):
        assert a == b and hash(a) == hash(b)
