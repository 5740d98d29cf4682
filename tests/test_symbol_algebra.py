"""Conormal symbols, recursion families, pole sets."""

import math
from fractions import Fraction

import pytest

from conelab.cone_geometry import CrossSection, indicial_roots_closed_form
from conelab.errors import ConfigError, DegenerateSymbolError, UnsupportedError
from conelab.rational import Poly, RationalFamily, root_to_complex
from conelab.symbol_algebra import (ConeOperatorSpec, conormal_symbol, pole_set,
                                    pole_set_power, recursive_symbols,
                                    strip_bounds, taylor_symbols)

CIRCLE = CrossSection.circle(length_over_pi=2)
SPHERE = CrossSection.sphere(2)


def test_conormal_symbol_laplacian():
    spec = ConeOperatorSpec.laplacian(CIRCLE, 3)
    assert conormal_symbol(spec, "k=+2") == Poly([-4, 0, 1])
    spec2 = ConeOperatorSpec.laplacian(SPHERE, 1)
    assert conormal_symbol(spec2, "l=0") == Poly([0, -1, 1])


def test_conormal_symbol_identity_coefficient():
    modes = CIRCLE.mode_table(1)
    spec = ConeOperatorSpec(mu=1, n=1, modes=modes,
                            coeffs={"k=0": (Poly([1]), Poly([]))})
    assert conormal_symbol(spec, "k=0") == Poly([1])


def test_unknown_mode_rejected():
    spec = ConeOperatorSpec.laplacian(CIRCLE, 2)
    with pytest.raises(ConfigError):
        conormal_symbol(spec, "k=+9")


def test_taylor_symbols_straight_and_warped():
    spec = ConeOperatorSpec.laplacian(CIRCLE, 2)
    fs = taylor_symbols(spec, "k=+1")
    assert fs[0] == conormal_symbol(spec, "k=+1")
    assert fs[1].is_zero()
    warped = ConeOperatorSpec.laplacian(CIRCLE, 2, warp_a0=1)
    fw = taylor_symbols(warped, "k=+1")
    assert fw[1] == Poly([-1])  # lambda_mode = -1


def test_recursive_symbols_reciprocal():
    modes = CIRCLE.mode_table(1)
    spec = ConeOperatorSpec(mu=1, n=1, modes=modes,
                            coeffs={"k=0": (Poly([]), Poly([1]))})
    g = recursive_symbols(spec, "k=0")
    assert g == [RationalFamily(Poly([1]), Poly([0, 1]))]


def test_recursive_symbols_warped_hand_value():
    # g_1 = -(T^-1 f0^-1) f_1 g_0 = 1/(x (x-2) (x-1) (x+1)) for mode k=1
    warped = ConeOperatorSpec.laplacian(CIRCLE, 2, warp_a0=1)
    g = recursive_symbols(warped, "k=+1")
    want = RationalFamily(Poly([1]),
                          Poly([0, 1]) * Poly([-2, 1]) * Poly([-1, 1]) * Poly([1, 1]))
    assert g[1] == want


def test_recursive_symbols_straight_vanish():
    spec = ConeOperatorSpec.laplacian(CIRCLE, 2)
    g = recursive_symbols(spec, "k=0")
    assert g[1].is_zero()


def test_degenerate_symbol_rejected():
    modes = CIRCLE.mode_table(1)
    spec = ConeOperatorSpec(mu=1, n=1, modes=modes,
                            coeffs={"k=0": (Poly([]), Poly([]))})
    with pytest.raises(DegenerateSymbolError):
        recursive_symbols(spec, "k=0")


def test_pole_set_circle_example():
    spec = ConeOperatorSpec.laplacian(CIRCLE, 3)
    ps = pole_set(spec, Fraction(-1, 2))
    assert ps.exact
    table = {complex(e.rho_complex): e.mode_orders for e in ps.entries}
    assert table == {0 + 0j: {"k=0": 2}, 1 + 0j: {"k=+1": 1, "k=-1": 1}}


def test_pole_set_sphere_example():
    spec = ConeOperatorSpec.laplacian(SPHERE, 3)
    ps = pole_set(spec, Fraction(0))
    table = {complex(e.rho_complex): e.mode_orders for e in ps.entries}
    assert table == {0 + 0j: {"l=0": 1}, 1 + 0j: {"l=0": 1}}


def test_pole_set_empty_for_constant_symbol():
    modes = CIRCLE.mode_table(1)
    spec = ConeOperatorSpec(mu=1, n=1, modes=modes,
                            coeffs={"k=0": (Poly([1]), Poly([]))})
    assert pole_set(spec, 0).entries == ()


def test_pole_set_closed_form_agreement():
    for cs, gamma in [(CIRCLE, Fraction(-1, 2)), (SPHERE, Fraction(0))]:
        spec = ConeOperatorSpec.laplacian(cs, 5)
        left, right = strip_bounds(cs.n, gamma, 2)
        ps = pole_set(spec, gamma)
        for mode in cs.mode_table(5):
            want = sorted({float(r) for r in
                           indicial_roots_closed_form(cs.n, mode.eigenvalue)
                           if left <= Fraction(r) < right})
            got = sorted(e.rho_complex.real for e in ps.entries
                         if mode.label in e.mode_orders)
            assert len(want) == len(got)
            assert all(abs(a - b) < 1e-12 for a, b in zip(got, want))


def test_pole_set_gamma_translation():
    spec = ConeOperatorSpec.laplacian(CIRCLE, 4)
    for num in range(-8, 2):
        gamma = Fraction(num, 8)
        ps = pole_set(spec, gamma)
        left, right = strip_bounds(1, gamma, 2)
        assert ps.strip == (left, right)
        rhos = {e.rho_complex.real for e in ps.entries}
        # membership is exactly the strip filter over the closed-form roots
        want = set()
        for mode in CIRCLE.mode_table(4):
            for r in indicial_roots_closed_form(1, mode.eigenvalue):
                if left <= Fraction(r) < right:
                    want.add(float(r))
        assert rhos == want


def test_pole_set_power_k1_identical():
    spec = ConeOperatorSpec.laplacian(CIRCLE, 3)
    a = pole_set(spec, Fraction(-1, 2))
    b = pole_set_power(spec, Fraction(-1, 2), 1)
    assert [(e.rho, e.mode_orders) for e in a.entries] == \
        [(e.rho, e.mode_orders) for e in b.entries]


def test_pole_set_power_circle_k2():
    spec = ConeOperatorSpec.laplacian(CIRCLE, 4)
    ps = pole_set_power(spec, Fraction(-1, 2), 2)
    table = {complex(e.rho_complex): e.mode_orders for e in ps.entries}
    assert table[0 + 0j]["k=0"] == 2
    assert table[0 + 0j]["k=+2"] == 1 and table[0 + 0j]["k=-2"] == 1
    assert table[-2 + 0j]["k=0"] == 2
    assert table[-2 + 0j]["k=+2"] == 1
    # merged double across the two +/-1 factors
    assert table[-1 + 0j] == {"k=+1": 2, "k=-1": 2}
    assert table[1 + 0j] == {"k=+1": 1, "k=-1": 1, "k=+3": 1, "k=-3": 1}


def test_pole_set_power_sphere_l0():
    spec = ConeOperatorSpec.laplacian(SPHERE, 1)
    ps = pole_set_power(spec, Fraction(0), 2)
    assert sorted(e.rho_complex.real for e in ps.entries) == [-2.0, -1.0, 0.0, 1.0]


def test_pole_set_power_warped_unsupported():
    warped = ConeOperatorSpec.laplacian(CIRCLE, 2, warp_a0=1)
    with pytest.raises(UnsupportedError):
        pole_set_power(warped, Fraction(-1, 2), 2)


def test_warped_pole_set_flagged():
    warped = ConeOperatorSpec.laplacian(CIRCLE, 2, warp_a0=1)
    ps = pole_set(warped, Fraction(-1, 2))
    assert ps.convention_pending



def test_warped_pole_set_pinned():
    # a0 = lambda (1 + x/3): g_1 != 0 on every mode with lambda != 0, and its
    # poles 0 and 2 (k=+-1) appear in no g_0, so a skipped nonzero term would show
    warped = ConeOperatorSpec.laplacian(CIRCLE, 3, warp_a0=Fraction(1, 3))
    g = {m.label: recursive_symbols(warped, m.label) for m in warped.modes}
    assert g["k=0"][1].is_zero()
    assert g["k=+1"][1] == RationalFamily(Poly([Fraction(1, 3)]), Poly([0, 2, -1, -2, 1]))
    assert g["k=-2"][1] == RationalFamily(Poly([Fraction(4, 3)]), Poly([12, 8, -7, -2, 1]))
    ps = pole_set(warped, Fraction(-1, 2))
    assert [(e.rho, e.mode_orders) for e in ps.entries] == [
        (0, {"k=+1": 1, "k=-1": 1, "k=0": 2}), (1, {"k=+1": 1, "k=-1": 1})]
    assert ps.exact and ps.strip == (Fraction(-1, 2), Fraction(3, 2))
    roots = {"k=0": [(0, 2)], "k=+1": [(-1, 1), (1, 1), (0, 1), (2, 1)],
             "k=+2": [(-2, 1), (2, 1), (-1, 1), (3, 1)]}
    roots["k=-1"], roots["k=-2"] = roots["k=+1"], roots["k=+2"]
    want = [(label, rho, order, Fraction(-1, 2) <= rho < Fraction(3, 2))
            for label in ("k=0", "k=+1", "k=-1", "k=+2", "k=-2")
            for rho, order in roots[label]]
    assert list(ps.candidates) == want
    assert all(type(rho).__name__ == "QRat" for _l, rho, _o, _i in ps.candidates)


# eigenvalues -0.1 and -2 give the irrational indicial roots +-sqrt(0.1), +-sqrt(2)
FLOAT_ROOTS = CrossSection.explicit([(0, 1), (-0.1, 1), (-2, 1)], n=1)
R1, R2 = math.sqrt(0.1), math.sqrt(2)


def _pole_table(ps):
    return [(e.rho_complex, e.mode_orders) for e in ps.entries]


def _assert_table(got, want):
    assert len(got) == len(want)
    for (rho, orders), (want_rho, want_orders) in zip(got, want):
        assert abs(rho - want_rho) < 1e-12
        assert orders == want_orders


def test_pole_set_float_roots():
    spec = ConeOperatorSpec.laplacian(FLOAT_ROOTS, 3)
    ps = pole_set(spec, Fraction(-1, 2))
    assert ps.exact is False
    _assert_table(_pole_table(ps), [(-R1, {"e1": 1}), (0, {"e0": 2}), (R1, {"e1": 1}),
                                    (R2, {"e2": 1})])
    assert len(ps.candidates) == 5
    assert [(c[0], c[3]) for c in ps.candidates if abs(root_to_complex(c[1]) + R2) < 1e-12] \
        == [("e2", False)]


def test_pole_set_power_float_roots():
    spec = ConeOperatorSpec.laplacian(FLOAT_ROOTS, 3)
    ps = pole_set_power(spec, Fraction(-1, 2), 2)
    assert ps.exact is False
    _assert_table(_pole_table(ps), [
        (-2 - R1, {"e1": 1}), (-2, {"e0": 2}), (-2 + R1, {"e1": 1}), (-R2, {"e2": 1}),
        (R2 - 2, {"e2": 1}), (-R1, {"e1": 1}), (0, {"e0": 2}), (R1, {"e1": 1}),
        (R2, {"e2": 1})])
    assert len(ps.candidates) == 10
    outside = [(c[0], root_to_complex(c[1])) for c in ps.candidates if not c[3]]
    assert len(outside) == 1 and outside[0][0] == "e2" and abs(outside[0][1] + R2 + 2) < 1e-12
