"""Cross-section spectra, weight windows, Bessel orders."""

import math
import re
from fractions import Fraction

import pytest

from conelab.cone_geometry import (LOOKUP_REACH, CrossSection, Mode, bessel_order, find_mode,
                                   indicial_roots_closed_form, mode_index,
                                   sphere_multiplicity, weight_window)
from conelab.errors import ConfigError


def test_circle_mode_table_unit():
    cs = CrossSection.circle(length_over_pi=2)
    assert cs.mode_table(3) == (Mode("k=0", 0, 1), Mode("k=+1", -1, 1), Mode("k=-1", -1, 1),
                                Mode("k=+2", -4, 1), Mode("k=-2", -4, 1))
    assert all(type(m.eigenvalue) is Fraction for m in cs.mode_table(3))
    # a circumference without an exact q keeps float eigenvalues, -0.0 included
    evs = [m.eigenvalue for m in CrossSection.circle(length=7.1).mode_table(2)]
    assert all(type(e) is float for e in evs) and math.copysign(1.0, evs[0]) == -1.0


def test_long_circle_keeps_a_positive_q():
    # (2 pi / L)^2 = 3.9e-13 lies within the absolute snap tolerance of the fraction 0
    cs = CrossSection.circle(length=1e7)
    assert cs.circle_q == (2.0 * math.pi / 1e7) ** 2 > 0.0
    assert cs.mode_table(2)[1].eigenvalue < 0.0


def test_sphere_mode_table():
    cs = CrossSection.sphere(2)
    assert cs.mode_table(2) == (Mode("l=0", 0, 1), Mode("l=1", -2, 3))


def test_sphere_dimension_outside_2_to_342_is_config_error():
    assert CrossSection.sphere(342).vol > 0.0
    for n in (1, 343):
        with pytest.raises(ConfigError, match="from 2 to 342"):
            CrossSection.sphere(n)


def test_explicit_echoed():
    cs = CrossSection.explicit([(0, 1), (-3, 4)])
    assert cs.mode_table(5) == (Mode("e0", Fraction(0), 1), Mode("e1", Fraction(-3), 4))
    assert cs.mode_table(1) == (Mode("e0", Fraction(0), 1),)


def test_mode_table_needs_a_mode():
    for cs in (CrossSection.circle(length_over_pi=2), CrossSection.sphere(3),
               CrossSection.explicit([(0, 1)])):
        with pytest.raises(ConfigError, match="max_modes"):
            cs.mode_table(0)


def test_mode_index_finds_each_label_once():
    modes = CrossSection.circle(length_over_pi=2).mode_table(3)
    assert [mode_index(modes, m.label) for m in modes] == list(range(len(modes)))
    with pytest.raises(ConfigError, match="unknown mode 'k=3'"):
        mode_index(modes, "k=3")


def test_lookup_by_label_reaches_the_64_eigenvalue_indices_of_the_table():
    cs = CrossSection.circle(length_over_pi=2)            # q = 1
    assert find_mode(cs.walk(LOOKUP_REACH), "k=+63") == Mode("k=+63", -63 * 63, 1)
    for label in ("k=+64", "k=+99"):
        with pytest.raises(ConfigError, match=re.escape(f"unknown mode '{label}'")):
            find_mode(cs.walk(LOOKUP_REACH), label)
    for cs in (cs, CrossSection.circle(length=7.1), CrossSection.sphere(3),
               CrossSection.explicit([(0, 1), (-3, 4)])):
        assert tuple(cs.walk(LOOKUP_REACH)) == cs.mode_table(64)


def test_lookup_by_label_builds_no_mode_past_the_one_found():
    walk = CrossSection.circle(length_over_pi=2).walk(LOOKUP_REACH)
    assert find_mode(walk, "k=-1") == Mode("k=-1", -1, 1)
    assert next(walk) == Mode("k=+2", -4, 1)


def test_explicit_rejects_positive():
    with pytest.raises(ConfigError):
        CrossSection.explicit([(1, 1)])


def test_weight_windows():
    win = weight_window(CrossSection.sphere(2))
    assert abs(win.lo + 0.5) < 1e-15 and abs(win.hi - 0.5) < 1e-15
    win = weight_window(CrossSection.circle(length_over_pi=2))
    assert abs(win.lo + 1.0) < 1e-15 and abs(win.hi - 0.0) < 1e-15
    # circumference 4*pi: lambda_1 = -1/4, window (-1, -1/2), nonempty
    win = weight_window(CrossSection.circle(length_over_pi=4))
    assert abs(win.lo + 1.0) < 1e-15 and abs(win.hi + 0.5) < 1e-15
    win = weight_window(CrossSection.explicit([(0, 1), (-3, 4)]))
    assert win.lo == -1.0 and abs(win.hi - (-1.0 + math.sqrt(3.0))) < 1e-15
    with pytest.raises(ConfigError, match="connected cross-sections only"):
        weight_window(CrossSection.explicit([(0, 2), (-3, 1)]))
    with pytest.raises(ConfigError, match="no non-zero eigenvalue"):
        weight_window(CrossSection.explicit([(0, 1)]))


def test_weight_window_needs_nonzero_eigenvalue():
    cs = CrossSection.explicit([(0, 1)])
    with pytest.raises(ConfigError):
        weight_window(cs)


def test_weight_window_connected_only():
    cs = CrossSection.explicit([(0, 2), (-1, 1)])
    with pytest.raises(ConfigError):
        weight_window(cs)


def test_bessel_order_values():
    assert bessel_order(1, -4) == Fraction(2)
    assert bessel_order(2, Fraction(-2)) == Fraction(3, 2)
    assert bessel_order(1, 0) == Fraction(0)
    # non-square radicand falls back to float
    nu = bessel_order(1, Fraction(-2))
    assert isinstance(nu, float) and abs(nu - math.sqrt(2)) < 1e-15


def test_roots_match_quadratic():
    # (n-1)/2 +/- nu must solve lambda^2 - (n-1) lambda + lambda_i
    for n, lam in [(1, -4), (2, -2), (3, -6), (2, 0)]:
        for r in indicial_roots_closed_form(n, lam):
            val = float(r) ** 2 - (n - 1) * float(r) + lam
            assert abs(val) < 1e-12


def test_sphere_multiplicity_binomial():
    # against (2l+n-1)/(n-1) * C(l+n-2, l) for n >= 2, l >= 1
    for n in (2, 3, 4):
        for l in range(1, 11):
            closed = (2 * l + n - 1) * math.comb(l + n - 2, l) // (n - 1)
            assert sphere_multiplicity(n, l) == closed
    assert sphere_multiplicity(2, 0) == 1


def test_window_bounds_invariant():
    for cs in (CrossSection.sphere(2), CrossSection.sphere(3),
               CrossSection.circle(length_over_pi=2),
               CrossSection.circle(length_over_pi=1)):
        win = weight_window(cs)
        assert win.hi <= (cs.n + 1) / 2 + 1e-15
        assert win.lo == (cs.n - 3) / 2


def test_circle_mode_table_expands_pairs():
    cs = CrossSection.circle(length_over_pi=2)
    labels = [m.label for m in cs.mode_table(3)]
    assert labels == ["k=0", "k=+1", "k=-1", "k=+2", "k=-2"]


def test_explicit_spectrum_must_fit_floats_with_whole_multiplicities():
    for mult in (1.5, True, 0, "2", math.nan, math.inf):
        with pytest.raises(ConfigError, match="multiplicity"):
            CrossSection.explicit([(0, 1), (-2, mult)])
    for ev in ("-1e400", -math.inf, math.nan):
        with pytest.raises(ConfigError, match="finite float"):
            CrossSection.explicit([(0, 1), (ev, 1)])
    assert CrossSection.explicit([(0, 1), (-2, 2.0)]).explicit_eigs == ((0, 1), (-2, 2))
