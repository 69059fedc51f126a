import math

import numpy as np
import pytest

from lissim import (
    SPEED_OF_LIGHT,
    DomainError,
    ElementKind,
    InvalidArgumentError,
    Precision,
    channel_isotropic,
    channel_planar,
    impedance,
    linear_array,
    planar_grid,
    quadratic_form,
)
from oracles import AccuracyWarning, radiated_power_quadrature

LAM = SPEED_OF_LIGHT / 2.6e9


def single_element(kind=ElementKind.ISOTROPIC, wavelength=0.1):
    return linear_array(1, 0.05, kind, wavelength)


def test_isotropic_single_element_amplitude_and_phase():
    g = single_element(wavelength=0.1)
    h = channel_isotropic(g, [10.0, 0.0, 0.0])
    k = 2.0 * math.pi / g.wavelength
    assert abs(h[0]) == pytest.approx(0.1 / (40.0 * np.pi), rel=1e-15)
    assert h[0] == abs(h[0]) * np.exp(-1j * k * 10.0)


def test_isotropic_inverse_distance_law():
    g = single_element()
    h1 = channel_isotropic(g, [7.0, 0.0, 0.0])
    h2 = channel_isotropic(g, [14.0, 0.0, 0.0])
    assert abs(h1[0]) == pytest.approx(2.0 * abs(h2[0]), rel=1e-15)


def test_isotropic_broadside_symmetry():
    g = linear_array(20, 0.5 * LAM, ElementKind.ISOTROPIC, LAM)
    h = channel_isotropic(g, [10.0, 0.0, 0.0])
    # mirror elements (z -> -z) see identical distances
    np.testing.assert_array_equal(h, h[::-1])
    # far broadside, every element is effectively equidistant
    h_far = channel_isotropic(g, [1e4, 0.0, 0.0])
    mags = np.abs(h_far)
    assert (mags.max() - mags.min()) / mags.min() <= 1e-6


def test_isotropic_rejects_terminal_on_element():
    g = linear_array(3, 0.1, ElementKind.ISOTROPIC, 0.1)
    with pytest.raises(DomainError):
        channel_isotropic(g, [0.0, 0.0, 0.1])


def test_planar_reduces_to_isotropic_broadside_far():
    g = linear_array(5, 0.3 * LAM, ElementKind.PLANAR, LAM)
    o = [1e5, 0.0, 0.0]
    hp = channel_planar(g, o)
    hi = channel_isotropic(g, o)
    np.testing.assert_allclose(hp, hi, rtol=1e-9)


def test_planar_projected_gain_at_45_degrees():
    g = single_element(ElementKind.PLANAR)
    d = 50.0
    broadside = channel_planar(g, [d, 0.0, 0.0])
    oblique = channel_planar(g, [d / np.sqrt(2.0), d / np.sqrt(2.0), 0.0])
    ratio = abs(oblique[0]) ** 2 / abs(broadside[0]) ** 2
    assert ratio == pytest.approx(np.cos(np.pi / 4), rel=1e-12)


def test_planar_three_four_five_triangle():
    g = single_element(ElementKind.PLANAR, wavelength=0.1)
    h = channel_planar(g, [3.0, 4.0, 0.0])
    assert abs(h[0]) == pytest.approx(np.sqrt(0.6) * 0.1 / (20.0 * np.pi), rel=1e-14)


def test_planar_rejects_back_halfspace():
    g = single_element(ElementKind.PLANAR)
    for x in (0.0, -1.0):
        with pytest.raises(DomainError):
            channel_planar(g, [x, 1.0, 0.0])


def test_phase_convention_is_exact_per_element():
    g = planar_grid(0.3, 0.3, 0.07, 0.07, ElementKind.ISOTROPIC, LAM)
    o = np.array([4.0, 1.0, -2.0])
    h = channel_isotropic(g, o)
    d = np.linalg.norm(g.positions - o, axis=1)
    np.testing.assert_array_equal(h, LAM / (4 * np.pi * d) * np.exp(-1j * (2.0 * math.pi / g.wavelength) * d))


def test_planar_mirror_symmetry_under_z_flip():
    g = linear_array(9, 0.22 * LAM, ElementKind.PLANAR, LAM)
    h = channel_planar(g, [10.0, 0.0, 0.0])
    np.testing.assert_array_equal(h, h[::-1])


def test_extended_channel_matches_double():
    prec = Precision.extended(192)
    for kind, builder in ((ElementKind.ISOTROPIC, channel_isotropic),
                          (ElementKind.PLANAR, channel_planar)):
        g = linear_array(6, 0.3 * LAM, kind, LAM)
        hd = builder(g, [10.0, 0.5, -0.25])
        he = builder(g, [10.0, 0.5, -0.25], prec)
        for a, b in zip(hd, (complex(he[r]) for r in range(6))):
            assert a == pytest.approx(b, rel=1e-14)


def test_quadrature_single_isotropic_unit_power():
    g = single_element()
    assert radiated_power_quadrature(g, [1.0], 1.0, 16) == pytest.approx(
        1.0, rel=1e-9)


def test_quadrature_two_elements_half_wavelength():
    g = linear_array(2, 0.5 * LAM, ElementKind.ISOTROPIC, LAM)
    p = radiated_power_quadrature(g, [1.0, 1.0], 1.0, 32)
    assert p == pytest.approx(2.0, rel=1e-9)


def test_quadrature_single_planar_half_power():
    g = single_element(ElementKind.PLANAR)
    p = radiated_power_quadrature(g, [1.0], 1.0, 32)
    assert p == pytest.approx(0.5, rel=1e-9)


def test_quadrature_beta_scaling_and_random_match():
    rng = np.random.default_rng(9)
    g = linear_array(4, 0.3 * LAM, ElementKind.ISOTROPIC, LAM)
    i = rng.normal(size=4) + 1j * rng.normal(size=4)
    closed = quadratic_form(impedance(g), i)
    p = radiated_power_quadrature(g, i, 3.0, 128)
    assert p == pytest.approx(3.0 * closed, rel=1e-6)


def test_quadrature_error_decreases_with_order():
    import warnings

    g = planar_grid(2 * LAM, 2 * LAM, LAM, LAM, ElementKind.PLANAR, LAM)
    rng = np.random.default_rng(2)
    i = rng.normal(size=g.n) + 1j * rng.normal(size=g.n)
    exact = quadratic_form(impedance(g), i)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AccuracyWarning)
        errs = [abs(radiated_power_quadrature(g, i, quad_order=q) - exact) for q in (16, 32)]
    assert errs[1] <= errs[0] + 1e-12 * abs(exact)


def test_quadrature_preconditions():
    g = planar_grid(0.5, 0.5, 0.05, 0.05, ElementKind.ISOTROPIC, LAM)  # 121 elements
    with pytest.raises(InvalidArgumentError):
        radiated_power_quadrature(g, np.ones(g.n), quad_order=64)
    g2 = single_element()
    with pytest.raises(InvalidArgumentError):
        radiated_power_quadrature(g2, [1.0], quad_order=8)
    with pytest.raises(InvalidArgumentError):
        radiated_power_quadrature(g2, [1.0, 1.0])


def test_quadrature_self_check_warns_when_order_too_small():
    # a 15-wavelength-wide array needs far more than 16 polar nodes
    g = linear_array(6, 3.0 * LAM, ElementKind.ISOTROPIC, LAM)
    with pytest.warns(AccuracyWarning):
        radiated_power_quadrature(g, np.ones(6, dtype=complex), quad_order=16)
