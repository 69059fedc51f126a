import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy import integrate

from lissim import (
    SPEED_OF_LIGHT,
    ElementKind,
    ImpedanceMatrix,
    InvalidArgumentError,
    NonRadiatingCurrentError,
    Precision,
    ca_mf,
    channel_isotropic,
    channel_planar,
    d_nc,
    directivity,
    excitation_power,
    impedance,
    linear_array,
    nca_mf,
    snr,
    solve,
    to_dbi,
)

LAM = SPEED_OF_LIGHT / 2.6e9


def _direct(entries):
    return ImpedanceMatrix(np.asarray(entries, dtype=float), Precision())


def closed_form_d_nc(o_x: float, y_lis: float, z_lis: float, wavelength: float,
                     span_scale: float = 0.5) -> float:
    # independent oracle: the aperture integral of x/(4 pi d^3) is the solid
    # angle of the rectangle over 4 pi, known in closed form for a centered
    # broadside viewpoint
    a = span_scale * y_lis
    b = span_scale * z_lis
    omega = 4.0 * math.atan(a * b / (o_x * math.sqrt(a * a + b * b + o_x * o_x)))
    return (4.0 * math.pi * o_x / wavelength) ** 2 * omega / (4.0 * math.pi)


def quadrature_d_nc(o, y_lis: float, z_lis: float, wavelength: float,
                    span_scale: float = 0.5) -> float:
    # independent oracle for any terminal: adaptive 2-D quadrature of
    # x/(4 pi d^3) over the aperture, which must converge without warnings
    x, o_y, o_z = o
    a, b = span_scale * y_lis, span_scale * z_lis

    def integrand(z, y):
        return x / (4.0 * math.pi * (x * x + (y - o_y) ** 2 + (z - o_z) ** 2) ** 1.5)

    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        value, _ = integrate.dblquad(integrand, -a, a, -b, b, epsabs=0.0, epsrel=1e-12)
    return (4.0 * math.pi * math.hypot(x, o_y, o_z) / wavelength) ** 2 * value


def test_snr_matched_filter_on_identity():
    h = np.array([0.5, -0.3j, 0.2 + 0.1j])
    Z = _direct(np.eye(3))
    assert snr(h, Z, h) == pytest.approx(np.vdot(h, h).real, rel=1e-14)


def test_snr_orthogonal_current_is_zero():
    Z = _direct(np.eye(2))
    assert snr(np.array([1.0, 0.0]), Z, np.array([0.0, 1.0])) == 0.0


def test_snr_ca_mf_equals_quadratic_form_shortcut():
    geom = linear_array(12, 0.45 * LAM, ElementKind.ISOTROPIC, LAM)
    Z = impedance(geom)
    h = channel_isotropic(geom, [10.0, 0.0, 0.0])
    i = ca_mf(Z, h)
    direct = snr(i, Z, h)
    shortcut = np.vdot(h, solve(Z, h)).real
    assert direct == pytest.approx(shortcut, rel=1e-10)


def test_snr_rejects_non_radiating_current():
    Z = _direct(np.diag([1.0, 0.0]))
    with pytest.raises(NonRadiatingCurrentError):
        snr(np.array([0.0, 1.0]), Z, np.array([1.0, 1.0]))


def test_single_isotropic_element_directivity_is_one():
    g = linear_array(1, 0.1, ElementKind.ISOTROPIC, LAM)
    for o in ([10.0, 0.0, 0.0], [3.0, 4.0, 12.0]):
        h = channel_isotropic(g, o)
        d = directivity(nca_mf(h), impedance(g), h, o, LAM)
        assert d == pytest.approx(1.0, abs=1e-12)


def test_single_planar_element_directivity_is_two_broadside():
    g = linear_array(1, 0.1, ElementKind.PLANAR, LAM)
    o = [25.0, 0.0, 0.0]
    h = channel_planar(g, o)
    d = directivity(nca_mf(h), impedance(g), h, o, LAM)
    assert d == pytest.approx(2.0, abs=1e-9)


def test_broadside_half_wavelength_array_reaches_element_count():
    g = linear_array(20, 0.5 * LAM, ElementKind.ISOTROPIC, LAM)
    o = [1e6, 0.0, 0.0]
    h = channel_isotropic(g, o)
    d = directivity(nca_mf(h), impedance(g), h, o, LAM)
    assert d == pytest.approx(20.0, rel=1e-6)


def test_snr_and_directivity_shared_core():
    geom = linear_array(9, 0.4 * LAM, ElementKind.PLANAR, LAM)
    Z = impedance(geom)
    o = np.array([12.0, 1.0, -0.5])
    h = channel_planar(geom, o)
    i = nca_mf(h)
    ratio = (LAM / (4 * np.pi * np.linalg.norm(o))) ** 2
    assert snr(i, Z, h) == pytest.approx(
        directivity(i, Z, h, o, LAM) * ratio, rel=1e-14)


def test_excitation_power():
    assert excitation_power(np.array([1.0, 1.0j])) == 2.0
    assert excitation_power(np.zeros(5, dtype=complex)) == 0.0


def test_to_dbi():
    assert to_dbi(100.0) == pytest.approx(20.0)
    with pytest.raises(InvalidArgumentError):
        to_dbi(0.0)


def test_d_nc_far_broadside_approaches_aperture_limit():
    value = d_nc([10.0, 0.0, 0.0], 0.5, 0.5, LAM)
    assert value == pytest.approx(4.0 * np.pi * 0.25 / LAM**2, rel=1e-2)


def test_d_nc_matches_closed_form_oracle():
    for o_x in (2.0, 10.0, 40.0):
        got = d_nc([o_x, 0.0, 0.0], 0.5, 0.5, LAM)
        assert got == pytest.approx(closed_form_d_nc(o_x, 0.5, 0.5, LAM), rel=1e-7)


def test_d_nc_double_span_limits_match_closed_form():
    # the published variant integrates twice the physical span per axis
    got = d_nc([10.0, 0.0, 0.0], 1.0, 1.0, LAM)
    assert got == pytest.approx(closed_form_d_nc(10.0, 0.5, 0.5, LAM, span_scale=1.0), rel=1e-7)
    assert got > d_nc([10.0, 0.0, 0.0], 0.5, 0.5, LAM)


def test_d_nc_wavelength_scaling():
    base = d_nc([10.0, 0.0, 0.0], 0.5, 0.5, LAM)
    halved = d_nc([10.0, 0.0, 0.0], 0.5, 0.5, LAM / 2)
    assert halved == pytest.approx(4.0 * base, rel=1e-7)


def test_d_nc_monotone_off_broadside():
    values = []
    for deg in (0.0, 15.0, 30.0, 45.0, 60.0):
        t = math.radians(deg)
        values.append(d_nc([10 * math.cos(t), 10 * math.sin(t), 0.0], 0.5, 0.5, LAM))
    assert all(b < a for a, b in zip(values, values[1:]))


def test_d_nc_bounded_near_surface():
    # grazing limit stays integrable and finite
    value = d_nc([1e-3, 0.0, 0.0], 0.5, 0.5, LAM)
    assert np.isfinite(value) and value > 0


def d_nc_200_bit(o, y_lis: float, z_lis: float, wavelength: float) -> float:
    # independent oracle: the rectangle's solid angle as the signed sum of
    # atan(y z / (x r)) over its corners, at 200 bits, where cancelling
    # terms still leave far more than double's digits
    ctx = mpmath.mp.clone()
    ctx.prec = 200
    x, o_y, o_z = (ctx.mpf(v) for v in o)
    a, b = ctx.mpf(y_lis) / 2, ctx.mpf(z_lis) / 2
    omega = ctx.fsum((1 if i == j else -1) * ctx.atan(y * z / (x * ctx.hypot(x, ctx.hypot(y, z))))
                     for i, y in enumerate((-a - o_y, a - o_y))
                     for j, z in enumerate((-b - o_z, b - o_z)))
    return float(4 * ctx.pi * (x * x + o_y * o_y + o_z * o_z) / ctx.mpf(wavelength) ** 2 * omega)


@pytest.mark.parametrize("o_y, o_z", [
    pytest.param(0.0, 0.0, id="centre"),
    pytest.param(0.1, 0.1, id="on-the-diagonal"),
    pytest.param(0.1, 0.05, id="off-the-diagonal"),
    pytest.param(-0.2, 0.2, id="other-diagonal"),
    pytest.param(0.25, 0.0, id="above-an-edge"),
])
def test_d_nc_keeps_its_digits_for_a_terminal_almost_on_the_surface(o_y, o_z):
    # on the diagonal the triangle form's denominator cancels: it lost
    # 2e-11 at 1 micrometre and 1.8e-2 at 1e-15 m in front of the centre
    for exponent in range(3, 13):
        o = [10.0 ** -exponent, o_y, o_z]
        # d_nc falls like x^2: no absolute tolerance
        assert d_nc(o, 0.5, 0.5, LAM) == pytest.approx(d_nc_200_bit(o, 0.5, 0.5, LAM),
                                                       rel=1e-14, abs=0.0)


@pytest.mark.parametrize("o, y_lis, z_lis, double_span", [
    pytest.param([10.0, 0.0, 0.0], 0.5, 0.5, False, id="broadside"),
    pytest.param([10.0, 1.0, -0.5], 0.5, 0.5, False, id="off-axis-projection-off-panel"),
    pytest.param([3.0, 2.0, 1.5], 0.5, 0.5, False, id="off-both-axes-close-in"),
    pytest.param([1.0, 5.0, 0.0], 0.5, 0.5, False, id="79-degrees-off"),
    # where the four-corner atan form would lose 1.5e-11 to cancellation
    pytest.param([0.5, 40.0, 0.0], 0.5, 0.5, False, id="89-degrees-off"),
    pytest.param([2.0, 0.1, -0.2], 0.3, 0.7, False, id="non-square-projection-on-panel"),
    pytest.param([10.0, 0.0, 0.0], 0.5, 0.25, False, id="non-square-broadside"),
    pytest.param([10.0, 0.3, 0.0], 0.5, 0.5, True, id="double-span-limits"),
    pytest.param([1e-3, 0.0, 0.0], 0.5, 0.5, False, id="1mm-in-front-of-centre"),
    pytest.param([1e-3, 0.1, 0.05], 0.5, 0.5, False, id="1mm-in-front-off-centre"),
])
def test_d_nc_closed_form_matches_quadrature(o, y_lis, z_lis, double_span):
    scale = 2.0 if double_span else 1.0
    got = d_nc(o, scale * y_lis, scale * z_lis, LAM)
    want = quadrature_d_nc(o, y_lis, z_lis, LAM, span_scale=1.0 if double_span else 0.5)
    assert got == pytest.approx(want, rel=1e-13)


def test_d_nc_rejects_non_finite_extents():
    for args in ((math.inf, 0.5, LAM), (0.5, math.nan, LAM), (0.5, 0.5, math.inf)):
        with pytest.raises(InvalidArgumentError):
            d_nc([10.0, 0.0, 0.0], *args)


def test_d_nc_rejects_back_halfspace():
    with pytest.raises(InvalidArgumentError):
        d_nc([0.0, 0.0, 0.0], 0.5, 0.5, LAM)
    with pytest.raises(InvalidArgumentError):
        d_nc([-1.0, 0.0, 0.0], 0.5, 0.5, LAM)
