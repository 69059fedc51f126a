"""Independent reference implementations that the tests check the package against."""

import math
import warnings

import mpmath
import numpy as np
from scipy.spatial.distance import cdist

from lissim import (
    ArrayGeometry,
    DomainError,
    ElementKind,
    InvalidArgumentError,
    j1_over_x,
    sinc_unnormalized,
)

_SERIES_ORACLE_MAX_X = 30.0

_QUAD_MAX_ELEMENTS = 64
_QUAD_MIN_ORDER = 16
_QUAD_SELF_CHECK_RTOL = 1e-4


class AccuracyWarning(UserWarning):
    """A self-check suggests the requested accuracy was not reached."""


def j1_series_oracle(x: float, terms: int) -> float:
    """Partial Maclaurin sum for J1, summed free of rounding error.

    The alternating series ``sum_m (-1)^m (x/2)^(2m+1) / (m! (m+1)!)`` is
    evaluated with enough working precision that cancellation between
    the large intermediate terms cannot contaminate the double-rounded
    result.

    Parameters
    ----------
    x : float
        Argument, ``|x| <= 30`` (series accuracy domain).
    terms : int
        Number of series terms to sum, >= 1.
    """
    if not math.isfinite(x) or abs(x) > _SERIES_ORACLE_MAX_X:
        raise DomainError(f"series oracle restricted to |x| <= {_SERIES_ORACLE_MAX_X}, got {x!r}")
    if terms < 1:
        raise InvalidArgumentError(f"terms must be >= 1, got {terms!r}")
    ctx = mpmath.mp.clone()
    # worst-case cancellation grows like e^(2|x|); pad well past it
    ctx.prec = 53 + int(3 * abs(x)) + 60
    half = ctx.mpf(x) / 2
    term = half  # m = 0 term: (x/2) / (0! * 1!)
    total = term
    for m in range(1, terms):
        term = -term * half * half / (m * (m + 1))
        total += term
    return float(total)


def _theta_rule(order: int):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    theta = 0.5 * math.pi * (nodes + 1.0)
    w = weights * (math.pi / 2.0) * np.sin(theta)
    return theta, w


def _phi_rule(order: int, kind: ElementKind):
    if kind is ElementKind.ISOTROPIC:
        # periodic analytic integrand: uniform trapezoid is spectral
        n = 2 * order
        phi = 2.0 * math.pi * np.arange(n) / n
        return phi, np.full(n, 2.0 * math.pi / n)
    # |cos(phi)| kinks at +-pi/2: one Gauss-Legendre panel per
    # constant-sign interval restores exponential convergence
    nodes, weights = np.polynomial.legendre.leggauss(order)
    half = math.pi / 2.0
    phi = np.concatenate([-half + (nodes + 1.0) * half, half + (nodes + 1.0) * half])
    return phi, np.concatenate([weights, weights]) * half


def _sphere_power(geom: ArrayGeometry, i: np.ndarray, order: int) -> float:
    theta, w_theta = _theta_rule(order)
    phi, w_phi = _phi_rule(order, geom.kind)
    k = 2.0 * math.pi / geom.wavelength
    pos = geom.positions
    sin_t = np.sin(theta)
    cos_t = np.cos(theta)
    cos_p = np.cos(phi)
    sin_p = np.sin(phi)
    total = 0.0
    # one theta row at a time keeps the (n_phi, N) phase block small
    for t_idx in range(theta.size):
        rhat = np.stack([
            sin_t[t_idx] * cos_p,
            sin_t[t_idx] * sin_p,
            np.full(phi.size, cos_t[t_idx]),
        ], axis=1)
        amp = np.exp(-1j * k * (rhat @ pos.T)) @ i
        gain = 1.0 if geom.kind is ElementKind.ISOTROPIC else np.abs(sin_t[t_idx] * cos_p)
        total += w_theta[t_idx] * np.sum(w_phi * gain * np.abs(amp) ** 2)
    return total / (4.0 * math.pi)


def radiated_power_quadrature(
    geom: ArrayGeometry,
    i,
    beta: float = 1.0,
    quad_order: int = 128,
) -> float:
    """Total radiated power by numerical integration over the sphere.

    Integrates the far-field power density with Gauss-Legendre nodes in
    the polar angle and a kind-appropriate azimuth rule, at the
    requested order and at twice that order.  The doubled-order value is
    returned (times ``beta``); if the two disagree beyond 1e-4 relative,
    an :class:`AccuracyWarning` is emitted.  Converges to
    ``beta * i^H Z i``, which is what makes it an oracle for the
    closed-form coupling kernels, and it reads nothing of them.

    Parameters
    ----------
    geom : ArrayGeometry
        Layout with at most 64 elements (oracle scale).
    i : array-like of complex
        Excitation currents.
    beta : float
        Proportionality factor absorbing the elements' electrical
        characteristics; it scales the power and cancels in every ratio.
    quad_order : int
        Base polar-node count, >= 16.
    """
    if geom.n > _QUAD_MAX_ELEMENTS:
        raise InvalidArgumentError(
            f"quadrature oracle limited to {_QUAD_MAX_ELEMENTS} elements, got {geom.n}")
    if quad_order < _QUAD_MIN_ORDER:
        raise InvalidArgumentError(f"quad_order must be >= {_QUAD_MIN_ORDER}, got {quad_order}")
    iv = np.asarray(i, dtype=complex)
    if iv.shape != (geom.n,):
        raise InvalidArgumentError(f"current vector must have shape ({geom.n},), got {iv.shape}")
    coarse = _sphere_power(geom, iv, quad_order)
    fine = _sphere_power(geom, iv, 2 * quad_order)
    if fine != 0.0 and abs(fine - coarse) > _QUAD_SELF_CHECK_RTOL * abs(fine):
        warnings.warn(
            f"sphere quadrature self-check: orders {quad_order} and {2 * quad_order} "
            f"differ by {abs(fine - coarse) / abs(fine):.2e} relative; raise quad_order",
            AccuracyWarning,
            stacklevel=2,
        )
    return beta * fine


def pairwise_impedance(geom: ArrayGeometry) -> np.ndarray:
    """The double coupling matrix built pair by pair from the element positions.

    Each entry is the kernel of ``k * ||p_a - p_b||``, the distance from
    ``cdist`` of the double positions: no lattice offsets, no table and
    no gather, so it checks the offset-table build of ``impedance``.
    """
    kernel = sinc_unnormalized if geom.kind is ElementKind.ISOTROPIC else j1_over_x
    return kernel(2.0 * math.pi / geom.wavelength * cdist(geom.positions, geom.positions))
