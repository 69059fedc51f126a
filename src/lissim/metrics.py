"""Link metrics: SNR, directivity, current cost, and the no-coupling
continuous-aperture reference.

Directivity here is received power relative to a single isotropic
radiator at the same range,

    D = (|i^H h|^2 / (i^H Z i)) * (4 pi ||o|| / lambda)^2,

which is invariant to scaling of the currents and, for a distant
terminal, equals the classical array directivity.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .coupling import ImpedanceMatrix, quadratic_form
from .errors import InvalidArgumentError, NonRadiatingCurrentError, NumericalFailureError
from .specfun import MP_LOCK
from .geometry import as_vec3


@dataclass(frozen=True)
class LinkBudget:
    """Transmit power and receiver noise variance, both in watts."""

    ptx: float = 1.0
    noise_var: float = 1.0

    def __post_init__(self):
        if not (self.ptx > 0 and math.isfinite(self.ptx)):
            raise InvalidArgumentError(f"ptx must be positive, got {self.ptx!r}")
        if not (self.noise_var > 0 and math.isfinite(self.noise_var)):
            raise InvalidArgumentError(f"noise_var must be positive, got {self.noise_var!r}")


def _snr_core(i, Z: ImpedanceMatrix, h, denom) -> float:
    """``|i^H h|^2 / denom`` as a float, in Z's arithmetic, for ``denom = i^H Z i``."""
    if not denom > 0:
        raise NonRadiatingCurrentError(
            f"i^H Z i = {float(denom):.3e} is not positive; current does not radiate")
    if Z.precision.is_extended:
        with MP_LOCK:
            num = abs(Z.context.fdot(h, i, conjugate=True)) ** 2
            return float(num / denom)
    num = abs(np.vdot(i, h)) ** 2
    return float(num / denom)


def snr(i, Z: ImpedanceMatrix, h, lb: LinkBudget = LinkBudget()) -> float:
    """Receive SNR ``(ptx / noise_var) * |i^H h|^2 / (i^H Z i)``.

    Dimensionless, non-negative, and invariant to scaling of ``i``.
    """
    return lb.ptx / lb.noise_var * _snr_core(i, Z, h, quadratic_form(Z, i))


def directivity(i, Z: ImpedanceMatrix, h, o, wavelength: float) -> float:
    """Directivity toward terminal ``o`` for currents ``i`` (linear scale)."""
    return _directivity(i, Z, h, o, wavelength, quadratic_form(Z, i))


def _directivity(i, Z: ImpedanceMatrix, h, o, wavelength: float, power) -> float:
    """:func:`directivity` with the radiated power ``power = i^H Z i`` already formed."""
    ov = as_vec3(o)
    factor = (4.0 * math.pi * float(np.linalg.norm(ov)) / wavelength) ** 2
    return _snr_core(i, Z, h, power) * factor


def to_dbi(d: float) -> float:
    """Linear directivity to dBi."""
    if d <= 0:
        raise InvalidArgumentError(f"dBi undefined for non-positive directivity {d!r}")
    return 10.0 * math.log10(d)


def excitation_power(i) -> float:
    """Current cost ``i^H i`` of a precoder."""
    iv = np.asarray(i)
    return float(np.real(np.vdot(iv, iv)))


def d_nc(
    o,
    y_lis: float,
    z_lis: float,
    wavelength: float,
    quad_tol: float = 1e-8,
    double_span_limits: bool = False,
) -> float:
    """Matched-filter directivity of the continuous no-coupling surface.

    ``(4 pi ||o|| / lambda)^2`` times the integral of
    ``x_ue / (4 pi d_p^3)`` over the aperture, with ``d_p`` the distance
    from the terminal to the surface point; evaluated by adaptive 2-D
    quadrature to relative tolerance ``quad_tol``.  For a far broadside
    terminal this approaches the classical aperture directivity
    ``4 pi A / lambda^2``.

    Parameters
    ----------
    o : array-like
        Terminal position with ``x_ue > 0``.
    y_lis, z_lis : float
        Aperture width and height in meters.
    wavelength : float
        Carrier wavelength in meters.
    quad_tol : float
        Relative tolerance passed to the adaptive quadrature.
    double_span_limits : bool
        Integrate over ``+-y_lis`` and ``+-z_lis`` (twice the physical
        span per axis) instead of the default physical aperture
        ``+-y_lis/2``, ``+-z_lis/2``.  Off by default; exists to
        reproduce a published variant of this reference integral.
    """
    ov = as_vec3(o)
    x_ue = ov[0]
    if x_ue <= 0.0:
        raise InvalidArgumentError(f"reference surface needs x_ue > 0, got {x_ue}")
    if not (y_lis > 0 and z_lis > 0 and wavelength > 0):
        raise InvalidArgumentError("aperture extents and wavelength must be positive")
    if double_span_limits:
        ya, yb, za, zb = -y_lis, y_lis, -z_lis, z_lis
    else:
        ya, yb, za, zb = -y_lis / 2, y_lis / 2, -z_lis / 2, z_lis / 2

    def integrand(z: float, y: float) -> float:
        d_sq = x_ue * x_ue + (y - ov[1]) ** 2 + (z - ov[2]) ** 2
        return x_ue / (4.0 * math.pi * d_sq ** 1.5)

    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            value, abserr = integrate.dblquad(
                integrand, ya, yb, za, zb, epsabs=0.0, epsrel=quad_tol)
        except integrate.IntegrationWarning as exc:
            raise NumericalFailureError(f"aperture quadrature did not converge: {exc}") from exc
    # scipy's outer-loop error estimate is conservative; only a gross
    # overshoot signals genuine non-convergence
    if value > 0 and abserr > 1e4 * quad_tol * value:
        raise NumericalFailureError(
            f"aperture quadrature error estimate {abserr:.2e} exceeds tolerance", residual=abserr)
    factor = (4.0 * math.pi * float(np.linalg.norm(ov)) / wavelength) ** 2
    return factor * value
