"""Surface-to-terminal channel vectors and radiated-power oracles.

Channel vectors always use exact per-element distances (no far-field
shortcut); only the impedance matrix rests on the far-field form.  The
remaining functions evaluate the underlying field physics directly:
:func:`field_at` superposes per-element contributions and
:func:`radiated_power_quadrature` integrates the far-field power density
over the sphere.  The quadrature exists to validate the closed-form
coupling kernels end to end and is deliberately independent of them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyWarning, DomainError, InvalidArgumentError
from .geometry import ArrayGeometry, ElementKind, as_vec3
from .specfun import MP_LOCK, Precision

VACUUM_IMPEDANCE = 376.730313668  # ohm

_QUAD_MAX_ELEMENTS = 64
_QUAD_MIN_ORDER = 16
_QUAD_SELF_CHECK_RTOL = 1e-4


@dataclass(frozen=True)
class FieldModel:
    """Physical constants for the raw-field oracles.

    ``beta`` is the proportionality factor absorbing element electrical
    characteristics and ``eta`` the intrinsic impedance of vacuum.  Both
    cancel in every SNR and directivity ratio; they matter only when
    evaluating fields and powers in absolute terms.
    """

    beta: float = 1.0
    eta: float = VACUUM_IMPEDANCE

    def __post_init__(self):
        if not (self.beta > 0 and math.isfinite(self.beta)):
            raise InvalidArgumentError(f"beta must be positive, got {self.beta!r}")
        if not (self.eta > 0 and math.isfinite(self.eta)):
            raise InvalidArgumentError(f"eta must be positive, got {self.eta!r}")


def _distances_double(geom: ArrayGeometry, o: np.ndarray) -> np.ndarray:
    return np.linalg.norm(geom.positions - o[None, :], axis=1)


def _mp_positions(ctx, geom: ArrayGeometry):
    """Element coordinates in extended precision.

    Lattice layouts are rebuilt from integer indices and the exact
    double pitches so that offsets carry no accumulated rounding;
    arbitrary layouts promote their double coordinates verbatim.
    """
    if geom.lattice_indices is not None:
        iy = geom.lattice_indices[:, 0]
        iz = geom.lattice_indices[:, 1]
        cy = ctx.mpf(int(np.max(iy))) / 2
        cz = ctx.mpf(int(np.max(iz))) / 2
        dy = ctx.mpf(geom.dy)
        dz = ctx.mpf(geom.dz)
        return [(ctx.mpf(0), (int(a) - cy) * dy, (int(b) - cz) * dz)
                for a, b in zip(iy, iz)]
    return [(ctx.mpf(p[0]), ctx.mpf(p[1]), ctx.mpf(p[2])) for p in geom.positions]


def channel_isotropic(geom: ArrayGeometry, o, precision: Precision = Precision()):
    """Channel vector for unit-gain elements.

    ``h_n = lambda / (4 pi d_n) * exp(-j k d_n)`` with ``d_n`` the exact
    element-to-terminal distance.

    Raises
    ------
    DomainError
        If the terminal coincides with an element.
    """
    ov = as_vec3(o)
    if precision.is_extended:
        return _channel_extended(geom, ov, precision, planar=False)
    d = _distances_double(geom, ov)
    if np.any(d == 0.0):
        raise DomainError("terminal position coincides with an array element")
    k = geom.wavenumber
    return geom.wavelength / (4.0 * np.pi * d) * np.exp(-1j * k * d)


def channel_planar(geom: ArrayGeometry, o, precision: Precision = Precision()):
    """Channel vector for small flat elements in the front half-space.

    ``h_n = sqrt(x_ue / d_n) * lambda / (4 pi d_n) * exp(-j k d_n)``;
    the projected-aperture root uses the per-element departure angle and
    the constant aperture gain factor is omitted, mirroring the same
    omission in the planar impedance kernel.

    Raises
    ------
    DomainError
        If the terminal is not strictly in front of the surface
        (``x_ue <= 0``), where the reduced gain model is undefined.
    """
    ov = as_vec3(o)
    if ov[0] <= 0.0:
        raise DomainError(f"planar channel needs x_ue > 0, got x_ue = {ov[0]}")
    if precision.is_extended:
        return _channel_extended(geom, ov, precision, planar=True)
    d = _distances_double(geom, ov)
    k = geom.wavenumber
    return np.sqrt(ov[0] / d) * geom.wavelength / (4.0 * np.pi * d) * np.exp(-1j * k * d)


def _channel_extended(geom: ArrayGeometry, o: np.ndarray, precision: Precision, planar: bool):
    ctx = precision.context()
    with MP_LOCK:
        return _channel_extended_locked(ctx, geom, o, planar)


def _channel_extended_locked(ctx, geom: ArrayGeometry, o: np.ndarray, planar: bool):
    pos = _mp_positions(ctx, geom)
    lam = ctx.mpf(geom.wavelength)
    k = 2 * ctx.pi / lam
    ox, oy, oz = (ctx.mpf(float(c)) for c in o)
    h = np.empty(geom.n, dtype=object)
    for idx, (px, py, pz) in enumerate(pos):
        d = ctx.sqrt((ox - px) ** 2 + (oy - py) ** 2 + (oz - pz) ** 2)
        if d == 0:
            raise DomainError("terminal position coincides with an array element")
        amp = lam / (4 * ctx.pi * d)
        if planar:
            amp *= ctx.sqrt(ox / d)
        h[idx] = amp * ctx.exp(-1j * k * d)
    return h


def channel_for(geom: ArrayGeometry, o, precision: Precision = Precision()):
    """Dispatch to the channel builder matching the element kind."""
    if geom.kind is ElementKind.PLANAR:
        return channel_planar(geom, o, precision)
    return channel_isotropic(geom, o, precision)


def field_at(o, geom: ArrayGeometry, i, fm: FieldModel = FieldModel()) -> complex:
    """Total complex field strength at a point: superposition of elements.

    ``E(o) = sqrt(eta) * sqrt(4 pi beta / lambda^2) * i^H h`` with h from
    the channel builder matching the element kind.
    """
    iv = np.asarray(i)
    if iv.shape != (geom.n,):
        raise InvalidArgumentError(f"current vector must have shape ({geom.n},), got {iv.shape}")
    h = channel_for(geom, o)
    scale = math.sqrt(fm.eta) * math.sqrt(4.0 * math.pi * fm.beta) / geom.wavelength
    return complex(scale * np.vdot(iv, h))


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
    k = geom.wavenumber
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
    fm: FieldModel = FieldModel(),
    quad_order: int = 128,
) -> float:
    """Total radiated power by numerical integration over the sphere.

    Integrates the far-field power density with Gauss-Legendre nodes in
    the polar angle and a kind-appropriate azimuth rule, at the
    requested order and at twice that order.  The doubled-order value is
    returned (times ``beta``); if the two disagree beyond 1e-4 relative,
    an :class:`AccuracyWarning` is emitted.  Converges to
    ``beta * i^H Z i``, which is what makes it an oracle for the
    closed-form coupling kernels.

    Parameters
    ----------
    geom : ArrayGeometry
        Layout with at most 64 elements (oracle scale).
    i : array-like of complex
        Excitation currents.
    fm : FieldModel
        Supplies ``beta``.
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
    return fm.beta * fine
