"""Surface-to-terminal channel vectors.

Channel vectors always use exact per-element distances (no far-field
shortcut); only the impedance matrix rests on the far-field form.  One
body builds them in either precision's arithmetic, from a lattice's
coordinates computed in that arithmetic from its shape and pitches
(:meth:`ArrayGeometry.coordinates`).
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .geometry import ArrayGeometry, ElementKind, as_vec3
from .specfun import Precision


def _channel(geom: ArrayGeometry, o: np.ndarray, precision: Precision, planar: bool):
    """``g_n lambda / (4 pi d_n) exp(-j k d_n)``, ``g_n = sqrt(x_ue / d_n)`` if planar, else 1."""
    ar = precision.arithmetic()
    with ar.lock:
        o = ar.number(o)
        d = ar.sqrt(((geom.coordinates(ar.number) - o) ** 2).sum(axis=1))
        if np.any(d == 0):
            raise DomainError("terminal position coincides with an array element")
        lam = ar.number(geom.wavelength)
        k = 2 * ar.pi / lam
        gain = ar.sqrt(np.divide(o[0], d)) if planar else np.ones(geom.n)
        # arrays lead: an mpmath number would try to convert an array to its own type first
        return gain * lam / (d * (4 * ar.pi)) * ar.exp(d * (-1j * k))


def channel_isotropic(geom: ArrayGeometry, o, precision: Precision = Precision()):
    """Channel vector for unit-gain elements.

    ``h_n = lambda / (4 pi d_n) * exp(-j k d_n)`` with ``d_n`` the exact
    element-to-terminal distance.

    Raises
    ------
    DomainError
        If the terminal coincides with an element.
    """
    return _channel(geom, as_vec3(o), precision, planar=False)


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
    return _channel(geom, ov, precision, planar=True)


def channel_for(geom: ArrayGeometry, o, precision: Precision = Precision()):
    """Dispatch to the channel builder matching the element kind."""
    if geom.kind is ElementKind.PLANAR:
        return channel_planar(geom, o, precision)
    return channel_isotropic(geom, o, precision)
