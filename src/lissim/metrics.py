"""Link metrics: SNR, directivity, current cost, and the no-coupling
continuous-aperture reference.

Directivity here is received power relative to a single isotropic
radiator at the same range,

    D = (|i^H h|^2 / (i^H Z i)) * (4 pi ||o|| / lambda)^2,

which is invariant to scaling of the currents and, for a distant
terminal, equals the classical array directivity.

The continuous reference :func:`d_nc` integrates ``x / (4 pi d^3)`` over
the aperture.  That integral is the solid angle the rectangle subtends
at the terminal, divided by ``4 pi``, and is evaluated in closed form as
the solid angles of the two triangles either side of a diagonal, or of
the four rectangles that meet at the terminal's foot for a terminal
almost on the surface; no quadrature is involved.
"""

from __future__ import annotations

import math

import numpy as np

from .coupling import ImpedanceMatrix, quadratic_form
from .errors import InvalidArgumentError, NonRadiatingCurrentError
from .geometry import as_vec3


def snr(i, Z: ImpedanceMatrix, h) -> float:
    """Receive SNR ``|i^H h|^2 / (i^H Z i)`` at unit transmit power and noise variance.

    Dimensionless, non-negative, and invariant to scaling of ``i``.
    Another power budget scales it by ``ptx / noise_var``.
    """
    denom = quadratic_form(Z, i)
    if not denom > 0:
        raise NonRadiatingCurrentError(
            f"i^H Z i = {float(denom):.3e} is not positive; current does not radiate")
    ar = Z.arithmetic
    with ar.lock:
        return float(abs(ar.vdot(i, h)) ** 2 / denom)


def range_factor(o, wavelength: float) -> float:
    """``(4 pi ||o|| / lambda)^2``: a directivity over the SNR toward terminal ``o``."""
    return (4.0 * math.pi * float(np.linalg.norm(as_vec3(o))) / wavelength) ** 2


def directivity(i, Z: ImpedanceMatrix, h, o, wavelength: float) -> float:
    """Directivity toward terminal ``o`` for currents ``i`` (linear scale)."""
    factor = range_factor(o, wavelength)
    return snr(i, Z, h) * factor


def to_dbi(d: float) -> float:
    """Linear directivity to dBi."""
    if d <= 0:
        raise InvalidArgumentError(f"dBi undefined for non-positive directivity {d!r}")
    return 10.0 * math.log10(d)


def excitation_power(i) -> float:
    """Current cost ``i^H i`` of a precoder."""
    iv = np.asarray(i)
    return float(np.real(np.vdot(iv, iv)))


def _triangle_solid_angle(x: float, corners, twice_area: float) -> tuple[float, bool]:
    """Solid angle of a triangle in the surface plane, seen from height ``x`` above it.

    ``corners`` are the triangle's three ``(y, z)`` vertices relative to
    the viewpoint's foot on the plane.  Van Oosterom and Strackee's
    formula (IEEE Trans. Biomed. Eng. 30(2), 1983):
    ``tan(Omega / 2) = |R1 . (R2 x R3)| / (r1 r2 r3 + (R1 . R2) r3
    + (R1 . R3) r2 + (R2 . R3) r1)`` for the vertex vectors ``R`` of
    lengths ``r``, whose triple product is ``x`` times twice the area.

    Returns the solid angle and whether the denominator cancelled: it
    came out below ``r1 r2 r3`` in magnitude, a quarter of the bound on
    its terms.  That happens as ``Omega / 2`` nears ``pi / 2``, the pole
    of the tangent, and costs digits when the viewpoint is also close
    to the plane, above an edge of the triangle.
    """
    (ya, za), (yb, zb), (yc, zc) = corners
    xx = x * x
    ra, rb, rc = (math.sqrt(xx + y * y + z * z) for y, z in corners)
    den = (ra * rb * rc + (xx + ya * yb + za * zb) * rc
           + (xx + ya * yc + za * zc) * rb + (xx + yb * yc + zb * zc) * ra)
    return 2.0 * math.atan2(x * twice_area, den), abs(den) < ra * rb * rc


def _foot_solid_angle(x: float, ys, zs) -> float:
    """Solid angle of a rectangle that holds the viewpoint's foot, seen from height ``x``.

    ``ys`` and ``zs`` are the rectangle's edges relative to the foot, so
    the first of each is at most 0 and the second at least 0.  The
    rectangle is the four rectangles that meet at the foot, and the one
    with sides a and b subtends ``atan(a b / (x sqrt(x^2 + a^2 + b^2)))``
    from above its corner: four positive terms, which nothing cancels
    however close the viewpoint comes.
    """
    xx = x * x
    return math.fsum(math.atan(abs(y * z) / (x * math.sqrt(xx + y * y + z * z)))
                     for y in ys for z in zs)


def d_nc(o, y_lis: float, z_lis: float, wavelength: float) -> float:
    """Matched-filter directivity of the continuous no-coupling surface.

    ``(4 pi ||o|| / lambda)^2`` times the integral of
    ``x_ue / (4 pi d_p^3)`` over the aperture, with ``d_p`` the distance
    from the terminal to the surface point.  That integral is the solid
    angle ``Omega`` of the aperture seen from the terminal, over
    ``4 pi``, so the result is ``4 pi (||o|| / lambda)^2 Omega``, in
    closed form.  ``Omega`` is summed from the two triangles either side
    of a diagonal.  Both are positive, so no term cancels another
    wherever the terminal's projection falls (the four-corner ``atan``
    form cancels once it leaves the aperture: 3e-12 relative error 10 m
    away at 89 degrees off broadside).  A terminal much closer to the
    surface than the aperture is wide, above a triangle's edge (in
    front of the centre, say, on the diagonal), would lose digits, as
    ``tan(Omega / 2)`` of that triangle approaches a pole and its
    denominator cancels, about ``1e-17 m / x_ue`` relative on a 0.5 m
    panel.  Where a denominator cancels and the terminal's foot is on
    the aperture, ``Omega`` is summed instead from the four rectangles
    that meet at the foot, whose terms all add (:func:`_foot_solid_angle`),
    so the result keeps its digits however close the terminal comes.
    A terminal as close above a point just off the aperture's edge still
    loses them: there both forms cancel.  For a far broadside terminal
    the result approaches the classical aperture directivity
    ``4 pi A / lambda^2``.

    Parameters
    ----------
    o : array-like
        Terminal position with ``x_ue > 0``.
    y_lis, z_lis : float
        Aperture width and height in meters.
    wavelength : float
        Carrier wavelength in meters.

    A published variant of this reference integrates over ``+-y_lis``
    and ``+-z_lis``, twice the physical span per axis; that is
    ``d_nc(o, 2 * y_lis, 2 * z_lis, wavelength)``, bit for bit: the
    half extents ``(2 * y_lis) / 2`` are ``y_lis`` exactly in binary
    floating point.
    """
    ov = as_vec3(o)
    x_ue, o_y, o_z = (float(v) for v in ov)
    if x_ue <= 0.0:
        raise InvalidArgumentError(f"reference surface needs x_ue > 0, got {x_ue}")
    if not all(v > 0 and math.isfinite(v) for v in (y_lis, z_lis, wavelength)):
        raise InvalidArgumentError("aperture extents and wavelength must be positive and finite")
    half_y, half_z = y_lis / 2, z_lis / 2
    y1, y2 = -half_y - o_y, half_y - o_y
    z1, z2 = -half_z - o_z, half_z - o_z
    twice_area = 4.0 * half_y * half_z
    lower, lower_cancels = _triangle_solid_angle(
        x_ue, ((y1, z1), (y2, z1), (y2, z2)), twice_area)
    upper, upper_cancels = _triangle_solid_angle(
        x_ue, ((y1, z1), (y2, z2), (y1, z2)), twice_area)
    omega = lower + upper
    if (lower_cancels or upper_cancels) and y1 <= 0.0 <= y2 and z1 <= 0.0 <= z2:
        omega = _foot_solid_angle(x_ue, (y1, y2), (z1, z2))
    return 4.0 * math.pi * (float(np.linalg.norm(ov)) / wavelength) ** 2 * omega
