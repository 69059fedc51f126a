"""Element layouts on the y-z plane plus distance/angle helpers.

The surface lies in the plane x = 0 with broadside along +x.  Layout
factories return immutable :class:`ArrayGeometry` objects; regular grids
additionally carry integer lattice indices so that higher-precision code
paths can reconstruct exact inter-element offsets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import CapacityError, DomainError, InvalidArgumentError, InvalidGeometryError

SPEED_OF_LIGHT = 299_792_458.0  # m/s, used for wavelength = c / frequency

#: A 3-D point in meters: any array-like of three finite reals.
Vec3 = np.ndarray

DEFAULT_MAX_ELEMENTS = 100_000


def as_vec3(v) -> np.ndarray:
    """Coerce to a float (3,) vector, rejecting non-finite components."""
    arr = np.asarray(v, dtype=float)
    if arr.shape != (3,):
        raise InvalidArgumentError(f"expected a 3-vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidArgumentError("vector components must be finite")
    return arr


class ElementKind(Enum):
    """Radiating element model: unit-gain sphere or small flat patch."""

    ISOTROPIC = "isotropic"
    PLANAR = "planar"


@dataclass(frozen=True)
class ArrayGeometry:
    """Immutable element layout.

    Attributes
    ----------
    positions : ndarray, shape (N, 3)
        Element centers in meters; all on the plane x = 0, grid centered
        on the origin.
    kind : ElementKind
        Element model shared by all elements.
    dy, dz : float
        Center-to-center pitch along y and z in meters.
    aperture_per_element : float
        Physical element aperture ``dy * dz`` for planar elements, 0 for
        isotropic ones.  Bookkeeping only: the constant gain factor it
        would introduce cancels in every power ratio.
    wavelength : float
        Carrier wavelength in meters.
    lattice_indices : ndarray of int, shape (N, 2), optional
        (iy, iz) grid indices per element for layouts built on a regular
        lattice; lets extended-precision code rebuild exact offsets.
    """

    positions: np.ndarray
    kind: ElementKind
    dy: float
    dz: float
    aperture_per_element: float
    wavelength: float
    lattice_indices: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.positions.setflags(write=False)
        if self.lattice_indices is not None:
            self.lattice_indices.setflags(write=False)

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    @property
    def wavenumber(self) -> float:
        """k = 2*pi / wavelength, rad/m (always derived, never stored)."""
        return 2.0 * math.pi / self.wavelength

    def mirror_orbits(self) -> np.ndarray:
        """Element orbits under the lattice mirrors y -> -y and z -> -z.

        Returns an int array of shape (M, 4), one row per orbit: the
        indices of an element's images under the identity, the y
        mirror, the z mirror and both, with the orbit's lowest index
        first.  A mirror that does not map the set of lattice indices
        onto itself acts as the identity, and a layout without lattice
        indices has one orbit per element, ``[a, a, a, a]``.
        """
        own = np.arange(self.n)
        if self.lattice_indices is None:
            return np.column_stack([own] * 4)
        rel = self.lattice_indices - self.lattice_indices.min(axis=0)
        extent = rel.max(axis=0) + 1
        grid = np.full(extent, -1)
        grid[rel[:, 0], rel[:, 1]] = own

        def mirror(axis):
            at = rel.copy()
            at[:, axis] = extent[axis] - 1 - rel[:, axis]
            image = grid[at[:, 0], at[:, 1]]
            return image if np.all(image >= 0) else own

        flip_y, flip_z = mirror(0), mirror(1)
        images = np.column_stack([own, flip_y, flip_z, flip_y[flip_z]])
        return images[images.min(axis=1) == own]


def _centered_axis(count: int) -> np.ndarray:
    # integer-minus-half-integer steps are exact in binary floating point,
    # so the axis mean is exactly zero
    return np.arange(count, dtype=float) - (count - 1) / 2.0


def planar_grid(
    y_lis: float,
    z_lis: float,
    dy: float,
    dz: float,
    kind: ElementKind,
    wavelength: float,
    max_elements: int = DEFAULT_MAX_ELEMENTS,
) -> ArrayGeometry:
    """Centered rectangular lattice filling a y_lis x z_lis aperture.

    The element count per axis is ``floor(extent / pitch) + 1`` with the
    pitch kept exact, so the populated span (first to last center) may
    be slightly smaller than the requested aperture, while the cell area
    ``N * dy * dz`` the elements tile can exceed it by up to one pitch
    per axis.  On a 0.5 m panel at 2.6 GHz that cell area is 1.33x the
    aperture at a 1.0 wavelength pitch and 1.077x at 0.5 wavelength, and
    it changes non-monotonically as the pitch shrinks; compare pitches
    at equal cell area by choosing an extent that every pitch tiles
    alike.

    Parameters
    ----------
    y_lis, z_lis : float
        Aperture width and height in meters.
    dy, dz : float
        Element pitch along y and z in meters; must not exceed the
        corresponding aperture extent.
    kind : ElementKind
        Element model.
    wavelength : float
        Carrier wavelength in meters.
    max_elements : int
        Capacity guard; exceeding it raises :class:`CapacityError`.

    Returns
    -------
    ArrayGeometry
    """
    for name, value in (("y_lis", y_lis), ("z_lis", z_lis), ("dy", dy),
                        ("dz", dz), ("wavelength", wavelength)):
        if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
            raise InvalidArgumentError(f"{name} must be a positive finite number, got {value!r}")
    if dy > y_lis:
        raise InvalidArgumentError(f"pitch dy={dy} exceeds aperture width y_lis={y_lis}")
    if dz > z_lis:
        raise InvalidArgumentError(f"pitch dz={dz} exceeds aperture height z_lis={z_lis}")

    # tiny guard so exact-ratio apertures (0.5 / 0.25) are not lost to
    # floating-point noise in the division
    n_y = int(math.floor(y_lis / dy + 1e-12)) + 1
    n_z = int(math.floor(z_lis / dz + 1e-12)) + 1
    if n_y * n_z > max_elements:
        raise CapacityError(
            f"grid would hold {n_y * n_z} elements, exceeding the cap of {max_elements}"
        )

    iy, iz = np.meshgrid(np.arange(n_y), np.arange(n_z), indexing="xy")
    iy = iy.ravel()
    iz = iz.ravel()
    y = (_centered_axis(n_y))[iy] * dy
    z = (_centered_axis(n_z))[iz] * dz
    positions = np.column_stack([np.zeros(n_y * n_z), y, z])
    aperture = dy * dz if kind is ElementKind.PLANAR else 0.0
    return ArrayGeometry(
        positions=positions,
        kind=kind,
        dy=dy,
        dz=dz,
        aperture_per_element=aperture,
        wavelength=wavelength,
        lattice_indices=np.column_stack([iy, iz]),
    )


def linear_array(
    n: int,
    dz: float,
    kind: ElementKind,
    wavelength: float,
) -> ArrayGeometry:
    """Centered n-element line along the z axis with pitch dz.

    ``dy`` of the result is set equal to ``dz`` as a nominal value; a
    single-column array has no y pitch.
    """
    if not isinstance(n, int) or n < 1:
        raise InvalidArgumentError(f"element count must be a positive integer, got {n!r}")
    if not (math.isfinite(dz) and dz > 0):
        raise InvalidArgumentError(f"dz must be positive, got {dz!r}")
    if not (math.isfinite(wavelength) and wavelength > 0):
        raise InvalidArgumentError(f"wavelength must be positive, got {wavelength!r}")

    z = _centered_axis(n) * dz
    positions = np.column_stack([np.zeros(n), np.zeros(n), z])
    aperture = dz * dz if kind is ElementKind.PLANAR else 0.0
    return ArrayGeometry(
        positions=positions,
        kind=kind,
        dy=dz,
        dz=dz,
        aperture_per_element=aperture,
        wavelength=wavelength,
        lattice_indices=np.column_stack([np.zeros(n, dtype=int), np.arange(n)]),
    )


def custom_geometry(
    positions,
    kind: ElementKind,
    dy: float,
    dz: float,
    wavelength: float,
) -> ArrayGeometry:
    """Wrap explicit element positions, validating the layout invariants."""
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 2 or pos.shape[1] != 3 or pos.shape[0] < 1:
        raise InvalidArgumentError(f"positions must have shape (N, 3), got {pos.shape}")
    if not np.all(np.isfinite(pos)):
        raise InvalidArgumentError("positions must be finite")
    if np.unique(pos, axis=0).shape[0] != pos.shape[0]:
        raise InvalidGeometryError("element positions must be pairwise distinct")
    aperture = dy * dz if kind is ElementKind.PLANAR else 0.0
    return ArrayGeometry(
        positions=pos, kind=kind, dy=dy, dz=dz,
        aperture_per_element=aperture, wavelength=wavelength,
    )


def distance(o, p) -> float:
    """Euclidean distance between two points in meters."""
    return float(np.linalg.norm(as_vec3(o) - as_vec3(p)))


def departure_angle(o, p) -> float:
    """Angle in [0, pi] between broadside (+x) and the ray from p to o.

    For elements on the surface plane this is ``arccos(x_ue / d)`` with
    ``d`` the element-to-terminal distance.

    Raises
    ------
    DomainError
        If the two points coincide (zero distance).
    """
    ov = as_vec3(o)
    pv = as_vec3(p)
    d = float(np.linalg.norm(ov - pv))
    if d == 0.0:
        raise DomainError("departure angle undefined for coincident points")
    cosine = (ov[0] - pv[0]) / d
    return float(math.acos(min(1.0, max(-1.0, cosine))))
