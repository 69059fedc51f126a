"""Element layouts on the y-z plane.

The surface lies in the plane x = 0 with broadside along +x.  Layout
factories return immutable :class:`ArrayGeometry` objects, checked once
on construction.  A layout is a centered lattice, described by its shape
and pitches alone, from which its positions, its exact coordinates in
any precision and its elements' images under its mirrors (and a
square's swap) are derived.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import CapacityError, InvalidArgumentError

SPEED_OF_LIGHT = 299_792_458.0  # m/s, used for wavelength = c / frequency

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


def _require_element_model(kind, wavelength) -> None:
    """Refuse a kind that is not an :class:`ElementKind`, or a wavelength not finite and > 0."""
    if not isinstance(kind, ElementKind):
        raise InvalidArgumentError(f"kind must be an ElementKind, got {kind!r}")
    if not (isinstance(wavelength, numbers.Real) and math.isfinite(wavelength) and wavelength > 0):
        raise InvalidArgumentError(
            f"wavelength must be a positive finite number, got {wavelength!r}")


def _require_positive(name: str, value) -> None:
    """Refuse ``value``, named ``name``, unless it is a positive finite int or float, not a bool."""
    if not (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value) and value > 0):
        raise InvalidArgumentError(f"{name} must be a positive finite number, got {value!r}")


def _require_capacity(layout: str, n: int, max_elements: int) -> None:
    """Refuse a layout of n elements, a ``"grid"`` or ``"line"``, above the cap."""
    if n > max_elements:
        raise CapacityError(
            f"{layout} would hold {n} elements, exceeding the cap of {max_elements}")


def _centered(index, count: int, pitch):
    """``(i - (n - 1) / 2) * pitch``: the coordinate of index i on a centered n-point axis.

    Works in the arithmetic of ``index``, floats or mpmath numbers.  The
    integer-minus-half-integer step is exact in binary floating point, so
    the product is the only rounding and an axis's mean is exactly zero.
    """
    return (index - (count - 1) / 2) * pitch


@dataclass(frozen=True)
class ArrayGeometry:
    """Immutable element layout: a centered lattice, stored as its five fields.

    A lattice is described by its kind, wavelength, shape and pitches
    alone: its positions, its (iy, iz) indices and its elements'
    symmetry images are all derived from them when asked for, and
    layouts compare and hash by those fields.

    Attributes
    ----------
    kind : ElementKind
        Element model shared by all elements.
    wavelength : float
        Carrier wavelength in meters, positive and finite.
    shape : (int, int)
        ``(n_y, n_z)`` of two positive integers (not bools), a lattice
        centered on the origin, element ``iz * n_y + iy`` at index
        (iy, iz); stored as a tuple of Python ints.
    dy, dz : float
        Center-to-center pitch along y and z in meters, positive and
        finite.
    """

    kind: ElementKind
    wavelength: float
    shape: tuple[int, int] | None = None
    dy: float | None = None
    dz: float | None = None

    def __post_init__(self):
        _require_element_model(self.kind, self.wavelength)
        if not (isinstance(self.shape, Sequence) and len(self.shape) == 2
                and all(isinstance(c, numbers.Integral) and not isinstance(c, bool)
                        and c >= 1 for c in self.shape)):
            raise InvalidArgumentError(
                f"a lattice shape is two positive integers, got {self.shape!r}")
        if self.dy is None or self.dz is None:
            raise InvalidArgumentError("a lattice layout needs its pitches dy and dz")
        _require_positive("dy", self.dy)
        _require_positive("dz", self.dz)
        object.__setattr__(self, "shape", tuple(int(c) for c in self.shape))

    @property
    def n(self) -> int:
        return self.shape[0] * self.shape[1]

    @property
    def positions(self) -> np.ndarray:
        """Element centers in meters, shape (N, 3), on x = 0: read-only, computed at each read."""
        positions = self.coordinates(lambda x: np.asarray(x, dtype=float))
        positions.setflags(write=False)
        return positions

    def lattice_indices(self) -> np.ndarray:
        """(iy, iz) of each element of a lattice, shape (N, 2), y index fastest."""
        iz, iy = np.divmod(np.arange(self.n), self.shape[0])
        return np.column_stack([iy, iz])

    def coordinates(self, number) -> np.ndarray:
        """Element centers, shape (N, 3), as the numbers that ``number`` makes.

        ``number`` converts real values to an arithmetic (such as
        :meth:`Precision.arithmetic`'s ``number``).  A lattice's are
        :func:`_centered` on each axis in that arithmetic, so in any
        precision they carry one rounding each and no accumulated offset.
        """
        (n_y, n_z), (iy, iz) = self.shape, self.lattice_indices().T
        return np.column_stack([number(np.zeros(len(iy))),
                                _centered(number(np.arange(n_y)), n_y, self.dy)[iy],
                                _centered(number(np.arange(n_z)), n_z, self.dz)[iz]])

    def symmetry_images(self) -> np.ndarray:
        """Each element's images under the layout's symmetries, shape (N, 4) or (N, 8).

        Row a holds the images of element a under the identity, the
        y mirror y -> -y, the z mirror z -> -z and both: the flips of the
        grid of element numbers.  A square lattice (``n_y == n_z`` and
        ``dy == dz``) also maps onto itself under the swap y <-> z,
        element (iy, iz) onto (iz, iy), and gets four more columns: the
        swap after the identity, after both mirrors, after the y mirror
        and after the z mirror, the same flips of the grid's transpose.
        """
        # the element numbers as the n_z x n_y grid [iz, iy], and the (z, y) steps
        # of the identity, the y mirror, the z mirror and both
        grid = np.arange(self.n).reshape(self.shape[1], self.shape[0])
        flips = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
        grids = [grid[::z, ::y] for z, y in flips]
        if self.shape[0] == self.shape[1] and self.dy == self.dz:
            grids += [grid.T[::z, ::y] for z, y in (flips[k] for k in (0, 3, 1, 2))]
        return np.column_stack([g.ravel() for g in grids])


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
    _require_element_model(kind, wavelength)  # before the element count is refused
    for name, value in (("y_lis", y_lis), ("z_lis", z_lis), ("dy", dy), ("dz", dz)):
        _require_positive(name, value)
    if dy > y_lis:
        raise InvalidArgumentError(f"pitch dy={dy} exceeds aperture width y_lis={y_lis}")
    if dz > z_lis:
        raise InvalidArgumentError(f"pitch dz={dz} exceeds aperture height z_lis={z_lis}")

    # tiny guard so exact-ratio apertures (0.5 / 0.25) are not lost to
    # floating-point noise in the division
    n_y = int(math.floor(y_lis / dy + 1e-12)) + 1
    n_z = int(math.floor(z_lis / dz + 1e-12)) + 1
    _require_capacity("grid", n_y * n_z, max_elements)
    return ArrayGeometry(kind=kind, wavelength=wavelength, dy=dy, dz=dz, shape=(n_y, n_z))


def linear_array(
    n: int,
    dz: float,
    kind: ElementKind,
    wavelength: float,
    max_elements: int = DEFAULT_MAX_ELEMENTS,
) -> ArrayGeometry:
    """Centered n-element line along the z axis with pitch dz.

    ``dy`` of the result is set equal to ``dz`` as a nominal value; a
    single-column array has no y pitch.  More than ``max_elements``
    elements raise :class:`CapacityError`, as in :func:`planar_grid`.
    """
    _require_element_model(kind, wavelength)
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InvalidArgumentError(f"element count must be a positive integer, got {n!r}")
    _require_positive("dz", dz)
    _require_capacity("line", n, max_elements)
    return ArrayGeometry(kind=kind, wavelength=wavelength, dy=dz, dz=dz, shape=(1, n))

