import dataclasses
import hashlib
from fractions import Fraction

import numpy as np
import pytest

from lissim import (
    SPEED_OF_LIGHT,
    ArrayGeometry,
    CapacityError,
    ElementKind,
    ImpedanceMatrix,
    InvalidArgumentError,
    Precision,
    linear_array,
    planar_grid,
)

LAM = SPEED_OF_LIGHT / 2.6e9


def test_planar_grid_3x3_centered_lattice():
    g = planar_grid(0.5, 0.5, 0.25, 0.25, ElementKind.ISOTROPIC, 0.1)
    assert g.n == 9
    assert sorted(set(g.positions[:, 1])) == [-0.25, 0.0, 0.25]
    assert sorted(set(g.positions[:, 2])) == [-0.25, 0.0, 0.25]
    assert np.all(g.positions[:, 0] == 0.0)


def test_planar_grid_rejects_pitch_larger_than_aperture():
    with pytest.raises(InvalidArgumentError):
        planar_grid(0.5, 0.5, 0.6, 0.6, ElementKind.ISOTROPIC, 0.1)


def test_planar_grid_element_count_at_half_wavelength():
    # floor(0.5 / (lambda/2)) + 1 = 9 per axis at 2.6 GHz
    g = planar_grid(0.5, 0.5, LAM / 2, LAM / 2, ElementKind.PLANAR, LAM)
    assert g.n == 81


def test_planar_grid_capacity_cap():
    with pytest.raises(CapacityError):
        planar_grid(0.5, 0.5, 0.001, 0.001, ElementKind.ISOTROPIC, 0.1, max_elements=1000)


def test_linear_array_capacity_cap():
    assert linear_array(10, 0.1, ElementKind.ISOTROPIC, LAM, max_elements=10).n == 10
    with pytest.raises(CapacityError, match="line would hold 11 elements, exceeding the cap"):
        linear_array(11, 0.1, ElementKind.ISOTROPIC, LAM, max_elements=10)


def test_planar_grid_names_a_bad_wavelength_before_refusing_the_element_count():
    # the 501 x 501 grid exceeds the cap, but the wavelength is the first bad argument
    for kind, wavelength, match in ((ElementKind.ISOTROPIC, float("nan"), "wavelength"),
                                    ("isotropic", 0.1, "ElementKind")):
        with pytest.raises(InvalidArgumentError, match=match):
            planar_grid(0.5, 0.5, 0.001, 0.001, kind, wavelength, max_elements=1000)


def test_planar_grid_nonpositive_inputs():
    for bad in [
        (0.0, 0.5, 0.1, 0.1),
        (0.5, -1.0, 0.1, 0.1),
        (0.5, 0.5, 0.0, 0.1),
        (0.5, 0.5, 0.1, -0.1),
    ]:
        with pytest.raises(InvalidArgumentError):
            planar_grid(*bad, ElementKind.ISOTROPIC, 0.1)


def test_planar_grid_swap_axes_is_transpose():
    g1 = planar_grid(0.5, 0.35, 0.1, 0.07, ElementKind.ISOTROPIC, 0.1)
    g2 = planar_grid(0.35, 0.5, 0.07, 0.1, ElementKind.ISOTROPIC, 0.1)
    swapped = g2.positions[:, [0, 2, 1]]
    a = g1.positions[np.lexsort(g1.positions.T)]
    b = swapped[np.lexsort(swapped.T)]
    np.testing.assert_array_equal(a, b)


def test_grid_centered_mean():
    g = planar_grid(0.5, 0.5, 0.033, 0.041, ElementKind.PLANAR, LAM)
    assert np.max(np.abs(g.positions.mean(axis=0))) <= 1e-12 * (0.5 + 0.5)


def test_linear_array_single_element():
    g = linear_array(1, 0.123, ElementKind.ISOTROPIC, 0.1)
    np.testing.assert_array_equal(g.positions, [[0.0, 0.0, 0.0]])


def test_linear_array_pair_symmetric():
    g = linear_array(2, 0.5 * LAM, ElementKind.ISOTROPIC, LAM)
    np.testing.assert_allclose(sorted(g.positions[:, 2]), [-0.25 * LAM, 0.25 * LAM])


def test_linear_array_span_and_centering():
    g = linear_array(20, 0.3 * LAM, ElementKind.ISOTROPIC, LAM)
    z = g.positions[:, 2]
    assert z.max() - z.min() == pytest.approx(5.7 * LAM, rel=1e-15)
    assert abs(z.mean()) <= 1e-15


def test_linear_array_rejects_zero_count():
    with pytest.raises(InvalidArgumentError):
        linear_array(0, 0.1, ElementKind.ISOTROPIC, 0.1)


@pytest.mark.parametrize("args,match", [
    ((3, "0.05", ElementKind.ISOTROPIC, 0.1), "dz"),
    ((True, 0.05, ElementKind.ISOTROPIC, 0.1), "element count"),
    ((3, True, ElementKind.ISOTROPIC, 0.1), "dz"),
    ((3, -1.0, "isotropic", float("nan")), "ElementKind"),
    ((3, -1.0, ElementKind.ISOTROPIC, float("nan")), "wavelength"),
], ids=["string-pitch", "bool-count", "bool-pitch", "kind-first", "wavelength-before-pitch"])
def test_linear_array_refuses_bad_arguments_like_planar_grid(args, match):
    with pytest.raises(InvalidArgumentError, match=match):
        linear_array(*args)


@pytest.mark.parametrize("build", [
    lambda kind: linear_array(2, 0.05, kind, 0.115),
    lambda kind: planar_grid(0.1, 0.1, 0.05, 0.05, kind, 0.115),
    lambda kind: ArrayGeometry(shape=(1, 2), kind=kind, wavelength=0.115, dy=0.05, dz=0.05),
], ids=["linear", "planar", "constructor"])
@pytest.mark.parametrize("kind", ["isotropic", "planar", None])
def test_layouts_refuse_a_kind_that_is_not_an_element_kind(build, kind):
    # a string kind would build Z with the planar kernel and the channel with the isotropic gain
    with pytest.raises(InvalidArgumentError, match="ElementKind"):
        build(kind)


@pytest.mark.parametrize("wavelength", [0.0, float("nan"), -1.0, float("inf")])
def test_a_lattice_refuses_a_wavelength_that_is_not_positive_and_finite(wavelength):
    with pytest.raises(InvalidArgumentError, match="wavelength"):
        ArrayGeometry(shape=(1, 2), kind=ElementKind.ISOTROPIC, wavelength=wavelength,
                      dy=0.05, dz=0.05)


def test_positions_are_read_only():
    g = linear_array(4, 0.1, ElementKind.ISOTROPIC, 0.1)
    with pytest.raises(ValueError):
        g.positions[0, 2] = 1.0


def _orbits(images):
    # the rows of the identity, invariant under any permutation, at the mirror orbits' first members
    rows = np.eye(len(images))[np.unique(images[:, :4].min(axis=1))]
    return ImpedanceMatrix(rows, Precision(), images=images).orbits.tolist()


def test_symmetry_images_of_lattices_and_of_a_matrix_with_no_symmetry():
    # 3 x 2 grid, element index = iz * 3 + iy: the y mirror swaps iy 0 and 2,
    # the z mirror swaps the two rows
    g = planar_grid(0.2, 0.1, 0.1, 0.1, ElementKind.PLANAR, LAM)
    assert g.lattice_indices().tolist() == [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1]]
    assert g.symmetry_images().tolist() == [[0, 2, 3, 5], [1, 1, 4, 4], [2, 0, 5, 3],
                                            [3, 5, 0, 2], [4, 4, 1, 1], [5, 3, 2, 0]]
    assert _orbits(g.symmetry_images()) == [[0, 2, 3, 5], [1, 1, 4, 4]]

    line = linear_array(3, 0.1, ElementKind.ISOTROPIC, LAM)
    assert _orbits(line.symmetry_images()) == [[0, 0, 2, 2], [1, 1, 1, 1]]

    # a matrix made with no images has no symmetry: one orbit per element
    Z = ImpedanceMatrix(np.eye(6), Precision())
    assert Z.images.tolist() == [[k] * 4 for k in range(6)]
    assert Z.orbits.tolist() == [[k] * 4 for k in range(6)]


def test_a_lattice_layout_needs_its_pitches():
    g = linear_array(3, 0.05, ElementKind.ISOTROPIC, LAM)
    for pitches in ({}, {"dy": g.dy}, {"dz": g.dz}):
        with pytest.raises(InvalidArgumentError, match="pitches"):
            ArrayGeometry(shape=g.shape, kind=g.kind, wavelength=LAM, **pitches)


@pytest.mark.parametrize("shape", [(0, 3), (3,), (2.0, 3), (2, 3, 1), 5, None])
def test_a_lattice_shape_is_two_positive_integers(shape):
    with pytest.raises(InvalidArgumentError, match="two positive integers"):
        ArrayGeometry(shape=shape, kind=ElementKind.ISOTROPIC, wavelength=LAM, dy=0.1, dz=0.1)


@pytest.mark.parametrize("change", [
    {"dz": 0.07}, {"dy": 0.13}, {"shape": (2, 4)}, {"wavelength": 0.2},
    {"kind": ElementKind.ISOTROPIC},
], ids=["dz", "dy", "shape", "wavelength", "kind"])
def test_replace_builds_the_lattice_of_the_changed_fields(change):
    # positions are derived from the fields at each read, so replace changes them too
    grid = planar_grid(0.2, 0.1, 0.1, 0.1, ElementKind.PLANAR, LAM)
    fields = {"shape": grid.shape, "kind": grid.kind, "wavelength": LAM, "dy": 0.1, "dz": 0.1}
    fresh = ArrayGeometry(**{**fields, **change})
    replaced = dataclasses.replace(grid, **change)
    assert replaced == fresh and hash(replaced) == hash(fresh)
    assert replaced.positions.tobytes() == fresh.positions.tobytes()
    assert not replaced.positions.flags.writeable


@pytest.mark.parametrize("shape", [(True, 2), (2, True)])
def test_a_lattice_shape_refuses_a_bool(shape):
    # (True, 2) would otherwise build a 2-element lattice
    with pytest.raises(InvalidArgumentError, match="two positive integers"):
        ArrayGeometry(shape=shape, kind=ElementKind.ISOTROPIC, wavelength=LAM, dy=0.1, dz=0.1)


@pytest.mark.parametrize("dy,dz,name", [
    (float("nan"), -0.1, "dy"),
    (0.1, -0.1, "dz"),
    (0.0, 0.1, "dy"),
    (0.1, float("inf"), "dz"),
    (True, 0.1, "dy"),
    (0.1, "0.1", "dz"),
], ids=["nan", "negative", "zero", "inf", "bool", "string"])
def test_a_lattice_refuses_a_pitch_that_is_not_positive_and_finite(dy, dz, name):
    # a NaN pitch would make every y coordinate NaN, a negative one reverse the z axis
    with pytest.raises(InvalidArgumentError, match=name):
        ArrayGeometry(shape=(2, 2), kind=ElementKind.ISOTROPIC, wavelength=LAM, dy=dy, dz=dz)


def test_the_swap_images_of_a_square_lattice_transpose_its_grid():
    # 3 x 3 grid, element index = iz * 3 + iy: the swap maps (iy, iz) onto (iz, iy)
    g = planar_grid(0.2, 0.2, 0.1, 0.1, ElementKind.PLANAR, LAM)
    images = g.symmetry_images()
    swap = images[:, 4]
    assert swap.tolist() == [0, 3, 6, 1, 4, 7, 2, 5, 8]
    assert np.array_equal(swap[swap], np.arange(g.n))
    assert np.array_equal(g.positions[swap], g.positions[:, [0, 2, 1]])
    # swapping, then mirroring y, is mirroring z, then swapping
    assert np.array_equal(images[swap, 1], swap[images[:, 2]])
    assert linear_array(1, 0.1, ElementKind.ISOTROPIC, LAM).symmetry_images().tolist() == [[0] * 8]


@pytest.mark.parametrize("n", range(1, 10))
def test_square_symmetry_images_are_the_mirrors_then_the_swap_after_them(n):
    g = ArrayGeometry(shape=(n, n), kind=ElementKind.PLANAR, wavelength=LAM, dy=0.1, dz=0.1)
    # the mirrors are the flips of the n x n grid of element numbers, the swap its transpose
    grid = np.arange(n * n).reshape(n, n)
    mirrors = np.column_stack([m.ravel() for m in (grid, grid[:, ::-1], grid[::-1],
                                                   grid[::-1, ::-1])])
    swap = grid.T.ravel()
    # the swap after the identity, after both mirrors, after the y mirror and after the z mirror
    expected = np.hstack([mirrors, swap[mirrors[:, [0, 3, 1, 2]]]])
    assert np.array_equal(g.symmetry_images(), expected)


@pytest.mark.parametrize("layout", [
    planar_grid(0.2, 0.1, 0.1, 0.1, ElementKind.PLANAR, LAM),
    ArrayGeometry(shape=(3, 3), kind=ElementKind.PLANAR, wavelength=LAM, dy=0.1, dz=0.11),
    linear_array(3, 0.1, ElementKind.ISOTROPIC, LAM),
], ids=["3x2", "3x3-unequal-pitches", "line"])
def test_only_a_square_lattice_has_a_swap(layout):
    assert layout.symmetry_images().shape == (layout.n, 4)


def _grid(n_y, n_z, frac):
    pitch = frac * LAM
    return planar_grid((n_y - 1) * pitch, (n_z - 1) * pitch, pitch, pitch, ElementKind.PLANAR, LAM)


# sha256 of the little-endian float64 positions, as first frozen when a
# lattice still stored its positions next to its integer indices
@pytest.mark.parametrize("build,shape,digest", [
    (lambda: linear_array(20, 0.3 * LAM, ElementKind.ISOTROPIC, LAM), (1, 20),
     "be3557d923ac24e3081873d465af9da4297c057da94ced6f0f4e5ac4844de0bc"),
    (lambda: _grid(5, 5, 0.2), (5, 5),
     "ae9029ff430c958173efcaa62925966c27e0352306cdcc8d0e09f1962bf8a6fb"),
    (lambda: _grid(4, 5, 0.25), (4, 5),
     "01a2c8f215d23be24ef111781d2b1ce9f2e66c0f99e85ee10aaf5734ed9695ca"),
    (lambda: _grid(17, 30, 0.3), (17, 30),
     "4ce5fa28870b5e46bc7199ca801097f74b0dd79a60aef027d7498fe7c58e7531"),
    (lambda: planar_grid(0.5, 0.5, 0.1 * LAM, 0.1 * LAM, ElementKind.PLANAR, LAM), (44, 44),
     "3c6d110f48e6620e88c441c00155be266136c5fce85c94d795c09316ae0a60b2"),
], ids=["line-20", "5x5", "4x5", "17x30", "44x44"])
def test_lattice_positions_from_the_shape_keep_their_frozen_bits(build, shape, digest):
    g = build()
    assert g.shape == shape
    data = np.ascontiguousarray(g.positions, dtype="<f8").tobytes()
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize("build", [
    lambda: linear_array(20, 0.3 * LAM, ElementKind.ISOTROPIC, LAM),
    lambda: _grid(4, 5, 0.25),
    lambda: _grid(17, 30, 0.3),
], ids=["line-20", "4x5", "17x30"])
def test_extended_lattice_coordinates_are_the_exact_centered_products(build):
    g = build()
    n_y, n_z = g.shape
    ar = Precision.extended(256).arithmetic()
    with ar.lock:
        got = g.coordinates(ar.number)

    def exact(x):
        sign, mantissa, exponent, _ = x._mpf_
        return (-1) ** sign * Fraction(mantissa) * Fraction(2) ** exponent

    for (iy, iz), row in zip(g.lattice_indices(), got):
        assert exact(row[0]) == 0
        assert exact(row[1]) == Fraction(2 * int(iy) - (n_y - 1), 2) * Fraction(g.dy)
        assert exact(row[2]) == Fraction(2 * int(iz) - (n_z - 1), 2) * Fraction(g.dz)
    # in double the same function gives the stored positions bit for bit
    assert np.array_equal(g.coordinates(Precision().arithmetic().number), g.positions)


def test_layouts_compare_and_hash_by_value():
    line = linear_array(3, 0.05, ElementKind.ISOTROPIC, 0.1)
    grid = planar_grid(0.2, 0.1, 0.1, 0.1, ElementKind.PLANAR, LAM)
    same = (linear_array(3, 0.05, ElementKind.ISOTROPIC, 0.1),
            planar_grid(0.2, 0.1, 0.1, 0.1, ElementKind.PLANAR, LAM))
    for a, b in zip((line, grid), same):
        assert a == b and hash(a) == hash(b)
        assert a in [b] and b in {a}
    assert line != linear_array(3, 0.06, ElementKind.ISOTROPIC, 0.1)
    assert line != linear_array(3, 0.05, ElementKind.PLANAR, 0.1)
    assert grid != planar_grid(0.2, 0.1, 0.1, 0.05, ElementKind.PLANAR, LAM)
    # a layout is its five fields: a list shape is stored as a tuple of ints
    listed = ArrayGeometry(shape=[3, np.int64(2)], kind=ElementKind.PLANAR, wavelength=LAM,
                           dy=0.1, dz=0.1)
    assert listed == grid and hash(listed) == hash(grid)
    assert type(listed.shape) is tuple and all(type(c) is int for c in listed.shape)
    assert [f.name for f in dataclasses.fields(ArrayGeometry)] == [
        "kind", "wavelength", "shape", "dy", "dz"]
    assert repr(grid) == (f"ArrayGeometry(kind=<ElementKind.PLANAR: 'planar'>, "
                          f"wavelength={LAM!r}, shape=(3, 2), dy=0.1, dz=0.1)")
