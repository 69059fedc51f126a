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
    InvalidGeometryError,
    Precision,
    custom_geometry,
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


def test_custom_geometry_rejects_duplicates():
    with pytest.raises(InvalidGeometryError):
        custom_geometry([[0, 0, 0], [0, 0, 0]], ElementKind.ISOTROPIC, 0.1)


@pytest.mark.parametrize("build", [
    lambda kind: linear_array(2, 0.05, kind, 0.115),
    lambda kind: planar_grid(0.1, 0.1, 0.05, 0.05, kind, 0.115),
    lambda kind: custom_geometry([[0, 0, 0], [0, 0, 0.05]], kind, 0.115),
], ids=["linear", "planar", "custom"])
@pytest.mark.parametrize("kind", ["isotropic", "planar", None])
def test_layouts_refuse_a_kind_that_is_not_an_element_kind(build, kind):
    # a string kind would build Z with the planar kernel and the channel with the isotropic gain
    with pytest.raises(InvalidArgumentError, match="ElementKind"):
        build(kind)


@pytest.mark.parametrize("wavelength", [0.0, float("nan"), -1.0, float("inf")])
def test_custom_geometry_refuses_a_wavelength_that_is_not_positive_and_finite(wavelength):
    with pytest.raises(InvalidArgumentError, match="wavelength"):
        custom_geometry([[0, 0, 0], [0, 0, 0.05]], ElementKind.ISOTROPIC, wavelength)


def test_positions_are_read_only():
    g = linear_array(4, 0.1, ElementKind.ISOTROPIC, 0.1)
    with pytest.raises(ValueError):
        g.positions[0, 2] = 1.0


def test_geometry_distinct_positions_via_custom():
    g = custom_geometry([[0, 0, 0], [0, 0.1, 0], [0, 0, 0.2]], ElementKind.PLANAR, 0.1)
    assert isinstance(g, ArrayGeometry)
    assert g.shape is None
    assert g.dy is None and g.dz is None


def _orbits(images):
    return ImpedanceMatrix(np.eye(len(images)), Precision(), images=images).orbits.tolist()


def test_mirror_images_of_lattices_and_custom_layouts():
    # 3 x 2 grid, element index = iz * 3 + iy: the y mirror swaps iy 0 and 2,
    # the z mirror swaps the two rows
    g = planar_grid(0.2, 0.1, 0.1, 0.1, ElementKind.PLANAR, LAM)
    assert g.lattice_indices().tolist() == [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1]]
    assert g.mirror_images().tolist() == [[0, 2, 3, 5], [1, 1, 4, 4], [2, 0, 5, 3],
                                          [3, 5, 0, 2], [4, 4, 1, 1], [5, 3, 2, 0]]
    assert _orbits(g.mirror_images()) == [[0, 2, 3, 5], [1, 1, 4, 4]]

    line = linear_array(3, 0.1, ElementKind.ISOTROPIC, LAM)
    assert _orbits(line.mirror_images()) == [[0, 0, 2, 2], [1, 1, 1, 1]]

    custom = custom_geometry(g.positions, g.kind, LAM)
    assert custom.mirror_images().tolist() == [[k] * 4 for k in range(6)]
    assert _orbits(custom.mirror_images()) == [[k] * 4 for k in range(6)]


def test_a_lattice_layout_needs_its_pitches():
    g = linear_array(3, 0.05, ElementKind.ISOTROPIC, LAM)
    for pitches in ({}, {"dy": g.dy}, {"dz": g.dz}):
        with pytest.raises(InvalidArgumentError, match="pitches"):
            ArrayGeometry(shape=g.shape, kind=g.kind, wavelength=LAM, **pitches)


def test_a_layout_is_either_a_lattice_shape_or_explicit_positions():
    g = linear_array(3, 0.05, ElementKind.ISOTROPIC, LAM)
    for layout in ({"shape": g.shape, "positions": g.positions.copy()}, {}):
        with pytest.raises(InvalidArgumentError, match="exactly one"):
            ArrayGeometry(kind=g.kind, wavelength=LAM, dy=g.dy, dz=g.dz, **layout)


@pytest.mark.parametrize("shape", [(0, 3), (3,), (2.0, 3), (2, 3, 1)])
def test_a_lattice_shape_is_two_positive_integers(shape):
    with pytest.raises(InvalidArgumentError, match="two positive integers"):
        ArrayGeometry(shape=shape, kind=ElementKind.ISOTROPIC, wavelength=LAM, dy=0.1, dz=0.1)


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
    custom = custom_geometry([[0, 0, 0], [0, 0, 0.05]], ElementKind.ISOTROPIC, 0.1)
    same = (linear_array(3, 0.05, ElementKind.ISOTROPIC, 0.1),
            planar_grid(0.2, 0.1, 0.1, 0.1, ElementKind.PLANAR, LAM),
            custom_geometry([[0, 0, 0], [0, 0, 0.05]], ElementKind.ISOTROPIC, 0.1))
    for a, b in zip((line, grid, custom), same):
        assert a == b and hash(a) == hash(b)
        assert a in [b] and b in {a}
    assert line != linear_array(3, 0.06, ElementKind.ISOTROPIC, 0.1)
    assert line != linear_array(3, 0.05, ElementKind.PLANAR, 0.1)
    assert grid != planar_grid(0.2, 0.1, 0.1, 0.05, ElementKind.PLANAR, LAM)
    assert custom != custom_geometry([[0, 0, 0], [0, 0, 0.06]], ElementKind.ISOTROPIC, 0.1)
    # a custom layout on a lattice's positions is not that lattice
    assert custom_geometry(line.positions, line.kind, 0.1) != line
