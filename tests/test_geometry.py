import numpy as np
import pytest

from lissim import (
    SPEED_OF_LIGHT,
    ArrayGeometry,
    CapacityError,
    ElementKind,
    InvalidArgumentError,
    InvalidGeometryError,
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
    assert g.lattice_indices is None
    assert g.dy is None and g.dz is None


def test_mirror_orbits_of_lattices_and_custom_layouts():
    # 3 x 2 grid, element index = iz * 3 + iy: the y mirror swaps iy 0 and 2,
    # the z mirror swaps the two rows
    g = planar_grid(0.2, 0.1, 0.1, 0.1, ElementKind.PLANAR, LAM)
    assert g.lattice_indices.tolist() == [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1]]
    assert g.mirror_orbits().tolist() == [[0, 2, 3, 5], [1, 1, 4, 4]]

    line = linear_array(3, 0.1, ElementKind.ISOTROPIC, LAM)
    assert line.mirror_orbits().tolist() == [[0, 0, 2, 2], [1, 1, 1, 1]]

    custom = custom_geometry(g.positions, g.kind, LAM)
    assert custom.mirror_orbits().tolist() == [[k] * 4 for k in range(6)]

    # an L-shaped lattice maps onto itself under neither mirror
    ell = ArrayGeometry(positions=g.positions[:4].copy(), kind=g.kind, dy=g.dy, dz=g.dz,
                        wavelength=LAM, lattice_indices=g.lattice_indices[:4].copy())
    assert ell.mirror_orbits().tolist() == [[k] * 4 for k in range(4)]


def test_a_lattice_layout_needs_its_pitches():
    g = linear_array(3, 0.05, ElementKind.ISOTROPIC, LAM)
    for pitches in ({}, {"dy": g.dy}, {"dz": g.dz}):
        with pytest.raises(InvalidArgumentError, match="pitches"):
            ArrayGeometry(positions=g.positions.copy(), kind=g.kind, wavelength=LAM,
                          lattice_indices=g.lattice_indices.copy(), **pitches)
