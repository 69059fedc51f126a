import numpy as np
import pytest

from lissim import (
    SPEED_OF_LIGHT,
    ArrayGeometry,
    CapacityError,
    DomainError,
    ElementKind,
    InvalidArgumentError,
    InvalidGeometryError,
    custom_geometry,
    departure_angle,
    distance,
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
    assert g.aperture_per_element == pytest.approx((LAM / 2) ** 2)


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


def test_wavenumber_is_derived():
    g = linear_array(3, 0.1, ElementKind.ISOTROPIC, 0.25)
    assert g.wavenumber * g.wavelength == pytest.approx(2.0 * np.pi, rel=0, abs=0)


def test_distance_basics():
    assert distance([10, 0, 0], [0, 0, 0]) == 10.0
    assert distance([3, 4, 0], [0, 0, 0]) == 5.0
    assert distance([1.5, -2.0, 7.0], [1.5, -2.0, 7.0]) == 0.0


def test_distance_is_a_metric_on_sampled_triples():
    rng = np.random.default_rng(7)
    for _ in range(200):
        a, b, c = rng.normal(scale=5.0, size=(3, 3))
        dab, dbc, dac = distance(a, b), distance(b, c), distance(a, c)
        assert dab >= 0.0
        assert dab == distance(b, a)
        assert dac <= dab + dbc + 1e-12 * max(dab + dbc, 1.0)


def test_departure_angle_reference_directions():
    assert departure_angle([10, 0, 0], [0, 0, 0]) == 0.0
    assert departure_angle([0, 5, 0], [0, 0, 0]) == pytest.approx(np.pi / 2, rel=1e-15)
    assert departure_angle([1, 1, 0], [0, 0, 0]) == pytest.approx(np.pi / 4, rel=1e-15)


def test_departure_angle_rejects_coincident_points():
    with pytest.raises(DomainError):
        departure_angle([1, 2, 3], [1, 2, 3])


def test_custom_geometry_rejects_duplicates():
    with pytest.raises(InvalidGeometryError):
        custom_geometry([[0, 0, 0], [0, 0, 0]], ElementKind.ISOTROPIC, 0.1, 0.1, 0.1)


def test_positions_are_read_only():
    g = linear_array(4, 0.1, ElementKind.ISOTROPIC, 0.1)
    with pytest.raises(ValueError):
        g.positions[0, 2] = 1.0


def test_geometry_distinct_positions_via_custom():
    g = custom_geometry([[0, 0, 0], [0, 0.1, 0], [0, 0, 0.2]],
                        ElementKind.PLANAR, 0.1, 0.1, 0.1)
    assert isinstance(g, ArrayGeometry)
    assert g.lattice_indices is None


def test_mirror_orbits_of_lattices_and_custom_layouts():
    # 3 x 2 grid, element index = iz * 3 + iy: the y mirror swaps iy 0 and 2,
    # the z mirror swaps the two rows
    g = planar_grid(0.2, 0.1, 0.1, 0.1, ElementKind.PLANAR, LAM)
    assert g.lattice_indices.tolist() == [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1]]
    assert g.mirror_orbits().tolist() == [[0, 2, 3, 5], [1, 1, 4, 4]]

    line = linear_array(3, 0.1, ElementKind.ISOTROPIC, LAM)
    assert line.mirror_orbits().tolist() == [[0, 0, 2, 2], [1, 1, 1, 1]]

    custom = custom_geometry(g.positions, g.kind, g.dy, g.dz, LAM)
    assert custom.mirror_orbits().tolist() == [[k] * 4 for k in range(6)]

    # an L-shaped lattice maps onto itself under neither mirror
    ell = ArrayGeometry(positions=g.positions[:4].copy(), kind=g.kind, dy=g.dy, dz=g.dz,
                        aperture_per_element=g.aperture_per_element, wavelength=LAM,
                        lattice_indices=g.lattice_indices[:4].copy())
    assert ell.mirror_orbits().tolist() == [[k] * 4 for k in range(4)]
