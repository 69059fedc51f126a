import math

import mpmath
import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve
from scipy.spatial.distance import cdist

from lissim import (
    SPEED_OF_LIGHT,
    ArrayGeometry,
    CapacityError,
    ElementKind,
    EmptySpectrumError,
    FieldModel,
    ImpedanceMatrix,
    InvalidArgumentError,
    InvalidGeometryError,
    Precision,
    channel_for,
    channel_isotropic,
    condition_number,
    custom_geometry,
    impedance,
    linear_array,
    planar_grid,
    quadratic_form,
    radiated_power_quadrature,
    rank_truncated_inverse,
    snr,
    solve,
    sym_eig,
    truncated_inverse,
    write_matrix_text,
)
from lissim import coupling
from lissim.errors import IllConditionedSolveError, LisSimError

LAM = SPEED_OF_LIGHT / 2.6e9
EXT = Precision.extended(256)

# 20-element linear isotropic array at 0.3 lambda: spectrum frozen from the
# 256-bit Jacobi eigensolve (numpy's eigh agrees to ~2e-5 on the smallest value)
EIG_03LAM_ISO = [
    1.6666666666666667,
    1.6666666666666659,
    1.6666666666665402,
    1.6666666666544625,
    1.6666666658667904,
    1.6666666290295038,
    1.666665357203396,
    1.666632526332875,
    1.666000062926693,
    1.6571377003368812,
    1.574913033586225,
    1.181825463091758,
    0.4860643918812611,
    0.09105854437905031,
    0.009094699125040812,
    0.000582333819750171,
    2.519742289034562e-05,
    7.161374054866396e-07,
    1.21134913814479e-08,
    9.265285704344006e-11,
]
KAPPA_03LAM_ISO_EXT = 17988292210.84088
RETAINED_ABOVE_1E9 = 19


def _direct(entries, kind=ElementKind.ISOTROPIC):
    return ImpedanceMatrix(np.asarray(entries, dtype=float), kind, Precision())


def _ext_array(ctx, values):
    """An object array of the context's numbers, the extended form of a matrix or vector."""
    return np.vectorize(ctx.mpf, otypes=[object])(values)


def _mp(ctx, a):
    """An object array as an mpmath matrix (a column for a vector), for mpmath's own oracles."""
    return ctx.matrix(a.tolist())


def _mp_residual(ctx, Z, x, h):
    """``||h - Z x||`` with mpmath's matrix product, one rounding per entry."""
    return ctx.norm(_mp(ctx, h) - _mp(ctx, Z.entries) * _mp(ctx, x))


def geom_linear(n=20, frac=0.3, kind=ElementKind.ISOTROPIC):
    return linear_array(n, frac * LAM, kind, LAM)


def test_single_element_diagonals():
    z_iso = impedance(linear_array(1, 0.1, ElementKind.ISOTROPIC, LAM))
    assert z_iso.entries[0, 0] == 1.0
    z_pla = impedance(linear_array(1, 0.1, ElementKind.PLANAR, LAM))
    assert z_pla.entries[0, 0] == 0.5


def test_half_wavelength_linear_is_identity():
    Z = impedance(geom_linear(frac=0.5))
    assert np.max(np.abs(Z.entries - np.eye(20))) <= 1e-14


def test_entries_symmetric_and_kernel_maximal_on_diagonal():
    for kind in ElementKind:
        Z = impedance(planar_grid(0.4, 0.4, 0.07, 0.09, kind, LAM))
        assert np.array_equal(Z.entries, Z.entries.T)
        diag = np.diag(Z.entries)
        assert np.all(np.abs(Z.entries) <= diag[:, None] + 1e-15)
        expected = 1.0 if kind is ElementKind.ISOTROPIC else 0.5
        assert np.all(diag == expected)


def test_positive_semidefinite_up_to_roundoff():
    for kind in ElementKind:
        for frac in (0.2, 0.35, 0.7):
            Z = impedance(geom_linear(12, frac, kind))
            w = np.linalg.eigvalsh(Z.entries)
            assert w.min() >= -1e-10 * w.max()


def test_duplicate_positions_rejected():
    pos = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.1]])
    geom = ArrayGeometry(positions=pos, kind=ElementKind.ISOTROPIC, dy=0.1, dz=0.1,
                         aperture_per_element=0.0, wavelength=0.1)
    with pytest.raises(InvalidGeometryError):
        impedance(geom)


def test_sym_eig_identity_and_rank_one():
    s, U = sym_eig(_direct(np.eye(4)))
    np.testing.assert_allclose(s, np.ones(4))
    assert np.max(np.abs(U.T @ U - np.eye(4))) <= 1e-12

    s2, _ = sym_eig(_direct([[1.0, 1.0], [1.0, 1.0]]))
    np.testing.assert_allclose(s2, [2.0, 0.0], atol=1e-15)


def test_sym_eig_reconstruction_and_orthonormality():
    Z = impedance(geom_linear())
    s, U = sym_eig(Z)
    assert np.all(np.diff(s) <= 0)
    recon = (U * s) @ U.T
    scale = np.max(np.abs(Z.entries))
    assert np.max(np.abs(recon - Z.entries)) <= 1e-12 * scale
    assert np.max(np.abs(U.T @ U - np.eye(20))) <= 1e-12


def test_eigen_profile_regression_double():
    s, _ = sym_eig(impedance(geom_linear()))
    np.testing.assert_allclose(s, EIG_03LAM_ISO, rtol=5e-4)
    assert s[0] / s[-1] > 1e10


def test_eigen_profile_regression_extended():
    s, U = sym_eig(impedance(geom_linear(), EXT))
    np.testing.assert_allclose([float(v) for v in s], EIG_03LAM_ISO, rtol=1e-12)
    # orthonormality at working precision
    U = _mp(EXT.context(), U)
    gram = U.T * U
    gram_err = max(abs(gram[i, j] - (1 if i == j else 0))
                   for i in range(20) for j in range(20))
    assert float(gram_err) < 1e-70


def test_condition_number_reference_cases():
    assert condition_number(_direct(np.eye(5))) == 1.0
    assert condition_number(impedance(geom_linear(frac=0.5))) == pytest.approx(1.0, abs=1e-9)
    kappa = condition_number(impedance(geom_linear()))
    assert kappa == pytest.approx(KAPPA_03LAM_ISO_EXT, rel=1e-3)


def test_condition_number_extended_regression():
    kappa = condition_number(impedance(geom_linear(), EXT))
    assert kappa == pytest.approx(KAPPA_03LAM_ISO_EXT, rel=1e-10)


def test_condition_number_infinity_sentinel():
    assert condition_number(_direct(np.diag([1.0, 0.0]))) == np.inf
    with pytest.raises(InvalidArgumentError):
        condition_number(_direct(np.zeros((2, 2))))


def test_monotone_conditioning_as_spacing_shrinks():
    # strictly increasing kappa through 0.5 .. 0.3 lambda already at double
    fracs = [0.5, 0.45, 0.4, 0.35, 0.3]
    kappas = [condition_number(impedance(geom_linear(frac=f))) for f in fracs]
    assert all(b > a for a, b in zip(kappas, kappas[1:]))


def test_truncated_inverse_identity_and_diag():
    np.testing.assert_allclose(truncated_inverse(_direct(np.eye(3)), 1e-9), np.eye(3))
    got = truncated_inverse(_direct(np.diag([4.0, 1e-12])), 1e-9)
    np.testing.assert_allclose(got, np.diag([0.25, 0.0]), atol=1e-15)


def test_truncated_inverse_retained_count_regression():
    Z = impedance(geom_linear())
    s, _ = sym_eig(Z)
    assert int(np.sum(s > 1e-9)) == RETAINED_ABOVE_1E9
    pinv = truncated_inverse(Z, 1e-9)
    # retained subspace acts as the inverse: Z pinv Z == Z on that subspace
    assert np.linalg.matrix_rank(pinv, tol=1e-12 * np.max(np.abs(pinv))) <= RETAINED_ABOVE_1E9


def test_truncated_inverse_zero_threshold_equals_inverse():
    Z = impedance(geom_linear(8, 0.6))
    pinv = truncated_inverse(Z, 0.0)
    assert np.max(np.abs(pinv @ Z.entries - np.eye(8))) <= 1e-10


def test_truncation_nesting_is_psd():
    Z = impedance(geom_linear())
    for t1, t2 in [(0.0, 1e-9), (1e-9, 1e-4), (1e-7, 1e-2)]:
        delta = truncated_inverse(Z, t1) - truncated_inverse(Z, t2)
        w = np.linalg.eigvalsh(delta)
        assert w.min() >= -1e-8 * max(w.max(), 1.0)


def test_truncated_inverse_empty_spectrum():
    Z = impedance(geom_linear(6, 0.5))
    with pytest.raises(EmptySpectrumError):
        truncated_inverse(Z, 10.0)
    with pytest.raises(InvalidArgumentError):
        truncated_inverse(Z, -1.0)


def test_rank_truncated_inverse_matches_threshold_form():
    Z = impedance(geom_linear())
    s, _ = sym_eig(Z)
    by_rank = rank_truncated_inverse(Z, RETAINED_ABOVE_1E9)
    by_threshold = truncated_inverse(Z, 1e-9)
    np.testing.assert_allclose(by_rank, by_threshold, atol=1e-12 * np.max(np.abs(by_rank)))
    with pytest.raises(InvalidArgumentError):
        rank_truncated_inverse(Z, 0)
    with pytest.raises(InvalidArgumentError):
        rank_truncated_inverse(Z, 21)


def _assert_rank_solves_are_the_rank_truncated_solves(Z, h):
    currents = coupling._rank_solves(Z, h)
    assert len(currents) == Z.n
    for m, current in enumerate(currents, start=1):
        expected = coupling.rank_truncated_solve(Z, h, m)
        assert all(current[r] == expected[r] for r in range(Z.n))


@pytest.mark.parametrize("precision", [Precision(), EXT])
def test_rank_solves_are_the_rank_truncated_solves_bit_for_bit(precision):
    geom = geom_linear(frac=0.1)
    _assert_rank_solves_are_the_rank_truncated_solves(
        impedance(geom, precision), channel_isotropic(geom, [10.0, 1.3, 0.0], precision))


def test_rank_solves_past_the_last_nonzero_eigenvalue_repeat_it():
    precision = Precision.extended(128)
    ctx = precision.context()
    Z = ImpedanceMatrix(_ext_array(ctx, [[1, 1], [1, 1]]), ElementKind.ISOTROPIC, precision)
    assert sym_eig(Z)[0][1] == 0
    _assert_rank_solves_are_the_rank_truncated_solves(
        Z, np.array([ctx.mpf(1), ctx.mpf(1) / 3], dtype=object))


def test_solve_trivial_and_scaled_identity():
    h = np.array([1.0 + 2.0j, -0.5j, 3.0])
    assert np.allclose(solve(_direct(np.eye(3)), h), h)
    assert np.allclose(solve(_direct(2.0 * np.eye(3)), h), h / 2.0)


def test_solve_residual_contract_on_ill_conditioned_matrix():
    geom = geom_linear()
    Z = impedance(geom)
    h = channel_isotropic(geom, [10.0, 0.0, 0.0])
    x = solve(Z, h)
    res = np.linalg.norm(Z.entries @ x - h) / np.linalg.norm(h)
    assert res <= 1e-8


def test_solve_precision_mismatch_rejected():
    Z = impedance(geom_linear(6, 0.5))
    h = channel_isotropic(linear_array(6, 0.5 * LAM, ElementKind.ISOTROPIC, LAM), [10, 0, 0])
    with pytest.raises(InvalidArgumentError):
        solve(Z, h, Precision.extended(128))


def test_solve_extended_succeeds_where_double_degrades():
    # 0.1 lambda: kappa ~ 1e30, far past double's dynamic range
    geom = geom_linear(frac=0.1)
    Z_ext = impedance(geom, EXT)
    h_ext = channel_isotropic(geom, [10.0, 0.0, 0.0], EXT)
    x = solve(Z_ext, h_ext)
    ctx = EXT.context()
    res = _mp_residual(ctx, Z_ext, x, h_ext) / ctx.norm(h_ext)
    assert float(res) <= 1e-8
    snr_ext = snr(x, Z_ext, h_ext)

    Z_d = impedance(geom)
    h_d = channel_isotropic(geom, [10.0, 0.0, 0.0])
    try:
        snr_d = snr(solve(Z_d, h_d), Z_d, h_d)
        deviation = abs(snr_d - snr_ext) / snr_ext
    except (IllConditionedSolveError, LisSimError):
        deviation = np.inf
    assert deviation > 0.10  # double either fails outright or is badly off


def _refined_lu_solve(ctx, A, h):
    """mpmath's lu_solve with one refinement step, the smaller residual kept."""
    x0 = ctx.lu_solve(A, h)
    x1 = x0 + ctx.lu_solve(A, h - A * x0)
    return min((x0, x1), key=lambda x: ctx.norm(h - A * x))


def test_solve_extended_factors_once_and_matches_lu_solve(monkeypatch):
    # a custom layout has one orbit per element: the solve factors the whole Z
    line = geom_linear(frac=0.3)
    geom = custom_geometry(line.positions, line.kind, line.dy, line.dz, LAM)
    Z = impedance(geom, EXT)
    h = channel_isotropic(geom, [10.0, 0.0, 0.0], EXT)
    ctx = EXT.context()
    expected = _refined_lu_solve(ctx, _mp(ctx, Z.entries), _mp(ctx, h))

    calls = []
    factor = coupling._crout_factor

    def counting_factor(ctx, block):
        calls.append(1)
        return factor(ctx, block)

    monkeypatch.setattr(coupling, "_crout_factor", counting_factor)
    x = solve(Z, h)
    assert len(calls) == 1
    # a different elimination order: the same bound as the sector solves below
    assert ctx.norm(_mp(ctx, x) - expected) <= 1e-60 * ctx.norm(expected)


def test_crout_factor_reconstructs_the_even_block_at_a_fifth_wavelength():
    pitch = 0.2 * LAM
    geom = planar_grid(10 * pitch, 10 * pitch, pitch, pitch, ElementKind.PLANAR, LAM)
    Z = impedance(geom, EXT)
    block = Z._sectors[0].block(Z.entries)
    n = len(block)
    assert n == 36
    ctx = EXT.context()
    perm, lower, upper = coupling._crout_factor(ctx, block)
    assert sorted(perm) == list(range(n))
    assert all(abs(v) <= 1 for row in lower for v in row)  # partial pivoting
    with ctx.extraprec(512):  # the products of the factors, exactly
        err = max(abs(block[perm[i]][j]
                      - ctx.fdot([*lower[i], 1][:min(i, j) + 1],
                                 [upper[k][j - k] for k in range(min(i, j) + 1)]))
                  for i in range(n) for j in range(n))
    eps = ctx.mpf(2) ** (1 - ctx.prec)
    assert err <= 4 * eps * max(abs(v) for v in block.ravel())


@pytest.mark.parametrize("terminal", [(10.0, 0.0, 0.0), (10.0, 1.3, -0.7)])
def test_solve_extended_is_no_farther_from_a_640_bit_solve_than_lu_solve(terminal):
    # the 20-element line at 0.1 wavelength, kappa about 1e30
    geom = geom_linear(frac=0.1)
    Z = impedance(geom, EXT)
    h = channel_for(geom, terminal, EXT)
    ctx = EXT.context()
    x = solve(Z, h)
    refined = _refined_lu_solve(ctx, _mp(ctx, Z.entries), _mp(ctx, h))
    wide = mpmath.MPContext()
    wide.prec = 640
    exact = wide.lu_solve(wide.matrix(Z.entries.tolist()), wide.matrix(h.tolist()))

    def distance(v):
        return wide.norm(wide.matrix(v.tolist()) - exact)

    assert distance(x) <= distance(refined)


def _axis_sector_sizes(count):
    # even and odd mirror vectors along one axis of `count` lattice points
    return {1: (count + 1) // 2, -1: count // 2}


@pytest.fixture
def factored_sizes(monkeypatch):
    """Sizes of the matrices the extended LU factors, in call order."""
    sizes = []
    factor = coupling._crout_factor

    def recording_factor(ctx, block):
        sizes.append(len(block))
        return factor(ctx, block)

    monkeypatch.setattr(coupling, "_crout_factor", recording_factor)
    return sizes


@pytest.mark.parametrize("n_y,n_z", [(4, 5), (5, 3), (4, 4), (1, 7)])
@pytest.mark.parametrize("kind", list(ElementKind))
@pytest.mark.parametrize("terminal", [(10.0, 0.0, 0.0), (10.0, 1.3, 0.0), (10.0, 1.3, -0.7)])
def test_solve_extended_in_parity_sectors_matches_lu_solve(factored_sizes, n_y, n_z, kind,
                                                           terminal):
    pitch = 0.3 * LAM
    if n_y == 1:
        geom = linear_array(n_z, pitch, kind, LAM)
    else:
        geom = planar_grid((n_y - 1) * pitch, (n_z - 1) * pitch, pitch, pitch, kind, LAM)
    assert geom.n == n_y * n_z
    Z = impedance(geom, EXT)
    h = channel_for(geom, terminal, EXT)
    ctx = EXT.context()

    # a terminal off an axis excites the odd parity along that axis too
    y_parities = (1, -1) if terminal[1] != 0 else (1,)
    z_parities = (1, -1) if terminal[2] != 0 else (1,)
    sizes_y, sizes_z = _axis_sector_sizes(n_y), _axis_sector_sizes(n_z)
    expected = [sizes_y[py] * sizes_z[pz]
                for pz in (1, -1) for py in (1, -1)
                if py in y_parities and pz in z_parities and sizes_y[py] * sizes_z[pz]]

    x = solve(Z, h)
    assert factored_sizes == expected

    reference = ctx.lu_solve(_mp(ctx, Z.entries), _mp(ctx, h))
    assert ctx.norm(_mp(ctx, x) - reference) <= 1e-60 * ctx.norm(reference)
    assert _mp_residual(ctx, Z, x, h) <= 1e-8 * ctx.norm(h)


def test_solve_extended_broadside_factors_only_the_even_sector(factored_sizes):
    pitch = 0.25 * LAM
    geom = planar_grid(10 * pitch, 10 * pitch, pitch, pitch, ElementKind.PLANAR, LAM)
    Z = impedance(geom, EXT)
    h = channel_for(geom, [10.0, 0.0, 0.0], EXT)
    ctx = EXT.context()
    x = solve(Z, h)
    assert geom.n == 121
    assert factored_sizes == [36]
    assert _mp_residual(ctx, Z, x, h) <= 1e-8 * ctx.norm(h)


def test_solve_extended_refusal_estimates_kappa_from_the_factors(monkeypatch):
    pitch = 0.15 * LAM
    geom = planar_grid(3 * pitch, 4 * pitch, pitch, pitch, ElementKind.PLANAR, LAM)
    Z = impedance(geom, EXT)
    h = channel_for(geom, [10.0, 1.3, -0.7], EXT)

    def no_eigensolver(*args, **kwargs):
        raise AssertionError("the refusal must not run the eigensolver")

    monkeypatch.setattr(coupling, "_SOLVE_RESIDUAL_RTOL", 0.0)
    monkeypatch.setattr(coupling, "_jacobi_eigh", no_eigensolver)
    with pytest.raises(IllConditionedSolveError) as info:
        solve(Z, h)
    monkeypatch.undo()
    err = info.value
    assert 0.0 < err.residual <= 1e-60
    kappa = condition_number(Z)
    assert kappa / Z.n <= err.kappa_estimate <= kappa * Z.n


def test_exactly_singular_z_is_refused_in_double():
    Z = _direct([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(IllConditionedSolveError) as info:
        solve(Z, np.array([1.0, 0.0]))
    assert info.value.residual == math.inf
    assert info.value.kappa_estimate == math.inf


def test_exactly_singular_z_is_refused_at_a_zero_pivot_in_extended_precision():
    precision = Precision.extended(128)
    ctx = precision.context()
    Z = ImpedanceMatrix(_ext_array(ctx, [[1, 1], [1, 1]]), ElementKind.ISOTROPIC, precision)
    with pytest.raises(IllConditionedSolveError) as info:
        solve(Z, ctx.matrix([1, 0]))  # an mpmath column is read as the object vector
    assert info.value.residual == math.inf
    assert info.value.kappa_estimate == math.inf


def test_impedance_matrix_refuses_entries_that_are_not_a_square_array():
    ctx = EXT.context()
    for entries in (ctx.matrix([[1, 0], [0, 1]]), [[1.0, 0.0], [0.0, 1.0]], np.ones((2, 3)),
                    np.ones(4)):
        with pytest.raises(InvalidArgumentError, match="square numpy array"):
            ImpedanceMatrix(entries, ElementKind.ISOTROPIC, EXT)


@pytest.mark.parametrize("precision", [Precision(), EXT], ids=["double", "ext"])
def test_solve_refuses_a_right_hand_side_not_of_its_arithmetic_or_length(precision):
    geom = geom_linear(3, 0.3)
    Z = impedance(geom, precision)
    h = channel_isotropic(geom, [10.0, 0.0, 0.0], precision)
    other_arithmetic = np.ones(3, dtype=float if precision.is_extended else object)
    for rhs in (other_arithmetic, h[:2], h[:, None]):
        with pytest.raises(InvalidArgumentError, match="right-hand side"):
            solve(Z, rhs)


def _lattice(n_y, n_z, frac, kind):
    pitch = frac * LAM
    if n_y == 1:
        return linear_array(n_z, pitch, kind, LAM)
    return planar_grid((n_y - 1) * pitch, (n_z - 1) * pitch, pitch, pitch, kind, LAM)


def _mirror_sector_sizes(n_y, n_z):
    sizes_y, sizes_z = _axis_sector_sizes(n_y), _axis_sector_sizes(n_z)
    return sorted(sizes_y[py] * sizes_z[pz] for py in (1, -1) for pz in (1, -1)
                  if sizes_y[py] * sizes_z[pz])


@pytest.mark.parametrize("n_y,n_z", [(5, 5), (4, 6), (11, 11), (1, 12)])
@pytest.mark.parametrize("kind", list(ElementKind))
def test_double_sector_eigh_matches_dense_eigh_orthonormal_and_reconstructs_z(
        monkeypatch, n_y, n_z, kind):
    geom = _lattice(n_y, n_z, 0.3, kind)
    Z = impedance(geom)
    dense = np.linalg.eigvalsh(Z.entries)[::-1]
    block_sizes = []
    eigh = np.linalg.eigh

    def recording_eigh(a, *args, **kwargs):
        block_sizes.append(a.shape[0])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    s, U = sym_eig(Z)
    monkeypatch.undo()
    assert sorted(block_sizes) == _mirror_sector_sizes(n_y, n_z)
    assert np.all(np.diff(s) <= 0)
    assert np.max(np.abs(s - dense)) <= 1e-13 * s[0]
    assert np.max(np.abs(U.T @ U - np.eye(geom.n))) <= 1e-12
    assert np.max(np.abs((U * s) @ U.T - Z.entries)) <= 1e-12 * np.max(np.abs(Z.entries))


@pytest.mark.parametrize("n_y,n_z,kind", [(3, 4, ElementKind.PLANAR),
                                          (1, 9, ElementKind.ISOTROPIC),
                                          (1, 15, ElementKind.ISOTROPIC)])
def test_extended_sector_jacobi_matches_full_jacobi_at_256_bits(n_y, n_z, kind):
    geom = _lattice(n_y, n_z, 0.2, kind)
    Z = impedance(geom, EXT)
    ctx = EXT.context()
    s, U = sym_eig(Z)
    with coupling.MP_LOCK:
        full, _ = coupling._jacobi_eigh(ctx, Z.entries)
    assert len(Z.orbits) < geom.n  # the layout has mirror orbits to split on
    assert max(abs(a - b) for a, b in zip(s, full)) <= 1e-60 * full[0]
    U = _mp(ctx, U)
    gram = U.T * U - ctx.eye(geom.n)
    assert max(abs(gram[i, j]) for i in range(geom.n) for j in range(geom.n)) <= 1e-70
    recon = U * ctx.diag(s) * U.T - _mp(ctx, Z.entries)
    assert max(abs(recon[i, j]) for i in range(geom.n) for j in range(geom.n)) <= 1e-60


@pytest.mark.parametrize("kind", list(ElementKind))
def test_extended_eigenvalues_are_relatively_accurate_on_the_tenth_wavelength_line(kind):
    # kappa is about 1e30 here; each 256-bit sector block's spectrum is
    # compared with mpmath's eigsy of the same block at 640 bits, whose
    # absolute error (about 1e-190) is far below 1e-60 of the smallest
    # eigenvalue (about 1e-30)
    Z = impedance(geom_linear(frac=0.1, kind=kind), EXT)
    ctx = EXT.context()
    ref = Precision.extended(640).context()
    for sector in Z._sectors:
        block = sector.block(Z.entries)
        with coupling.MP_LOCK:
            values, _ = coupling._jacobi_eigh(ctx, block)
            exact, _ = ref.eigsy(ref.matrix(block.tolist()))
            exact = sorted((exact[k] for k in range(exact.rows)), reverse=True)
            assert exact[-1] < 1e-25 * exact[0]
            assert max(abs(a - b) / b for a, b in zip(values, exact)) <= 1e-60


def test_extended_half_wavelength_isotropic_line_keeps_the_unit_start(monkeypatch):
    # Z is the identity to 256 bits and its spectrum degenerate: the double
    # basis is never formed, and each block's spectrum and eigenvectors are
    # those of the sweeps run from the unit basis, bit for bit
    Z = impedance(geom_linear(frac=0.5), EXT)
    ctx = EXT.context()

    def no_double_basis(*args):
        raise AssertionError("an already diagonal block must keep the unit start")

    monkeypatch.setattr(coupling, "_double_basis", no_double_basis)
    s, _ = sym_eig(Z)
    assert all(abs(v - 1) < 1e-70 for v in s)
    with coupling.MP_LOCK:
        for sector in Z._sectors:
            block = sector.block(Z.entries)
            values, vectors = coupling._jacobi_eigh(ctx, block)
            rows = [list(row) for row in block.tolist()]
            n = len(rows)
            unit = [[ctx.one if i == j else ctx.zero for j in range(n)] for i in range(n)]
            norm = ctx.sqrt(ctx.fsum(x * x for row in rows for x in row))
            unit_values, unit_vectors = coupling._jacobi_sweeps(ctx, rows, unit, norm)
            assert values == unit_values
            assert np.array_equal(vectors, unit_vectors)


@pytest.mark.parametrize("geom", [
    planar_grid(0.5, 0.5, 0.3 * LAM, 0.3 * LAM, ElementKind.ISOTROPIC, LAM),
    planar_grid(0.5, 0.5, 0.15 * LAM, 0.15 * LAM, ElementKind.PLANAR, LAM),
    planar_grid(0.3, 0.5, 0.05, 0.04, ElementKind.ISOTROPIC, LAM),
    planar_grid(0.4, 0.4, 0.07, 0.09, ElementKind.PLANAR, LAM),
    linear_array(15, 0.2 * LAM, ElementKind.PLANAR, LAM),
], ids=["iso-0.3", "planar-0.15", "iso-rect", "planar-aniso", "line"])
def test_offset_table_build_is_mirror_invariant_and_matches_cdist_build(geom):
    Z = impedance(geom).entries
    orbits = geom.mirror_orbits()
    assert len(orbits) < geom.n  # some mirror moves elements
    # the mirrors (identity, y, z, both) compose like the bits of their column index
    for mirror in range(1, 4):
        perm = np.empty(geom.n, dtype=int)
        for image in range(4):
            perm[orbits[:, image]] = orbits[:, image ^ mirror]
        assert np.array_equal(Z[np.ix_(perm, perm)], Z)
    assert np.array_equal(Z, Z.T)
    by_distance = coupling._kernel_double(
        geom.kind, geom.wavenumber * cdist(geom.positions, geom.positions))
    assert np.max(np.abs(Z - by_distance)) <= 4 * np.spacing(1.0)


@pytest.fixture
def double_factored_sizes(monkeypatch):
    """Sizes of the matrices the double LU factors, in call order."""
    sizes = []
    factor = coupling._lu_factor_double

    def recording_factor(block):
        sizes.append(block.shape[0])
        return factor(block)

    monkeypatch.setattr(coupling, "_lu_factor_double", recording_factor)
    return sizes


def test_double_sector_solve_factors_one_block_of_36_on_11x11_broadside(
        double_factored_sizes, monkeypatch):
    geom = _lattice(11, 11, 0.25, ElementKind.PLANAR)
    Z = impedance(geom)
    h = channel_for(geom, [10.0, 0.0, 0.0])
    x = solve(Z, h)
    assert geom.n == 121
    assert double_factored_sizes == [36]
    full_residual = np.linalg.norm(h - Z.entries @ x) / np.linalg.norm(h)
    assert full_residual <= 1e-8
    # the contract is judged on the full Z: a refusal reports exactly that residual
    monkeypatch.setattr(coupling, "_SOLVE_RESIDUAL_RTOL", 0.0)
    with pytest.raises(IllConditionedSolveError) as info:
        solve(Z, h)
    assert info.value.residual == full_residual


def test_double_solve_refuses_a_residual_below_the_rounding_error_of_z_x():
    # x = (2^40 + 1, -2^40) solves this system exactly and its computed
    # residual is 0, but a residual formed in double is only known to
    # about eps |Z| |x|, here 7e-4 of ||h||: it cannot show 1e-8
    Z = _direct([[1.0, 1.0], [1.0, 1.0 + 2.0 ** -40]])
    h = np.array([1.0, 0.0])
    with pytest.raises(IllConditionedSolveError) as info:
        solve(Z, h)
    assert info.value.residual == 0.0
    # a well-conditioned system of the same form is solved exactly
    x = solve(_direct([[1.0, 1.0], [1.0, 1.5]]), h)
    assert np.array_equal(x, [3.0, -2.0])


@pytest.mark.parametrize("terminal", [(10.0, 1.3, 0.0), (10.0, 1.3, -0.7)])
def test_double_sector_solve_factors_each_excited_sector_and_matches_dense(
        double_factored_sizes, terminal):
    n_y, n_z = 4, 5
    geom = _lattice(n_y, n_z, 0.3, ElementKind.ISOTROPIC)
    Z = impedance(geom)
    h = channel_for(geom, terminal)
    x = solve(Z, h)
    sizes_y, sizes_z = _axis_sector_sizes(n_y), _axis_sector_sizes(n_z)
    z_parities = (1, -1) if terminal[2] != 0 else (1,)
    assert double_factored_sizes == [sizes_y[py] * sizes_z[pz]
                                     for pz in (1, -1) for py in (1, -1) if pz in z_parities]
    dense = np.linalg.solve(Z.entries, h)
    assert np.linalg.norm(x - dense) <= 1e-9 * np.linalg.norm(dense)


def test_custom_layout_spectrum_and_solve_are_bit_identical_to_dense_path():
    grid = planar_grid(0.3, 0.2, 0.3 * LAM, 0.3 * LAM, ElementKind.PLANAR, LAM)
    geom = custom_geometry(grid.positions, grid.kind, grid.dy, grid.dz, LAM)
    Z = impedance(geom)
    h = channel_for(geom, [10.0, 1.3, -0.7])

    w, u = np.linalg.eigh(Z.entries)
    s, U = sym_eig(Z)
    assert np.array_equal(s, w[::-1]) and np.array_equal(U, u[:, ::-1])

    # dense LU, one refinement step, the smaller residual kept
    factors = lu_factor(Z.entries)
    x0 = lu_solve(factors, h)
    x1 = x0 + lu_solve(factors, h - Z.entries @ x0)
    expected = min((x0, x1), key=lambda x: np.linalg.norm(h - Z.entries @ x))
    assert np.array_equal(solve(Z, h), expected)


def test_custom_layout_extended_spectrum_is_bit_identical_to_full_jacobi():
    line = geom_linear(6, 0.3)
    geom = custom_geometry(line.positions, line.kind, line.dy, line.dz, LAM)
    Z = impedance(geom, EXT)
    s, U = sym_eig(Z)
    with coupling.MP_LOCK:
        full, V = coupling._jacobi_eigh(EXT.context(), Z.entries)
    assert list(s) == full
    assert all(U[i, j] == V[i, j] for i in range(6) for j in range(6))


def test_impedance_refuses_a_matrix_larger_than_physical_memory(monkeypatch):
    memory = coupling._physical_memory_bytes()
    assert memory is None or memory > 0
    monkeypatch.setattr(coupling, "_physical_memory_bytes", lambda: 8 * 36 ** 2)
    pitch = 0.5 * LAM
    fits = planar_grid(5 * pitch, 5 * pitch, pitch, pitch, ElementKind.ISOTROPIC, LAM)
    too_big = planar_grid(6 * pitch, 6 * pitch, pitch, pitch, ElementKind.ISOTROPIC, LAM)
    assert (fits.n, too_big.n) == (36, 49)
    assert impedance(fits).n == 36
    for precision in (Precision(), Precision.extended(64)):
        with pytest.raises(CapacityError, match="physical memory"):
            impedance(too_big, precision)


def test_quadratic_form_radiated_power_nonnegative():
    rng = np.random.default_rng(3)
    for kind in ElementKind:
        Z = impedance(geom_linear(10, 0.25, kind))
        s, _ = sym_eig(Z)
        for _ in range(20):
            i = rng.normal(size=10) + 1j * rng.normal(size=10)
            q = quadratic_form(Z, i)
            assert q >= -1e-10 * np.vdot(i, i).real * s[0]


def test_quadrature_oracle_validates_kernels():
    # closed-form i^H Z i equals the sphere integral of the radiated power
    rng = np.random.default_rng(11)
    for kind in ElementKind:
        for _ in range(5):
            n = int(rng.integers(2, 7))
            frac = float(rng.uniform(0.1, 1.0))
            geom = linear_array(n, frac * LAM, kind, LAM)
            i = rng.normal(size=n) + 1j * rng.normal(size=n)
            closed = quadratic_form(impedance(geom), i)
            quad = radiated_power_quadrature(geom, i, FieldModel(beta=1.0), quad_order=128)
            assert quad == pytest.approx(closed, rel=1e-6)


def test_matrix_text_dump_round_trips(tmp_path):
    Z = impedance(geom_linear(7, 0.4, ElementKind.PLANAR))
    path = tmp_path / "z.txt"
    write_matrix_text(Z, path)
    back = np.loadtxt(path)
    np.testing.assert_array_equal(back, Z.entries)


def test_extended_entries_match_double_to_rounding():
    g = geom_linear(6, 0.3, ElementKind.PLANAR)
    Zd = impedance(g).entries
    Ze = impedance(g, EXT).as_float_array()
    np.testing.assert_allclose(Ze, Zd, rtol=1e-14, atol=1e-17)
