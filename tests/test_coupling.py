import hashlib
import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from lissim import (
    SPEED_OF_LIGHT,
    ArrayGeometry,
    CapacityError,
    ElementKind,
    EmptySpectrumError,
    ImpedanceMatrix,
    InvalidArgumentError,
    Precision,
    ca_mf,
    channel_for,
    channel_isotropic,
    condition_number,
    directivity,
    excitation_power,
    impedance,
    linear_array,
    planar_grid,
    power_normalize,
    quadratic_form,
    rank_truncated_inverse,
    snr,
    solve,
    sym_eig,
    truncated_inverse,
    write_matrix_text,
)
from lissim import coupling, precoding
from lissim.errors import IllConditionedSolveError, LisSimError, NumericalFailureError
from lissim.metrics import range_factor
from oracles import pairwise_impedance, radiated_power_quadrature, slepian_line_spectrum

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


def _direct(entries):
    return ImpedanceMatrix(np.asarray(entries, dtype=float), Precision())


def _no_symmetry(Z):
    """Z with no images: one orbit per element, a single sector whose block is Z itself."""
    return ImpedanceMatrix(Z.dense(), Z.precision)


def _ext_array(ctx, values):
    """An object array of the context's numbers, the extended form of a matrix or vector."""
    return np.vectorize(ctx.mpf, otypes=[object])(values)


def _mp(ctx, a):
    """An object array as an mpmath matrix (a column for a vector), for mpmath's own oracles."""
    return ctx.matrix(a.tolist())


def _mp_residual(ctx, Z, x, h):
    """``||h - Z x||`` with mpmath's matrix product, one rounding per entry."""
    return ctx.norm(_mp(ctx, h) - _mp(ctx, Z.dense()) * _mp(ctx, x))


def geom_linear(n=20, frac=0.3, kind=ElementKind.ISOTROPIC):
    return linear_array(n, frac * LAM, kind, LAM)


def test_single_element_diagonals():
    z_iso = impedance(linear_array(1, 0.1, ElementKind.ISOTROPIC, LAM))
    assert z_iso.dense()[0, 0] == 1.0
    z_pla = impedance(linear_array(1, 0.1, ElementKind.PLANAR, LAM))
    assert z_pla.dense()[0, 0] == 0.5


def test_half_wavelength_linear_is_identity():
    Z = impedance(geom_linear(frac=0.5))
    assert np.max(np.abs(Z.dense() - np.eye(20))) <= 1e-14


def test_entries_symmetric_and_kernel_maximal_on_diagonal():
    for kind in ElementKind:
        Z = impedance(planar_grid(0.4, 0.4, 0.07, 0.09, kind, LAM))
        assert np.array_equal(Z.dense(), Z.dense().T)
        diag = np.diag(Z.dense())
        assert np.all(np.abs(Z.dense()) <= diag[:, None] + 1e-15)
        expected = 1.0 if kind is ElementKind.ISOTROPIC else 0.5
        assert np.all(diag == expected)


def test_positive_semidefinite_up_to_roundoff():
    for kind in ElementKind:
        for frac in (0.2, 0.35, 0.7):
            Z = impedance(geom_linear(12, frac, kind))
            w = np.linalg.eigvalsh(Z.dense())
            assert w.min() >= -1e-10 * w.max()


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
    scale = np.max(np.abs(Z.dense()))
    assert np.max(np.abs(recon - Z.dense())) <= 1e-12 * scale
    assert np.max(np.abs(U.T @ U - np.eye(20))) <= 1e-12


def test_eigen_profile_regression_double():
    s, _ = sym_eig(impedance(geom_linear()))
    np.testing.assert_allclose(s, EIG_03LAM_ISO, rtol=5e-4)
    assert s[0] / s[-1] > 1e10


def test_eigen_profile_regression_extended():
    s, U = sym_eig(impedance(geom_linear(), EXT))
    np.testing.assert_allclose([float(v) for v in s], EIG_03LAM_ISO, rtol=1e-12)
    # orthonormality at working precision
    U = _mp(EXT.arithmetic().ctx, U)
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
    assert np.max(np.abs(pinv @ Z.dense() - np.eye(8))) <= 1e-10


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
    for threshold in (-1.0, math.nan):
        with pytest.raises(InvalidArgumentError):
            truncated_inverse(Z, threshold)


def test_rank_truncated_inverse_matches_threshold_form():
    Z = impedance(geom_linear())
    s, _ = sym_eig(Z)
    by_rank = rank_truncated_inverse(Z, RETAINED_ABOVE_1E9)
    by_threshold = truncated_inverse(Z, 1e-9)
    np.testing.assert_allclose(by_rank, by_threshold, atol=1e-12 * np.max(np.abs(by_rank)))
    for modes in (0, 21, 2.5):
        with pytest.raises(InvalidArgumentError):
            rank_truncated_inverse(Z, modes)


def _assert_partial_sums_give_the_rank_truncated_rows(Z, h):
    # the truncation sweep's row from the spectrum alone, against the
    # quadratic forms of ca_pmf_rank's own current; i^H Z i of a current
    # of cost c rounds to about N u c relative, u the unit roundoff
    o = [10.0, 1.3, 0.0]
    factor = range_factor(o, LAM)
    u = 2.0 ** -(Z.precision.mantissa_bits or 53)
    sums = coupling._partial_sums(Z, h)
    assert len(sums) == Z.n
    for m, (p, q) in enumerate(sums, start=1):
        i = precoding.ca_pmf_rank(Z, h, m)
        cost = float(q / p)
        tol = Z.n * u * max(1.0, cost)
        assert float(p) * factor == pytest.approx(directivity(i, Z, h, o, LAM), rel=tol)
        assert cost == pytest.approx(excitation_power(power_normalize(i, Z)), rel=tol)


@pytest.mark.parametrize("precision", [Precision(), Precision.extended(128)],
                         ids=["double", "ext128"])
def test_partial_sums_give_the_directivity_and_cost_of_every_rank(precision):
    geom = geom_linear(frac=0.1)
    _assert_partial_sums_give_the_rank_truncated_rows(
        impedance(geom, precision), channel_isotropic(geom, [10.0, 1.3, 0.0], precision))


@pytest.mark.parametrize("precision", [Precision(), Precision.extended(128)],
                         ids=["double", "ext128"])
def test_partial_sums_past_the_last_positive_eigenvalue_repeat_it(precision):
    ar = precision.arithmetic()
    Z = ImpedanceMatrix(ar.number(np.array([[1.0, 1.0], [1.0, 1.0]])), precision)
    h = ar.number(np.array([1.0, 1 / 3]))
    assert sym_eig(Z)[0][1] == 0
    first, second = coupling._partial_sums(Z, h)
    assert second == first
    _assert_partial_sums_give_the_rank_truncated_rows(Z, h)


def test_solve_trivial_and_scaled_identity():
    h = np.array([1.0 + 2.0j, -0.5j, 3.0])
    assert np.allclose(solve(_direct(np.eye(3)), h), h)
    assert np.allclose(solve(_direct(2.0 * np.eye(3)), h), h / 2.0)


def test_solve_residual_contract_on_ill_conditioned_matrix():
    geom = geom_linear()
    Z = impedance(geom)
    h = channel_isotropic(geom, [10.0, 0.0, 0.0])
    x = solve(Z, h)
    res = np.linalg.norm(Z.dense() @ x - h) / np.linalg.norm(h)
    assert res <= 1e-8


def test_solve_extended_succeeds_where_double_degrades():
    # 0.1 lambda: kappa ~ 1e30, far past double's dynamic range
    geom = geom_linear(frac=0.1)
    Z_ext = impedance(geom, EXT)
    h_ext = channel_isotropic(geom, [10.0, 0.0, 0.0], EXT)
    x = solve(Z_ext, h_ext)
    ctx = EXT.arithmetic().ctx
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
    # with no symmetry there is one orbit per element: the solve factors the whole Z
    geom = geom_linear(frac=0.3)
    Z = _no_symmetry(impedance(geom, EXT))
    h = channel_isotropic(geom, [10.0, 0.0, 0.0], EXT)
    ctx = EXT.arithmetic().ctx
    expected = _refined_lu_solve(ctx, _mp(ctx, Z.dense()), _mp(ctx, h))

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
    Z = _four_sector(impedance(geom, EXT))
    block = Z._sectors[0].block(Z)
    n = len(block)
    assert n == 36
    ctx = EXT.arithmetic().ctx
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
    ctx = EXT.arithmetic().ctx
    x = solve(Z, h)
    refined = _refined_lu_solve(ctx, _mp(ctx, Z.dense()), _mp(ctx, h))
    wide = mpmath.MPContext()
    wide.prec = 640
    exact = wide.lu_solve(wide.matrix(Z.dense().tolist()), wide.matrix(h.tolist()))

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


def _swap_half_sizes(m):
    """Sizes of the swap-symmetric and swap-antisymmetric halves of an m x m mirror sector."""
    return m * (m + 1) // 2, m * (m - 1) // 2


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
    ctx = EXT.arithmetic().ctx

    # a terminal off an axis excites the odd parity along that axis too
    y_parities = (1, -1) if terminal[1] != 0 else (1,)
    z_parities = (1, -1) if terminal[2] != 0 else (1,)
    sizes_y, sizes_z = _axis_sector_sizes(n_y), _axis_sector_sizes(n_z)
    expected = []
    for pz in (1, -1):
        for py in (1, -1):
            if py in y_parities and pz in z_parities and sizes_y[py] * sizes_z[pz]:
                if n_y == n_z and py == pz:
                    # a square's swap splits the even-even and odd-odd sectors, and a
                    # terminal off the diagonal y = z excites both halves
                    symmetric, antisymmetric = _swap_half_sizes(sizes_y[py])
                    expected.append(symmetric)
                    if antisymmetric and abs(terminal[1]) != abs(terminal[2]):
                        expected.append(antisymmetric)
                else:
                    expected.append(sizes_y[py] * sizes_z[pz])

    x = solve(Z, h)
    assert factored_sizes == expected

    reference = ctx.lu_solve(_mp(ctx, Z.dense()), _mp(ctx, h))
    assert ctx.norm(_mp(ctx, x) - reference) <= 1e-60 * ctx.norm(reference)
    assert _mp_residual(ctx, Z, x, h) <= 1e-8 * ctx.norm(h)


def _hp_panel(side, frac):
    pitch = frac * LAM
    return planar_grid(side, side, pitch, pitch, ElementKind.PLANAR, LAM)


def _four_sector(Z):
    """Z with its mirrors and no swap: it then works in the four mirror sectors."""
    return ImpedanceMatrix(Z.rows, Z.precision, images=Z.images[:, :4])


def _relative_distance(ctx, x, reference):
    return ctx.norm(_mp(ctx, x) - _mp(ctx, reference)) / ctx.norm(_mp(ctx, reference))


@pytest.mark.parametrize("frac,n,half", [(0.25, 81, 15), (0.2, 121, 21)])
def test_solve_extended_broadside_factors_only_the_swap_symmetric_half(factored_sizes, frac, n,
                                                                      half):
    # the 0.25 m panel of the spacing-hp benchmark: the channel is exactly
    # swap-symmetric, so the even-even sector's antisymmetric half is skipped
    geom = _hp_panel(0.25, frac)
    Z = impedance(geom, EXT)
    h = channel_for(geom, [10.0, 0.0, 0.0], EXT)
    assert np.array_equal(h, h[geom.symmetry_images()[:, 4]])
    ctx = EXT.arithmetic().ctx
    x = solve(Z, h)
    assert geom.n == n
    assert factored_sizes == [half]
    assert _mp_residual(ctx, Z, x, h) <= 1e-8 * ctx.norm(h)


def test_solve_extended_on_the_default_panel_keeps_the_quarter_wavelength_directivity(
        factored_sizes):
    geom = _hp_panel(0.5, 0.25)
    Z = impedance(geom, EXT)
    h = channel_for(geom, [10.0, 0.0, 0.0], EXT)
    # the 256-bit channel is exactly swap-symmetric here too: one block of 45, not 81
    assert np.array_equal(h, h[geom.symmetry_images()[:, 4]])
    ctx = EXT.arithmetic().ctx
    x = solve(Z, h)
    assert (geom.n, factored_sizes) == (324, [45])
    assert _mp_residual(ctx, Z, x, h) <= 1e-8 * ctx.norm(h)
    assert directivity(ca_mf(Z, h), Z, h, [10.0, 0.0, 0.0], LAM) == 246.2424259795558


def test_solve_extended_factors_both_even_halves_when_h_is_not_swap_symmetric(factored_sizes):
    # terminals at y = +-0.3 m: h is even under both mirrors but not under the swap
    geom = _hp_panel(0.5, 0.25)
    Z = impedance(geom, EXT)
    h = channel_for(geom, [10.0, 0.3, 0.0], EXT) + channel_for(geom, [10.0, -0.3, 0.0], EXT)
    ctx = EXT.arithmetic().ctx
    x = solve(Z, h)
    assert factored_sizes == [45, 36]
    assert _mp_residual(ctx, Z, x, h) <= 1e-8 * ctx.norm(h)
    factored_sizes.clear()
    reference = solve(_four_sector(Z), h)
    assert factored_sizes == [81]
    assert _relative_distance(ctx, x, reference) <= 1e-55


def test_solve_extended_off_axis_excites_every_sector_and_matches_the_four_sector_solve(
        factored_sizes):
    geom = _hp_panel(0.25, 0.25)
    Z = impedance(geom, EXT)
    h = channel_for(geom, [10.0, 0.3, 0.1], EXT)
    ctx = EXT.arithmetic().ctx
    x = solve(Z, h)
    # the even-even and odd-odd sectors' swap halves, and the even-odd and odd-even sectors whole
    assert factored_sizes == [15, 10, 20, 20, 10, 6]
    assert _mp_residual(ctx, Z, x, h) <= 1e-8 * ctx.norm(h)
    factored_sizes.clear()
    reference = solve(_four_sector(Z), h)
    assert factored_sizes == [25, 20, 20, 16]
    assert _relative_distance(ctx, x, reference) <= 1e-55


def _exact_digest(values):
    """sha256 of the exact sign, mantissa and exponent of each entry's real and imaginary parts."""
    parts = [(p[0], int(p[1]), p[2]) for v in values
             for p in (v._mpc_ if hasattr(v, "_mpc_") else (v._mpf_,))]
    return hashlib.sha256(repr(parts).encode()).hexdigest()


# digests of the four-mirror-sector solve, pinned before a square lattice's swap was used
@pytest.mark.parametrize("geom,terminal,digest", [
    (ArrayGeometry(shape=(4, 5), kind=ElementKind.ISOTROPIC, wavelength=LAM,
                   dy=0.3 * LAM, dz=0.3 * LAM), (10.0, 1.3, -0.7),
     "f4568c564b1bda4f449ecabe72d4b2ef3ea1c513bdeb66dd770482e67dfe2d4b"),
    (ArrayGeometry(shape=(5, 5), kind=ElementKind.PLANAR, wavelength=LAM,
                   dy=0.2 * LAM, dz=0.25 * LAM), (10.0, 1.3, -0.7),
     "369b7a0fa90eefd24ff4491c2719bc086699d0e13a57baa9bdfd091129620593"),
    (geom_linear(20, 0.2, ElementKind.PLANAR), (10.0, 0.0, 0.5),
     "9b2a7ef416fde5577bade0076da38b2a46b12a55325cbba1608eeadc17357ab6"),
], ids=["4x5", "5x5-unequal-pitches", "line"])
def test_solve_extended_without_a_swap_keeps_its_bits(geom, terminal, digest):
    assert geom.symmetry_images().shape == (geom.n, 4)
    Z = impedance(geom, EXT)
    assert _exact_digest(solve(Z, channel_for(geom, terminal, EXT))) == digest


@pytest.mark.parametrize("precision,eigensolver", [(Precision(), "_lapack_eigh"),
                                                   (EXT, "_jacobi_eigh")], ids=["double", "ext"])
def test_solve_refusal_estimates_kappa_from_the_factors(monkeypatch, precision, eigensolver):
    # kappa about 2e9: well resolved by the double eigensolver too
    pitch = 0.15 * LAM
    geom = planar_grid(3 * pitch, 4 * pitch, pitch, pitch, ElementKind.PLANAR, LAM)
    Z = impedance(geom, precision)
    h = channel_for(geom, [10.0, 1.3, -0.7], precision)

    def no_eigensolver(*args, **kwargs):
        raise AssertionError("the refusal must not run the eigensolver")

    monkeypatch.setattr(coupling, "_SOLVE_RESIDUAL_RTOL", 0.0)
    monkeypatch.setattr(coupling, eigensolver, no_eigensolver)
    with pytest.raises(IllConditionedSolveError) as info:
        solve(Z, h)
    err = info.value
    estimate = err.kappa_estimate  # the lazy estimate runs here, still with no eigensolver
    monkeypatch.undo()
    assert 0.0 < err.residual <= (1e-60 if precision.is_extended else 1e-8)
    kappa = condition_number(Z)
    assert kappa / Z.n <= estimate <= kappa * Z.n


@pytest.mark.parametrize("precision", [Precision(), Precision.extended(128)],
                         ids=["double", "ext128"])
def test_solve_refusal_kappa_estimate_is_at_most_the_dense_1_norm_kappa(monkeypatch, precision):
    # at 0.8 wavelength many entries of Z are negative, so ||Z||_1, read
    # from the stored rows, needs their absolute values; Hager-Higham's
    # estimate of ||Z^-1||_1 is a lower bound, here within 1e-15 of it
    pitch = 0.8 * LAM
    geom = planar_grid(3 * pitch, 4 * pitch, pitch, pitch, ElementKind.ISOTROPIC, LAM)
    Z = impedance(geom, precision)
    monkeypatch.setattr(coupling, "_SOLVE_RESIDUAL_RTOL", 0.0)
    with pytest.raises(IllConditionedSolveError) as info:
        solve(Z, channel_for(geom, [10.0, 1.3, -0.7], precision))
    dense = Z.dense().astype(float)
    assert np.any(dense < 0)
    kappa_1 = np.linalg.norm(dense, 1) * np.linalg.norm(np.linalg.inv(dense), 1)
    assert kappa_1 / 2 <= float(info.value.kappa_estimate) <= kappa_1 * (1 + 1e-9)


def test_exactly_singular_z_is_refused_in_double():
    Z = _direct([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(IllConditionedSolveError) as info:
        solve(Z, np.array([1.0, 0.0]))
    assert info.value.residual == math.inf
    assert info.value.kappa_estimate == math.inf


def test_exactly_singular_z_is_refused_at_a_zero_pivot_in_extended_precision():
    precision = Precision.extended(128)
    ctx = precision.arithmetic().ctx
    Z = ImpedanceMatrix(_ext_array(ctx, [[1, 1], [1, 1]]), precision)
    with pytest.raises(IllConditionedSolveError) as info:
        solve(Z, ctx.matrix([1, 0]))  # an mpmath column is read as the object vector
    assert info.value.residual == math.inf
    assert info.value.kappa_estimate == math.inf


def test_impedance_matrix_refuses_rows_that_are_not_a_2d_array():
    ctx = EXT.arithmetic().ctx
    for rows in (ctx.matrix([[1, 0], [0, 1]]), [[1.0, 0.0], [0.0, 1.0]], np.ones(4),
                 np.ones((1, 2, 2))):
        with pytest.raises(InvalidArgumentError, match="2-D numpy array"):
            ImpedanceMatrix(rows, EXT)


@pytest.mark.parametrize("precision", [Precision(), EXT], ids=["double", "ext"])
def test_impedance_matrix_refuses_rows_not_one_per_mirror_orbit(precision):
    Z = impedance(planar_grid(0.2, 0.3, 0.1, 0.1, ElementKind.PLANAR, LAM), precision)
    assert Z.rows.shape == (4, 12)
    # with no images every element is its own orbit: the rows are Z, square
    for rows, images in ((Z.rows, None), (Z.dense(), Z.images), (Z.rows[:-1], Z.images)):
        with pytest.raises(InvalidArgumentError, match="rows must have shape"):
            ImpedanceMatrix(rows, precision, images=images)


def test_impedance_matrix_refuses_rows_whose_dtype_is_not_its_precision():
    geom = planar_grid(0.2, 0.2, 0.1, 0.1, ElementKind.PLANAR, LAM)
    double, extended = impedance(geom), impedance(geom, EXT)
    for rows, precision in ((extended.rows, Precision()), (double.rows, EXT),
                            (double.rows.astype(np.float32), Precision()),
                            (double.rows.astype(complex), Precision()),
                            (double.rows.astype(object), Precision())):
        with pytest.raises(InvalidArgumentError, match="dtype"):
            ImpedanceMatrix(rows, precision, images=double.images)
    # a malformed images array is reported first
    with pytest.raises(InvalidArgumentError, match="images must be an int array"):
        ImpedanceMatrix(extended.rows, Precision(), images=double.images.astype(float))


def _malformed_images(images):
    """Arrays that are not a layout's symmetry images, each with the flaw it shows."""
    n = len(images)
    not_identity = images.copy()
    not_identity[:, 0] = not_identity[::-1, 0]
    repeated = images.copy()
    repeated[0, 2] = repeated[1, 2]
    out_of_range, negative = images.copy(), images.copy()
    out_of_range[0, 1], negative[0, 1] = n, -1
    return {"list": images.tolist(), "float": images.astype(float), "bool": images > 0,
            "three-columns": images[:, :3], "five-columns": images[:, [0, 1, 2, 3, 0]],
            "short": images[:-1], "vector": images[:, 0], "not-identity": not_identity,
            "repeated": repeated, "out-of-range": out_of_range, "negative": negative}


@pytest.mark.parametrize("geom", [planar_grid(0.2, 0.2, 0.1, 0.1, ElementKind.PLANAR, LAM),
                                  planar_grid(0.2, 0.3, 0.1, 0.1, ElementKind.PLANAR, LAM)],
                         ids=["3x3", "3x4"])
@pytest.mark.parametrize("precision", [Precision(), EXT], ids=["double", "ext"])
def test_impedance_matrix_refuses_malformed_symmetry_images(geom, precision):
    Z = impedance(geom, precision)
    assert Z.images.shape[1] == (8 if geom.shape == (3, 3) else 4)
    for images in _malformed_images(np.array(Z.images)).values():
        with pytest.raises(InvalidArgumentError, match="images must be an int array"):
            ImpedanceMatrix(Z.rows, precision, images=images)
    # the layout's own images, and their mirror columns alone, are accepted
    assert ImpedanceMatrix(Z.rows, precision, images=np.array(Z.images)).n == geom.n
    assert ImpedanceMatrix(Z.rows, precision, images=Z.images[:, :4]).n == geom.n


@pytest.mark.parametrize("precision", [Precision(), EXT], ids=["double", "ext"])
def test_solve_refuses_a_right_hand_side_not_of_its_arithmetic_or_length(precision):
    geom = geom_linear(3, 0.3)
    Z = impedance(geom, precision)
    h = channel_isotropic(geom, [10.0, 0.0, 0.0], precision)
    other_arithmetic = np.ones(3, dtype=float if precision.is_extended else object)
    for rhs in (other_arithmetic, h[:2], h[:, None]):
        with pytest.raises(InvalidArgumentError, match="right-hand side"):
            solve(Z, rhs)


@pytest.mark.parametrize("precision", [Precision(), Precision.extended(128)],
                         ids=["double", "ext128"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.inf)],
                         ids=["nan", "inf", "-inf", "inf_imag"])
def test_solve_refuses_a_nan_or_infinite_right_hand_side_before_factoring(
        monkeypatch, precision, bad):
    geom = geom_linear(6, 0.3)
    Z = impedance(geom, precision)
    h = channel_isotropic(geom, [10.0, 0.0, 0.0], precision).copy()
    h[2] = precision.arithmetic().ctx.mpc(bad) if precision.is_extended else bad

    def no_factoring(*args, **kwargs):
        raise AssertionError("a right-hand side that is not finite must be refused first")

    monkeypatch.setattr(coupling, "_sector_inverse", no_factoring)
    with pytest.raises(InvalidArgumentError, match="NaN or infinite"):
        solve(Z, h)


def _lattice(n_y, n_z, frac, kind):
    pitch = frac * LAM
    if n_y == 1:
        return linear_array(n_z, pitch, kind, LAM)
    return planar_grid((n_y - 1) * pitch, (n_z - 1) * pitch, pitch, pitch, kind, LAM)


def _axis_block_sizes(n_y, n_z):
    """The four mirror sectors' sizes, even-even, odd-even, even-odd and odd-odd in (y, z)."""
    sizes_y, sizes_z = _axis_sector_sizes(n_y), _axis_sector_sizes(n_z)
    return [sizes_y[py] * sizes_z[pz] for pz in (1, -1) for py in (1, -1)]


def _mirror_sector_sizes(n_y, n_z):
    return sorted(size for size in _axis_block_sizes(n_y, n_z) if size)


def _square_sector_sizes(n):
    """Sizes of the extended sectors of an n x n square, nonempty ones in the matrix's order.

    The even-even and odd-odd swap halves, and the even-odd and odd-even sectors whole.
    """
    even, odd = (n + 1) // 2, n // 2
    sizes = [*_swap_half_sizes(even), even * odd, odd * even, *_swap_half_sizes(odd)]
    return [size for size in sizes if size]


@pytest.mark.parametrize("n", [4, 5, 6])
def test_extended_sectors_of_a_square_are_an_orthonormal_split_of_z(n):
    Z = impedance(_lattice(n, n, 0.25, ElementKind.PLANAR), EXT)
    ctx, ar = Z.arithmetic.ctx, Z.arithmetic
    assert [len(sector.images) for sector in Z._sectors] == _square_sector_sizes(n)
    with ar.lock:
        bases = [sector.expand(_ext_array(ctx, np.eye(len(sector.images))),
                               np.zeros((Z.n, len(sector.images)), dtype=object))
                 for sector in Z._sectors]
        E = _mp(ctx, np.hstack(bases))
        gram = E.T * E - ctx.eye(Z.n)
        assert max(abs(gram[i, j]) for i in range(Z.n) for j in range(Z.n)) <= 1e-70
        # E^T Z E is block diagonal, its blocks the gathered ones, which are exactly symmetric
        expected = E.T * _mp(ctx, Z.dense()) * E
        start = 0
        for sector in Z._sectors:
            block = sector.block(Z)
            assert np.array_equal(block, block.T)
            m = len(block)
            stop = start + m
            for i in range(Z.n):
                for j in range(start, stop):
                    inside = start <= i < stop
                    value = block[i - start, j - start] if inside else 0
                    assert abs(expected[i, j] - value) <= 1e-70
            start = stop


@pytest.mark.parametrize("n_y,n_z", [(5, 5), (4, 6), (11, 11), (1, 12)])
@pytest.mark.parametrize("kind", list(ElementKind))
def test_double_sector_eigh_matches_dense_eigh_orthonormal_and_reconstructs_z(
        monkeypatch, n_y, n_z, kind):
    geom = _lattice(n_y, n_z, 0.3, kind)
    Z = impedance(geom)
    dense = np.linalg.eigvalsh(Z.dense())[::-1]
    block_sizes = []
    eigh = np.linalg.eigh

    def recording_eigh(a, *args, **kwargs):
        block_sizes.append(a.shape[0])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    s, U = sym_eig(Z)
    monkeypatch.undo()
    # a square decomposes the swap halves, any other lattice its four mirror sectors
    assert sorted(block_sizes) == sorted(_square_sector_sizes(n_y) if n_y == n_z
                                         else _mirror_sector_sizes(n_y, n_z))
    assert np.all(np.diff(s) <= 0)
    assert np.max(np.abs(s - dense)) <= 1e-13 * s[0]
    assert np.max(np.abs(U.T @ U - np.eye(geom.n))) <= 1e-12
    assert np.max(np.abs((U * s) @ U.T - Z.dense())) <= 1e-12 * np.max(np.abs(Z.dense()))


@pytest.mark.parametrize("n_y,n_z,kind", [(3, 4, ElementKind.PLANAR),
                                          (1, 9, ElementKind.ISOTROPIC),
                                          (1, 15, ElementKind.ISOTROPIC),
                                          (4, 4, ElementKind.PLANAR),
                                          (5, 5, ElementKind.ISOTROPIC)])
def test_extended_sector_jacobi_matches_full_jacobi_at_256_bits(monkeypatch, n_y, n_z, kind):
    geom = _lattice(n_y, n_z, 0.2, kind)
    Z = impedance(geom, EXT)
    ctx = EXT.arithmetic().ctx
    jacobi = coupling._jacobi_eigh
    block_sizes = []

    def recording_jacobi(ctx, A):
        block_sizes.append(len(A))
        return jacobi(ctx, A)

    monkeypatch.setattr(coupling, "_jacobi_eigh", recording_jacobi)
    s, U = sym_eig(Z)
    monkeypatch.undo()
    # a square decomposes the swap halves, any other lattice its four mirror sectors
    assert block_sizes == (_square_sector_sizes(n_y) if n_y == n_z
                           else [size for size in _axis_block_sizes(n_y, n_z) if size])
    with EXT.arithmetic().lock:
        full, _ = jacobi(ctx, Z.dense())
    assert len(Z.orbits) < geom.n  # the layout has orbits to split on
    assert max(abs(a - b) for a, b in zip(s, full)) <= 1e-60 * full[0]
    U = _mp(ctx, U)
    gram = U.T * U - ctx.eye(geom.n)
    assert max(abs(gram[i, j]) for i in range(geom.n) for j in range(geom.n)) <= 1e-70
    recon = U * ctx.diag(s) * U.T - _mp(ctx, Z.dense())
    assert max(abs(recon[i, j]) for i in range(geom.n) for j in range(geom.n)) <= 1e-60


@pytest.mark.parametrize("bits,bound", [(128, 2.0 ** -71), (256, 1e-60), (512, 2.0 ** -455)],
                         ids=["128", "256", "512"])
@pytest.mark.parametrize("kind", list(ElementKind))
def test_extended_eigenvalues_are_relatively_accurate_on_the_tenth_wavelength_line(
        kind, bits, bound):
    # kappa is about 1e30 here; each sector block's spectrum is compared
    # with mpmath's eigsy of the same block at bits + 384, whose absolute
    # error is far below the bound times the smallest eigenvalue (about
    # 1e-30); the bound is 2^(57 - bits), and 1e-60 at 256 bits
    precision = Precision.extended(bits)
    Z = impedance(geom_linear(frac=0.1, kind=kind), precision)
    ctx = precision.arithmetic().ctx
    ref = Precision.extended(bits + 384).arithmetic().ctx
    for sector in Z._sectors:
        block = sector.block(Z)
        with precision.arithmetic().lock:
            values, _ = coupling._jacobi_eigh(ctx, block)
            exact, _ = ref.eigsy(ref.matrix(block.tolist()))
            exact = sorted((exact[k] for k in range(exact.rows)), reverse=True)
            assert exact[-1] < 1e-25 * exact[0]
            assert max(abs(a - b) / b for a, b in zip(values, exact)) <= bound


@pytest.mark.parametrize("entries,expected", [
    ([[0, 0], [0, 4]], [4, 0]),
    ([[2, 0, 0], [0, 0, 0], [0, 0, 8]], [8, 2, 0]),
    ([[4, 2], [2, 4]], [6, 2]),
], ids=["zero-row", "diagonal", "pair"])
def test_extended_jacobi_of_small_integer_blocks_is_exact(entries, expected):
    # exact zeros beside entries of positive exponent are read as ints too
    precision = Precision.extended(128)
    ctx = precision.arithmetic().ctx
    with precision.arithmetic().lock:
        values, vectors = coupling._jacobi_eigh(ctx, _ext_array(ctx, entries))
        assert values == expected
        n = len(entries)
        U = _mp(ctx, vectors)
        gram = U.T * U - ctx.eye(n)
        assert max(abs(gram[i, j]) for i in range(n) for j in range(n)) <= 1e-35


def test_extended_eigenvalues_of_a_graded_block_are_relatively_accurate():
    # A_ij = 2^(-50(i+j)) c_ij, c_ii = 1 and c_ij = 1/(10(1+|i-j|)): a
    # positive definite block whose spectrum spans 2^-300, far below the
    # working precision of the largest eigenvalue; each eigenvalue must
    # still match a 640-bit eigsy to 1e-60 relative
    ctx = EXT.arithmetic().ctx
    ref = Precision.extended(640).arithmetic().ctx
    with EXT.arithmetic().lock:
        A = np.array([[ctx.ldexp(ctx.one if i == j else ctx.one / (10 * (1 + abs(i - j))),
                                 -50 * (i + j)) for j in range(4)] for i in range(4)],
                     dtype=object)
        values, vectors = coupling._jacobi_eigh(ctx, A)
        exact, _ = ref.eigsy(ref.matrix(A.tolist()))
        exact = sorted((exact[k] for k in range(exact.rows)), reverse=True)
        assert exact[-1] < 2.0 ** -299 * exact[0]
        assert max(abs(a - b) / b for a, b in zip(values, exact)) <= 1e-60
        U = _mp(ctx, vectors)
        gram = U.T * U - ctx.eye(4)
        assert max(abs(gram[i, j]) for i in range(4) for j in range(4)) <= 1e-70


@pytest.mark.parametrize("frac", [0.1, 0.3])
def test_extended_spectrum_of_the_isotropic_line_matches_slepian_quotients(frac):
    # Slepian's tridiagonal commutes with the prolate matrix of the
    # isotropic line, so the Rayleigh quotients of its eigenvectors with
    # the 256-bit Z, formed at 512 bits, are Z's eigenvalues up to second
    # order: an oracle that does not solve Z's own eigenproblem.  The
    # Jacobi of the whole 256-bit Z matches them to 1e-60 relative (the
    # smallest is 4.7e-30 at 0.1 wavelength).  The sector spectrum is of
    # the sector blocks, each entry rounded once to 256 bits, which moves
    # an eigenvalue by a few units of 2^-256 ||Z||: 1e-70 of the largest.
    geom = geom_linear(frac=frac)
    Z = impedance(geom, EXT)
    quotients = slepian_line_spectrum(geom, Z.dense(), bits=512)
    with EXT.arithmetic().lock:
        full, _ = coupling._jacobi_eigh(EXT.arithmetic().ctx, Z.dense())
    assert max(abs(a - b) / b for a, b in zip(full, quotients)) <= 1e-60
    s, _ = sym_eig(Z)
    assert max(abs(a - b) for a, b in zip(s, quotients)) <= 1e-70 * quotients[0]


def test_extended_jacobi_past_its_sweep_limit_raises_with_its_residual(monkeypatch):
    # from the double start a tenth-wavelength line block needs 4 sweeps
    # that rotate and a fifth that finds nothing left to rotate; one sweep
    # leaves an off-diagonal part well above the rounding floor
    Z = impedance(geom_linear(frac=0.1), EXT)
    block = Z._sectors[0].block(Z)
    monkeypatch.setattr(coupling, "_JACOBI_MAX_SWEEPS", 1)
    with EXT.arithmetic().lock, pytest.raises(NumericalFailureError, match="1 sweeps") as info:
        coupling._jacobi_eigh(EXT.arithmetic().ctx, block)
    assert 2.0 ** (1 - 256) < info.value.residual < 1


def test_extended_half_wavelength_isotropic_line_keeps_the_unit_start(monkeypatch):
    # Z is the identity to 256 bits and its spectrum degenerate: the double
    # basis is never formed, and each block's sweeps start from the unit
    # basis on their grid
    Z = impedance(geom_linear(frac=0.5), EXT)
    sweeps = coupling._jacobi_sweeps
    starts = []

    def no_double_basis(*args):
        raise AssertionError("an already diagonal block must keep the unit start")

    def recording_sweeps(ctx, a, v, bits):
        starts.append((v.copy(), bits))
        return sweeps(ctx, a, v, bits)

    monkeypatch.setattr(coupling, "_double_basis", no_double_basis)
    monkeypatch.setattr(coupling, "_jacobi_sweeps", recording_sweeps)
    s, _ = sym_eig(Z)
    assert all(abs(v - 1) < 1e-70 for v in s)
    assert len(starts) == len(Z._sectors)
    for v, bits in starts:
        assert bits >= 256
        assert np.array_equal(v, np.eye(len(v), dtype=object) * (1 << bits))


@pytest.mark.parametrize("geom", [
    planar_grid(0.5, 0.5, 0.3 * LAM, 0.3 * LAM, ElementKind.ISOTROPIC, LAM),
    planar_grid(0.5, 0.5, 0.15 * LAM, 0.15 * LAM, ElementKind.PLANAR, LAM),
    planar_grid(0.3, 0.5, 0.05, 0.04, ElementKind.ISOTROPIC, LAM),
    planar_grid(0.4, 0.4, 0.07, 0.09, ElementKind.PLANAR, LAM),
    linear_array(15, 0.2 * LAM, ElementKind.PLANAR, LAM),
], ids=["iso-0.3", "planar-0.15", "iso-rect", "planar-aniso", "line"])
def test_offset_table_build_is_mirror_invariant_and_matches_cdist_build(geom):
    matrix = impedance(geom)
    Z, images = matrix.dense(), geom.symmetry_images()
    assert len(matrix.orbits) < geom.n  # some mirror moves elements
    # Z is invariant under every column's permutation of the elements, the
    # swap's too on a square
    assert images.shape[1] == (8 if geom.shape[0] == geom.shape[1] and geom.dy == geom.dz else 4)
    for perm in images.T:
        assert np.array_equal(Z[np.ix_(perm, perm)], Z)
    # the mirrors (identity, y, z, both) compose like the bits of their column
    for mirror in range(1, 4):
        for image in range(4):
            assert np.array_equal(images[:, mirror][images[:, image]], images[:, image ^ mirror])
    assert np.array_equal(Z, Z.T)
    assert np.max(np.abs(Z - pairwise_impedance(geom))) <= 4 * np.spacing(1.0)


@pytest.fixture
def double_factored_sizes(monkeypatch):
    """Sizes of the sector blocks the double solve sets up a ``gesv`` for, in call order."""
    sizes = []
    block_solver = coupling._gesv_solver

    def recording_solver(block):
        sizes.append(block.shape[0])
        return block_solver(block)

    monkeypatch.setattr(coupling, "_gesv_solver", recording_solver)
    return sizes


def test_double_sector_solve_factors_one_block_of_21_on_11x11_broadside(
        double_factored_sizes, monkeypatch):
    geom = _lattice(11, 11, 0.25, ElementKind.PLANAR)
    Z = impedance(geom)
    h = channel_for(geom, [10.0, 0.0, 0.0])
    x = solve(Z, h)
    assert geom.n == 121
    # the swap-symmetric half of the even-even sector, 21 of its 36 orbits
    assert double_factored_sizes == [21]
    assert np.linalg.norm(h - Z.dense() @ x) <= 1e-8 * np.linalg.norm(h)
    full_residual = np.linalg.norm(h - coupling._product(Z, x)) / np.linalg.norm(h)
    assert full_residual <= 1e-8
    # the contract is judged on the full Z: a refusal reports exactly that residual
    monkeypatch.setattr(coupling, "_SOLVE_RESIDUAL_RTOL", 0.0)
    with pytest.raises(IllConditionedSolveError) as info:
        solve(Z, h)
    assert info.value.residual == full_residual


def test_double_solve_off_axis_in_the_swap_halves_matches_the_four_sector_solve(
        double_factored_sizes):
    # kappa is about 4e6 at 0.45 wavelength, so two solves with 1e-8
    # residuals agree to far better than 1e-8 (at 0.25 wavelength, kappa
    # 4e16, they would share no digit)
    geom = _lattice(11, 11, 0.45, ElementKind.PLANAR)
    Z = impedance(geom)
    h = channel_for(geom, [10.0, 0.3, 0.1])
    x = solve(Z, h)
    # the even-even and odd-odd sectors' swap halves, and the even-odd and odd-even sectors whole
    assert double_factored_sizes == [21, 15, 30, 30, 15, 10]
    double_factored_sizes.clear()
    reference = solve(_four_sector(Z), h)
    assert double_factored_sizes == [36, 30, 30, 25]
    assert np.linalg.norm(x - reference) <= 1e-8 * np.linalg.norm(reference)


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
    dense = np.linalg.solve(Z.dense(), h)
    assert np.linalg.norm(x - dense) <= 1e-9 * np.linalg.norm(dense)


def test_no_symmetry_spectrum_and_solve_are_bit_identical_to_dense_path():
    grid = planar_grid(0.3, 0.2, 0.3 * LAM, 0.3 * LAM, ElementKind.PLANAR, LAM)
    Z = _no_symmetry(impedance(grid))
    h = channel_for(grid, [10.0, 1.3, -0.7])

    w, u = np.linalg.eigh(Z.dense())
    s, U = sym_eig(Z)
    assert np.array_equal(s, w[::-1]) and np.array_equal(U, u[:, ::-1])

    # dense gesv of the real and imaginary parts as two columns, one
    # refinement step, the smaller residual kept
    def dense_solve(v):
        y = np.linalg.solve(Z.dense(), np.column_stack([v.real, v.imag]))
        return y[:, 0] + 1j * y[:, 1]

    assert h.dtype == complex
    x0 = dense_solve(h)
    x1 = x0 + dense_solve(h - Z.dense() @ x0)
    expected = min((x0, x1), key=lambda x: np.linalg.norm(h - Z.dense() @ x))
    assert np.array_equal(solve(Z, h), expected)


def test_no_symmetry_extended_spectrum_is_bit_identical_to_full_jacobi():
    Z = _no_symmetry(impedance(geom_linear(6, 0.3), EXT))
    s, U = sym_eig(Z)
    with EXT.arithmetic().lock:
        full, V = coupling._jacobi_eigh(EXT.arithmetic().ctx, Z.dense())
    assert list(s) == full
    assert all(U[i, j] == V[i, j] for i in range(6) for j in range(6))


def _bits(x):
    """The exact representation of an mpmath number: its type and mantissa-exponent tuples."""
    return type(x), getattr(x, "_mpc_", None) or x._mpf_


@pytest.mark.parametrize("precision", [Precision(), EXT], ids=["double", "ext"])
@pytest.mark.parametrize("geom", [
    _lattice(9, 9, 0.2, ElementKind.PLANAR),
    ArrayGeometry(shape=(5, 3), kind=ElementKind.ISOTROPIC, wavelength=LAM,
                  dy=0.2 * LAM, dz=0.27 * LAM),
    geom_linear(20, 0.3),
], ids=["grid", "rect-unequal-pitches", "line"])
def test_lattice_build_matches_the_per_pair_offset_formula_bit_for_bit(geom, precision):
    ar = precision.arithmetic()
    iy, iz = geom.lattice_indices().T
    with ar.lock:
        dy, dz = ar.number([geom.dy, geom.dz])
        r = np.empty((geom.n, geom.n), dtype=ar.dtype)
        for a in range(geom.n):
            r[a] = ar.sqrt((ar.number(np.abs(iy - iy[a])) * dy) ** 2
                           + (ar.number(np.abs(iz - iz[a])) * dz) ** 2)
        k = 2 * ar.pi / ar.number(geom.wavelength)
        expected = coupling._kernel(geom.kind, r * k, precision)
    entries = impedance(geom, precision).dense()
    if precision.is_extended:
        assert [_bits(x) for x in entries.ravel()] == [_bits(x) for x in expected.ravel()]
    else:
        assert np.array_equal(entries, expected)


def _vectors_for_the_product(Z, rng):
    """Two vectors over all elements, one in each sector of Z and, on a square, each mirror sector.

    Each comes real and complex, in Z's arithmetic.  The sector vectors
    are ``expand`` outputs written into ``np.zeros``: in extended
    precision a sector leaves the elements it does not hold as
    Python-int zeros.
    """
    ctx = Z.arithmetic.ctx

    def numbers(m, complex_):
        parts = rng.normal(size=(m, 2 if complex_ else 1))
        if ctx is None:
            return parts[:, 0] + 1j * parts[:, 1] if complex_ else parts[:, 0]
        return np.array([ctx.mpc(*p) if complex_ else ctx.mpf(*p) for p in parts], dtype=object)

    vectors = [numbers(Z.n, complex_) for complex_ in (False, True)]
    mirror_sectors = _four_sector(Z)._sectors if Z.images.shape[1] == 8 else []
    for sector in Z._sectors + mirror_sectors:
        for complex_ in (False, True):
            y = numbers(len(sector.images), complex_)
            vectors.append(sector.expand(y, np.zeros(Z.n, dtype=y.dtype)))
    return vectors


def _product_layout(geom, symmetric, precision):
    """The Z of a layout in a precision, with its images or (``symmetric`` false) with none."""
    Z = impedance(geom, precision)
    return Z if symmetric else _no_symmetry(Z)


# (layout, whether Z keeps its images, the orbit rows the product reads)
_PRODUCT_LAYOUTS = pytest.mark.parametrize("geom,symmetric,rows", [
    (_lattice(4, 4, 0.25, ElementKind.PLANAR), True, 3),
    (_lattice(5, 5, 0.2, ElementKind.PLANAR), True, 6),
    (_lattice(9, 9, 0.25, ElementKind.ISOTROPIC), True, 15),
    # no swap: the four mirrors' orbits
    (_lattice(4, 5, 0.25, ElementKind.ISOTROPIC), True, 6),
    (ArrayGeometry(shape=(5, 5), kind=ElementKind.PLANAR, wavelength=LAM,
                   dy=0.2 * LAM, dz=0.25 * LAM), True, 9),
    (geom_linear(20, 0.3), True, 10),
    # no symmetry: one row per element
    (_lattice(3, 4, 0.3, ElementKind.PLANAR), False, 12),
], ids=["4x4", "5x5", "9x9", "4x5", "5x5-unequal-pitches", "line", "no-symmetry"])


@_PRODUCT_LAYOUTS
def test_double_and_extended_work_in_the_same_sectors(geom, symmetric, rows):
    double, extended = (_product_layout(geom, symmetric, precision)
                        for precision in (Precision(), EXT))
    assert len(double.orbits) == len(extended.orbits) == rows
    assert [(sector.parity, len(sector.images)) for sector in double._sectors] == [
        (sector.parity, len(sector.images)) for sector in extended._sectors]
    for a, b in zip(double._sectors, extended._sectors):
        assert np.array_equal(a.images, b.images)


@_PRODUCT_LAYOUTS
@pytest.mark.parametrize("precision", [Precision(), EXT], ids=["double", "ext"])
def test_dense_is_symmetric_invariant_and_holds_the_stored_rows(geom, symmetric, rows, precision):
    Z = _product_layout(geom, symmetric, precision)
    dense = Z.dense()
    assert dense.shape == (Z.n, Z.n) and dense.dtype == Z.rows.dtype
    assert np.array_equal(dense, dense.T)
    for perm in Z.images.T:
        assert np.array_equal(dense[np.ix_(perm, perm)], dense)
    first = np.flatnonzero(Z.images[:, :4].min(axis=1) == np.arange(Z.n))
    assert len(Z.rows) == len(first)
    if precision.is_extended:
        assert [_bits(x) for x in dense[first].ravel()] == [_bits(x) for x in Z.rows.ravel()]
    else:
        assert np.array_equal(dense[first], Z.rows)


@_PRODUCT_LAYOUTS
def test_product_on_the_absolute_rows_gives_the_residual_floor_of_the_dense_product(
        geom, symmetric, rows):
    # the double solve's floor eps |Z| |x|, formed from the stored rows of |Z|
    Z = _product_layout(geom, symmetric, Precision())
    dense = np.abs(Z.dense())
    for x in _vectors_for_the_product(Z, np.random.default_rng(17)):
        got = coupling._product(Z, np.abs(x), np.abs(Z.rows))
        want = dense @ np.abs(x)
        assert np.all(np.abs(got - want) <= Z.n * np.finfo(float).eps * want)


@_PRODUCT_LAYOUTS
def test_double_product_reads_each_orbit_row_once_per_image_and_stays_near_z_v(
        monkeypatch, geom, symmetric, rows):
    Z = _product_layout(geom, symmetric, Precision())
    matvec = Z.arithmetic.matvec
    rows_read = []

    def counting_matvec(a, x):
        rows_read.append(len(a))
        return matvec(a, x)

    bound = 8 * Z.n * np.finfo(float).eps
    for v in _vectors_for_the_product(Z, np.random.default_rng(13)):
        rows_read.clear()
        monkeypatch.setattr(Z.arithmetic, "matvec", counting_matvec)
        got = coupling._product(Z, v)
        monkeypatch.undo()
        # every orbit row is read, and every entry formed once at most: no
        # vector reads more rows than the plain product, and one whose
        # every image is plus or minus itself reads each orbit row once
        assert len(Z.orbits) <= sum(rows_read) <= Z.n
        if all(np.array_equal(v[g], v) or np.array_equal(v[g], -v) for g in Z.images.T):
            assert sum(rows_read) == len(Z.orbits)
        assert got.dtype == v.dtype
        assert np.all(np.abs(got - Z.dense() @ v) <= bound * (np.abs(Z.dense()) @ np.abs(v)))


@_PRODUCT_LAYOUTS
def test_extended_product_matches_the_row_by_row_product_bit_for_bit(monkeypatch, geom,
                                                                      symmetric, rows):
    Z = _product_layout(geom, symmetric, EXT)
    # a square lattice reads one row per orbit of its 8 symmetries, any other one per mirror orbit
    assert len(Z.orbits) == rows
    assert (rows < len(_four_sector(Z).orbits)) == (Z.images.shape[1] == 8)
    ctx, ar = Z.arithmetic.ctx, Z.arithmetic
    fdot = ctx.fdot
    calls = []

    def counting_fdot(*args, **kwargs):
        calls.append(1)
        return fdot(*args, **kwargs)

    with ar.lock:
        for v in _vectors_for_the_product(Z, np.random.default_rng(11)):
            calls.clear()
            monkeypatch.setattr(ctx, "fdot", counting_fdot)
            got = coupling._product(Z, v)
            monkeypatch.undo()
            # every entry is formed once at most: no vector costs more than the plain product
            assert len(calls) <= geom.n
            assert [_bits(x) for x in got] == [_bits(fdot(Z.dense()[a], v)) for a in range(Z.n)]


def _peak_traced_bytes(f):
    """The peak of the allocations traced while f runs; tracemalloc sees numpy's buffers."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_double_build_and_products_make_no_n_squared_temporary():
    # Z is 8 N^2 bytes and a complex copy of it 16 N^2: the build holds
    # the rows of the 225 mirror orbits and small broadcast indices (the
    # layout's arrays are O(N)); the product gathers the rows of one
    # orbit per image, 120 of 841 on this square, and multiplies them by
    # the real and the imaginary part of the vector
    geom = _lattice(29, 29, 0.45, ElementKind.PLANAR)
    n = geom.n
    assert n == 841
    build = _peak_traced_bytes(lambda: impedance(geom))
    Z = impedance(geom)
    assert Z.rows.shape == (225, 841)
    assert build < 2 * Z.rows.nbytes
    rng = np.random.default_rng(37)
    i = rng.normal(size=n) + 1j * rng.normal(size=n)
    h = channel_isotropic(geom, [10.0, 1.0, 0.5])  # off axis: all four sectors
    assert h.dtype == complex
    assert _peak_traced_bytes(lambda: quadratic_form(Z, i)) < 4 * n ** 2
    assert _peak_traced_bytes(lambda: solve(Z, h)) < 8 * n ** 2


def test_extended_quadratic_form_of_an_even_vector_reads_one_row_per_orbit(monkeypatch):
    geom = _lattice(11, 11, 0.25, ElementKind.PLANAR)
    Z = impedance(geom, EXT)
    h = channel_for(geom, [10.0, 0.0, 0.0], EXT)  # even under both mirrors
    ctx, ar = Z.arithmetic.ctx, Z.arithmetic
    with ar.lock:
        expected = ar.real(ar.vdot(h, ar.matvec(Z.dense(), h)))
    fdot = ctx.fdot
    calls = []

    def counting_fdot(*args, **kwargs):
        calls.append(len(args[0]))
        return fdot(*args, **kwargs)

    monkeypatch.setattr(ctx, "fdot", counting_fdot)
    value = quadratic_form(Z, h)
    monkeypatch.undo()
    assert _bits(value) == _bits(expected)
    # h is even under the swap too: one fdot per row of an orbit of the
    # square's 8 symmetries (21 of 121 rows, against 36 mirror orbits), then the vdot
    assert (geom.n, len(_four_sector(Z).orbits), len(Z.orbits)) == (121, 36, 21)
    assert calls == [geom.n] * (21 + 1)


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
            quad = radiated_power_quadrature(geom, i, 1.0, quad_order=128)
            assert quad == pytest.approx(closed, rel=1e-6)


def test_matrix_text_dump_round_trips(tmp_path):
    Z = impedance(geom_linear(7, 0.4, ElementKind.PLANAR))
    path = tmp_path / "z.txt"
    write_matrix_text(Z, path)
    back = np.loadtxt(path)
    np.testing.assert_array_equal(back, Z.dense())


def test_extended_entries_match_double_to_rounding():
    g = geom_linear(6, 0.3, ElementKind.PLANAR)
    Zd = impedance(g).dense()
    Ze = impedance(g, EXT).dense().astype(float)
    np.testing.assert_allclose(Ze, Zd, rtol=1e-14, atol=1e-17)
