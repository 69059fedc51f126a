import math

import numpy as np
import pytest

from lissim import (
    SPEED_OF_LIGHT,
    DegenerateInputError,
    ElementKind,
    EmptySpectrumError,
    ImpedanceMatrix,
    InvalidArgumentError,
    NonRadiatingCurrentError,
    Precision,
    ca_mf,
    ca_pmf,
    ca_pmf_rank,
    channel_for,
    channel_isotropic,
    condition_number,
    directivity,
    impedance,
    linear_array,
    nca_mf,
    planar_grid,
    power_normalize,
    quadratic_form,
    snr,
)
from lissim import coupling

LAM = SPEED_OF_LIGHT / 2.6e9
UE = np.array([10.0, 0.0, 0.0])


def _direct(entries):
    return ImpedanceMatrix(np.asarray(entries, dtype=float), Precision())


def test_nca_mf_copies_channel():
    h = np.array([1.0, 1.0j])
    i = nca_mf(h)
    np.testing.assert_array_equal(i, h)
    i[0] = 0.0
    assert h[0] == 1.0  # the copy must not alias


def test_nca_mf_is_linear_in_channel():
    h = np.array([0.3 - 0.2j, 1.5j, -0.7])
    alpha = 2.0 - 0.5j
    np.testing.assert_allclose(nca_mf(alpha * h), alpha * nca_mf(h))


def test_nca_mf_rejects_zero_channel():
    with pytest.raises(DegenerateInputError):
        nca_mf(np.zeros(3, dtype=complex))


def test_ca_mf_identity_coupling_equals_nca():
    h = np.array([1.0 + 0.2j, -0.4j, 0.9])
    Z = _direct(np.eye(3))
    np.testing.assert_allclose(ca_mf(Z, h), nca_mf(h), atol=1e-15)


def test_ca_mf_diagonal_solve():
    Z = _direct(np.diag([1.0, 4.0]))
    np.testing.assert_allclose(ca_mf(Z, np.array([1.0, 1.0])), [1.0, 0.25])


def test_ca_mf_maximizes_quotient_against_perturbations():
    rng = np.random.default_rng(17)
    geom = linear_array(8, 0.4 * LAM, ElementKind.ISOTROPIC, LAM)
    Z = impedance(geom)
    h = channel_isotropic(geom, UE)
    best = snr(ca_mf(Z, h), Z, h)
    for _ in range(100):
        i = ca_mf(Z, h) + 0.1 * (rng.normal(size=8) + 1j * rng.normal(size=8))
        assert snr(i, Z, h) <= best * (1.0 + 1e-10)


def test_ca_pmf_zero_threshold_equals_ca_mf():
    geom = linear_array(10, 0.6 * LAM, ElementKind.PLANAR, LAM)
    Z = impedance(geom)
    h = channel_for(geom, UE)
    d_full = directivity(ca_mf(Z, h), Z, h, UE, LAM)
    d_pmf = directivity(ca_pmf(Z, h, 0.0), Z, h, UE, LAM)
    assert d_pmf == pytest.approx(d_full, rel=1e-10)


def test_ca_pmf_everything_truncated_is_an_error():
    geom = linear_array(5, 0.5 * LAM, ElementKind.ISOTROPIC, LAM)
    Z = impedance(geom)
    h = channel_isotropic(geom, UE)
    with pytest.raises(EmptySpectrumError):
        ca_pmf(Z, h, 100.0)


def test_ca_pmf_directivity_monotone_in_retained_modes():
    geom = linear_array(20, 0.3 * LAM, ElementKind.ISOTROPIC, LAM)
    Z = impedance(geom)
    h = channel_isotropic(geom, UE)
    prev = -np.inf
    for m in range(1, 21):
        d = directivity(ca_pmf_rank(Z, h, m), Z, h, UE, LAM)
        # exact in real arithmetic; 1e-9 slack absorbs noise from the
        # deepest eigenmodes near the double-precision floor
        assert d >= prev * (1.0 - 1e-9)
        prev = d


@pytest.mark.parametrize("precision", [Precision(), Precision.extended(256)], ids=["double", "ext"])
@pytest.mark.parametrize("frac", [0.3, 0.1])
def test_ca_pmf_threshold_and_rank_rules_give_the_same_current_bit_for_bit(precision, frac):
    # the threshold rule keeps the k eigenvalues above t, which are the leading k of
    # the descending spectrum: the rank rule at k keeps the same modes
    geom = linear_array(20, frac * LAM, ElementKind.ISOTROPIC, LAM)
    Z = impedance(geom, precision)
    h = channel_isotropic(geom, [10.0, 0.0, 1.3], precision)
    s, _ = coupling.sym_eig(Z)
    at_eigenvalues = list(s[1:])
    between_eigenvalues = [(a + b) / 2 for a, b in zip(s, s[1:]) if a != b]
    compared = 0
    for t in at_eigenvalues + between_eigenvalues:
        k = sum(1 for v in s if v > t)
        if t < 0 or k == 0:
            continue
        by_threshold = ca_pmf(Z, h, t)
        by_rank = ca_pmf_rank(Z, h, k)
        assert all(a == b for a, b in zip(by_threshold, by_rank)), (t, k)
        compared += 1
    assert compared >= 20


@pytest.mark.parametrize("precision", [Precision(), Precision.extended(256)], ids=["double", "ext"])
def test_ca_pmf_applies_the_retained_spectrum_without_forming_the_pseudo_inverse(
        monkeypatch, precision):
    geom = linear_array(12, 0.3 * LAM, ElementKind.PLANAR, LAM)
    Z = impedance(geom, precision)
    h = channel_for(geom, [10.0, 1.3, -0.7], precision)
    # references from the explicit pseudo-inverses, before they are forbidden
    by_threshold = coupling.truncated_inverse(Z, 1e-9) @ h
    by_rank = {m: coupling.rank_truncated_inverse(Z, m) @ h for m in (1, 5, 12)}

    def no_pseudo_inverse(*args, **kwargs):
        raise AssertionError("CA-pMF must not form the pseudo-inverse")

    for name in ("truncated_inverse", "rank_truncated_inverse", "_modal_inverse"):
        monkeypatch.setattr(coupling, name, no_pseudo_inverse)
    # two orders of applying the same retained spectrum: they agree to the
    # working precision times the retained spectrum's condition number
    tol = 1e-60 if precision.is_extended else 10 * np.finfo(float).eps * condition_number(Z)

    def close(got, want):
        if precision.is_extended:
            ctx = precision.arithmetic().ctx
            return ctx.norm(got - want) <= tol * ctx.norm(want)
        return np.linalg.norm(got - want) <= tol * np.linalg.norm(want)

    assert close(ca_pmf(Z, h, 1e-9), by_threshold)
    for m, want in by_rank.items():
        assert close(ca_pmf_rank(Z, h, m), want)


@pytest.mark.parametrize("precision", [Precision(), Precision.extended(128)], ids=["double", "ext"])
def test_every_result_is_a_numpy_array_in_the_arithmetic_of_z(precision):
    geom = linear_array(6, 0.3 * LAM, ElementKind.PLANAR, LAM)
    Z = impedance(geom, precision)
    h = channel_for(geom, [10.0, 1.3, -0.7], precision)
    s, U = coupling.sym_eig(Z)
    results = {
        "dense": Z.dense(), "eigenvalues": s, "eigenvectors": U, "channel": h,
        "nca_mf": nca_mf(h), "ca_mf": ca_mf(Z, h), "ca_pmf": ca_pmf(Z, h, 1e-9),
        "ca_pmf_rank": ca_pmf_rank(Z, h, 3), "power_normalize": power_normalize(h, Z),
        "truncated_inverse": coupling.truncated_inverse(Z, 1e-9),
        "rank_truncated_inverse": coupling.rank_truncated_inverse(Z, 3),
    }
    ctx = precision.arithmetic().ctx
    for name, value in results.items():
        assert isinstance(value, np.ndarray), name
        assert value.shape in ((geom.n,), (geom.n, geom.n)), name
        assert (value.dtype == object) == precision.is_extended, name
        if precision.is_extended:
            assert all(isinstance(v, (ctx.mpf, ctx.mpc)) for v in value.ravel()), name
    # the matrix and its cached spectrum cannot be written through the results
    assert not any(a.flags.writeable for a in (Z.rows, s, U))


_FILTERS = {
    "nca_mf": lambda Z, h: nca_mf(h),
    "ca_pmf": lambda Z, h: ca_pmf(Z, h, 1e-9),
    "ca_pmf_rank": lambda Z, h: ca_pmf_rank(Z, h, 4),
    # the truncation sweep's sums over every rank
    "partial_sums": lambda Z, h: coupling._partial_sums(Z, h),
}


@pytest.mark.parametrize("precision", [Precision(), Precision.extended(128)],
                         ids=["double", "ext128"])
@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("name", list(_FILTERS))
def test_filters_refuse_a_channel_with_a_nan_or_infinite_entry(name, bad, precision):
    geom = linear_array(6, 0.3 * LAM, ElementKind.ISOTROPIC, LAM)
    Z = impedance(geom, precision)
    h = channel_isotropic(geom, UE, precision).copy()
    h[2] = precision.arithmetic().ctx.mpc(bad) if precision.is_extended else bad
    with pytest.raises(InvalidArgumentError, match="NaN or infinite"):
        _FILTERS[name](Z, h)


def test_power_normalize_identity_case():
    Z = _direct(np.eye(2))
    out = power_normalize(np.array([3.0, 4.0j]), Z)
    np.testing.assert_allclose(out, [0.6, 0.8j])


def test_power_normalize_defining_property_and_idempotence():
    geom = planar_grid(0.3, 0.3, 0.08, 0.08, ElementKind.PLANAR, LAM)
    Z = impedance(geom)
    rng = np.random.default_rng(23)
    i = rng.normal(size=geom.n) + 1j * rng.normal(size=geom.n)
    i_hat = power_normalize(i, Z)
    assert quadratic_form(Z, i_hat) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(power_normalize(i_hat, Z), i_hat, rtol=1e-12)


def test_power_normalize_rejects_null_space_current():
    Z = _direct(np.diag([1.0, 0.0]))
    with pytest.raises(NonRadiatingCurrentError):
        power_normalize(np.array([0.0, 1.0]), Z)


def test_snr_ordering_across_schemes():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(4, 12))
        frac = float(rng.uniform(0.3, 1.2))
        kind = ElementKind.ISOTROPIC if rng.integers(2) else ElementKind.PLANAR
        geom = linear_array(n, frac * LAM, kind, LAM)
        o = np.array([rng.uniform(5, 20), rng.normal(), rng.normal()])
        Z = impedance(geom)
        h = channel_for(geom, o)
        s_ca = snr(ca_mf(Z, h), Z, h)
        s_nca = snr(nca_mf(h), Z, h)
        s_pmf = snr(ca_pmf(Z, h, 1e-9), Z, h)
        assert s_ca >= s_nca >= 0.0
        assert s_ca * (1 + 1e-10) >= s_pmf >= 0.0


def test_identity_coupling_makes_all_schemes_equal():
    geom = linear_array(20, 0.5 * LAM, ElementKind.ISOTROPIC, LAM)
    Z = impedance(geom)
    h = channel_isotropic(geom, UE)
    values = [
        snr(nca_mf(h), Z, h),
        snr(ca_mf(Z, h), Z, h),
        snr(ca_pmf(Z, h, 1e-9), Z, h),
    ]
    assert max(values) - min(values) <= 1e-12 * max(values)


def test_scale_invariance_of_ratio_metrics():
    geom = linear_array(7, 0.35 * LAM, ElementKind.ISOTROPIC, LAM)
    Z = impedance(geom)
    h = channel_isotropic(geom, UE)
    i = ca_mf(Z, h)
    for alpha in (2.0, -0.3, 1.7j, 0.5 - 2.0j):
        assert snr(alpha * i, Z, h) == pytest.approx(snr(i, Z, h), rel=1e-12)
        assert directivity(alpha * i, Z, h, UE, LAM) == pytest.approx(
            directivity(i, Z, h, UE, LAM), rel=1e-12)


def test_extended_precoders_agree_with_double_when_well_conditioned():
    prec = Precision.extended(128)
    geom = linear_array(8, 0.5 * LAM, ElementKind.ISOTROPIC, LAM)
    Zd = impedance(geom)
    hd = channel_isotropic(geom, UE)
    Ze = impedance(geom, prec)
    he = channel_isotropic(geom, UE, prec)
    assert snr(ca_mf(Ze, he), Ze, he) == pytest.approx(snr(ca_mf(Zd, hd), Zd, hd), rel=1e-12)
    i_hat = power_normalize(ca_pmf(Ze, he, 1e-9), Ze)
    assert float(quadratic_form(Ze, i_hat)) == pytest.approx(1.0, abs=1e-12)
