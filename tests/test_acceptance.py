"""Acceptance checks: exact analytic cases, oracle equivalences, and the
qualitative behaviors the toolkit is expected to reproduce.

Each check prints one ``[criterion] PASS/FAIL`` line with its measured
numbers (run pytest with ``-s`` to see them).  Checks 6a-6d encode
literature-derived expectations.  Two of them fail; their bounds are
kept as stated rather than loosened, and the failure messages carry the
measured values.

- 6a fails, and the program is right.  The worst nCA-MF/CA-MF gap is
  0.5601 dB (isotropic, 0.75 wl pitch, N = 36) against a 0.5 dB bound.
  The sphere quadrature reproduces ``i^H Z i`` for both currents to
  about 1e-15, and a terminal at 1e4 m still gives 0.558 dB, so this is
  neither a kernel fault nor a near-field effect.  At this pitch the
  sinc kernel sits near its first sidelobe: the axis-neighbour coupling
  is -0.212 and kappa(Z) is 9.5.  At the same pitch the gap is 0.59 dB
  on a 0.75 m panel (N = 81) and falls below 0.3 dB only from 1 m
  (0.27 dB, N = 144).  Nothing in the repository says where the 0.5 dB
  bound comes from.
- 6b passes.  It compares two pitches on one panel that both tile
  exactly, so the populated cell area ``N * dy * dz`` is the same.  On
  the default 0.5 m panel the ``floor`` element count gives the two
  grids cell sides of 4.375 and 4.4 wl; that 1.14 % area change alone
  produced a 1.10 % directivity gap.
- 6c fails on ``D > N`` at 0.25 wl (D = 246.24, N = 324), and the
  program is right under the planar convention the suite pins.  That
  convention is a two-sided ``|cos theta|`` element (criterion 3 expects
  D = 2 for one element).  A front-only element would halve ``Z`` and
  double every planar D, to 492 > 324.  D/N over 0.5, 0.4, 0.3, 0.25 and
  0.2 wl runs 1.57, 1.15, 0.90, 0.76 and 1.03, so ``D > N at the
  smallest spacing`` depends on where the sweep stops.  The paper's own
  planar-element model is not in the repository to settle this.
"""

import time

import numpy as np
import pytest

from lissim import (
    SPEED_OF_LIGHT,
    ElementKind,
    Precision,
    ca_mf,
    ca_pmf,
    channel_for,
    channel_isotropic,
    channel_planar,
    condition_number,
    d_nc,
    directivity,
    excitation_power,
    impedance,
    j1_over_x,
    linear_array,
    nca_mf,
    planar_grid,
    quadratic_form,
    sinc_unnormalized,
    snr,
    sym_eig,
)
from lissim.specfun import _J1_BRANCH_CUTOFF, _j1_asymptotic, _j1_small
from oracles import j1_series_oracle, radiated_power_quadrature

LAM = SPEED_OF_LIGHT / 2.6e9
UE = np.array([10.0, 0.0, 0.0])
FAR = np.array([1.0e6, 0.0, 0.0])
EXT256 = Precision.extended(256)

KAPPA_03LAM_ISO_EXT = 17988292210.84088  # frozen from the 256-bit eigensolve


def _report(tag: str, passed: bool, detail: str) -> None:
    print(f"[{tag}] {'PASS' if passed else 'FAIL'} - {detail}")


def _grid(frac: float, kind: ElementKind):
    return planar_grid(0.5, 0.5, frac * LAM, frac * LAM, kind, LAM)


def test_criterion_1_identity_coupling_equivalence():
    start = time.perf_counter()
    geom = linear_array(20, 0.5 * LAM, ElementKind.ISOTROPIC, LAM)
    Z = impedance(geom)
    z_err = float(np.max(np.abs(Z.dense() - np.eye(20))))

    h = channel_isotropic(geom, UE)
    snr_gap = abs(snr(nca_mf(h), Z, h) - snr(ca_mf(Z, h), Z, h)) / snr(ca_mf(Z, h), Z, h)

    h_far = channel_isotropic(geom, FAR)
    d = directivity(nca_mf(h_far), Z, h_far, FAR, LAM)
    d_err = abs(d - 20.0) / 20.0
    elapsed = time.perf_counter() - start

    ok = z_err <= 1e-12 and snr_gap <= 1e-12 and d_err <= 1e-6
    _report("criterion 1", ok,
            f"max|Z-I|={z_err:.2e}, SNR gap={snr_gap:.2e}, D={d:.9f} "
            f"(rel err {d_err:.2e}), {elapsed:.2f}s")
    assert z_err <= 1e-12
    assert snr_gap <= 1e-12
    assert d_err <= 1e-6


def test_criterion_2_quadrature_matches_closed_form():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    beta = 1.7
    worst = 0.0
    for case in range(50):
        kind = ElementKind.ISOTROPIC if case % 2 == 0 else ElementKind.PLANAR
        frac = float(rng.uniform(0.1, 1.0))
        if case % 3 == 0:
            n_side = int(rng.integers(2, 3))
            geom = planar_grid(n_side * frac * LAM * 1.001, frac * LAM * 1.001,
                               frac * LAM, frac * LAM, kind, LAM)
        else:
            geom = linear_array(int(rng.integers(2, 7)), frac * LAM, kind, LAM)
        assert geom.n <= 6
        i = rng.normal(size=geom.n) + 1j * rng.normal(size=geom.n)
        closed = beta * quadratic_form(impedance(geom), i)
        quad = radiated_power_quadrature(geom, i, beta, quad_order=128)
        worst = max(worst, abs(quad - closed) / abs(closed))
    elapsed = time.perf_counter() - start
    _report("criterion 2", worst <= 1e-6,
            f"50 random cases, worst |quad - i^H Z i| rel = {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-6


def test_criterion_3_single_element_directivities():
    start = time.perf_counter()
    g_iso = linear_array(1, 0.1, ElementKind.ISOTROPIC, LAM)
    h = channel_isotropic(g_iso, UE)
    d_iso = directivity(nca_mf(h), impedance(g_iso), h, UE, LAM)

    g_pla = linear_array(1, 0.1, ElementKind.PLANAR, LAM)
    hp = channel_planar(g_pla, UE)
    d_pla = directivity(nca_mf(hp), impedance(g_pla), hp, UE, LAM)

    # independent confirmation: radiated power from the sphere quadrature
    p_rad = radiated_power_quadrature(g_pla, nca_mf(hp), 1.0, 64)
    d_pla_quad = (abs(np.vdot(nca_mf(hp), hp)) ** 2 / p_rad) * (
        4 * np.pi * np.linalg.norm(UE) / LAM) ** 2
    elapsed = time.perf_counter() - start

    ok = (abs(d_iso - 1.0) <= 1e-12 and abs(d_pla - 2.0) <= 1e-9
          and abs(d_pla_quad - 2.0) <= 1e-6 * 2.0)
    _report("criterion 3", ok,
            f"isotropic D={d_iso:.15f}, planar D={d_pla:.12f}, "
            f"quadrature-confirmed D={d_pla_quad:.9f}, {elapsed:.2f}s")
    assert abs(d_iso - 1.0) <= 1e-12
    assert abs(d_pla - 2.0) <= 1e-9
    assert d_pla_quad == pytest.approx(2.0, rel=1e-6)


def test_criterion_4_conditioning_growth():
    start = time.perf_counter()
    prec = Precision.extended(128)
    fracs = [0.5, 0.45, 0.4, 0.35, 0.3, 0.25, 0.2, 0.15, 0.1]
    kappas = []
    for frac in fracs:
        geom = linear_array(20, frac * LAM, ElementKind.ISOTROPIC, LAM)
        kappas.append(condition_number(impedance(geom, prec)))
    strictly_increasing = all(b > a for a, b in zip(kappas, kappas[1:]))
    k_half = kappas[0]
    k_03 = kappas[fracs.index(0.3)]
    ratio = k_03 / k_half
    frozen_rel = abs(k_03 - KAPPA_03LAM_ISO_EXT) / KAPPA_03LAM_ISO_EXT
    elapsed = time.perf_counter() - start

    ok = (strictly_increasing and abs(k_half - 1.0) <= 1e-9
          and ratio > 1e6 and frozen_rel <= 1e-9)
    _report("criterion 4", ok,
            f"kappa strictly increasing over {fracs}: {strictly_increasing}; "
            f"kappa(0.5)={k_half:.12f}, kappa(0.3)={k_03:.6e} "
            f"(frozen rel dev {frozen_rel:.1e}), ratio={ratio:.3e}, {elapsed:.1f}s")
    assert strictly_increasing
    assert abs(k_half - 1.0) <= 1e-9
    assert ratio > 1e6
    assert frozen_rel <= 1e-9


def test_criterion_5_truncation_monotonicity():
    start = time.perf_counter()
    geom = linear_array(20, 0.3 * LAM, ElementKind.ISOTROPIC, LAM)
    Z = impedance(geom)
    h = channel_isotropic(geom, UE)
    s, U = sym_eig(Z)
    proj = U.conj().T @ h
    factor = (4 * np.pi * np.linalg.norm(UE) / LAM) ** 2
    d_vals, p_vals = [], []
    for m in range(1, 21):
        num = float(np.sum(np.abs(proj[:m]) ** 2 / s[:m]))
        d_vals.append(num * factor)
        # current cost of the power-normalized truncated filter
        p_vals.append(float(np.sum(np.abs(proj[:m]) ** 2 / s[:m] ** 2)) / num)
    d_monotone = all(b >= a * (1 - 1e-9) for a, b in zip(d_vals, d_vals[1:]))
    p_monotone = all(b >= a * (1 - 1e-9) for a, b in zip(p_vals, p_vals[1:]))
    steps = np.diff(p_vals)
    max_step_at = int(np.argmax(steps)) + 2  # step k is the increase from k-1 to k modes
    elapsed = time.perf_counter() - start

    ok = d_monotone and p_monotone and max_step_at >= 18
    _report("criterion 5", ok,
            f"directivity monotone: {d_monotone}, excitation power monotone: {p_monotone}, "
            f"largest power jump when adding mode {max_step_at}/20, {elapsed:.2f}s")
    assert d_monotone
    assert p_monotone
    assert max_step_at >= 18


def test_criterion_6a_weak_coupling_scheme_agreement():
    start = time.perf_counter()
    gaps = {}
    kappas = {}
    oracle_worst = 0.0
    kind_ok = True
    for frac in (0.5, 0.75, 1.0):
        per_kind = {}
        for kind in ElementKind:
            geom = _grid(frac, kind)
            Z = impedance(geom)
            h = channel_for(geom, UE)
            currents = (nca_mf(h), ca_mf(Z, h))
            if geom.n <= 64:
                # the sphere quadrature must confirm the radiated power
                # behind both directivities before their gap is judged
                for i in currents:
                    closed = quadratic_form(Z, i)
                    quad = radiated_power_quadrature(geom, i, quad_order=128)
                    oracle_worst = max(oracle_worst, abs(quad - closed) / abs(closed))
            d_nca, d_ca = (directivity(i, Z, h, UE, LAM) for i in currents)
            gaps[(frac, kind.value)] = abs(10 * np.log10(d_nca) - 10 * np.log10(d_ca))
            kappas[(frac, kind.value)] = condition_number(Z)
            per_kind[kind] = (d_nca, d_ca)
        kind_ok &= (per_kind[ElementKind.PLANAR][0] >= per_kind[ElementKind.ISOTROPIC][0]
                    and per_kind[ElementKind.PLANAR][1] >= per_kind[ElementKind.ISOTROPIC][1])
    worst_key = max(gaps, key=gaps.get)
    worst = gaps[worst_key]
    elapsed = time.perf_counter() - start

    ok = worst <= 0.5 and kind_ok and oracle_worst <= 1e-6
    _report("criterion 6a", ok,
            f"worst nCA/CA gap {worst:.4f} dB at {worst_key} (bound 0.5 dB), "
            f"kappa(Z) there {kappas[worst_key]:.3g}, worst |quad - i^H Z i| rel "
            f"{oracle_worst:.2e} for N <= 64, planar >= isotropic: {kind_ok}, {elapsed:.1f}s")
    assert oracle_worst <= 1e-6
    assert kind_ok
    assert worst <= 0.5, (
        f"nCA-MF vs CA-MF gap {worst:.4f} dB at {worst_key} exceeds the 0.5 dB bound; "
        f"kappa(Z) there is {kappas[worst_key]:.3g} and the sphere quadrature matches "
        f"i^H Z i for both currents to {oracle_worst:.1e} on every grid with N <= 64; "
        f"all gaps: { {k: round(float(v), 4) for k, v in gaps.items()} }")


def test_criterion_6b_nca_mf_plateau():
    """nCA-MF directivity settles once the pitch is far below lambda/2.

    The plateau is measured at equal cell area ``N * dy * dz``: the
    4.45 wl panel holds 36 elements per side at 0.125 wl and 45 at
    0.1 wl, and both grids populate a 4.5 wl side.  On a panel that the
    two pitches do not tile alike, the ``floor`` element count changes
    the cell area with the pitch, and D follows the area rather than the
    density.
    """
    start = time.perf_counter()
    side = 4.45 * LAM
    d = {}
    populated = {}
    for frac in (0.125, 0.1):
        geom = planar_grid(side, side, frac * LAM, frac * LAM, ElementKind.ISOTROPIC, LAM)
        n_y, n_z = geom.shape
        populated[frac] = (n_y * geom.dy, n_z * geom.dz)
        Z = impedance(geom)
        h = channel_isotropic(geom, UE)
        d[frac] = directivity(nca_mf(h), Z, h, UE, LAM)
    assert populated[0.125] == pytest.approx(populated[0.1], rel=1e-12)
    rel = abs(d[0.125] - d[0.1]) / d[0.1]
    elapsed = time.perf_counter() - start

    _report("criterion 6b", rel <= 0.01,
            f"populated side {populated[0.1][0] / LAM:.4f} wl, D(0.125 wl)={d[0.125]:.4f}, "
            f"D(0.1 wl)={d[0.1]:.4f}, plateau gap {100 * rel:.3f}% (bound 1%), {elapsed:.1f}s")
    assert rel <= 0.01, (
        f"nCA-MF plateau gap {100 * rel:.3f}% exceeds 1%: "
        f"D(0.125 wl)={d[0.125]:.6f} vs D(0.1 wl)={d[0.1]:.6f}")


def test_criterion_6c_high_precision_superdirectivity():
    start = time.perf_counter()
    fracs = (0.5, 0.4, 0.3, 0.25)
    d_hp = {}
    n_at = {}
    for frac in fracs:
        geom = _grid(frac, ElementKind.PLANAR)
        Z = impedance(geom, EXT256)
        h = channel_planar(geom, UE, EXT256)
        d_hp[frac] = directivity(ca_mf(Z, h), Z, h, UE, LAM)
        n_at[frac] = geom.n
    increasing = all(d_hp[a] < d_hp[b] for a, b in zip(fracs, fracs[1:]))
    d_ref = d_nc(UE, 0.5, 0.5, LAM)
    smallest = fracs[-1]
    beats_dnc = d_hp[smallest] > d_ref
    beats_n = d_hp[smallest] > n_at[smallest]
    elapsed = time.perf_counter() - start

    ok = increasing and beats_dnc and beats_n
    _report("criterion 6c", ok,
            f"HP directivity {[round(d_hp[f], 2) for f in fracs]} for N "
            f"{[n_at[f] for f in fracs]}; strictly increasing: {increasing}; at 0.25 wl: "
            f"D={d_hp[smallest]:.2f} vs D_NC={d_ref:.2f} (exceeds: {beats_dnc}) "
            f"vs N={n_at[smallest]} (exceeds: {beats_n}), {elapsed:.0f}s")
    assert increasing
    assert beats_dnc, f"D={d_hp[smallest]:.2f} does not exceed D_NC={d_ref:.2f}"
    assert beats_n, (
        f"D={d_hp[smallest]:.2f} does not exceed N={n_at[smallest]} at 0.25 wl "
        f"(nor at 0.2 wl, where the lattice Z gives D=341.27 < N=484; D=498.4 holds "
        f"only for a Z built from the rounded double element positions)")


def test_criterion_6d_threshold_limited_settling():
    start = time.perf_counter()
    d = {}
    for frac in (0.3, 0.25):
        geom = _grid(frac, ElementKind.PLANAR)
        Z = impedance(geom)
        h = channel_planar(geom, UE)
        i = ca_pmf(Z, h, 1e-9)
        d[frac] = directivity(i, Z, h, UE, LAM)
    rel = abs(d[0.25] - d[0.3]) / d[0.3]
    elapsed = time.perf_counter() - start

    _report("criterion 6d", rel <= 0.05,
            f"threshold-limited D(0.3 wl)={d[0.3]:.2f}, D(0.25 wl)={d[0.25]:.2f}, "
            f"settling gap {100 * rel:.2f}% (bound 5%), {elapsed:.1f}s")
    assert rel <= 0.05


def test_criterion_7_continuous_reference_far_field():
    start = time.perf_counter()
    value = d_nc(UE, 0.5, 0.5, LAM)
    limit = 4 * np.pi * 0.25 / LAM**2
    rel = abs(value - limit) / limit
    elapsed = time.perf_counter() - start
    _report("criterion 7", rel <= 0.01,
            f"D_NC={value:.4f} vs aperture limit {limit:.4f}, rel dev {100 * rel:.3f}%, "
            f"{elapsed:.2f}s")
    assert rel <= 0.01


def test_criterion_8_ca_mf_optimality():
    start = time.perf_counter()
    rng = np.random.default_rng(88)
    slack = 1e-10
    worst_excess = -np.inf
    for _ in range(100):
        kind = ElementKind.ISOTROPIC if rng.integers(2) else ElementKind.PLANAR
        frac = float(rng.uniform(0.3, 1.2))
        if rng.integers(2):
            geom = linear_array(int(rng.integers(4, 17)), frac * LAM, kind, LAM)
        else:
            side = int(rng.integers(2, 5))
            geom = planar_grid(side * frac * LAM * 1.001, side * frac * LAM * 1.001,
                               frac * LAM, frac * LAM, kind, LAM)
        o = np.array([rng.uniform(5.0, 20.0), rng.normal(scale=3.0), rng.normal(scale=3.0)])
        Z = impedance(geom)
        h = channel_for(geom, o)
        i_best = ca_mf(Z, h)
        best = snr(i_best, Z, h)
        base = snr(nca_mf(h), Z, h)
        assert best * (1 + slack) >= base >= 0.0
        scale = np.max(np.abs(i_best))
        for _ in range(100):
            i = i_best + scale * rng.uniform(0.01, 1.0) * (
                rng.normal(size=geom.n) + 1j * rng.normal(size=geom.n))
            trial = snr(i, Z, h)
            worst_excess = max(worst_excess, (trial - best) / best)
            assert trial <= best * (1 + slack)
    elapsed = time.perf_counter() - start
    _report("criterion 8", True,
            f"10000 perturbed currents over 100 geometries, worst (SNR_i - SNR_CA)/SNR_CA "
            f"= {worst_excess:.2e} (must stay <= 1e-10), {elapsed:.1f}s")


def test_criterion_9_specfun_correctness():
    start = time.perf_counter()
    xs = np.arange(1, 2001) * 0.01
    vals = j1_over_x(xs)
    worst = 0.0
    for x, v in zip(xs, vals):
        ref = j1_series_oracle(float(x), 60) / float(x)
        worst = max(worst, abs(v - ref) / abs(ref))
    evenness = bool(np.array_equal(vals, j1_over_x(-xs)))

    window = np.linspace(_J1_BRANCH_CUTOFF - 0.25, _J1_BRANCH_CUTOFF + 0.25, 101)
    overlap = float(np.max(np.abs(_j1_small(window) - _j1_asymptotic(window))
                           / np.abs(_j1_small(window))))
    elapsed = time.perf_counter() - start

    ok = worst <= 1e-12 and overlap <= 1e-11 and evenness
    _report("criterion 9", ok,
            f"grid worst rel dev vs series oracle {worst:.2e} (bound 1e-12), "
            f"branch overlap {overlap:.2e} (bound 1e-11), even: {evenness}, {elapsed:.1f}s")
    assert worst <= 1e-12
    assert overlap <= 1e-11
    assert evenness
    assert sinc_unnormalized(0.0) == 1.0 and j1_over_x(0.0) == 0.5
