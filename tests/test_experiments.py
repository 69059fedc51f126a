import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from lissim import (
    SPEED_OF_LIGHT,
    ConfigError,
    ElementKind,
    Precision,
    ca_mf,
    ca_pmf,
    channel_for,
    d_nc,
    default_config,
    directivity,
    impedance,
    nca_mf,
    planar_grid,
    run_conditioning_sweep,
    run_experiment,
    run_singular_profile,
    run_spacing_sweep,
    run_truncation_sweep,
)
import lissim
from lissim import experiments
from lissim.cli import main as cli_main
from lissim.experiments import (
    ExperimentConfig,
    apply_overrides,
    config_from_dict,
    load_config,
    parse_spacing,
)

LAM = SPEED_OF_LIGHT / 2.6e9


def make_config(**overrides) -> ExperimentConfig:
    base = {
        "spacings": ["0.5 lambda"],
        "element_kinds": ["isotropic"],
        "include_timing": False,
    }
    base.update(overrides)
    return config_from_dict(base)


def test_spacing_entry_parsing():
    assert parse_spacing(0.05, LAM) == 0.05
    assert parse_spacing("0.3 lambda", LAM) == pytest.approx(0.3 * LAM, rel=0)
    assert parse_spacing("0.3*lambda", LAM) == pytest.approx(0.3 * LAM, rel=0)
    assert parse_spacing("0.25 wl", LAM) == pytest.approx(0.25 * LAM, rel=0)
    assert parse_spacing("0.125", LAM) == 0.125
    for bad in (-1.0, 0.0, "nonsense", "lambda 0.3", None, True):
        with pytest.raises(ConfigError):
            parse_spacing(bad, LAM)


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys"):
        config_from_dict({"spacings": [0.1], "frequenzy_hz": 1e9})
    with pytest.raises(ConfigError, match="unknown panel keys"):
        config_from_dict({"spacings": [0.1], "panel": {"width": 0.5}})
    with pytest.raises(ConfigError, match="unknown link_budget keys"):
        config_from_dict({"spacings": [0.1], "link_budget": {"ptx": 1.0}})


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        config_from_dict({"spacings": []})
    with pytest.raises(ConfigError):
        config_from_dict({"spacings": [0.1], "schemes": ["MRT"]})
    with pytest.raises(ConfigError):
        config_from_dict({"spacings": [0.1], "element_kinds": ["isotropic", "isotropic"]})
    with pytest.raises(ConfigError):
        config_from_dict({"spacings": [0.1], "precision": "ext:banana"})
    with pytest.raises(ConfigError):
        config_from_dict({"spacings": [0.1], "svd_threshold": -1.0})


def test_default_configs_parse_for_all_experiments():
    for name in ("conditioning", "profile", "truncation", "spacing"):
        cfg = default_config(name)
        assert cfg.spacings_m
        assert cfg.output_path.endswith(".csv")
    grid = default_config("conditioning").spacings_m
    assert grid[0] == pytest.approx(0.1 * LAM)
    assert grid[-1] == pytest.approx(1.0 * LAM)


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "frequency_hz": 3.0e9,
        "spacings": ["0.5 lambda", 0.04],
        "element_kinds": ["planar"],
        "precision": "ext:128",
        "link_budget": {"ptx_watts": 2.0, "noise_variance_watts": 0.5},
    }))
    cfg = load_config(path)
    assert cfg.frequency_hz == 3.0e9
    assert cfg.spacings_m[0] == pytest.approx(0.5 * SPEED_OF_LIGHT / 3.0e9)
    assert cfg.spacings_m[1] == 0.04
    assert cfg.precision == Precision.extended(128)
    assert cfg.link_budget.ptx == 2.0


def test_conditioning_sweep_reference_values():
    cfg = make_config(spacings=["0.5 lambda", "0.4 lambda", "0.3 lambda", "1.0 lambda"])
    res = run_conditioning_sweep(cfg)
    rows = {round(r[1], 6): r for r in res.rows}
    assert rows[0.5][4] == pytest.approx(1.0, abs=1e-9)
    assert rows[1.0][4] == pytest.approx(1.0, abs=1e-9)
    assert rows[0.3][4] > rows[0.4][4] > rows[0.5][4]
    assert rows[0.3][4] > 1e9


def test_profile_sorted_descending_and_identity_at_half_wavelength():
    cfg = make_config(spacings=["0.5 lambda", "0.3 lambda"])
    res = run_singular_profile(cfg)
    by_spacing = {}
    for row in res.rows:
        by_spacing.setdefault(round(row[1], 6), []).append(row[5])
    assert np.allclose(by_spacing[0.5], 1.0, atol=1e-13)
    eig = by_spacing[0.3]
    assert all(b <= a for a, b in zip(eig, eig[1:]))
    assert len(eig) == 20


def test_truncation_sweep_monotone_and_matches_ca_mf_when_untruncated():
    cfg = make_config(spacings=["0.5 lambda"])
    res = run_truncation_sweep(cfg)
    d_col = res.column("directivity")
    p_col = res.column("excitation_power")
    assert all(b >= a * (1 - 1e-9) for a, b in zip(d_col, d_col[1:]))
    assert all(b >= a * (1 - 1e-9) for a, b in zip(p_col, p_col[1:]))
    # full rank on a well-conditioned matrix reproduces the exact solve
    from lissim import linear_array
    geom = linear_array(20, 0.5 * LAM, ElementKind.ISOTROPIC, LAM)
    Z = impedance(geom)
    h = channel_for(geom, np.array([10.0, 0.0, 0.0]))
    d_exact = directivity(ca_mf(Z, h), Z, h, [10.0, 0.0, 0.0], LAM)
    assert d_col[-1] == pytest.approx(d_exact, rel=1e-10)


def test_spacing_sweep_columns_and_reference_values():
    cfg = make_config(
        spacings=["1.0 lambda", "0.5 lambda"],
        element_kinds=["isotropic", "planar"],
        schemes=["nCA-MF", "CA-MF", "CA-pMF"],
    )
    res = run_spacing_sweep(cfg)
    assert len(res.rows) == 2 * 2 * 3
    assert set(res.column("status")) == {"ok"}
    ref = d_nc([10.0, 0.0, 0.0], 0.5, 0.5, LAM)
    assert all(v == pytest.approx(ref, rel=1e-12) for v in res.column("d_nc_reference"))
    # directivity recomputable from the (Z, h, i) triple of each row
    idx = {c: k for k, c in enumerate(res.columns)}
    for row in res.rows:
        spacing = row[idx["spacing_m"]]
        kind = ElementKind(row[idx["element_kind"]])
        geom = planar_grid(0.5, 0.5, spacing, spacing, kind, LAM)
        Z = impedance(geom)
        h = channel_for(geom, np.array([10.0, 0.0, 0.0]))
        scheme = row[idx["scheme"]]
        if scheme == "nCA-MF":
            i = nca_mf(h)
        elif scheme == "CA-MF":
            i = ca_mf(Z, h)
        else:
            i = ca_pmf(Z, h, cfg.svd_threshold)
        want = directivity(i, Z, h, [10.0, 0.0, 0.0], LAM)
        assert row[idx["directivity"]] == pytest.approx(want, rel=1e-10)


def test_spacing_sweep_hp_column_only_under_extended_precision():
    cfg_d = make_config(spacings=["0.5 lambda"], schemes=["CA-MF", "HP-CA-MF"])
    res_d = run_spacing_sweep(cfg_d)
    assert set(res_d.column("scheme")) == {"CA-MF"}

    cfg_e = make_config(spacings=["0.5 lambda"], schemes=["CA-MF", "HP-CA-MF"],
                        precision="ext:128")
    res_e = run_spacing_sweep(cfg_e)
    idx = {c: k for k, c in enumerate(res_e.columns)}
    by_scheme = {row[idx["scheme"]]: row for row in res_e.rows}
    assert by_scheme["HP-CA-MF"][idx["status"]] == "ok"
    # at half-wavelength spacing both precisions agree tightly
    assert by_scheme["HP-CA-MF"][idx["directivity"]] == pytest.approx(
        by_scheme["CA-MF"][idx["directivity"]], rel=1e-9)


def test_spacing_sweep_hp_cap_marks_skipped_rows():
    cfg = make_config(spacings=["0.5 lambda"], schemes=["HP-CA-MF"],
                      precision="ext:128", hp_max_elements=10)
    res = run_spacing_sweep(cfg)
    assert res.rows
    assert all("skipped" in s for s in res.column("status"))
    assert all(v is None for v in res.column("directivity"))


def test_csv_determinism_without_timing():
    cfg = make_config(spacings=["0.5 lambda", "0.35 lambda"])
    a = run_experiment("conditioning", cfg).to_csv()
    b = run_experiment("conditioning", cfg).to_csv()
    assert a == b
    assert "wall_time_ms" not in a
    header = a.splitlines()[0].split(",")
    assert header[0] == "spacing_m"


def test_csv_keeps_timing_by_default():
    cfg = make_config(include_timing=True)
    text = run_experiment("conditioning", cfg).to_csv()
    assert "wall_time_ms" in text.splitlines()[0]


@pytest.mark.parametrize("experiment", ["spacing", "truncation"])
def test_wall_time_charges_point_setup_to_its_first_row(monkeypatch, experiment):
    delay_s = 0.2
    build = experiments.impedance

    def slow_impedance(*args, **kwargs):
        time.sleep(delay_s)
        return build(*args, **kwargs)

    monkeypatch.setattr(experiments, "impedance", slow_impedance)
    cfg = make_config(include_timing=True, linear_elements=6, schemes=["nCA-MF", "CA-pMF"])
    start = time.perf_counter()
    times = run_experiment(experiment, cfg).column("wall_time_ms")
    total_ms = (time.perf_counter() - start) * 1e3
    assert times[0] >= delay_s * 1e3
    assert all(t < delay_s * 1e3 for t in times[1:])
    # the point's rows add up to its wall time: only the sweep's own
    # set-up outside the point is left over
    assert 0.9 * total_ms <= sum(times) <= total_ms


def test_csv_17_digit_floats_and_inf():
    cfg = make_config(spacings=["0.1 lambda"])  # double kappa saturates to inf
    text = run_experiment("conditioning", cfg).to_csv()
    line = text.splitlines()[1]
    assert line.split(",")[4] == "inf"
    assert f"{0.1 * LAM:.17g}" in line


def test_worker_env_cap_keeps_results_identical(monkeypatch):
    cfg = make_config(spacings=["0.5 lambda", "0.4 lambda", "0.3 lambda"])
    baseline = run_experiment("conditioning", cfg).to_csv()
    monkeypatch.setenv("LISSIM_MAX_WORKERS", "1")
    serial = run_experiment("conditioning", cfg).to_csv()
    assert serial == baseline
    monkeypatch.setenv("LISSIM_MAX_WORKERS", "not-a-number")
    with pytest.raises(ConfigError):
        run_experiment("conditioning", cfg)


def test_spacing_csv_is_byte_identical_with_one_and_two_workers(monkeypatch):
    cfg = make_config(spacings=["0.5 lambda", "0.35 lambda", "0.25 lambda", "0.2 lambda"],
                      element_kinds=["isotropic", "planar"],
                      panel={"width_m": 0.2, "height_m": 0.15},
                      schemes=["nCA-MF", "CA-MF", "CA-pMF"])
    tables = {}
    for workers in ("1", "2"):
        monkeypatch.setenv("LISSIM_MAX_WORKERS", workers)
        tables[workers] = run_experiment("spacing", cfg).to_csv()
    assert len(tables["1"].splitlines()) == 1 + 4 * 2 * 3
    assert tables["1"] == tables["2"]


def test_truncation_row_of_a_zero_filter_reports_zero_directivity(monkeypatch):
    # a retained set orthogonal to the channel makes the truncated filter exactly zero
    rank_solves = experiments.coupling._rank_solves

    def first_mode_misses_the_terminal(Z, h):
        first, *rest = rank_solves(Z, h)
        return [first * 0, *rest]

    monkeypatch.setattr(experiments.coupling, "_rank_solves", first_mode_misses_the_terminal)
    res = run_truncation_sweep(make_config(linear_elements=6))
    first, second = res.rows[0], res.rows[1]
    idx = {c: k for k, c in enumerate(res.columns)}
    assert (first[idx["directivity"]], first[idx["directivity_dbi"]],
            first[idx["excitation_power"]]) == (0.0, -np.inf, 0.0)
    assert second[idx["directivity"]] > 0
    assert ",0,-inf," in res.to_csv().splitlines()[1]


def test_extended_truncation_table_of_the_20_element_line_is_unchanged():
    # frozen from the cyclic Jacobi that started every block from the unit
    # basis; the double eigh start and the single i^H Z i per row keep it
    frozen = Path(__file__).parent / "data" / "truncation_line20_ext256.csv"
    cfg = make_config(spacings=["0.5 lambda", "0.3 lambda", "0.1 lambda"],
                      element_kinds=["isotropic", "planar"], schemes=["CA-pMF"],
                      precision="ext:256")
    assert run_experiment("truncation", cfg).to_csv() == frozen.read_text()


def test_extended_spacing_table_of_the_quarter_metre_panel_is_unchanged(tmp_path):
    # the HP-CA-MF path bit for bit: the extended Z, channel and solve, and
    # the i^H h of the directivity, on the 9 x 9 and 11 x 11 grids.  The
    # double CA-MF rows (kappa 8e12 and more) move in the sixth digit with
    # the BLAS summation order, so the sweep runs in a fresh interpreter
    # with one BLAS thread, as the table was frozen
    frozen = Path(__file__).parent / "data" / "spacing_hp_ext256.csv"
    cfg = tmp_path / "spacing-hp.json"
    cfg.write_text(json.dumps({
        "panel": {"width_m": 0.25, "height_m": 0.25},
        "spacings": ["0.25 lambda", "0.2 lambda"],
        "element_kinds": ["isotropic", "planar"],
        "schemes": ["nCA-MF", "CA-MF", "CA-pMF", "HP-CA-MF"],
        "precision": "ext:256",
    }))
    out = tmp_path / "spacing-hp.csv"
    src = str(Path(lissim.__file__).parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-m", "lissim.cli", "spacing", "--config", str(cfg),
                    "--out", str(out), "--quiet", "--no-timing"], env=env, check=True)
    table = out.read_text()
    assert len(table.splitlines()) == 1 + 16
    assert table == frozen.read_text()


def test_apply_overrides():
    cfg = make_config()
    out = apply_overrides(cfg, precision="ext:128", threshold=1e-6,
                          output_path="x.csv", include_timing=False, dump_dir="d")
    assert out.precision == Precision.extended(128)
    assert out.svd_threshold == 1e-6
    assert out.output_path == "x.csv"
    assert out.dump_dir == "d"
    with pytest.raises(ConfigError):
        apply_overrides(cfg, threshold=-2.0)
    with pytest.raises(ConfigError):
        apply_overrides(cfg, precision="half")


def test_cli_success_and_output(tmp_path, capsys):
    out = tmp_path / "cond.csv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"spacings": ["0.5 lambda"], "element_kinds": ["isotropic"]}))
    code = cli_main(["conditioning", "--config", str(cfg), "--out", str(out),
                     "--quiet", "--no-timing"])
    assert code == 0
    text = out.read_text()
    assert text.splitlines()[0] == "spacing_m,spacing_wavelengths,n_elements,element_kind,kappa"
    assert capsys.readouterr().err == ""


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli_main(["spacing", "--config", str(bad), "--quiet"]) == 2
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"spacings": [0.1], "frequency": 1.0}))
    assert cli_main(["spacing", "--config", str(unknown), "--quiet"]) == 2


def test_cli_numerical_failure_exit_code(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "spacings": ["0.001 lambda"],
        "element_kinds": ["isotropic"],
        "max_elements": 100,
    }))
    out = tmp_path / "never.csv"
    assert cli_main(["spacing", "--config", str(cfg), "--out", str(out), "--quiet"]) == 3
    assert not out.exists()


def test_cli_dump_matrices(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"spacings": ["0.5 lambda"], "element_kinds": ["planar"]}))
    dump = tmp_path / "mats"
    out = tmp_path / "o.csv"
    code = cli_main(["conditioning", "--config", str(cfg), "--out", str(out),
                     "--dump-matrices", str(dump), "--quiet"])
    assert code == 0
    files = list(dump.glob("Z_planar_*.txt"))
    assert len(files) == 1
    arr = np.loadtxt(files[0])
    from lissim import linear_array
    geom = linear_array(20, 0.5 * LAM, ElementKind.PLANAR, LAM)
    np.testing.assert_array_equal(arr, impedance(geom).entries)
