import gc
import json
import math
import os
import subprocess
import sys
import threading
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
from lissim import coupling, experiments, precoding
from lissim.cli import main as cli_main
from lissim.errors import IllConditionedSolveError
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
    # keys of earlier releases that changed no output
    for key, value in (("link_budget", {"ptx_watts": 1.0}), ("nc_double_span_limits", False)):
        with pytest.raises(ConfigError, match="unknown config keys"):
            config_from_dict({"spacings": [0.1], key: value})


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
    # a number must be a finite JSON number: not a string, null, list or bool
    for bad in ({"frequency_hz": "abc"}, {"frequency_hz": True}, {"frequency_hz": float("inf")},
                {"panel": {"width_m": None}}, {"panel": {"width_m": float("inf")}},
                {"panel": {"height_m": [0.5]}}, {"svd_threshold": "x"},
                {"svd_threshold": float("nan")}, {"ue_position": ["a", 0, 0]},
                {"ue_position": [10.0, None, 0.0]}, {"spacings": [10 ** 400]}):
        with pytest.raises(ConfigError, match="must be a finite number"):
            config_from_dict({"spacings": [0.1], **bad})
    for key in ("linear_elements", "max_elements", "hp_max_elements"):
        for bad in (True, 2.0, "3", 0):
            with pytest.raises(ConfigError, match="must be a positive integer"):
                config_from_dict({"spacings": [0.1], key: bad})
    # the surface radiates into x > 0: a terminal behind or on its plane is refused
    for bad in ([-10.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0, 1.0, -2.0], [-1e-300, 0.0, 0.0]):
        with pytest.raises(ConfigError, match="ue_position x must be positive"):
            config_from_dict({"spacings": [0.1], "ue_position": bad})


def test_malformed_number_error_names_its_key():
    cases = (({"frequency_hz": None}, "frequency_hz"),
             ({"panel": {"height_m": "0.5"}}, "panel height_m"),
             ({"spacings": [10 ** 400]}, "spacing"),
             ({"ue_position": [10.0, 0.0, [0.0]]}, "ue_position entry"),
             ({"svd_threshold": -float("inf")}, "svd_threshold"))
    for bad, key in cases:
        with pytest.raises(ConfigError) as excinfo:
            config_from_dict({"spacings": [0.1], **bad})
        assert str(excinfo.value).startswith(f"{key} must be a finite number, got ")


def test_readme_config_example_parses_and_sets_every_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("### Configuration file", 1)[1]
    example = json.loads(section.split("```json", 1)[1].split("```", 1)[0])
    config_from_dict(example)
    assert set(example) == experiments.CONFIG_KEYS


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
    }))
    cfg = load_config(path)
    assert cfg.frequency_hz == 3.0e9
    assert cfg.spacings_m[0] == pytest.approx(0.5 * SPEED_OF_LIGHT / 3.0e9)
    assert cfg.spacings_m[1] == 0.04
    assert cfg.precision == Precision.extended(128)


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


def test_refused_double_solve_in_a_sweep_leaves_its_kappa_estimate_unrun(monkeypatch):
    # the sweep notes only the refusal's type, so the Hager-Higham
    # estimate and its sector solves run only when the error's
    # kappa_estimate is read, once
    estimates, refusals = [], []
    norm1_estimate, ca_mf_of = coupling._norm1_estimate, precoding.ca_mf

    def counting_estimate(*args):
        estimates.append(args)
        return norm1_estimate(*args)

    def recording_ca_mf(Z, h):
        try:
            return ca_mf_of(Z, h)
        except IllConditionedSolveError as exc:
            refusals.append(exc)
            raise

    monkeypatch.setattr(coupling, "_norm1_estimate", counting_estimate)
    monkeypatch.setattr(precoding, "ca_mf", recording_ca_mf)
    res = run_spacing_sweep(make_config(spacings=["0.2 lambda"], schemes=["CA-MF"]))
    assert res.column("n_elements") == [484]
    assert res.column("status") == ["failed: IllConditionedSolveError"]
    assert len(refusals) == 1 and estimates == []
    kappa = refusals[0].kappa_estimate
    assert len(estimates) == 1 and 1e8 < kappa < math.inf
    assert refusals[0].kappa_estimate == kappa and len(estimates) == 1


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


@pytest.mark.parametrize("experiment,runner", [
    ("conditioning", run_conditioning_sweep), ("profile", run_singular_profile),
    ("truncation", run_truncation_sweep), ("spacing", run_spacing_sweep)])
def test_csv_determinism_without_timing(experiment, runner):
    cfg = make_config(spacings=["0.5 lambda", "0.35 lambda"])
    a = run_experiment(experiment, cfg).to_csv()
    b = run_experiment(experiment, cfg).to_csv()
    assert a == b
    assert "wall_time_ms" not in a
    header = a.splitlines()[0].split(",")
    assert header[:4] == ["spacing_m", "spacing_wavelengths", "n_elements", "element_kind"]
    # the runner itself leaves the column out, not only run_experiment
    direct = runner(cfg)
    assert "wall_time_ms" not in direct.columns
    assert direct.to_csv() == a


def test_csv_keeps_timing_by_default():
    cfg = make_config(include_timing=True)
    text = run_experiment("conditioning", cfg).to_csv()
    assert "wall_time_ms" in text.splitlines()[0]


@pytest.mark.parametrize("experiment", ["conditioning", "profile", "spacing", "truncation"])
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


def test_spacing_csv_is_byte_identical_between_runs_and_in_grid_order():
    spacings = ["0.5 lambda", "0.35 lambda", "0.25 lambda", "0.2 lambda"]
    kinds = ["isotropic", "planar"]
    cfg = make_config(spacings=spacings, element_kinds=kinds,
                      panel={"width_m": 0.2, "height_m": 0.15},
                      schemes=["nCA-MF", "CA-MF", "CA-pMF"])
    first = run_experiment("spacing", cfg)
    assert first.to_csv() == run_experiment("spacing", cfg).to_csv()
    assert len(first.to_csv().splitlines()) == 1 + 4 * 2 * 3
    points = list(zip(first.column("spacing_m"), first.column("element_kind")))
    assert points == [(s, k) for s in cfg.spacings_m for k in kinds for _ in range(3)]


def test_sweep_runs_every_point_in_the_calling_thread(monkeypatch):
    threads = []
    build = experiments.impedance

    def recording_impedance(*args, **kwargs):
        threads.append(threading.get_ident())
        return build(*args, **kwargs)

    monkeypatch.setattr(experiments, "impedance", recording_impedance)
    cfg = make_config(spacings=["0.5 lambda", "0.4 lambda", "0.3 lambda"],
                      element_kinds=["isotropic", "planar"])
    run_experiment("conditioning", cfg)
    assert threads == [threading.get_ident()] * 6


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
    # basis; the double eigh start and the single i^H Z i per row keep it.
    # The fixed-point Jacobi kept every row but those of 0.5 wavelength
    # isotropic, m = 1-7 and 10-16: there Z is the identity to 256 bits,
    # its eigenvalues are 1 to within 1.5e-76 and their order is set by
    # rounding, so the same D values arrive at other ranks
    frozen = Path(__file__).parent / "data" / "truncation_line20_ext256.csv"
    cfg = make_config(spacings=["0.5 lambda", "0.3 lambda", "0.1 lambda"],
                      element_kinds=["isotropic", "planar"], schemes=["CA-pMF"],
                      precision="ext:256")
    assert run_experiment("truncation", cfg).to_csv() == frozen.read_text()


def test_extended_truncation_table_of_the_20_element_line_does_not_depend_on_the_width():
    # kappa reaches 2e30 at 0.1 wavelength, yet the table matches cell for
    # cell at 256 and 384 bits: the eigensolver's error stays far below
    # the printed digits at either width
    def table(bits):
        cfg = make_config(spacings=["0.3 lambda", "0.1 lambda"],
                          element_kinds=["isotropic", "planar"], schemes=["CA-pMF"],
                          precision=f"ext:{bits}")
        return [row.split(",") for row in run_experiment("truncation", cfg).to_csv().splitlines()]

    narrow, wide = table(256), table(384)
    assert len(narrow) == len(wide) == 1 + 2 * 2 * 20
    for a, b in zip(narrow, wide):
        assert a == b


_QUARTER_METRE_PANEL = {
    "panel": {"width_m": 0.25, "height_m": 0.25},
    "spacings": ["0.25 lambda", "0.2 lambda"],
    "element_kinds": ["isotropic", "planar"],
    "schemes": ["nCA-MF", "CA-MF", "CA-pMF", "HP-CA-MF"],
}


def _cli_table(tmp_path, experiment, settings=None):
    """The ``--no-timing`` CSV of one CLI sweep in a fresh interpreter with one BLAS thread.

    ``settings`` is the config as a dict; None runs the experiment's defaults.
    """
    out = tmp_path / f"{experiment}.csv"
    args = [sys.executable, "-m", "lissim.cli", experiment, "--out", str(out), "--quiet",
            "--no-timing"]
    if settings is not None:
        cfg = tmp_path / f"{experiment}.json"
        cfg.write_text(json.dumps(settings))
        args += ["--config", str(cfg)]
    src = str(Path(lissim.__file__).parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run(args, env=env, check=True, timeout=600)
    return out.read_text()


def test_extended_spacing_table_of_the_quarter_metre_panel_is_unchanged(tmp_path):
    # the HP-CA-MF path bit for bit: the extended Z, channel and solve, and
    # the i^H h of the directivity, on the 9 x 9 and 11 x 11 grids.  The
    # double CA-MF rows (kappa 8e12 and more) move in the sixth digit with
    # the BLAS summation order, so the sweep runs in a fresh interpreter
    # with one BLAS thread, as the table was frozen
    frozen = Path(__file__).parent / "data" / "spacing_hp_ext256.csv"
    table = _cli_table(tmp_path, "spacing", dict(_QUARTER_METRE_PANEL, precision="ext:256"))
    assert len(table.splitlines()) == 1 + 16
    assert table == frozen.read_text()


def test_double_spacing_table_of_the_quarter_metre_panel_is_unchanged(tmp_path):
    # the double Z, channel, solve, spectrum and directivity bit for bit;
    # frozen, like the extended table, with one BLAS thread
    frozen = Path(__file__).parent / "data" / "spacing_hp_double.csv"
    table = _cli_table(tmp_path, "spacing", dict(_QUARTER_METRE_PANEL, precision="double"))
    assert len(table.splitlines()) == 1 + 12
    assert table == frozen.read_text()


def test_default_double_spacing_table_is_unchanged(tmp_path):
    # the fixed-aperture sweep up to N = 1936 (44 x 44), so the double Z
    # build and the products with Z run over many row blocks
    frozen = Path(__file__).parent / "data" / "spacing_default_double.csv"
    table = _cli_table(tmp_path, "spacing")
    assert len(table.splitlines()) == 1 + 114
    assert table == frozen.read_text()


def test_default_double_truncation_table_is_unchanged(tmp_path):
    # the 20-element line at 0.3 wavelength: the double rank solves,
    # normalization and directivity bit for bit
    frozen = Path(__file__).parent / "data" / "truncation_default_double.csv"
    assert _cli_table(tmp_path, "truncation") == frozen.read_text()


def test_default_double_conditioning_table_is_unchanged(tmp_path):
    # the 20-element line over the 0.1-1.0 wavelength grid, both kinds
    frozen = Path(__file__).parent / "data" / "conditioning_default_double.csv"
    assert _cli_table(tmp_path, "conditioning") == frozen.read_text()


@pytest.mark.parametrize("precision,name", [(None, "profile_default_double.csv"),
                                            ("ext:128", "profile_default_ext128.csv")])
def test_default_profile_table_is_unchanged(tmp_path, precision, name):
    # the merged sector spectra of the 20-element line at 0.3 wavelength:
    # LAPACK eigh in double, the cyclic Jacobi at 128 bits
    frozen = Path(__file__).parent / "data" / name
    settings = None if precision is None else {"spacings": ["0.3 lambda"],
                                                "precision": precision}
    assert _cli_table(tmp_path, "profile", settings) == frozen.read_text()


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
        apply_overrides(cfg, threshold=float("inf"))
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


def test_cli_import_and_a_double_sweep_leave_scipy_unloaded(tmp_path):
    # the program runs on numpy's LAPACK alone: importing scipy.linalg
    # would cost every run about 0.12 s of set-up and a second OpenBLAS,
    # and a late import would move that cost into the sweep itself
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"spacings": ["0.5 lambda", "0.2 lambda"],
                               "panel": {"width_m": 0.25, "height_m": 0.25}}))
    code = ("import sys, lissim.cli; "
            "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); "
            "print(loaded()); "
            f"code = lissim.cli.main(['spacing', '--config', {str(cfg)!r}, '--out', "
            f"{str(tmp_path / 's.csv')!r}, '--quiet', '--no-timing']); "
            "print(code, loaded())")
    src = str(Path(lissim.__file__).parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert run.stdout.splitlines() == ["[]", "0 []"]
    # the sweep ran its double solves: one CA-MF row per spacing and kind
    table = (tmp_path / "s.csv").read_text()
    assert table.count(",CA-MF,") == 4


def test_cli_freezes_the_collector_for_the_sweep_only(tmp_path, monkeypatch):
    # main freezes the objects alive before the sweep and unfreezes them
    # when it returns, on success and on failure alike
    frozen_during_sweep = []

    def sweep(*args):
        frozen_during_sweep.append(gc.get_freeze_count())
        return run_experiment(*args)

    monkeypatch.setattr(lissim.cli, "run_experiment", sweep)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"spacings": ["0.5 lambda"], "element_kinds": ["isotropic"]}))
    assert cli_main(["conditioning", "--config", str(cfg), "--out", str(tmp_path / "c.csv"),
                     "--quiet"]) == 0
    assert gc.get_freeze_count() == 0
    cfg.write_text(json.dumps({"spacings": ["0.001 lambda"], "element_kinds": ["isotropic"],
                               "max_elements": 100}))
    assert cli_main(["spacing", "--config", str(cfg), "--out", str(tmp_path / "s.csv"),
                     "--quiet"]) == 3
    assert gc.get_freeze_count() == 0
    assert len(frozen_during_sweep) == 2 and min(frozen_during_sweep) > 0


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli_main(["spacing", "--config", str(bad), "--quiet"]) == 2
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"spacings": [0.1], "frequency": 1.0}))
    assert cli_main(["spacing", "--config", str(unknown), "--quiet"]) == 2


def test_cli_malformed_number_exit_code(tmp_path, capsys):
    # malformed numbers are configuration errors, not tracebacks or numerical failures
    for text, key in (('{"spacings": [0.1], "frequency_hz": "abc"}', "frequency_hz"),
                      ('{"spacings": [0.1], "panel": {"width_m": Infinity}}', "panel width_m"),
                      ('{"spacings": [0.1], "svd_threshold": "x"}', "svd_threshold"),
                      ('{"spacings": [0.1], "ue_position": ["a", 0, 0]}', "ue_position entry")):
        malformed = tmp_path / "malformed.json"
        malformed.write_text(text)
        assert cli_main(["spacing", "--config", str(malformed), "--quiet"]) == 2
        assert f"config error: {key} must be a finite number" in capsys.readouterr().err
    assert cli_main(["spacing", "--threshold", "inf", "--quiet"]) == 2
    assert "config error: threshold must be a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("experiment,terminal", [("spacing", [-10, 0, 0]),
                                                 ("truncation", [0, 0, 0])])
def test_cli_terminal_off_the_radiating_side_is_a_config_error(tmp_path, capsys, experiment,
                                                             terminal):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"spacings": ["0.5 lambda"], "ue_position": terminal}))
    out = tmp_path / "never.csv"
    assert cli_main([experiment, "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert "config error: ue_position x must be positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("experiment,config,message", [
    ("spacing", {"spacings": ["0.001 lambda"], "max_elements": 100},
     "grid would hold 18809569 elements, exceeding the cap of 100"),
    ("conditioning", {"spacings": ["0.5 lambda"], "linear_elements": 30, "max_elements": 10},
     "line would hold 30 elements, exceeding the cap of 10"),
], ids=["grid", "line"])
def test_cli_numerical_failure_exit_code(tmp_path, capsys, monkeypatch, experiment, config,
                                         message):
    def no_layout(*args, **kwargs):
        raise AssertionError("a layout over the cap must be refused before it is built")

    # the cap is checked before any layout is built
    monkeypatch.setattr(lissim.geometry, "ArrayGeometry", no_layout)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"element_kinds": ["isotropic"], **config}))
    out = tmp_path / "never.csv"
    assert cli_main([experiment, "--config", str(cfg), "--out", str(out), "--quiet"]) == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_refuses_a_layout_over_the_cap_before_any_point_is_built(tmp_path, capsys,
                                                                    monkeypatch):
    def no_impedance(*args, **kwargs):
        raise AssertionError("every layout must be checked before the first Z is built")

    monkeypatch.setattr(experiments, "impedance", no_impedance)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"spacings": ["0.5 lambda", "0.001 lambda"],
                               "max_elements": 100}))
    out = tmp_path / "never.csv"
    assert cli_main(["spacing", "--config", str(cfg), "--out", str(out), "--quiet"]) == 3
    assert "grid would hold 18809569 elements, exceeding the cap of 100" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("option,bad", [
    ("--out", "missing/x.csv"), ("--out", "file/x.csv"),
    ("--dump-matrices", "file/x"), ("--dump-matrices", "file"),
], ids=["out-missing-dir", "out-under-file", "dump-under-file", "dump-is-file"])
def test_cli_refuses_an_unwritable_output_before_the_sweep(tmp_path, capsys, monkeypatch, option,
                                                           bad):
    # a missing dump directory is made, parents and all; one under a file cannot be
    def no_sweep(*args):
        raise AssertionError("an unwritable output must be refused before the sweep")

    monkeypatch.setattr(lissim.cli, "run_experiment", no_sweep)
    (tmp_path / "file").write_text("")
    bad = tmp_path / bad
    out = bad if option == "--out" else tmp_path / "never.csv"
    assert cli_main(["conditioning", "--out", str(out), option, str(bad), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(bad) in err
    assert not out.exists() and not (tmp_path / "file" / "x").exists()


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
