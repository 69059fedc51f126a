"""Reproducible parameter sweeps emitting CSV tables.

Four studies: condition number versus element spacing, the eigenvalue
profile of the coupling matrix, directivity/current cost versus
truncation rank, and the fixed-aperture spacing sweep comparing all
precoding schemes against the continuous no-coupling reference.

Configuration is a strict JSON file (unknown keys rejected); every sweep
is deterministic for a given config, and timing columns can be dropped
to make outputs byte-comparable.  Sweep points are independent and run
on a small thread pool capped by the ``LISSIM_MAX_WORKERS`` environment
variable; row order always follows the configured grid.
"""

from __future__ import annotations

import json
import math
import os
import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import coupling, metrics, precoding
from .channel import channel_for
from .coupling import ImpedanceMatrix, impedance, write_matrix_text
from .errors import ConfigError, LisSimError
from .geometry import SPEED_OF_LIGHT, ArrayGeometry, ElementKind, linear_array, planar_grid
from .metrics import LinkBudget
from .specfun import Precision

SCHEME_NCA_MF = "nCA-MF"
SCHEME_CA_MF = "CA-MF"
SCHEME_CA_PMF = "CA-pMF"
SCHEME_HP_CA_MF = "HP-CA-MF"
ALL_SCHEMES = (SCHEME_NCA_MF, SCHEME_CA_MF, SCHEME_CA_PMF, SCHEME_HP_CA_MF)

EXPERIMENTS = ("conditioning", "profile", "truncation", "spacing")

MAX_WORKERS_ENV = "LISSIM_MAX_WORKERS"

_SPACING_RE = re.compile(r"^\s*([0-9.eE+\-]+)\s*\*?\s*(?:lambda|λ|wl|wavelengths?)\s*$")

_KIND_NAMES = {k.value: k for k in ElementKind}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated sweep parameters; see ``default_config`` for defaults."""

    frequency_hz: float = 2.6e9
    panel_width_m: float = 0.5
    panel_height_m: float = 0.5
    linear_elements: int = 20
    element_kinds: tuple[ElementKind, ...] = (ElementKind.ISOTROPIC, ElementKind.PLANAR)
    spacings_m: tuple[float, ...] = ()
    ue_position: tuple[float, float, float] = (10.0, 0.0, 0.0)
    schemes: tuple[str, ...] = (SCHEME_NCA_MF, SCHEME_CA_MF, SCHEME_CA_PMF)
    svd_threshold: float = 1e-9
    precision: Precision = Precision()
    link_budget: LinkBudget = LinkBudget()
    output_path: str = "sweep.csv"
    include_timing: bool = True
    max_elements: int = 100_000
    hp_max_elements: int = 2_000
    nc_double_span_limits: bool = False
    dump_dir: str | None = None

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.frequency_hz


def parse_spacing(entry, wavelength: float) -> float:
    """Meters from a numeric entry or an ``"<x> lambda"`` string."""
    if isinstance(entry, (int, float)) and not isinstance(entry, bool):
        value = float(entry)
        if not (value > 0 and math.isfinite(value)):
            raise ConfigError(f"spacing must be positive and finite, got {entry!r}")
        return value
    if isinstance(entry, str):
        m = _SPACING_RE.match(entry)
        if m:
            try:
                frac = float(m.group(1))
            except ValueError:
                raise ConfigError(f"bad spacing entry {entry!r}") from None
            if not (frac > 0 and math.isfinite(frac)):
                raise ConfigError(f"spacing must be positive and finite, got {entry!r}")
            return frac * wavelength
        try:
            return parse_spacing(float(entry), wavelength)
        except ValueError:
            raise ConfigError(
                f"bad spacing entry {entry!r}; use meters or e.g. '0.3 lambda'") from None
    raise ConfigError(f"bad spacing entry {entry!r}")


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build a config from parsed JSON, rejecting unknown keys."""
    _require(isinstance(raw, dict), "config root must be a JSON object")
    known = {
        "frequency_hz", "panel", "linear_elements", "element_kinds", "spacings",
        "ue_position", "schemes", "svd_threshold", "precision", "link_budget",
        "output_path", "include_timing", "max_elements", "hp_max_elements",
        "nc_double_span_limits",
    }
    unknown = set(raw) - known
    _require(not unknown, f"unknown config keys: {sorted(unknown)}")

    defaults = ExperimentConfig()
    freq = float(raw.get("frequency_hz", defaults.frequency_hz))
    _require(freq > 0 and math.isfinite(freq), f"frequency_hz must be positive, got {freq!r}")
    wavelength = SPEED_OF_LIGHT / freq

    panel = raw.get("panel", {})
    _require(isinstance(panel, dict), "panel must be an object")
    _require(set(panel) <= {"width_m", "height_m"},
             f"unknown panel keys: {sorted(set(panel) - {'width_m', 'height_m'})}")
    width = float(panel.get("width_m", defaults.panel_width_m))
    height = float(panel.get("height_m", defaults.panel_height_m))
    _require(width > 0 and height > 0, "panel dimensions must be positive")

    linear_elements = raw.get("linear_elements", defaults.linear_elements)
    _require(isinstance(linear_elements, int) and linear_elements >= 1,
             f"linear_elements must be a positive integer, got {linear_elements!r}")

    kinds_raw = raw.get("element_kinds", [k.value for k in defaults.element_kinds])
    _require(isinstance(kinds_raw, list) and kinds_raw, "element_kinds must be a non-empty list")
    kinds = []
    for name in kinds_raw:
        _require(name in _KIND_NAMES, f"unknown element kind {name!r}")
        kind = _KIND_NAMES[name]
        _require(kind not in kinds, f"duplicate element kind {name!r}")
        kinds.append(kind)

    spacings_raw = raw.get("spacings")
    _require(isinstance(spacings_raw, list) and spacings_raw,
             "spacings must be a non-empty list")
    spacings = tuple(parse_spacing(s, wavelength) for s in spacings_raw)

    ue_raw = raw.get("ue_position", list(defaults.ue_position))
    _require(isinstance(ue_raw, list) and len(ue_raw) == 3,
             "ue_position must be a list of three numbers")
    ue = tuple(float(v) for v in ue_raw)
    _require(all(math.isfinite(v) for v in ue), "ue_position must be finite")

    schemes_raw = raw.get("schemes", list(defaults.schemes))
    _require(isinstance(schemes_raw, list) and schemes_raw, "schemes must be a non-empty list")
    for s in schemes_raw:
        _require(s in ALL_SCHEMES, f"unknown scheme {s!r}; choose from {ALL_SCHEMES}")
    schemes = tuple(dict.fromkeys(schemes_raw))

    threshold = float(raw.get("svd_threshold", defaults.svd_threshold))
    _require(threshold >= 0, f"svd_threshold must be >= 0, got {threshold!r}")

    try:
        precision = Precision.parse(raw.get("precision", "double"))
    except LisSimError as exc:
        raise ConfigError(str(exc)) from exc

    lb_raw = raw.get("link_budget", {})
    _require(isinstance(lb_raw, dict), "link_budget must be an object")
    lb_known = {"ptx_watts", "noise_variance_watts"}
    _require(set(lb_raw) <= lb_known,
             f"unknown link_budget keys: {sorted(set(lb_raw) - lb_known)}")
    try:
        budget = LinkBudget(
            ptx=float(lb_raw.get("ptx_watts", 1.0)),
            noise_var=float(lb_raw.get("noise_variance_watts", 1.0)),
        )
    except LisSimError as exc:
        raise ConfigError(str(exc)) from exc

    output_path = raw.get("output_path", defaults.output_path)
    _require(isinstance(output_path, str) and output_path, "output_path must be a string")

    include_timing = raw.get("include_timing", True)
    _require(isinstance(include_timing, bool), "include_timing must be a boolean")
    nc_double = raw.get("nc_double_span_limits", False)
    _require(isinstance(nc_double, bool), "nc_double_span_limits must be a boolean")

    max_elements = raw.get("max_elements", defaults.max_elements)
    _require(isinstance(max_elements, int) and max_elements >= 1,
             "max_elements must be a positive integer")
    hp_max = raw.get("hp_max_elements", defaults.hp_max_elements)
    _require(isinstance(hp_max, int) and hp_max >= 1,
             "hp_max_elements must be a positive integer")

    return ExperimentConfig(
        frequency_hz=freq,
        panel_width_m=width,
        panel_height_m=height,
        linear_elements=linear_elements,
        element_kinds=tuple(kinds),
        spacings_m=spacings,
        ue_position=ue,
        schemes=schemes,
        svd_threshold=threshold,
        precision=precision,
        link_budget=budget,
        output_path=output_path,
        include_timing=include_timing,
        max_elements=max_elements,
        hp_max_elements=hp_max,
        nc_double_span_limits=nc_double,
    )


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(raw)


def default_config(experiment: str) -> ExperimentConfig:
    """Built-in defaults per experiment (0.5 m panel, 2.6 GHz, 10 m UE)."""
    _require(experiment in EXPERIMENTS, f"unknown experiment {experiment!r}")
    dense_grid = tuple(f"{k / 20} lambda" for k in range(2, 21))  # 0.1 .. 1.0 lambda
    base = {
        "output_path": f"{experiment}.csv",
        "spacings": list(dense_grid),
    }
    if experiment == "profile":
        base["spacings"] = ["0.3 lambda"]
    elif experiment == "truncation":
        base["spacings"] = ["0.3 lambda"]
        base["element_kinds"] = ["isotropic"]
        base["schemes"] = ["CA-pMF"]
    return config_from_dict(base)


@dataclass
class SweepResult:
    """Column-named rows ready for CSV serialization."""

    experiment: str
    columns: tuple[str, ...]
    rows: list[tuple] = field(default_factory=list)

    def drop_column(self, name: str) -> "SweepResult":
        if name not in self.columns:
            return self
        idx = self.columns.index(name)
        return SweepResult(
            experiment=self.experiment,
            columns=tuple(c for c in self.columns if c != name),
            rows=[tuple(v for j, v in enumerate(row) if j != idx) for row in self.rows],
        )

    def column(self, name: str) -> list:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]

    def to_csv(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(_format_cell(v) for v in row))
        return "\n".join(lines) + "\n"

    def write(self, path) -> None:
        Path(path).write_text(self.to_csv())


def _format_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return f"{float(v):.17g}"
    return str(v)


def _max_workers(n_tasks: int) -> int:
    cap = os.environ.get(MAX_WORKERS_ENV)
    limit = os.cpu_count() or 1
    if cap is not None:
        try:
            limit = max(1, int(cap))
        except ValueError:
            raise ConfigError(f"{MAX_WORKERS_ENV} must be an integer, got {cap!r}") from None
    return max(1, min(limit, n_tasks))


def _run_tasks(tasks, worker):
    """Evaluate ``worker(task)`` concurrently, preserving task order."""
    if not tasks:
        return []
    workers = _max_workers(len(tasks))
    if workers == 1:
        return [worker(t) for t in tasks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, tasks))


class _RowClock:
    """Splits a sweep point's wall time over its rows.

    Each row is charged the time since the previous row ended, so the
    point's shared set-up (layout, Z, channel, spectrum) lands on its
    first row and the rows add up to the point's wall time.
    """

    def __init__(self):
        self._mark = time.perf_counter()

    def lap_ms(self) -> float:
        now = time.perf_counter()
        elapsed, self._mark = (now - self._mark) * 1e3, now
        return elapsed


def _linear_geometry(cfg: ExperimentConfig, spacing: float, kind: ElementKind) -> ArrayGeometry:
    return linear_array(cfg.linear_elements, spacing, kind, cfg.wavelength)


def _grid_geometry(cfg: ExperimentConfig, spacing: float, kind: ElementKind) -> ArrayGeometry:
    return planar_grid(cfg.panel_width_m, cfg.panel_height_m, spacing, spacing,
                       kind, cfg.wavelength, max_elements=cfg.max_elements)


def _maybe_dump(cfg: ExperimentConfig, Z: ImpedanceMatrix, spacing: float,
                kind: ElementKind) -> None:
    if cfg.dump_dir is None:
        return
    directory = Path(cfg.dump_dir)
    directory.mkdir(parents=True, exist_ok=True)
    name = f"Z_{kind.value}_d{spacing:.9g}m.txt"
    write_matrix_text(Z, directory / name)


def run_conditioning_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Condition number of Z per spacing for each element kind."""
    columns = ("spacing_m", "spacing_wavelengths", "n_elements", "element_kind",
               "kappa", "wall_time_ms")
    tasks = [(s, kind) for s in cfg.spacings_m for kind in cfg.element_kinds]

    def worker(task):
        spacing, kind = task
        start = time.perf_counter()
        geom = _linear_geometry(cfg, spacing, kind)
        Z = impedance(geom, cfg.precision)
        _maybe_dump(cfg, Z, spacing, kind)
        kappa = coupling.condition_number(Z)
        elapsed = (time.perf_counter() - start) * 1e3
        return (spacing, spacing / cfg.wavelength, geom.n, kind.value, kappa, elapsed)

    return SweepResult("conditioning", columns, _run_tasks(tasks, worker))


def run_singular_profile(cfg: ExperimentConfig) -> SweepResult:
    """Sorted eigenvalues of Z for each configured spacing and kind."""
    columns = ("spacing_m", "spacing_wavelengths", "n_elements", "element_kind",
               "mode_index", "eigenvalue", "wall_time_ms")
    tasks = [(s, kind) for s in cfg.spacings_m for kind in cfg.element_kinds]

    def worker(task):
        spacing, kind = task
        start = time.perf_counter()
        geom = _linear_geometry(cfg, spacing, kind)
        Z = impedance(geom, cfg.precision)
        _maybe_dump(cfg, Z, spacing, kind)
        s, _ = coupling.sym_eig(Z)
        elapsed = (time.perf_counter() - start) * 1e3
        return [(spacing, spacing / cfg.wavelength, geom.n, kind.value,
                 idx + 1, float(v), elapsed) for idx, v in enumerate(s)]

    rows = [row for block in _run_tasks(tasks, worker) for row in block]
    return SweepResult("profile", columns, rows)


def run_truncation_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Directivity and current cost versus truncation rank (linear array).

    For every retained-mode count, the truncated matched filter is
    power-normalized so radiated power is one; the reported excitation
    power is then the physical current cost of that precoder.  When no
    retained mode couples to the channel (for example only modes of the
    odd mirror sectors for a terminal on the broadside axis), the
    truncated filter is exactly zero: every current in the retained
    subspace has zero directivity, so the row reports directivity 0
    (``-inf`` dBi) and the zero current's excitation power 0.
    """
    columns = ("spacing_m", "spacing_wavelengths", "n_elements", "element_kind",
               "scheme", "retained_modes", "directivity", "directivity_dbi",
               "kappa", "excitation_power", "wall_time_ms")
    tasks = [(s, kind) for s in cfg.spacings_m for kind in cfg.element_kinds]
    o = np.asarray(cfg.ue_position)

    def worker(task):
        spacing, kind = task
        clock = _RowClock()
        geom = _linear_geometry(cfg, spacing, kind)
        Z = impedance(geom, cfg.precision)
        _maybe_dump(cfg, Z, spacing, kind)
        h = channel_for(geom, o, cfg.precision)
        kappa = coupling.condition_number(Z)
        out = []
        # precoding.ca_pmf_rank(Z, h, m) for every m, built in one pass
        for m, i in enumerate(coupling._rank_solves(Z, h), start=1):
            if not np.any(i):
                d_lin, d_dbi, power = 0.0, -math.inf, 0.0
            else:
                # one i^H Z i per row serves the normalization and the
                # directivity, which does not depend on the current's scale
                radiated = coupling.quadratic_form(Z, i)
                i_hat = precoding._unit_power(i, Z, radiated)
                d_lin = metrics._directivity(i, Z, h, o, cfg.wavelength, radiated)
                d_dbi = metrics.to_dbi(d_lin)
                power = metrics.excitation_power(i_hat)
            out.append((spacing, spacing / cfg.wavelength, geom.n, kind.value,
                        SCHEME_CA_PMF, m, d_lin, d_dbi, kappa, power, clock.lap_ms()))
        return out

    rows = [row for block in _run_tasks(tasks, worker) for row in block]
    return SweepResult("truncation", columns, rows)


def _spacing_point_rows(cfg: ExperimentConfig, spacing: float, kind: ElementKind,
                        d_nc_value: float):
    clock = _RowClock()
    o = np.asarray(cfg.ue_position)
    rows = []
    geom = _grid_geometry(cfg, spacing, kind)
    Z = impedance(geom)  # machine-double matrix shared by nCA/CA/pMF and kappa
    _maybe_dump(cfg, Z, spacing, kind)
    h = channel_for(geom, o)
    kappa = coupling.condition_number(Z)
    lam = cfg.wavelength

    def emit(scheme, retained, current, status, Z_use=Z, h_use=h):
        if current is None:
            d_lin = d_dbi = power = None
        else:
            d_lin = metrics.directivity(current, Z_use, h_use, o, lam)
            d_dbi = metrics.to_dbi(d_lin)
            power = metrics.excitation_power(current)
        rows.append((spacing, spacing / lam, geom.n, kind.value, scheme, retained,
                     d_lin, d_dbi, kappa, power, d_nc_value, status, clock.lap_ms()))

    for scheme in cfg.schemes:
        if scheme == SCHEME_NCA_MF:
            emit(scheme, geom.n, precoding.nca_mf(h), "ok")
        elif scheme == SCHEME_CA_MF:
            try:
                emit(scheme, geom.n, precoding.ca_mf(Z, h), "ok")
            except LisSimError as exc:
                emit(scheme, geom.n, None, f"failed: {type(exc).__name__}")
        elif scheme == SCHEME_CA_PMF:
            s, _ = coupling.sym_eig(Z)
            retained = int(np.sum(np.maximum(s, 0.0) > cfg.svd_threshold))
            try:
                emit(scheme, retained, precoding.ca_pmf(Z, h, cfg.svd_threshold), "ok")
            except LisSimError as exc:
                emit(scheme, retained, None, f"failed: {type(exc).__name__}")
        elif scheme == SCHEME_HP_CA_MF:
            if not cfg.precision.is_extended:
                continue  # high-precision column only exists on extended runs
            if geom.n > cfg.hp_max_elements:
                emit(scheme, None, None, "skipped: exceeds hp_max_elements")
                continue
            Z_hp = impedance(geom, cfg.precision)
            h_hp = channel_for(geom, o, cfg.precision)
            try:
                emit(scheme, geom.n, precoding.ca_mf(Z_hp, h_hp), "ok",
                     Z_use=Z_hp, h_use=h_hp)
            except LisSimError as exc:
                emit(scheme, geom.n, None, f"failed: {type(exc).__name__}")
    return rows


def run_spacing_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Fixed-aperture grid sweep: directivity per spacing and scheme.

    The aperture stays at the configured panel size while the pitch
    varies, so finer spacings mean more elements.  Every row carries the
    continuous-surface no-coupling reference for its spacing; the
    high-precision scheme appears only when the configured precision is
    extended, and its condition-number column (like all others) reports
    the machine-double spectrum.
    """
    columns = ("spacing_m", "spacing_wavelengths", "n_elements", "element_kind",
               "scheme", "retained_modes", "directivity", "directivity_dbi",
               "kappa", "excitation_power", "d_nc_reference", "status", "wall_time_ms")
    d_nc_values = {
        spacing: metrics.d_nc(cfg.ue_position, cfg.panel_width_m, cfg.panel_height_m,
                              cfg.wavelength, double_span_limits=cfg.nc_double_span_limits)
        for spacing in set(cfg.spacings_m)
    }
    tasks = [(s, kind) for s in cfg.spacings_m for kind in cfg.element_kinds]

    def worker(task):
        spacing, kind = task
        return _spacing_point_rows(cfg, spacing, kind, d_nc_values[spacing])

    rows = [row for block in _run_tasks(tasks, worker) for row in block]
    return SweepResult("spacing", columns, rows)


_RUNNERS = {
    "conditioning": run_conditioning_sweep,
    "profile": run_singular_profile,
    "truncation": run_truncation_sweep,
    "spacing": run_spacing_sweep,
}


def run_experiment(experiment: str, cfg: ExperimentConfig) -> SweepResult:
    _require(experiment in _RUNNERS, f"unknown experiment {experiment!r}")
    result = _RUNNERS[experiment](cfg)
    if not cfg.include_timing:
        result = result.drop_column("wall_time_ms")
    return result


def apply_overrides(cfg: ExperimentConfig, *, precision: str | None = None,
                    threshold: float | None = None, output_path: str | None = None,
                    include_timing: bool | None = None,
                    dump_dir: str | None = None) -> ExperimentConfig:
    """Command-line overrides layered on top of a parsed config."""
    updates = {}
    if precision is not None:
        try:
            updates["precision"] = Precision.parse(precision)
        except LisSimError as exc:
            raise ConfigError(str(exc)) from exc
    if threshold is not None:
        _require(threshold >= 0, f"threshold must be >= 0, got {threshold!r}")
        updates["svd_threshold"] = threshold
    if output_path is not None:
        updates["output_path"] = output_path
    if include_timing is not None:
        updates["include_timing"] = include_timing
    if dump_dir is not None:
        updates["dump_dir"] = dump_dir
    return replace(cfg, **updates) if updates else cfg
