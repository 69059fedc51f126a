"""Reproducible parameter sweeps emitting CSV tables.

Four studies (``EXPERIMENTS``): condition number versus element spacing,
the eigenvalue profile of the coupling matrix, directivity/current cost
versus truncation rank, and the fixed-aperture spacing sweep comparing
all precoding schemes against the continuous no-coupling reference.
Each study yields its rows' own cells at one array; one driver,
``_sweep``, visits the points in grid order in the calling thread and
does the layout, ``Z``, its dump, the shared leading columns and the row
timing for all four.

Configuration is a strict JSON file (unknown keys rejected); every sweep
is deterministic for a given config at a fixed BLAS thread count (BLAS
sums the double products in an order that depends on it), and the
timing column can be left out to make outputs byte-comparable.
"""

from __future__ import annotations

import json
import math
import re
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import coupling, metrics, precoding
from .channel import channel_for
from .coupling import impedance, write_matrix_text
from .errors import ConfigError, LisSimError
from .geometry import (
    DEFAULT_MAX_ELEMENTS,
    SPEED_OF_LIGHT,
    ArrayGeometry,
    ElementKind,
    linear_array,
    planar_grid,
)
from .specfun import Precision

SCHEME_NCA_MF = "nCA-MF"
SCHEME_CA_MF = "CA-MF"
SCHEME_CA_PMF = "CA-pMF"
SCHEME_HP_CA_MF = "HP-CA-MF"
ALL_SCHEMES = (SCHEME_NCA_MF, SCHEME_CA_MF, SCHEME_CA_PMF, SCHEME_HP_CA_MF)

# read by perfbench/layertrace.py, which refuses to trace unless it is "1"
MAX_WORKERS_ENV = "LISSIM_MAX_WORKERS"

_SPACING_RE = re.compile(r"^\s*([0-9.eE+\-]+)\s*\*?\s*(?:lambda|λ|wl|wavelengths?)\s*$")

_KIND_NAMES = {k.value: k for k in ElementKind}

#: The top-level keys a config file may set; any other key is refused.
CONFIG_KEYS = frozenset({
    "frequency_hz", "panel", "linear_elements", "element_kinds", "spacings",
    "ue_position", "schemes", "svd_threshold", "precision",
    "output_path", "include_timing", "max_elements", "hp_max_elements",
})


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
    output_path: str = "sweep.csv"
    include_timing: bool = True
    max_elements: int = DEFAULT_MAX_ELEMENTS
    hp_max_elements: int = 2_000
    dump_dir: str | None = None

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.frequency_hz


def parse_spacing(entry, wavelength: float) -> float:
    """Meters from a numeric entry or an ``"<x> lambda"`` string."""
    if isinstance(entry, (int, float)) and not isinstance(entry, bool):
        value = _real(entry, "spacing")
        _require(value > 0, f"spacing must be positive and finite, got {entry!r}")
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


def _real(value, name: str) -> float:
    """A JSON number as a finite float; a bool, string, null or list is refused."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer literal beyond the float range
            number = math.inf
        if math.isfinite(number):
            return number
    raise ConfigError(f"{name} must be a finite number, got {value!r}")


def _count(raw: dict, key: str, default: int) -> int:
    """``raw[key]`` (or ``default``) as a positive integer; a bool is refused."""
    value = raw.get(key, default)
    _require(isinstance(value, int) and not isinstance(value, bool) and value >= 1,
             f"{key} must be a positive integer, got {value!r}")
    return value


def _threshold(value, name: str) -> float:
    threshold = _real(value, name)
    _require(threshold >= 0, f"{name} must be >= 0, got {threshold!r}")
    return threshold


def _precision(spec) -> Precision:
    try:
        return Precision.parse(spec)
    except LisSimError as exc:
        raise ConfigError(str(exc)) from exc


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build a config from parsed JSON, rejecting unknown keys."""
    _require(isinstance(raw, dict), "config root must be a JSON object")
    unknown = set(raw) - CONFIG_KEYS
    _require(not unknown, f"unknown config keys: {sorted(unknown)}")

    defaults = ExperimentConfig()
    freq = _real(raw.get("frequency_hz", defaults.frequency_hz), "frequency_hz")
    _require(freq > 0, f"frequency_hz must be positive, got {freq!r}")
    wavelength = SPEED_OF_LIGHT / freq

    panel = raw.get("panel", {})
    _require(isinstance(panel, dict), "panel must be an object")
    _require(set(panel) <= {"width_m", "height_m"},
             f"unknown panel keys: {sorted(set(panel) - {'width_m', 'height_m'})}")
    width = _real(panel.get("width_m", defaults.panel_width_m), "panel width_m")
    height = _real(panel.get("height_m", defaults.panel_height_m), "panel height_m")
    _require(width > 0 and height > 0, "panel dimensions must be positive")

    linear_elements = _count(raw, "linear_elements", defaults.linear_elements)

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
    ue = tuple(_real(v, "ue_position entry") for v in ue_raw)
    # the surface radiates into x > 0, where d_nc and the planar channel are defined
    _require(ue[0] > 0, f"ue_position x must be positive, got {ue[0]!r}")

    schemes_raw = raw.get("schemes", list(defaults.schemes))
    _require(isinstance(schemes_raw, list) and schemes_raw, "schemes must be a non-empty list")
    for s in schemes_raw:
        _require(s in ALL_SCHEMES, f"unknown scheme {s!r}; choose from {ALL_SCHEMES}")
    schemes = tuple(dict.fromkeys(schemes_raw))

    threshold = _threshold(raw.get("svd_threshold", defaults.svd_threshold), "svd_threshold")
    precision = _precision(raw.get("precision", "double"))

    output_path = raw.get("output_path", defaults.output_path)
    _require(isinstance(output_path, str) and output_path, "output_path must be a string")

    include_timing = raw.get("include_timing", True)
    _require(isinstance(include_timing, bool), "include_timing must be a boolean")

    max_elements = _count(raw, "max_elements", defaults.max_elements)
    hp_max = _count(raw, "hp_max_elements", defaults.hp_max_elements)

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
        output_path=output_path,
        include_timing=include_timing,
        max_elements=max_elements,
        hp_max_elements=hp_max,
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
    return config_from_dict(base)


@dataclass
class SweepResult:
    """Column-named rows ready for CSV serialization."""

    experiment: str
    columns: tuple[str, ...]
    rows: list[tuple] = field(default_factory=list)

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


def _linear_geometry(cfg: ExperimentConfig, spacing: float, kind: ElementKind) -> ArrayGeometry:
    return linear_array(cfg.linear_elements, spacing, kind, cfg.wavelength)


def _grid_geometry(cfg: ExperimentConfig, spacing: float, kind: ElementKind) -> ArrayGeometry:
    return planar_grid(cfg.panel_width_m, cfg.panel_height_m, spacing, spacing,
                       kind, cfg.wavelength, max_elements=cfg.max_elements)


def _sweep(experiment: str, cfg: ExperimentConfig, columns: tuple[str, ...], layout,
           precision: Precision, point) -> SweepResult:
    """Tabulate the generator ``point(geom, Z)`` at every configured spacing and kind.

    ``point`` yields each row's cells for ``columns``.  The driver visits
    ``(spacing, kind)`` in grid order: it lays out ``layout(cfg, spacing,
    kind)``, builds ``Z`` in ``precision``, dumps it to ``cfg.dump_dir``
    when set, and prefixes every row with the point's spacing, element
    count and kind.  With ``cfg.include_timing`` each row ends with the
    wall time since the row before it, so a point's layout, ``Z`` and
    shared set-up land on its first row.
    """
    timed = cfg.include_timing
    rows = []
    mark = time.perf_counter()
    for spacing in cfg.spacings_m:
        for kind in cfg.element_kinds:
            geom = layout(cfg, spacing, kind)
            Z = impedance(geom, precision)
            if cfg.dump_dir is not None:
                directory = Path(cfg.dump_dir)
                directory.mkdir(parents=True, exist_ok=True)
                write_matrix_text(Z, directory / f"Z_{kind.value}_d{spacing:.9g}m.txt")
            lead = (spacing, spacing / cfg.wavelength, geom.n, kind.value)
            # the point runs lazily, so each row's time holds the work of that row
            for cells in point(geom, Z):
                now = time.perf_counter()
                rows.append(lead + cells + (((now - mark) * 1e3,) if timed else ()))
                mark = now
            # release this point's Z and its cached spectrum before the next Z is built
            del geom, Z
    columns = ("spacing_m", "spacing_wavelengths", "n_elements", "element_kind", *columns)
    return SweepResult(experiment, columns + (("wall_time_ms",) if timed else ()), rows)


def run_conditioning_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Condition number of the coupling matrix vs element spacing."""
    def point(geom, Z):
        yield (coupling.condition_number(Z),)

    return _sweep("conditioning", cfg, ("kappa",), _linear_geometry, cfg.precision, point)


def run_singular_profile(cfg: ExperimentConfig) -> SweepResult:
    """Eigenvalue profile of the coupling matrix, in descending order."""
    def point(geom, Z):  # (mode_index, eigenvalue) pairs
        yield from enumerate(map(float, coupling.sym_eig(Z)[0]), start=1)

    return _sweep("profile", cfg, ("mode_index", "eigenvalue"), _linear_geometry,
                  cfg.precision, point)


def run_truncation_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Directivity and current cost vs truncation rank (linear array).

    For every retained-mode count, the truncated matched filter is
    power-normalized so radiated power is one; the reported excitation
    power is then the physical current cost of that precoder.  When no
    retained mode couples to the channel (for example only modes of the
    odd mirror sectors for a terminal on the broadside axis), the
    truncated filter is exactly zero: every current in the retained
    subspace has zero directivity, so the row reports directivity 0
    (``-inf`` dBi) and the zero current's excitation power 0.
    """
    o = np.asarray(cfg.ue_position)

    def point(geom, Z):
        h = channel_for(geom, o, cfg.precision)
        kappa = coupling.condition_number(Z)
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
            yield (SCHEME_CA_PMF, m, d_lin, d_dbi, kappa, power)

    return _sweep("truncation", cfg, ("scheme", "retained_modes", "directivity",
                                      "directivity_dbi", "kappa", "excitation_power"),
                  _linear_geometry, cfg.precision, point)


def run_spacing_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Fixed-aperture directivity sweep across precoding schemes.

    The aperture stays at the configured panel size while the pitch
    varies, so finer spacings mean more elements.  Every row carries the
    continuous-surface no-coupling reference, the same for every spacing; the
    high-precision scheme appears only when the configured precision is
    extended, and its condition-number column (like all others) reports
    the machine-double spectrum.
    """
    o = np.asarray(cfg.ue_position)
    lam = cfg.wavelength
    # the reference depends on the terminal, the panel and the wavelength, not the spacing
    d_nc_value = metrics.d_nc(cfg.ue_position, cfg.panel_width_m, cfg.panel_height_m, lam)

    def point(geom, Z):  # Z in machine double, shared by nCA/CA/pMF and kappa
        h = channel_for(geom, o)
        kappa = coupling.condition_number(Z)

        def cells(scheme, retained, current, status, Z_use=Z, h_use=h):
            if current is None:
                d_lin = d_dbi = power = None
            else:
                d_lin = metrics.directivity(current, Z_use, h_use, o, lam)
                d_dbi = metrics.to_dbi(d_lin)
                power = metrics.excitation_power(current)
            return (scheme, retained, d_lin, d_dbi, kappa, power, d_nc_value, status)

        def solved(scheme, retained, solve, Z_use=Z, h_use=h):
            # a refusal in the solve or in the directivity marks the row failed
            try:
                return cells(scheme, retained, solve(), "ok", Z_use, h_use)
            except LisSimError as exc:
                return cells(scheme, retained, None, f"failed: {type(exc).__name__}")

        for scheme in cfg.schemes:
            if scheme == SCHEME_NCA_MF:
                yield cells(scheme, geom.n, precoding.nca_mf(h), "ok")
            elif scheme == SCHEME_CA_MF:
                yield solved(scheme, geom.n, lambda: precoding.ca_mf(Z, h))
            elif scheme == SCHEME_CA_PMF:
                retained = coupling._modes_above(Z, cfg.svd_threshold)
                yield solved(scheme, retained, lambda: precoding.ca_pmf(Z, h, cfg.svd_threshold))
            elif scheme == SCHEME_HP_CA_MF:
                if not cfg.precision.is_extended:
                    continue  # high-precision column only exists on extended runs
                if geom.n > cfg.hp_max_elements:
                    yield cells(scheme, None, None, "skipped: exceeds hp_max_elements")
                    continue
                Z_hp = impedance(geom, cfg.precision)
                h_hp = channel_for(geom, o, cfg.precision)
                yield solved(scheme, geom.n, lambda: precoding.ca_mf(Z_hp, h_hp), Z_hp, h_hp)

    return _sweep("spacing", cfg, ("scheme", "retained_modes", "directivity", "directivity_dbi",
                                   "kappa", "excitation_power", "d_nc_reference", "status"),
                  _grid_geometry, Precision(), point)


#: Every experiment's runner, by the name the command line gives it.
EXPERIMENTS = {
    "conditioning": run_conditioning_sweep,
    "profile": run_singular_profile,
    "truncation": run_truncation_sweep,
    "spacing": run_spacing_sweep,
}


def run_experiment(experiment: str, cfg: ExperimentConfig) -> SweepResult:
    _require(experiment in EXPERIMENTS, f"unknown experiment {experiment!r}")
    return EXPERIMENTS[experiment](cfg)


def apply_overrides(cfg: ExperimentConfig, *, precision: str | None = None,
                    threshold: float | None = None, output_path: str | None = None,
                    include_timing: bool | None = None,
                    dump_dir: str | None = None) -> ExperimentConfig:
    """Command-line overrides layered on top of a parsed config."""
    updates = {}
    if precision is not None:
        updates["precision"] = _precision(precision)
    if threshold is not None:
        updates["svd_threshold"] = _threshold(threshold, "threshold")
    if output_path is not None:
        updates["output_path"] = output_path
    if include_timing is not None:
        updates["include_timing"] = include_timing
    if dump_dir is not None:
        updates["dump_dir"] = dump_dir
    return replace(cfg, **updates) if updates else cfg
