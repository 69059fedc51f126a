"""Output checks for the benchmark's sweep tables, computed apart from lissim.

Nothing here imports lissim.  The references are built from the
workload's config alone: the benchmark's own lattice, its own coupling
matrix (``numpy.sinc`` and ``scipy.special.j1`` in double, ``mpmath`` in
extended precision), its own channel vector and its own solves.  The
inputs are taken as the program receives them: the pitch is
``fraction * (c / f)`` rounded to double, as is the wavelength.

A check is a function ``check(ref, point, rows) -> str | None`` that
returns a message when the rows of one sweep point break it.  ``CHECKS``
lists them per workload; ``check_table`` runs them all on a CSV table.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import mpmath
import numpy as np
from scipy.special import j1

SPEED_OF_LIGHT = 299_792_458.0
REFUSAL = "failed: IllConditionedSolveError"
# the CA-MF and CA-pMF spectral references hold where kappa(Z) <= 4e8
SPECTRAL_CHECK_MIN_FRACTION = 0.4

BENCH_DIR = Path(__file__).resolve().parent
HP_REFERENCE = BENCH_DIR / "reference" / "spacing-hp.json"


# -- inputs ---------------------------------------------------------------
@dataclass(frozen=True)
class Point:
    """One sweep point: a pitch (as a fraction of the wavelength) and an element kind."""

    fraction: float
    kind: str


@dataclass
class Inputs:
    """The sweep inputs read from a workload config."""

    frequency_hz: float
    fractions: list[float]
    kinds: list[str]
    terminal: tuple[float, float, float]
    panel: tuple[float, float] | None  # spacing sweeps only
    linear_elements: int | None  # truncation sweeps only
    schemes: list[str]
    threshold: float | None  # spacing sweeps only
    bits: int | None

    @classmethod
    def from_config(cls, cfg: dict, experiment: str) -> "Inputs":
        """Every key a check relies on must be in the config; none is defaulted."""
        fractions = []
        for entry in cfg["spacings"]:
            value, unit = entry.split()
            if unit != "lambda":
                raise ValueError(f"benchmark configs give pitches in wavelengths, got {entry!r}")
            fractions.append(float(value))
        spacing = experiment == "spacing"
        return cls(
            frequency_hz=float(cfg["frequency_hz"]),
            fractions=fractions,
            kinds=list(cfg["element_kinds"]),
            terminal=tuple(float(v) for v in cfg["ue_position"]),
            panel=(cfg["panel"]["width_m"], cfg["panel"]["height_m"]) if spacing else None,
            linear_elements=None if spacing else int(cfg["linear_elements"]),
            schemes=list(cfg["schemes"]),
            threshold=float(cfg["svd_threshold"]) if spacing else None,
            bits=None if cfg["precision"] == "double" else int(cfg["precision"].split(":")[1]),
        )

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.frequency_hz

    @property
    def gain_factor(self) -> float:
        """``(4 pi |o| / lambda)^2``: directivity over ``|i^H h|^2 / i^H Z i``."""
        return (4.0 * math.pi * math.hypot(*self.terminal) / self.wavelength) ** 2

    def pitch(self, point: Point) -> float:
        return point.fraction * self.wavelength

    def points(self) -> list[Point]:
        return [Point(f, k) for f in self.fractions for k in self.kinds]

    def axis_counts(self, point: Point) -> tuple[int, int]:
        """Elements along y and z: ``floor(L / p) + 1`` per panel side, or the line."""
        if self.panel is None:
            return 1, self.linear_elements
        p = self.pitch(point)
        return math.floor(self.panel[0] / p) + 1, math.floor(self.panel[1] / p) + 1


# -- independent references ------------------------------------------------
def _centered(count: int) -> np.ndarray:
    return np.arange(count) - (count - 1) / 2.0


@dataclass
class PointReference:
    """Independent double-precision quantities for one sweep point."""

    inputs: Inputs
    point: Point

    @cached_property
    def layout(self) -> tuple[np.ndarray, np.ndarray]:
        n_y, n_z = self.inputs.axis_counts(self.point)
        p = self.inputs.pitch(self.point)
        y, z = np.meshgrid(_centered(n_y) * p, _centered(n_z) * p)
        return y.ravel(), z.ravel()

    @cached_property
    def n(self) -> int:
        return self.layout[0].size

    def coupling(self) -> np.ndarray:
        y, z = self.layout
        x = (2.0 * math.pi / self.inputs.wavelength) * np.hypot(
            y[:, None] - y[None, :], z[:, None] - z[None, :])
        if self.point.kind == "isotropic":
            return np.sinc(x / math.pi)
        safe = np.where(x == 0.0, 1.0, x)
        return np.where(x == 0.0, 0.5, j1(safe) / safe)

    @cached_property
    def channel(self) -> np.ndarray:
        y, z = self.layout
        ox, oy, oz = self.inputs.terminal
        lam = self.inputs.wavelength
        d = np.sqrt(ox ** 2 + (y - oy) ** 2 + (z - oz) ** 2)
        h = lam / (4.0 * math.pi * d) * np.exp(-2j * math.pi / lam * d)
        if self.point.kind == "planar":
            h = h * np.sqrt(ox / d)
        return h

    @cached_property
    def nca_mf_directivity(self) -> float:
        h = self.channel
        power = np.real(np.vdot(h, self.coupling() @ h))
        return float(self.inputs.gain_factor * abs(np.vdot(h, h)) ** 2 / power)

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues and ``|u_n^H h|^2`` from an independent ``eigh``."""
        s, u = np.linalg.eigh(self.coupling())
        return s, np.abs(u.conj().T @ self.channel) ** 2

    @cached_property
    def singular_in_double(self) -> bool:
        """Numerically rank deficient: ``min s <= N eps max |s|`` (numpy's rank rule)."""
        s = np.linalg.eigvalsh(self.coupling())
        return bool(s.min() <= self.n * np.finfo(float).eps * np.abs(s).max())

    def spectral_directivity(self, threshold: float | None) -> tuple[float, int]:
        """``factor * sum |u_n^H h|^2 / s_n`` over all modes, or over ``s_n > threshold``."""
        s, proj = self.spectrum
        keep = np.ones(s.size, bool) if threshold is None else np.maximum(s, 0.0) > threshold
        return self.inputs.gain_factor * float(np.sum(proj[keep] / s[keep])), int(keep.sum())

    @cached_property
    def d_nc_closed_form(self) -> float:
        """Solid angle of the panel seen on axis: ``(4 pi |o| / lambda)^2 * Omega / 4 pi``."""
        a, b = self.inputs.panel[0] / 2, self.inputs.panel[1] / 2
        x = self.inputs.terminal[0]
        omega = 4.0 * math.atan(a * b / (x * math.sqrt(x * x + a * a + b * b)))
        return self.inputs.gain_factor * omega / (4.0 * math.pi)


def extended_directivity(inputs: Inputs, point: Point) -> float:
    """``factor * h^H Z^{-1} h`` with the benchmark's own mpmath Z, h and ``lu_solve``."""
    ctx = mpmath.mp.clone()
    ctx.prec = inputs.bits
    n_y, n_z = inputs.axis_counts(point)
    p = ctx.mpf(inputs.pitch(point))
    lam = ctx.mpf(inputs.wavelength)
    k = 2 * ctx.pi / lam
    cells = [(iy, iz) for iz in range(n_z) for iy in range(n_y)]
    kernel = {}

    def entry(di: int, dj: int):
        key = (abs(di), abs(dj))
        if key not in kernel:
            x = k * p * ctx.sqrt(key[0] ** 2 + key[1] ** 2)
            if point.kind == "isotropic":
                kernel[key] = ctx.mpf(1) if x == 0 else ctx.sin(x) / x
            else:
                kernel[key] = ctx.mpf(1) / 2 if x == 0 else ctx.besselj(1, x) / x
        return kernel[key]

    n = len(cells)
    Z = ctx.matrix(n, n)
    for a, (ya, za) in enumerate(cells):
        for b, (yb, zb) in enumerate(cells):
            Z[a, b] = entry(ya - yb, za - zb)
    ox, oy, oz = (ctx.mpf(v) for v in inputs.terminal)
    h = ctx.matrix(n, 1)
    for a, (iy, iz) in enumerate(cells):
        y = (iy - ctx.mpf(n_y - 1) / 2) * p
        z = (iz - ctx.mpf(n_z - 1) / 2) * p
        d = ctx.sqrt(ox ** 2 + (y - oy) ** 2 + (z - oz) ** 2)
        amp = lam / (4 * ctx.pi * d)
        if point.kind == "planar":
            amp *= ctx.sqrt(ox / d)
        h[a] = amp * ctx.expj(-k * d)
    x = ctx.lu_solve(Z, h)
    quad = ctx.re(ctx.fsum(ctx.conj(h[a]) * x[a] for a in range(n)))
    factor = (4 * ctx.pi * ctx.sqrt(ox ** 2 + oy ** 2 + oz ** 2) / lam) ** 2
    return float(factor * quad)


@dataclass
class Reference:
    """Everything the checks of one workload compare against, computed on demand."""

    workload: str
    inputs: Inputs
    points: dict = field(default_factory=dict)
    extended: dict = field(default_factory=dict)

    def at(self, point: Point) -> PointReference:
        if point not in self.points:
            self.points[point] = PointReference(self.inputs, point)
        return self.points[point]

    def extended_d(self, point: Point) -> float:
        if point not in self.extended:
            self.extended[point] = extended_directivity(self.inputs, point)
        return self.extended[point]

    @cached_property
    def hp_stored(self) -> dict:
        """HP-CA-MF references from ``reference.py``, keyed by point."""
        stored = json.loads(HP_REFERENCE.read_text())
        if stored["inputs"] != hp_reference_inputs(self.inputs):
            raise ValueError(f"{HP_REFERENCE} was made for other inputs; rerun reference.py")
        return {Point(e["fraction"], e["kind"]): e["directivity"] for e in stored["points"]}


def hp_reference_inputs(inputs: Inputs) -> dict:
    """The inputs a stored HP reference must have been computed for."""
    return {"frequency_hz": inputs.frequency_hz, "panel": list(inputs.panel),
            "terminal": list(inputs.terminal), "fractions": inputs.fractions,
            "kinds": inputs.kinds, "bits": inputs.bits}


# -- checks -----------------------------------------------------------------
def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _d(row) -> float:
    return float(row["directivity"])


def _by_scheme(rows) -> dict:
    return {r["scheme"]: r for r in rows}


def check_spacing_rows(ref, point, rows):
    schemes = [r["scheme"] for r in rows]
    if sorted(schemes) != sorted(ref.inputs.schemes):
        return f"schemes {schemes}, expected {ref.inputs.schemes}"
    pitch = ref.inputs.pitch(point)
    if any(float(r["spacing_m"]) != pitch for r in rows):
        return f"spacing_m differs from {pitch!r}"
    return None


def check_status(ref, point, rows):
    for r in rows:
        if r["status"] != "ok" and not (r["scheme"] == "CA-MF" and r["status"] == REFUSAL):
            return f"{r['scheme']} status {r['status']!r}"
    return None


def check_refusal(ref, point, rows):
    ca = _by_scheme(rows).get("CA-MF")
    if ca is not None and ca["status"] == REFUSAL and not ref.at(point).singular_in_double:
        return "CA-MF refused although the independent spectrum is not singular in double"
    return None


def check_element_count(ref, point, rows):
    n_y, n_z = ref.inputs.axis_counts(point)
    for r in rows:
        if int(r["n_elements"]) != n_y * n_z:
            return f"n_elements {r['n_elements']}, expected {n_y * n_z}"
    return None


def check_d_nc(ref, point, rows):
    want = ref.at(point).d_nc_closed_form
    for r in rows:
        if _rel(float(r["d_nc_reference"]), want) > 1e-10:
            return f"d_nc_reference {r['d_nc_reference']} against closed form {want!r}"
    return None


def check_nca_mf(ref, point, rows):
    got = _d(_by_scheme(rows)["nCA-MF"])
    want = ref.at(point).nca_mf_directivity
    return None if _rel(got, want) <= 1e-10 else f"nCA-MF D {got!r} against {want!r}"


def check_spectral(ref, point, rows):
    if point.fraction < SPECTRAL_CHECK_MIN_FRACTION:
        return None
    by = _by_scheme(rows)
    pref = ref.at(point)
    for scheme, threshold in (("CA-MF", None), ("CA-pMF", ref.inputs.threshold)):
        if scheme not in by:
            continue
        want, kept = pref.spectral_directivity(threshold)
        row = by[scheme]
        if row["status"] != "ok" or _rel(_d(row), want) > 1e-9:
            return f"{scheme} D {row['directivity']} against spectral sum {want!r}"
        if int(row["retained_modes"]) != kept:
            return f"{scheme} retained {row['retained_modes']} modes, spectrum gives {kept}"
    return None


def check_hp_reference(ref, point, rows):
    got = _d(_by_scheme(rows)["HP-CA-MF"])
    want = ref.hp_stored[point]
    return None if _rel(got, want) <= 1e-12 else f"HP-CA-MF D {got!r} against {want!r}"


def check_hp_optimal(ref, point, rows):
    by = _by_scheme(rows)
    hp = _d(by["HP-CA-MF"])
    for scheme, row in by.items():
        if scheme != "HP-CA-MF" and row["status"] == "ok" and _d(row) > hp * (1 + 1e-12):
            return f"{scheme} D {row['directivity']} exceeds HP-CA-MF D {hp!r}"
    return None


def check_hp_beats_d_nc(ref, point, rows):
    row = _by_scheme(rows)["HP-CA-MF"]
    if not _d(row) > float(row["d_nc_reference"]):
        return f"HP-CA-MF D {row['directivity']} does not exceed D_NC {row['d_nc_reference']}"
    return None


def check_truncation_rows(ref, point, rows):
    n = ref.inputs.linear_elements
    modes = [int(r["retained_modes"]) for r in rows]
    if modes != list(range(1, n + 1)):
        return f"retained modes {modes}, expected 1..{n}"
    if any(int(r["n_elements"]) != n for r in rows):
        return f"n_elements differs from {n}"
    pitch = ref.inputs.pitch(point)
    if any(float(r["spacing_m"]) != pitch for r in rows):
        return f"spacing_m differs from {pitch!r}"
    return None


def check_monotone(ref, point, rows):
    d = [_d(r) for r in rows]
    for m in range(1, len(d)):
        if d[m] < d[m - 1] * (1 - 1e-13):
            return f"D falls from {d[m - 1]!r} to {d[m]!r} at {m + 1} modes"
    return None


def check_full_rank(ref, point, rows):
    got = _d(rows[-1])
    want = ref.extended_d(point)
    return None if _rel(got, want) <= 1e-12 else f"D at m=N {got!r} against {want!r}"


def check_kappa_one(ref, point, rows):
    if point != Point(0.5, "isotropic"):
        return None
    kappa = float(rows[0]["kappa"])
    return None if abs(kappa - 1.0) <= 1e-12 else f"kappa {kappa!r} on the 0.5-wavelength line"


# checks that find a point incomplete or refused rather than wrong
PRESENCE_CHECKS = {"rows", "check_spacing_rows", "check_status", "check_truncation_rows"}


SPACING_CHECKS = [check_spacing_rows, check_status, check_refusal, check_element_count,
                  check_d_nc, check_nca_mf, check_spectral]
CHECKS = {
    "spacing-double": SPACING_CHECKS,
    "spacing-hp": SPACING_CHECKS + [check_hp_reference, check_hp_optimal, check_hp_beats_d_nc],
    "truncation-ext": [check_truncation_rows, check_monotone, check_full_rank, check_kappa_one],
}


# -- tables -------------------------------------------------------------------
def read_table(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def group_rows(ref: Reference, table: list[dict]) -> dict:
    """Rows of each configured point; rows of unknown pitch are collected under ``None``."""
    pitches = {ref.inputs.pitch(p): p.fraction for p in ref.inputs.points()}
    groups = {p: [] for p in ref.inputs.points()}
    for row in table:
        point = Point(pitches.get(float(row["spacing_m"]), math.nan), row["element_kind"])
        groups.setdefault(point if point in groups else None, []).append(row)
    return groups


def check_table(ref: Reference, table: list[dict], checks=None) -> dict:
    """``(check name, message)`` problems per point; an empty list when the point passes.

    A point with no rows fails check ``rows``; rows that belong to no
    configured point are reported under ``None``.  A point's checks stop
    at the first failure of a presence check (``PRESENCE_CHECKS``), since
    the later ones read the values of complete, ``ok`` rows, and at a
    value that does not parse.
    """
    problems = {}
    for point, rows in group_rows(ref, table).items():
        if point is None:
            problems[None] = [("rows", f"{len(rows)} rows of unconfigured points")]
            continue
        if not rows:
            problems[point] = [("rows", "missing")]
            continue
        found = []
        for check in checks or CHECKS[ref.workload]:
            try:
                message = check(ref, point, rows)
            except (KeyError, ValueError) as exc:
                found.append((check.__name__, f"unreadable row: {exc!r}"))
                break
            if message is not None:
                found.append((check.__name__, message))
                if check.__name__ in PRESENCE_CHECKS:
                    break
        problems[point] = found
    return problems
