"""Show that every output check passes on a real table and fails on a perturbed one.

Usage, from the root of a checkout, after one run of each workload::

    python3 perfbench/run.py --workload <name> --seconds 1
    python3 perfbench/perturb.py [workload ...]

For each workload this reads ``perfbench/out/<workload>/round0.csv``
and runs the workload's checks on it (every point must pass), then on
copies with one value moved by a relative 1e-6, or one row or status
changed (the targeted point must fail the targeted check, and the checks
must report rather than raise).  It also prints how closely the table
agrees with each independent reference.  Exits 1 if any expectation
does not hold.
"""

from __future__ import annotations

import copy
import json
import sys

import checks
from checks import Point
from run import BENCH_DIR, WORKLOADS

EPS = 1e-6


def _scale(row: dict, column: str, factor: float = 1 + EPS) -> None:
    row[column] = repr(float(row[column]) * factor)


def spacing_perturbations(ref):
    """(check, description, point, mutate(rows of the point)) for the spacing workloads."""
    first = ref.inputs.points()[0]
    wide = next((p for p in ref.inputs.points()
                 if p.fraction >= checks.SPECTRAL_CHECK_MIN_FRACTION), None)
    regular = next((p for p in ref.inputs.points() if not ref.at(p).singular_in_double), None)

    def row(rows, scheme):
        return next(r for r in rows if r["scheme"] == scheme)

    out = [
        (checks.check_spacing_rows, "CA-pMF row dropped", first,
         lambda rows: rows.remove(row(rows, "CA-pMF"))),
        (checks.check_status, "CA-pMF status set to a failure", first,
         lambda rows: row(rows, "CA-pMF").update(status="failed: EmptySpectrumError")),
        (checks.check_element_count, "n_elements + 1", first,
         lambda rows: row(rows, "nCA-MF").update(
             n_elements=str(int(rows[0]["n_elements"]) + 1))),
        (checks.check_d_nc, "d_nc_reference x (1 + 1e-6)", first,
         lambda rows: _scale(row(rows, "nCA-MF"), "d_nc_reference")),
        (checks.check_nca_mf, "nCA-MF D x (1 + 1e-6)", first,
         lambda rows: _scale(row(rows, "nCA-MF"), "directivity")),
    ]
    if regular is not None:
        out.append((checks.check_refusal, "CA-MF refused where Z is regular", regular,
                    lambda rows: row(rows, "CA-MF").update(status=checks.REFUSAL,
                                                           directivity="")))
    if wide is not None:
        out += [(checks.check_spectral, f"{scheme} D x (1 + 1e-6)", wide,
                 lambda rows, scheme=scheme: _scale(row(rows, scheme), "directivity"))
                for scheme in ("CA-MF", "CA-pMF")]
    if "HP-CA-MF" in ref.inputs.schemes:
        def hp_d(rows):
            return float(row(rows, "HP-CA-MF")["directivity"])
        out += [
            (checks.check_hp_reference, "HP-CA-MF D x (1 + 1e-6)", first,
             lambda rows: _scale(row(rows, "HP-CA-MF"), "directivity")),
            (checks.check_hp_optimal, "CA-pMF D set to HP-CA-MF D x (1 + 1e-6)", first,
             lambda rows: row(rows, "CA-pMF").update(directivity=repr(hp_d(rows) * (1 + EPS)))),
            (checks.check_hp_beats_d_nc, "d_nc_reference set to HP-CA-MF D x (1 + 1e-6)", first,
             lambda rows: row(rows, "HP-CA-MF").update(
                 d_nc_reference=repr(hp_d(rows) * (1 + EPS)))),
            (checks.check_status, "HP-CA-MF failed, directivity empty", first,
             lambda rows: row(rows, "HP-CA-MF").update(
                 status="failed: IllConditionedSolveError", directivity="",
                 directivity_dbi="", excitation_power="", retained_modes="")),
        ]
    return out


def truncation_perturbations(ref):
    first = ref.inputs.points()[0]
    return [
        (checks.check_truncation_rows, "row m=5 dropped", first,
         lambda rows: rows.pop(4)),
        (checks.check_monotone, "D(m=2) set to D(m=1) x (1 - 1e-6)", first,
         lambda rows: rows[1].update(directivity=repr(float(rows[0]["directivity"]) * (1 - EPS)))),
        (checks.check_full_rank, "D(m=N) x (1 + 1e-6)", first,
         lambda rows: _scale(rows[-1], "directivity")),
        (checks.check_kappa_one, "kappa x (1 + 1e-6)", Point(0.5, "isotropic"),
         lambda rows: _scale(rows[0], "kappa")),
    ]


def perturbed_table(ref, table, point, mutate) -> list[dict]:
    """A copy of ``table`` with ``mutate`` applied to the rows of ``point``."""
    groups = checks.group_rows(ref, copy.deepcopy(table))
    mutate(groups[point])
    return [r for rows in groups.values() for r in rows]


def agreement(ref, table) -> dict:
    """Largest relative gap between the table and each independent reference."""
    gaps = {}

    def note(name, got, want):
        gaps[name] = max(gaps.get(name, 0.0), abs(float(got) - want) / abs(want))

    for point, rows in checks.group_rows(ref, table).items():
        if point is None or not rows:
            continue
        if ref.workload == "truncation-ext":
            note("D(m=N) vs own mpmath solve", rows[-1]["directivity"], ref.extended_d(point))
            continue
        by = {r["scheme"]: r for r in rows}
        pref = ref.at(point)
        note("d_nc_reference vs closed form", rows[0]["d_nc_reference"], pref.d_nc_closed_form)
        note("nCA-MF D vs own Z and h", by["nCA-MF"]["directivity"], pref.nca_mf_directivity)
        if point.fraction >= checks.SPECTRAL_CHECK_MIN_FRACTION:
            for scheme, threshold in (("CA-MF", None), ("CA-pMF", ref.inputs.threshold)):
                note(f"{scheme} D vs own eigh", by[scheme]["directivity"],
                     pref.spectral_directivity(threshold)[0])
        if "HP-CA-MF" in by:
            note("HP-CA-MF D vs stored mpmath solve", by["HP-CA-MF"]["directivity"],
                 ref.hp_stored[point])
    return gaps


def main(workloads) -> int:
    ok = True
    for workload in workloads:
        experiment, config, _ = WORKLOADS[workload]
        cfg = json.loads((BENCH_DIR / "configs" / config).read_text())
        ref = checks.Reference(workload, checks.Inputs.from_config(cfg, experiment))
        path = BENCH_DIR / "out" / workload / "round0.csv"
        table = checks.read_table(path)
        print(f"== {workload} ({path.name}, {len(table)} rows)")
        for name, gap in agreement(ref, table).items():
            print(f"   agreement  {name}: {gap:.1e}")
        problems = {p: found for p, found in checks.check_table(ref, table).items() if found}
        print(f"   {'ok' if not problems else 'FAILS':9}  all checks on the real table"
              + (f": {problems}" if problems else ""))
        ok = ok and not problems
        make = truncation_perturbations if experiment == "truncation" else spacing_perturbations
        for check, what, point, mutate in make(ref):
            found = checks.check_table(ref, perturbed_table(ref, table, point, mutate))[point]
            caught = [message for name, message in found if name == check.__name__]
            ok = ok and bool(caught)
            verdict = "ok" if caught else "NOT SHOWN"
            print(f"   {verdict:9}  {check.__name__}: {what} at {point.fraction} lambda "
                  f"{point.kind} -> {caught[0] if caught else f'not caught, found {found}'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or list(WORKLOADS)))
