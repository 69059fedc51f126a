"""Recompute the stored HP-CA-MF references of the spacing-hp workload.

Usage, from anywhere::

    python3 perfbench/reference.py

For every point of ``configs/spacing-hp.json`` this builds the
benchmark's own extended-precision coupling matrix and channel (see
``checks.extended_directivity``), solves with ``mpmath.lu_solve`` and
writes ``factor * h^H Z^{-1} h`` to ``reference/spacing-hp.json``.  It
does not import lissim.  It takes about ten seconds, which is why the
result is stored rather than recomputed in every benchmark run.
"""

import json
import time

import checks


def main() -> None:
    cfg = json.loads((checks.BENCH_DIR / "configs" / "spacing-hp.json").read_text())
    inputs = checks.Inputs.from_config(cfg, "spacing")
    points = []
    for point in inputs.points():
        start = time.perf_counter()
        d = checks.extended_directivity(inputs, point)
        n_y, n_z = inputs.axis_counts(point)
        print(f"{point.kind} {point.fraction} lambda, N={n_y * n_z}: D={d!r} "
              f"({time.perf_counter() - start:.1f} s)")
        points.append({"fraction": point.fraction, "kind": point.kind, "n": n_y * n_z,
                       "directivity": d})
    out = {"inputs": checks.hp_reference_inputs(inputs), "points": points}
    checks.HP_REFERENCE.parent.mkdir(exist_ok=True)
    checks.HP_REFERENCE.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
