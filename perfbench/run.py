"""Benchmark of the lissim sweeps: timed, traced and checked runs of the CLI.

Usage, from the root of a lissim checkout::

    python3 perfbench/run.py --workload spacing-double --seconds 30 [--seed 0] [--trace 0]

Each round runs one sweep (``lissim.cli.main`` on a config in
``perfbench/configs``) in a fresh interpreter with one sweep worker and
one BLAS thread.  Rounds repeat while another one still fits in
``--seconds``.  ``--trace 0`` reports the end-to-end metrics: the median
CPU time of the sweep (``cpu_s``), the median CPU time from the start of
the interpreter to a parsed config (``setup_s``, also sampled by extra
launches that stop there), both in seconds of a reference host (see
``hostspeed``), and the median peak resident memory (``peak_rss_mb``).
CPU time, because on a shared host the time a process waits for a core
changes from run to run; scaled by the ``hostspeed`` gauges timed
between the rounds, because the speed of the host changes too.
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics of ``layertrace`` plus the tracing overhead, in CPU
seconds of the host it ran on.  Afterwards every round's table is
checked against the independent references of ``checks``; an operation
is one sweep point.
The inputs are fixed lattices, so ``--seed`` is recorded but changes
nothing.  The last line of stdout is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
CHILD = BENCH_DIR / "child.py"
PINNED_ENV = {
    "LISSIM_MAX_WORKERS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(PINNED_ENV)  # before numpy loads in this process too

# workload -> (lissim experiment, config file, the hostspeed gauge its sweep time is scaled by)
WORKLOADS = {
    "spacing-double": ("spacing", "spacing-double.json", "double"),
    "spacing-hp": ("spacing", "spacing-hp.json", "ext"),
    "truncation-ext": ("truncation", "truncation-ext.json", "ext"),
}
SETUP_GAUGE = "ext"  # set-up is interpreter work: imports and unmarshalling
SETUP_ONLY_LAUNCHES = 5
ROUND_TIMEOUT_S = 170


OVERHEAD = "trace.overhead_s"


def declared_metrics(root: Path, trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics ``BENCHMARK.json`` declares for this kind of run."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


class Runner:
    """Launches the rounds of one workload from the root of a checkout."""

    def __init__(self, root: Path, workload: str, gauged: bool):
        self.root = root
        self.experiment, config, self.gauge_kind = WORKLOADS[workload]
        self.config = BENCH_DIR / "configs" / config
        self.out = BENCH_DIR / "out" / workload
        self.out.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.tables: list[Path | None] = []  # one per sweep round, None if it failed
        self.gauge = None
        self.gauge_samples: list[dict] = []
        if gauged:
            import hostspeed

            self.gauge = hostspeed.Gauge()
            self.sample_gauge()

    def sample_gauge(self) -> None:
        if self.gauge is not None:
            self.gauge_samples.append(self.gauge.sample())
            print("gauges: " + ", ".join(f"{kind} {s:.3f} s" for kind, s in
                                         self.gauge_samples[-1].items()), file=sys.stderr)

    def scale(self, kind: str) -> float:
        """Factor from CPU seconds of this run to seconds of the reference host."""
        import hostspeed

        return hostspeed.REFERENCE_S[kind] / statistics.median(
            s[kind] for s in self.gauge_samples)

    def launch(self, tag: str, trace: bool = False, setup_only: bool = False) -> dict:
        table = self.out / f"{tag}.csv"
        trace_path = self.out / f"{tag}.trace.json"
        table.unlink(missing_ok=True)
        opts = (["--setup-only"] if setup_only else []) + (
            ["--trace", str(trace_path)] if trace else [])
        cmd = [sys.executable, str(CHILD), *opts, "--", self.experiment,
               "--config", str(self.config), "--out", str(table), "--no-timing"]
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=ROUND_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        rec = json.loads(lines[-1]) if proc.returncode == 0 and lines else {"rc": -1}
        needed = {"running"} if setup_only else {"running", "wrote"}
        if rec["rc"] == 0 and not needed <= set(rec["marks"]):
            rec["rc"] = -1  # the CLI no longer prints the lines the timing relies on
        if rec["rc"] != 0:
            print(f"{tag}: exit {proc.returncode}\n{proc.stderr}{rec.get('stderr', '')}",
                  file=sys.stderr)
            rec["ok"] = False
        else:
            running = rec["marks"]["running"]
            rec["ok"] = True
            rec["setup_s"] = running["cpu"]
            if not setup_only:
                wrote = rec["marks"]["wrote"]
                rec["cpu_s"] = wrote["cpu"] - running["cpu"]
                wall_s = wrote["wall"] - running["wall"]
                print(f"{tag}: setup {rec['setup_s']:.3f} s, sweep {rec['cpu_s']:.3f} s CPU "
                      f"({wall_s:.3f} s wall), peak {rec['peak_rss_mb']:.1f} MB",
                      file=sys.stderr)
        if not setup_only:
            self.tables.append(table if rec["ok"] else None)
            if trace and rec["ok"]:
                rec["trace"] = json.loads(trace_path.read_text())
        return rec

    def rounds(self, seconds: float, traced: bool) -> list[dict]:
        """Whole rounds (untraced, or untraced-traced pairs) while the next one fits."""
        start = time.monotonic()
        records = []
        while True:
            k = len(records)
            records.append(self.launch(f"round{k}"))
            self.sample_gauge()
            if traced:
                records.append(self.launch(f"round{k + 1}-traced", trace=True))
            elapsed = time.monotonic() - start
            step = elapsed / (len(records) // (2 if traced else 1))
            if elapsed + step > seconds:
                return records


def _median(records: list[dict], key: str) -> float | None:
    values = [r[key] for r in records if r["ok"]]
    return statistics.median(values) if values else None


def end_to_end(runner: Runner, records: list[dict]) -> dict:
    setups = records + [runner.launch(f"setup{k}", setup_only=True)
                        for k in range(SETUP_ONLY_LAUNCHES)]
    runner.sample_gauge()
    cpu_s, setup_s = _median(records, "cpu_s"), _median(setups, "setup_s")
    if cpu_s is None or setup_s is None:
        return {}
    return {"cpu_s": cpu_s * runner.scale(runner.gauge_kind),
            "setup_s": setup_s * runner.scale(SETUP_GAUGE),
            "peak_rss_mb": _median(records, "peak_rss_mb")}


def per_layer(records: list[dict], names) -> dict:
    import layertrace

    traced = [r for r in records if r["ok"] and "trace" in r]
    plain = [r for r in records if r["ok"] and "trace" not in r]
    if not traced or not plain:
        return {}
    layer_names = [n for n in names if n != OVERHEAD]
    layers = [layertrace.layer_metrics(r["trace"], layer_names) for r in traced]
    # the counts repeat exactly from round to round, so their median is that count
    out = {name: statistics.median(m[name] for m in layers) for name in layer_names}
    out[OVERHEAD] = _median(traced, "cpu_s") - _median(plain, "cpu_s")
    return out


def check_rounds(runner: Runner, workload: str) -> tuple[int, int, bool]:
    """Attempted and failed sweep points over all rounds, and whether outputs were right."""
    import checks

    cfg = json.loads(runner.config.read_text())
    ref = checks.Reference(workload, checks.Inputs.from_config(cfg, runner.experiment))
    per_round = len(ref.inputs.points())
    attempted = failed = 0
    correct = True
    for table in runner.tables:
        attempted += per_round
        if table is None:
            failed += per_round
            continue
        problems = checks.check_table(ref, checks.read_table(table))
        for point, found in problems.items():
            if found:
                failed += 1 if point is not None else 0
                correct = correct and all(name in checks.PRESENCE_CHECKS for name, _ in found)
                print(f"{table.name} {point}: {found}", file=sys.stderr)
    return attempted, failed, correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded only: every workload runs fixed inputs")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "lissim" / "cli.py").is_file():
        print(f"no lissim sources under {root / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    units = declared_metrics(root, bool(args.trace))
    runner = Runner(root, args.workload, gauged=not args.trace)
    records = runner.rounds(args.seconds, traced=bool(args.trace))
    metrics = per_layer(records, units) if args.trace else end_to_end(runner, records)
    if not metrics or any(v is None for v in metrics.values()):
        print("no round completed; nothing to report", file=sys.stderr)
        return 1
    if set(metrics) != set(units):
        raise RuntimeError(f"measured {sorted(metrics)}, BENCHMARK.json declares {sorted(units)}")
    attempted, failed, correct = check_rounds(runner, args.workload)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    line = json.dumps(result)
    (runner.out / f"result-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
