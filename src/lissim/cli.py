"""Command-line entry point for the experiment runners.

Usage::

    lissim <conditioning|profile|truncation|spacing>
           [--config cfg.json] [--out table.csv]
           [--precision double|ext:<bits>] [--threshold 1e-9]
           [--quiet] [--no-timing] [--dump-matrices dir/]

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
The sweep runs its points one after another in the calling thread; its
BLAS calls still use the BLAS library's own thread count.

Once the config is parsed, :func:`main` freezes the garbage collector's
view of every object alive at that point (``gc.freeze``: the imported
modules, the config) and unfreezes it when the sweep returns, so that
in-process callers get their collector back.  The sweep allocates many
container objects (mpmath numbers, numpy object arrays), and without the
freeze they trigger a full collection that walks every object of the
imported libraries, 20-30 ms per extended sweep on a 2-core machine,
although none of those objects is garbage.
"""

from __future__ import annotations

import argparse
import gc
import sys

from .errors import ConfigError, LisSimError
from .experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    apply_overrides,
    default_config,
    load_config,
    run_experiment,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lissim",
        description="Coupled-surface simulation sweeps; results are written as CSV.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, runner in EXPERIMENTS.items():
        # a runner's docstring opens with the table it writes
        p = sub.add_parser(name, help=(runner.__doc__ or "").partition("\n")[0])
        p.add_argument("--config", metavar="PATH",
                       help="JSON config file (built-in defaults when omitted)")
        p.add_argument("--out", metavar="PATH",
                       help="output CSV path (overrides the config)")
        p.add_argument("--precision", metavar="SPEC",
                       help="'double' or 'ext:<bits>' (overrides the config)")
        p.add_argument("--threshold", metavar="X", type=float,
                       help="eigenvalue truncation threshold (overrides the config)")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
        p.add_argument("--no-timing", action="store_true",
                       help="omit the wall-time column (byte-comparable output)")
        p.add_argument("--dump-matrices", metavar="DIR",
                       help="also write each coupling matrix as plain text into DIR")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else default_config(args.experiment)
        cfg = apply_overrides(
            cfg,
            precision=args.precision,
            threshold=args.threshold,
            output_path=args.out,
            include_timing=False if args.no_timing else None,
            dump_dir=args.dump_matrices,
        )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    gc.freeze()
    try:
        return _run(args, cfg)
    finally:
        gc.unfreeze()


def _run(args: argparse.Namespace, cfg: ExperimentConfig) -> int:
    """Run the parsed experiment, write its table and return the exit code."""
    if not args.quiet:
        print(
            f"running {args.experiment}: {len(cfg.spacings_m)} spacing(s), "
            f"kinds {[k.value for k in cfg.element_kinds]}, precision {cfg.precision.spec()}",
            file=sys.stderr,
        )
    try:
        result = run_experiment(args.experiment, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except LisSimError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    result.write(cfg.output_path)
    if not args.quiet:
        print(f"wrote {len(result.rows)} rows to {cfg.output_path}", file=sys.stderr)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
