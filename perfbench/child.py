"""One sweep through ``lissim.cli.main`` in a fresh interpreter.

Usage::

    python3 child.py [--setup-only] [--trace PATH] -- <lissim CLI arguments>

The CLI prints ``running ...`` to stderr once its config is parsed and
``wrote ...`` once the CSV is on disk.  This script stamps those two
lines with the CPU time this process has used since it started
(``time.process_time``) and with the wall clock (``time.monotonic``),
and prints one JSON object on stdout: the stamps, the exit code and the
peak resident memory.
``--setup-only`` exits at the ``running`` line.  ``--trace PATH`` installs
the layer wrappers of ``layertrace`` and writes their spans to PATH.
"""

import json
import os
import sys
import time
import traceback


class _StderrMarks:
    """Stand-in for ``sys.stderr`` that timestamps each message."""

    def __init__(self, setup_only: bool):
        self.setup_only = setup_only
        self.marks = []
        self.text = []

    def write(self, s: str) -> int:
        now = {"cpu": time.process_time(), "wall": time.monotonic()}
        if s.startswith("running "):
            self.marks.append(("running", now))
            if self.setup_only:
                _report(self, rc=0)
                os._exit(0)
        elif s.startswith("wrote "):
            self.marks.append(("wrote", now))
        self.text.append(s)
        return len(s)

    def flush(self) -> None:
        pass


def _peak_rss_kib() -> int:
    """High-water resident set of this process since its ``exec``.

    Not ``ru_maxrss``: Linux carries that over ``exec`` from the process
    that forked this one, so it would read the benchmark's own memory
    whenever the sweep uses less.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _report(err: _StderrMarks, rc: int) -> None:
    out = {"rc": rc, "marks": dict(err.marks), "peak_rss_mb": _peak_rss_kib() / 1024.0,
           "stderr": "".join(err.text)[-2000:]}
    sys.__stdout__.write(json.dumps(out) + "\n")
    sys.__stdout__.flush()


def main(argv: list[str]) -> None:
    split = argv.index("--")
    opts, cli_args = argv[:split], argv[split + 1:]
    setup_only = "--setup-only" in opts
    trace_path = opts[opts.index("--trace") + 1] if "--trace" in opts else None

    err = _StderrMarks(setup_only)
    sys.stderr = err
    try:
        import lissim.cli

        src = os.environ["PYTHONPATH"].split(os.pathsep)[0]
        if not os.path.abspath(lissim.cli.__file__).startswith(os.path.abspath(src) + os.sep):
            raise RuntimeError(f"lissim imported from {lissim.cli.__file__}, not from {src}")
        tracer = None
        if trace_path is not None:
            import layertrace

            tracer = layertrace.Tracer()
            tracer.install()
        rc = lissim.cli.main(cli_args)
        if tracer is not None:
            tracer.write(trace_path)
    except Exception:  # report any failure of the round as a non-zero exit
        err.text.append(traceback.format_exc())
        rc = 1
    finally:
        sys.stderr = sys.__stderr__
    _report(err, rc)


if __name__ == "__main__":
    main(sys.argv[1:])
