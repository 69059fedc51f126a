"""The benchmark's traced rounds still reach every layer they time.

``perfbench/layertrace.py`` wraps lissim's functions by name and refuses
to run when a wrapped name is gone; a kernel or solve reached through a
reference bound at import time would escape its spans and read 0.  This
runs ``perfbench/child.py --trace`` on one tiny sweep per precision in a
fresh interpreter and reads the trace it writes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lissim

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("precision,suffix", [("double", "double"), ("ext:128", "ext")])
def test_traced_sweep_has_spans_for_the_kernel_impedance_solve_and_channel(
        tmp_path, precision, suffix):
    config = tmp_path / "spacing.json"
    config.write_text(json.dumps({
        "panel": {"width_m": 0.1, "height_m": 0.1},
        "spacings": ["0.3 lambda"],
        "element_kinds": ["planar"],
        "schemes": ["CA-MF", "HP-CA-MF"],
        "precision": precision,
    }))
    trace = tmp_path / "trace.json"
    src = str(Path(lissim.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src, LISSIM_MAX_WORKERS="1", OPENBLAS_NUM_THREADS="1")
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), "--trace", str(trace), "--",
         "spacing", "--config", str(config), "--out", str(tmp_path / "out.csv"), "--no-timing"],
        env=env, capture_output=True, text=True, check=False, timeout=600)
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout.splitlines()[-1])
    assert report["rc"] == 0, report["stderr"]
    spans = json.loads(trace.read_text())["spans"]
    labels = {label for label, *_ in spans}
    impedance = f"coupling.impedance_{suffix}_s"
    for label in ("specfun.kernel_s", impedance, f"coupling.solve_{suffix}_s",
                  "channel.vector_s"):
        assert label in labels, label
    # the kernels are reached from the Z build of this precision
    assert any(label == "specfun.kernel_s" and spans[parent][0] == impedance
               for label, _, _, parent in spans if parent >= 0)
