"""Fixed computations that gauge how fast the host runs during a benchmark run.

A shared host changes speed over minutes, and the CPU time of a sweep
follows it: on the reference host the median sweep time of ten runs
moved by a third between a slow period and a quiet one, in CPU time as
much as in wall time.  ``run.py`` times these gauges between its rounds,
in CPU time like the rounds, and reports a run's median time as
``time × REFERENCE_S / gauge``, with the median of the run's gauge
samples: the seconds the rounds would have taken on the reference host,
on which the gauges take ``REFERENCE_S``.  A slowdown of the host
stretches the rounds and the gauges alike, so it cancels; a change of
the program does not touch the gauges, which call numpy, scipy and
mpmath directly and nothing of lissim.

Two gauges match the two kinds of work the sweeps do:

- ``double``: a LAPACK ``eigh`` and ``solve`` and a J1 kernel over a
  16 MB array, in about the proportions of the double sweep (``eigh``,
  the ``Z`` build, the LU solve);
- ``ext``: ``mpmath.lu_solve`` at 256 bits, pure-Python big-integer
  arithmetic like the extended LU and Jacobi sweeps, and like the
  interpreter's work during set-up.
"""

from __future__ import annotations

import time

import mpmath
import numpy as np
import scipy.special

# CPU seconds of one sample of each gauge on the reference host: the
# 2-core virtual machine of the README's figures (Intel Xeon, Python 3.11,
# numpy 2.4 with OpenBLAS 0.3.31 on one thread, mpmath 1.3 without gmpy2).
REFERENCE_S = {"double": 0.224, "ext": 0.232}
REPEATS = {"double": 2, "ext": 3}  # passes per sample, about a quarter second each


class Gauge:
    """The two gauges, set up once; ``sample`` times one pass of each."""

    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((800, 800))
        self._sym = a + a.T
        self._x = np.linspace(0.1, 60.0, 2_000_000)
        n = 36
        with mpmath.workprec(256):
            self._mp_a = mpmath.matrix(
                [[mpmath.mpf(1) / (i + j + 1) + (i == j) for j in range(n)] for i in range(n)])
            self._mp_b = mpmath.matrix([mpmath.mpf(i + 1) / 3 for i in range(n)])
        self.sample()  # the first pass pays for lazy set-up in numpy and mpmath

    def _double(self) -> None:
        np.linalg.eigh(self._sym)
        scipy.special.j1(self._x) / self._x
        np.linalg.solve(self._sym, self._sym[:, 0])

    def _ext(self) -> None:
        with mpmath.workprec(256):
            # a fresh copy each time: mpmath caches the factors on the matrix
            mpmath.lu_solve(self._mp_a.copy(), self._mp_b)

    def sample(self) -> dict[str, float]:
        """CPU seconds of one pass of each gauge."""
        out = {}
        for name, gauge in (("double", self._double), ("ext", self._ext)):
            start = time.process_time()
            for _ in range(REPEATS[name]):
                gauge()
            out[name] = time.process_time() - start
        return out

