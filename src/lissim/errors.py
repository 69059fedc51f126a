"""Exception types raised across the toolkit, all derived from :class:`LisSimError`."""

from __future__ import annotations

from typing import Callable


class LisSimError(Exception):
    """Base class for all toolkit errors."""


class InvalidArgumentError(LisSimError, ValueError):
    """An argument violates a documented precondition."""


class CapacityError(LisSimError):
    """A requested layout exceeds the configured element cap, or the N x N
    eigenvectors of its coupling matrix would not fit in the machine's
    physical memory."""


class DomainError(LisSimError, ValueError):
    """Input lies outside the mathematical domain of an operation."""


class NumericalFailureError(LisSimError):
    """An iterative numerical routine failed to converge.

    Carries ``residual``, the final convergence measure, when available.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class IllConditionedSolveError(NumericalFailureError):
    """A linear solve could not meet its residual target.

    Attributes
    ----------
    residual : float
        Achieved relative residual ``||Zx - h|| / ||h||``.
    kappa_estimate : float
        Estimated condition number of the matrix.  The solve reports,
        in both precisions, ``||Z||_1`` times a Hager-Higham lower
        estimate (ACM TOMS 670) of ``||Z^-1||_1`` on the parity sectors
        the right-hand side excites, from the sector solves the refused
        solve already set up, with no eigendecomposition.  It is lazy:
        the error holds a function that computes it, run on the first
        read and cached, so a caller that only notes the refusal never
        pays the estimate's few sector solves.  When every sector is
        excited this estimates the 1-norm condition number, which lies
        within a factor N of the 2-norm one.

    ``kappa_estimate`` is given as a float, or as a function of no
    arguments that returns it.
    """

    def __init__(self, message: str, residual: float,
                 kappa_estimate: float | Callable[[], float]):
        super().__init__(message, residual=residual)
        self._kappa_estimate = kappa_estimate

    @property
    def kappa_estimate(self) -> float:
        # read once: two threads reading first may both compute, but each gets the same float
        estimate = self._kappa_estimate
        if callable(estimate):
            estimate = self._kappa_estimate = float(estimate())
        return estimate


class EmptySpectrumError(LisSimError):
    """Every eigenvalue fell below the truncation threshold."""


class DegenerateInputError(LisSimError, ValueError):
    """A vector input is identically zero where a nonzero one is required."""


class NonRadiatingCurrentError(LisSimError):
    """Excitation current has non-positive radiated power ``i^H Z i``."""


class ConfigError(LisSimError, ValueError):
    """Experiment configuration file is malformed or inconsistent."""
