"""Exception types raised across the toolkit."""


class LisSimError(Exception):
    """Base class for all toolkit errors."""


class InvalidArgumentError(LisSimError, ValueError):
    """An argument violates a documented precondition."""


class CapacityError(LisSimError):
    """A requested layout exceeds the configured element cap, or its dense
    coupling matrix would not fit in the machine's physical memory."""


class DomainError(LisSimError, ValueError):
    """Input lies outside the mathematical domain of an operation."""


class InvalidGeometryError(LisSimError, ValueError):
    """Element layout is degenerate (e.g. duplicate positions)."""


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
        Estimated condition number of the matrix.  The machine-double
        solve reports the 2-norm condition number from the
        eigendecomposition.  The extended-precision solve reports
        ``||Z||_1`` times a Hager-Higham lower estimate (ACM TOMS 670)
        of ``||Z^-1||_1`` on the parity sectors the right-hand side
        excites, computed from the sector LU factors the solve already
        holds, so the refusal costs a few triangular solves and no
        eigendecomposition.  When every sector is excited this
        estimates the 1-norm condition number, which lies within a
        factor N of the 2-norm one.
    """

    def __init__(self, message: str, residual: float, kappa_estimate: float):
        super().__init__(message, residual=residual)
        self.kappa_estimate = kappa_estimate


class EmptySpectrumError(LisSimError):
    """Every eigenvalue fell below the truncation threshold."""


class DegenerateInputError(LisSimError, ValueError):
    """A vector input is identically zero where a nonzero one is required."""


class NonRadiatingCurrentError(LisSimError):
    """Excitation current has non-positive radiated power ``i^H Z i``."""


class ConfigError(LisSimError, ValueError):
    """Experiment configuration file is malformed or inconsistent."""


class AccuracyWarning(UserWarning):
    """A self-check suggests the requested accuracy was not reached."""
