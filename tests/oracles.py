"""Independent reference implementations that the tests check the package against."""

import math

import mpmath

from lissim import DomainError, InvalidArgumentError

_SERIES_ORACLE_MAX_X = 30.0


def j1_series_oracle(x: float, terms: int) -> float:
    """Partial Maclaurin sum for J1, summed free of rounding error.

    The alternating series ``sum_m (-1)^m (x/2)^(2m+1) / (m! (m+1)!)`` is
    evaluated with enough working precision that cancellation between
    the large intermediate terms cannot contaminate the double-rounded
    result.

    Parameters
    ----------
    x : float
        Argument, ``|x| <= 30`` (series accuracy domain).
    terms : int
        Number of series terms to sum, >= 1.
    """
    if not math.isfinite(x) or abs(x) > _SERIES_ORACLE_MAX_X:
        raise DomainError(f"series oracle restricted to |x| <= {_SERIES_ORACLE_MAX_X}, got {x!r}")
    if terms < 1:
        raise InvalidArgumentError(f"terms must be >= 1, got {terms!r}")
    ctx = mpmath.mp.clone()
    # worst-case cancellation grows like e^(2|x|); pad well past it
    ctx.prec = 53 + int(3 * abs(x)) + 60
    half = ctx.mpf(x) / 2
    term = half  # m = 0 term: (x/2) / (0! * 1!)
    total = term
    for m in range(1, terms):
        term = -term * half * half / (m * (m + 1))
        total += term
    return float(total)
