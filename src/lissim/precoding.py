"""Single-user precoders and power normalization.

Three schemes: the plain matched filter that ignores coupling, the
coupling-aware matched filter ``Z^{-1} h`` that maximizes the SNR
quotient ``|i^H h|^2 / (i^H Z i)``, and its truncated-spectrum variant
for when Z is too ill-conditioned to invert outright.  No phase
convention is imposed; only ratios of quadratic forms are meaningful.
Every filter refuses a channel with a NaN or infinite entry.
"""

from __future__ import annotations

import numpy as np

from .coupling import (
    ImpedanceMatrix,
    _leading_modes,
    _modal_solve,
    _modes_above,
    _require_finite,
    quadratic_form,
    solve,
)
from .errors import DegenerateInputError, InvalidArgumentError, NonRadiatingCurrentError


def nca_mf(h):
    """Coupling-agnostic matched filter: the channel itself.

    Raises
    ------
    InvalidArgumentError
        For a channel with a NaN or infinite entry.
    DegenerateInputError
        For an identically zero channel.
    """
    hv = np.asarray(h)
    _require_finite(hv)
    if not np.any(hv):
        raise DegenerateInputError("matched filter undefined for a zero channel")
    return hv.copy()


def ca_mf(Z: ImpedanceMatrix, h):
    """Coupling-aware matched filter ``Z^{-1} h`` via a linear solve.

    Maximizes ``|i^H h|^2 / (i^H Z i)`` over all currents.  Uses the
    refined solve, never an explicit inverse; an ill-conditioned-solve
    error propagates when the residual target cannot be met.
    """
    return solve(Z, h)


def ca_pmf(Z: ImpedanceMatrix, h, s_min_threshold: float):
    """Truncated-spectrum matched filter.

    Applies the pseudo-inverse that keeps the k eigenvalues strictly
    above ``s_min_threshold`` (the leading k of the descending spectrum)
    as ``U_k (U_k^T h / s_k)``, without forming it; an empty-spectrum
    error propagates when the threshold removes everything.
    """
    return _modal_solve(Z, _modes_above(Z, s_min_threshold), h)


def ca_pmf_rank(Z: ImpedanceMatrix, h, modes: int):
    """Count-based companion to :func:`ca_pmf`: keep the top ``modes``.

    Modes whose eigenvalue is zero or negative roundoff are never
    inverted even if requested; an empty-spectrum error propagates when
    that leaves none.
    """
    return _modal_solve(Z, _leading_modes(Z, modes), h)


def power_normalize(i, Z: ImpedanceMatrix):
    """Scale currents so the radiated power ``i^H Z i`` equals one.

    Raises
    ------
    NonRadiatingCurrentError
        If ``i^H Z i <= 0`` (current in the numerical null space).
    """
    power = quadratic_form(Z, i)
    if not power > 0:
        raise NonRadiatingCurrentError(
            f"cannot power-normalize: i^H Z i = {float(power):.3e} is not positive")
    iv = np.asarray(i)
    if iv.shape != (Z.n,):
        raise InvalidArgumentError(f"current vector must have shape ({Z.n},), got {iv.shape}")
    ar = Z.arithmetic
    with ar.lock:
        return iv / ar.sqrt(power)
