"""Single-user precoders and power normalization.

Three schemes: the plain matched filter that ignores coupling, the
coupling-aware matched filter ``Z^{-1} h`` that maximizes the SNR
quotient ``|i^H h|^2 / (i^H Z i)``, and its truncated-spectrum variant
for when Z is too ill-conditioned to invert outright.  No phase
convention is imposed; only ratios of quadratic forms are meaningful.
"""

from __future__ import annotations

import numpy as np

from .coupling import (
    ImpedanceMatrix,
    quadratic_form,
    rank_truncated_solve,
    solve,
    truncated_solve,
)
from .errors import DegenerateInputError, InvalidArgumentError, NonRadiatingCurrentError
from .specfun import MP_LOCK, Precision


def nca_mf(h):
    """Coupling-agnostic matched filter: the channel itself.

    Raises
    ------
    DegenerateInputError
        For an identically zero channel.
    """
    hv = np.asarray(h)
    if not np.any(hv):
        raise DegenerateInputError("matched filter undefined for a zero channel")
    return hv.copy()


def ca_mf(Z: ImpedanceMatrix, h, precision: Precision | None = None):
    """Coupling-aware matched filter ``Z^{-1} h`` via a linear solve.

    Maximizes ``|i^H h|^2 / (i^H Z i)`` over all currents.  Uses the
    refined solve, never an explicit inverse; an ill-conditioned-solve
    error propagates when the residual target cannot be met.
    """
    return solve(Z, h, precision)


def ca_pmf(Z: ImpedanceMatrix, h, s_min_threshold: float):
    """Truncated-spectrum matched filter.

    Applies the pseudo-inverse that keeps eigenvalues strictly above
    ``s_min_threshold`` as ``U_k (U_k^T h / s_k)``, without forming it;
    an empty-spectrum error propagates when the threshold removes
    everything.
    """
    return truncated_solve(Z, h, s_min_threshold)


def ca_pmf_rank(Z: ImpedanceMatrix, h, modes: int):
    """Count-based companion to :func:`ca_pmf`: keep the top ``modes``."""
    return rank_truncated_solve(Z, h, modes)


def power_normalize(i, Z: ImpedanceMatrix):
    """Scale currents so the radiated power ``i^H Z i`` equals one.

    Raises
    ------
    NonRadiatingCurrentError
        If ``i^H Z i <= 0`` (current in the numerical null space).
    """
    return _unit_power(i, Z, quadratic_form(Z, i))


def _unit_power(i, Z: ImpedanceMatrix, power):
    """:func:`power_normalize` with the radiated power ``power = i^H Z i`` already formed."""
    if not power > 0:
        raise NonRadiatingCurrentError(
            f"cannot power-normalize: i^H Z i = {float(power):.3e} is not positive")
    iv = np.asarray(i)
    if iv.shape != (Z.n,):
        raise InvalidArgumentError(f"current vector must have shape ({Z.n},), got {iv.shape}")
    if Z.precision.is_extended:
        with MP_LOCK:
            return iv * (1 / Z.context.sqrt(power))
    return iv / np.sqrt(power)
