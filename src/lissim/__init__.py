"""Simulation toolkit for large coupled antenna surfaces.

Models a transmitting surface as a grid of mutually coupled elements,
builds the coupling (impedance) matrix and line-of-sight channel for
isotropic and planar element types, computes coupling-aware matched
filters with exact, truncated-spectrum, and extended-precision solves,
and reports SNR/directivity metrics plus reproducible CSV sweeps.
"""

from .channel import channel_for, channel_isotropic, channel_planar
from .coupling import (
    ImpedanceMatrix,
    condition_number,
    impedance,
    quadratic_form,
    rank_truncated_inverse,
    solve,
    sym_eig,
    truncated_inverse,
    write_matrix_text,
)
from .errors import (
    CapacityError,
    ConfigError,
    DegenerateInputError,
    DomainError,
    EmptySpectrumError,
    IllConditionedSolveError,
    InvalidArgumentError,
    LisSimError,
    NonRadiatingCurrentError,
    NumericalFailureError,
)
from .experiments import (
    ExperimentConfig,
    SweepResult,
    default_config,
    load_config,
    run_conditioning_sweep,
    run_experiment,
    run_singular_profile,
    run_spacing_sweep,
    run_truncation_sweep,
)
from .geometry import (
    SPEED_OF_LIGHT,
    ArrayGeometry,
    ElementKind,
    linear_array,
    planar_grid,
)
from .metrics import d_nc, directivity, excitation_power, snr, to_dbi
from .precoding import ca_mf, ca_pmf, ca_pmf_rank, nca_mf, power_normalize
from .specfun import Precision, j1_over_x, sinc_unnormalized

__version__ = "0.1.0"

__all__ = [
    "ArrayGeometry",
    "CapacityError",
    "ConfigError",
    "DegenerateInputError",
    "DomainError",
    "ElementKind",
    "EmptySpectrumError",
    "ExperimentConfig",
    "IllConditionedSolveError",
    "ImpedanceMatrix",
    "InvalidArgumentError",
    "LisSimError",
    "NonRadiatingCurrentError",
    "NumericalFailureError",
    "Precision",
    "SPEED_OF_LIGHT",
    "SweepResult",
    "ca_mf",
    "ca_pmf",
    "ca_pmf_rank",
    "channel_for",
    "channel_isotropic",
    "channel_planar",
    "condition_number",
    "d_nc",
    "default_config",
    "directivity",
    "excitation_power",
    "impedance",
    "j1_over_x",
    "linear_array",
    "load_config",
    "nca_mf",
    "planar_grid",
    "power_normalize",
    "quadratic_form",
    "rank_truncated_inverse",
    "run_conditioning_sweep",
    "run_experiment",
    "run_singular_profile",
    "run_spacing_sweep",
    "run_truncation_sweep",
    "sinc_unnormalized",
    "snr",
    "solve",
    "sym_eig",
    "to_dbi",
    "truncated_inverse",
    "write_matrix_text",
]
