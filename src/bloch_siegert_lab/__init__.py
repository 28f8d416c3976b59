"""Bloch-Siegert physics of the driven two-level system.

Resonance shifts over the full drive-strength range by five independent
methods, plus dissipative observables (time-averaged populations and
probe spectra) in the counter-rotating hybridized rotating frame.
"""

from .chrw import (
    ChrwFrame,
    FrameMode,
    ModelParams,
    build_frame,
    solve_xi,
    xi_fixed_point_residual,
)
from .dissipative import (
    RateSet,
    SteadyState,
    bloch_generator,
    fourier_coefficients,
    fourier_f,
    lindblad_tensor,
    population_avg,
    rates,
    steady_state,
)
from .errors import (
    BslError,
    ConvergenceError,
    DegenerateInputError,
    DomainError,
    GridError,
    NoSignChangeError,
    PoleError,
    ValidityWarning,
)
from .floquet import (
    FloquetSolution,
    branch_gap,
    circle_gap,
    default_truncation,
    fold_to_zone,
    monodromy_gap,
    monodromy_quasienergies,
    periodic_steady_state,
    solve_floquet,
)
from .numerics import (
    bessel_j,
    bessel_j0_minus_1,
    bessel_j_sequence,
    find_root_bracketed,
    first_bessel_j0_zero,
)
from .resonance import (
    Method,
    ShiftResult,
    bs_asymptotic,
    bs_chrw,
    bs_floquet_numeric,
    bs_perturbative6,
    bs_shirley_iterative,
    resonance_shift,
)
from .spectrum import (
    SpectrumTrace,
    asymmetry_metric,
    default_probe_grid,
    default_sideband_count,
    initial_conditions,
    spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "BslError",
    "ChrwFrame",
    "ConvergenceError",
    "DegenerateInputError",
    "DomainError",
    "FrameMode",
    "GridError",
    "Method",
    "ModelParams",
    "NoSignChangeError",
    "PoleError",
    "ShiftResult",
    "ValidityWarning",
    "FloquetSolution",
    "RateSet",
    "SpectrumTrace",
    "SteadyState",
    "asymmetry_metric",
    "bessel_j",
    "bessel_j0_minus_1",
    "bessel_j_sequence",
    "branch_gap",
    "circle_gap",
    "default_truncation",
    "fold_to_zone",
    "monodromy_gap",
    "monodromy_quasienergies",
    "periodic_steady_state",
    "bloch_generator",
    "bs_asymptotic",
    "bs_chrw",
    "bs_floquet_numeric",
    "bs_perturbative6",
    "bs_shirley_iterative",
    "build_frame",
    "default_probe_grid",
    "default_sideband_count",
    "find_root_bracketed",
    "first_bessel_j0_zero",
    "fourier_coefficients",
    "fourier_f",
    "initial_conditions",
    "lindblad_tensor",
    "population_avg",
    "rates",
    "resonance_shift",
    "solve_floquet",
    "solve_xi",
    "spectrum",
    "steady_state",
    "__version__",
]
