"""Simulator for single-query Boolean classification on molecular coherences.

A femtosecond pump prepares a vibronic coherence across a window of
excited-state levels of iodine, a sign-masked Stokes pulse encodes a
Boolean function on the Raman channels, and the interference of the
channels into one target level reads the function's class out of a single
coherent measurement.  The package covers the bound-state solver, the
two-surface model, pulse design, the perturbative transfer dynamics and
the classification benchmarks.
"""

from .algorithm import (
    DEFAULT_PUMP_DURATION,
    DEFAULT_STOKES_DURATION,
    DEFAULT_TAILORED_PUMP_DURATION,
    DEFAULT_WINDOWS,
    BooleanFunction,
    DJOutcome,
    FidelityMetrics,
    Outcomes,
    RunOptions,
    all_outcomes,
    channel_weights,
    distinguishability,
    enumerate_functions,
    fidelity_table,
    pearson_r,
    run_instance,
    s_n,
    sweep_delay,
)
from .dvr import EigenSolution, Grid, build_hamiltonian, kinetic_matrix, solve_bound_states
from .dynamics import (
    FirstOrderCoherence,
    apply_stokes,
    cars_spectrum,
    prepare_first_order,
    signal_magnitude,
    time_domain_oracle,
)
from .molecule import (
    DEFAULT_GRID,
    IODINE_B,
    IODINE_REDUCED_MASS,
    IODINE_X,
    VibronicModel,
    build_model,
    fc_window_score,
    transition_wavenumber,
    vibrational_period,
    with_equalized_fc,
)
from .morse import (
    MorseParams,
    anharmonicity,
    bound_state_count,
    harmonic_wavenumber,
    morse_analytic_levels,
    morse_potential,
    turning_points,
)
from .pulses import (
    PulseSpec,
    SpectralMask,
    design_probe,
    design_pump,
    design_stokes,
    spectral_amplitude,
    time_profile,
)

__all__ = [
    "BooleanFunction",
    "DEFAULT_GRID",
    "DEFAULT_PUMP_DURATION",
    "DEFAULT_STOKES_DURATION",
    "DEFAULT_TAILORED_PUMP_DURATION",
    "DEFAULT_WINDOWS",
    "DJOutcome",
    "EigenSolution",
    "FidelityMetrics",
    "FirstOrderCoherence",
    "Grid",
    "IODINE_B",
    "IODINE_REDUCED_MASS",
    "IODINE_X",
    "MorseParams",
    "Outcomes",
    "PulseSpec",
    "RunOptions",
    "SpectralMask",
    "VibronicModel",
    "all_outcomes",
    "anharmonicity",
    "apply_stokes",
    "bound_state_count",
    "build_hamiltonian",
    "build_model",
    "cars_spectrum",
    "channel_weights",
    "design_probe",
    "design_pump",
    "design_stokes",
    "distinguishability",
    "enumerate_functions",
    "fc_window_score",
    "fidelity_table",
    "harmonic_wavenumber",
    "kinetic_matrix",
    "morse_analytic_levels",
    "morse_potential",
    "pearson_r",
    "prepare_first_order",
    "run_instance",
    "s_n",
    "signal_magnitude",
    "solve_bound_states",
    "spectral_amplitude",
    "sweep_delay",
    "time_domain_oracle",
    "time_profile",
    "transition_wavenumber",
    "turning_points",
    "vibrational_period",
    "with_equalized_fc",
]

__version__ = "0.1.0"
