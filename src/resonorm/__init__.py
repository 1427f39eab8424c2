"""Resonant normal forms for perturbed Hamiltonians, semiclassical spectrum
prediction, and independent matrix-diagonalization cross-checks."""

from .series import (
    PhaseGeometry,
    FourierTaylorSeries,
    GeneratingSeries,
    poisson_bracket,
    lie_transform_auto,
    cutoff,
    average_over_angles,
)
from .gevrey import (
    ApproximationFunction,
    GevreyWeights,
    gamma_extremal,
    lemma_ba_bound,
    majorant_norm,
    power_log_delta,
    subgevrey_exp_delta,
)
from .reduction import (
    ResonanceModule,
    TaylorData,
    ReducedHamiltonian,
    unimodular_completion,
    resonant_average,
    critical_points,
    reduce_hamiltonian,
)
from .kam import (
    NormalFormState,
    Schedule,
    check_divisors,
    solve_homological,
    kam_step,
    iterate,
)
from .quantize import (
    QuantumNumbers,
    SpectrumPrediction,
    predict_spectrum,
    remainder_bound,
    action_index_set,
)
from .oracle import (
    ModelOperator,
    build_operator,
    diagonalize,
    interior,
    match_spectrum,
    window_spectrum,
)
from .freqsets import ZoneSpec, zone_measure_mc, excluded_set_measure, summability_check
from .scarring import (
    build_quasi_table,
    separation_check,
    window_census,
    local_diffeo_check,
    mass_on_torus,
)

__version__ = "0.1.0"

__all__ = [
    "PhaseGeometry", "FourierTaylorSeries", "GeneratingSeries",
    "poisson_bracket", "lie_transform_auto", "cutoff", "average_over_angles",
    "ApproximationFunction", "GevreyWeights", "gamma_extremal",
    "lemma_ba_bound", "majorant_norm", "power_log_delta",
    "subgevrey_exp_delta",
    "ResonanceModule", "TaylorData", "ReducedHamiltonian",
    "unimodular_completion", "resonant_average", "critical_points",
    "reduce_hamiltonian",
    "NormalFormState", "Schedule", "check_divisors", "solve_homological",
    "kam_step", "iterate",
    "QuantumNumbers", "SpectrumPrediction", "predict_spectrum",
    "remainder_bound", "action_index_set",
    "ModelOperator", "build_operator",
    "diagonalize", "interior", "match_spectrum", "window_spectrum",
    "ZoneSpec", "zone_measure_mc", "excluded_set_measure",
    "summability_check",
    "build_quasi_table", "separation_check", "window_census",
    "local_diffeo_check", "mass_on_torus",
    "__version__",
]
