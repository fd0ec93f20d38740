"""Subwavelength resonances and coupled Hopf dynamics of circular resonator arrays."""

__version__ = "0.1.0"  # recorded in each run.json; cache keys hash the source instead

from .geometry import Resonator, ResonatorArray, build_graded_array, validate_array
from .cylinder import bessel_j, hankel1
from .boundary import MultipoleDensity, WaveParams, assemble_boundary_system, evaluate_field
from .quadrature import QuadratureSpec, default_spec
from .spectral import (
    DegenerateModeError,
    Eigenmode,
    Resonance,
    ResonanceSearchError,
    extract_eigenmode,
    find_resonances,
    single_disk_resonance,
    subwavelength_cutoff,
)
from .modal import (
    ModalSystem,
    build_modal_system,
    cache_request,
    cubic_tensor,
    gram_matrix,
    modal_cache_key,
    source_coupling,
)
from .hopf import (
    DEFAULT_BETA,
    ConvergenceError,
    HopfOracleResult,
    LineSolution,
    single_hopf_steady_state,
    solve_lines,
    solve_passive,
    solve_pure_tone,
    solve_two_tone,
)
from .analysis import (
    PhaseCurve,
    SweepResult,
    UnwrapError,
    default_observation_points,
    group_delay,
    phase_response,
    pure_tone_sweep,
    refined_frequency_grid,
    two_tone_sweep,
)


__all__ = [
    "Resonator",
    "ResonatorArray",
    "build_graded_array",
    "validate_array",
    "bessel_j",
    "hankel1",
    "MultipoleDensity",
    "WaveParams",
    "assemble_boundary_system",
    "evaluate_field",
    "QuadratureSpec",
    "default_spec",
    "Eigenmode",
    "Resonance",
    "extract_eigenmode",
    "find_resonances",
    "ModalSystem",
    "build_modal_system",
    "cubic_tensor",
    "gram_matrix",
    "source_coupling",
    "HopfOracleResult",
    "LineSolution",
    "single_hopf_steady_state",
    "solve_lines",
    "solve_passive",
    "solve_pure_tone",
    "solve_two_tone",
    "PhaseCurve",
    "SweepResult",
    "UnwrapError",
    "default_observation_points",
    "group_delay",
    "phase_response",
    "pure_tone_sweep",
    "refined_frequency_grid",
    "two_tone_sweep",
    "DEFAULT_BETA",
    "ConvergenceError",
    "DegenerateModeError",
    "ResonanceSearchError",
    "single_disk_resonance",
    "subwavelength_cutoff",
    "cache_request",
    "modal_cache_key",
    "__version__",
]
