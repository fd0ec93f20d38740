"""Subwavelength resonances and coupled Hopf dynamics of circular resonator arrays."""

import os

# before numpy loads, or OpenBLAS takes its thread count (and so its rounding) from the machine
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"  # recorded in each run.json; cache keys hash the source instead

from .geometry import ResonatorArray, build_graded_array
from .cylinder import bessel_j, hankel1
from .boundary import MultipoleDensity, WaveParams, assemble_boundary_system, evaluate_field
from .quadrature import default_spec
from .spectral import (
    DegenerateModeError,
    Eigenmode,
    Resonance,
    ResonanceSearchError,
    extract_eigenmode,
    find_resonances,
    single_disk_resonance,
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
    LineSolution,
    single_hopf_steady_state,
    solve_lines,
    solve_passive,
    solve_pure_tone,
    solve_two_tone,
)
from .analysis import (
    PhaseResponse,
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
    "ResonatorArray",
    "build_graded_array",
    "bessel_j",
    "hankel1",
    "MultipoleDensity",
    "WaveParams",
    "assemble_boundary_system",
    "evaluate_field",
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
    "LineSolution",
    "single_hopf_steady_state",
    "solve_lines",
    "solve_passive",
    "solve_pure_tone",
    "solve_two_tone",
    "PhaseResponse",
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
    "cache_request",
    "modal_cache_key",
    "__version__",
]
