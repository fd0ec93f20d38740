"""Subwavelength resonances and coupled Hopf dynamics of circular resonator arrays.

Exports the README quick start's names; every other name is imported from its module."""

import os

# before numpy loads, or OpenBLAS takes its thread count (and so its rounding) from the machine
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"  # recorded in each run.json; cache keys hash the source instead

from .geometry import build_graded_array
from .boundary import WaveParams
from .modal import build_modal_system
from .hopf import DEFAULT_BETA, solve_pure_tone, solve_two_tone

__all__ = ["build_graded_array", "WaveParams", "build_modal_system", "solve_pure_tone",
           "solve_two_tone", "DEFAULT_BETA", "__version__"]
