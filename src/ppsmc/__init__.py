"""Conditional sampling of event sequences with required event times.

Core pieces: sequence models over inter-arrival gaps (`models`), the particle
filter that samples conditioned on required events (`smc`), a likelihood-
maximizing beam-search baseline (`beam`), an exactly enumerable occupancy-grid
oracle (`oracle`), and a symbolic-music event domain (`music`).
"""

from .models import (PoissonProcessModel, SequenceModel, UniformRenewalModel,
                     WeibullRenewalModel, conditional_intensity, log_probability,
                     propose_segment, sample_restricted, step_log_probabilities)
from .smc import (BarrierDiagnostics, ConstraintSet, EnsembleResult,
                  barrier_weight, conditional_sample, effective_sample_size,
                  read_constraint_file, satisfies, systematic_indices)
from .beam import BeamBarrierDiagnostics, beam_search_sample
from .errors import IterationLimitError, SaturatedCdfError

__version__ = "0.1.0"

__all__ = [
    "PoissonProcessModel", "SequenceModel", "UniformRenewalModel",
    "WeibullRenewalModel", "conditional_intensity", "log_probability",
    "sample_restricted", "step_log_probabilities",
    "BarrierDiagnostics", "ConstraintSet", "EnsembleResult", "barrier_weight",
    "conditional_sample", "effective_sample_size", "propose_segment",
    "read_constraint_file", "satisfies", "systematic_indices",
    "BeamBarrierDiagnostics", "beam_search_sample",
    "IterationLimitError", "SaturatedCdfError",
    "__version__",
]
