"""Markov chain substrate: models, adaptation (Algorithm 2), samplers."""

from .adaptation import (
    AdaptedModel,
    ObservationContradictionError,
    adapt_many,
    adapt_model,
)
from .arena import ArenaRequest, SamplingArena, sample_paths_arena
from .chain import (
    InhomogeneousMarkovChain,
    MarkovChain,
    TransitionModel,
    uniformized,
    validate_stochastic,
)
from .compiled import CompiledMatrix, CompiledModel, compile_model
from .distributions import SparseDistribution
from .hmm import Evidence, forward_backward_smoothing
from .sampling import (
    SamplingStats,
    estimate_rejection_cost,
    estimate_segment_cost,
    posterior_sample,
    rejection_sample,
    segment_rejection_sample,
)
from .stationary import mixing_profile, spectral_gap, stationary_distribution

__all__ = [
    "AdaptedModel",
    "ArenaRequest",
    "CompiledMatrix",
    "CompiledModel",
    "SamplingArena",
    "Evidence",
    "InhomogeneousMarkovChain",
    "MarkovChain",
    "ObservationContradictionError",
    "SamplingStats",
    "SparseDistribution",
    "TransitionModel",
    "adapt_many",
    "adapt_model",
    "compile_model",
    "estimate_rejection_cost",
    "estimate_segment_cost",
    "forward_backward_smoothing",
    "mixing_profile",
    "posterior_sample",
    "rejection_sample",
    "sample_paths_arena",
    "segment_rejection_sample",
    "spectral_gap",
    "stationary_distribution",
    "uniformized",
    "validate_stochastic",
]
