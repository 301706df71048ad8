"""Stochastic line-search optimization: fit low-order polynomials to noisy
batch losses sampled along the negative-gradient direction and step to the
fitted minimum."""

from .baselines import BaselineConfig, StepDecaySchedule, run_baseline
from .controller import DivergenceError, ElfConfig, run
from .linesearch import LineSearchConfig, elf_line_search
from .problems import LogisticBlobs, MlpBlobs, NoisyQuadraticEnsemble, cross_section_profile, empirical_loss
from .regression import SampleSet, select_degree_and_fit
from .seeding import rng_streams

__all__ = [
    "BaselineConfig",
    "DivergenceError",
    "ElfConfig",
    "LineSearchConfig",
    "LogisticBlobs",
    "MlpBlobs",
    "NoisyQuadraticEnsemble",
    "SampleSet",
    "StepDecaySchedule",
    "cross_section_profile",
    "elf_line_search",
    "empirical_loss",
    "rng_streams",
    "run",
    "run_baseline",
    "select_degree_and_fit",
]

__version__ = "0.1.0"
