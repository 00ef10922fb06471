"""Reusable experiment harnesses (shared by benchmarks and examples)."""

from repro.experiments.chain import ChainExperiment, ChainResult
from repro.experiments.service_graph import (
    ServiceGraphExperiment,
    ServiceGraphResult,
)
from repro.experiments.setup_time import (
    SetupTimeExperiment,
    SetupTimeResult,
)

__all__ = [
    "ChainExperiment",
    "ChainResult",
    "ServiceGraphExperiment",
    "ServiceGraphResult",
    "SetupTimeExperiment",
    "SetupTimeResult",
]
