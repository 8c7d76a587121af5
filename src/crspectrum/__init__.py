"""Seed-reproducible cognitive-radio spectrum decision simulator.

Components: licensed-channel ON/OFF traffic traces, single-channel
occupancy predictors (ELM, BP, HMM), cooperative fusion of noisy local
predictions, access-experience channel recommendation, and learning
agents (tabular Q, empirical MDP) for slotted opportunistic access.

The root holds the run API; each layer's names are imported from their
own module, such as ``crspectrum.predictors``.
"""

from .config import (
    SCENARIOS,
    ConfigError,
    SimConfig,
    default_config,
    validate_config,
)
from .harness import (
    RunSummary,
    emit_outputs,
    run_scenario,
    summary_to_csv,
    summary_to_json,
)

__all__ = [
    "ConfigError",
    "RunSummary",
    "SCENARIOS",
    "SimConfig",
    "default_config",
    "emit_outputs",
    "run_scenario",
    "summary_to_csv",
    "summary_to_json",
    "validate_config",
]
