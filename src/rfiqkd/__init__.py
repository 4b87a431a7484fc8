"""Security-analysis pipeline for a four-state reference-frame-independent
QKD protocol with weak+vacuum decoy states and finite-key accounting."""

from .core import (
    BasisLabel,
    ChannelParams,
    IntensityClass,
    IntensityKind,
    KeyRateReport,
    ObservedTallies,
    ProtocolConfig,
    SecurityParams,
    StateLabel,
    TallyBatch,
    intensity_triple,
    validate_config,
)
from .keyrate import analyze_tallies, group_and_extract

__all__ = [
    "BasisLabel",
    "ChannelParams",
    "IntensityClass",
    "IntensityKind",
    "KeyRateReport",
    "ObservedTallies",
    "ProtocolConfig",
    "SecurityParams",
    "StateLabel",
    "TallyBatch",
    "intensity_triple",
    "validate_config",
    "analyze_tallies",
    "group_and_extract",
]

__version__ = "0.1.0"
