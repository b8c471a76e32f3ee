"""Three-party secure computation pipeline for publishing DP synthetic data."""

from .fixedpoint import FixedPointConfig, decode, encode, truncate
from .pipeline import PipelineConfig, RunResult, ThresholdSet, run_pipeline
from .runtime import CommLedger, Party, ProtocolAbort, run_parties, setup_handshake
from .sharing import ShareMatrix, ShareVector

__version__ = "0.1.0"

__all__ = [
    "FixedPointConfig", "encode", "decode", "truncate",
    "PipelineConfig", "RunResult", "ThresholdSet", "run_pipeline",
    "CommLedger", "Party", "ProtocolAbort", "run_parties", "setup_handshake",
    "ShareMatrix", "ShareVector",
]
