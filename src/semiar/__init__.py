"""Blockwise semi-autoregressive mask decoding with adaptive block scheduling."""

from .core import (
    DecodeConfig,
    DecodeTrace,
    PredictionFrame,
    Regime,
    SequenceState,
    StepRecord,
    Vocabulary,
    apply_sample,
    init_state,
)
from .decoder import DecodeResult, decode, evaluation_scope
from .metrics import FailureReport, failure_rates, segment_regimes, vb_width_series
from .predictors import (
    MaskPredictor,
    NGramPredictor,
    SyntheticFieldParams,
    SyntheticPredictor,
    TraceReplayPredictor,
    build_ngram,
    build_synthetic,
    load_trace_predictor,
)
from .sampling import linear_sample, threshold_sample, vanilla_sample
from .scheduler import BlockDecision, compute_block_length, fixed_block_length

__version__ = "0.1.0"

__all__ = [
    "BlockDecision",
    "DecodeConfig",
    "DecodeResult",
    "DecodeTrace",
    "FailureReport",
    "MaskPredictor",
    "NGramPredictor",
    "PredictionFrame",
    "Regime",
    "SequenceState",
    "StepRecord",
    "SyntheticFieldParams",
    "SyntheticPredictor",
    "TraceReplayPredictor",
    "Vocabulary",
    "apply_sample",
    "build_ngram",
    "build_synthetic",
    "compute_block_length",
    "decode",
    "evaluation_scope",
    "failure_rates",
    "fixed_block_length",
    "init_state",
    "linear_sample",
    "load_trace_predictor",
    "segment_regimes",
    "threshold_sample",
    "vanilla_sample",
    "vb_width_series",
]
