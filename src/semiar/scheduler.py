"""Block-size determination: the fixed baseline and the delimiter-aware scheduler.

``compute_block_length`` inspects a short window of the block-opening
predictions for a confident delimiter token and, when it finds one, sizes the
block to end exactly there; otherwise it falls back to the default block size.
Inputs are generation-region arrays; committed positions should already carry
their committed token at confidence 1.0 (see :func:`scheduler_view`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .core import DecodeConfig, PredictionFrame, SequenceState

FALLBACK = "fallback"
DELIMITER = "delimiter"


@dataclass(frozen=True)
class BlockDecision:
    """Outcome of one block-size decision.

    ``window_start``/``window_len`` describe the inspected interval; for a
    delimiter decision ``delimiter_pos`` lies inside it and
    ``block_size == delimiter_pos - g + 1``.
    """

    block_size: int
    source: str  # FALLBACK or DELIMITER
    window_start: int
    window_len: int
    delimiter_pos: int | None = None
    delimiter_conf: float | None = None


def fixed_block_length(config: DecodeConfig, g: int) -> BlockDecision:
    """Constant block size, capped by the remaining generation budget."""
    remaining = config.gen_budget - g
    if not 0 <= g < config.gen_budget:
        raise ValueError(f"block start {g} outside [0, {config.gen_budget})")
    return BlockDecision(
        block_size=min(config.b0, remaining),
        source=FALLBACK,
        window_start=g,
        window_len=0,
    )


def compute_block_length(
    predicted: Sequence[int],
    confidence: Sequence[float],
    config: DecodeConfig,
    g: int,
) -> BlockDecision:
    """Delimiter-aware block sizing over a block-opening prediction.

    The window grows with decode progress, ``w = min(max(1, floor(f*g)),
    remaining)``, which also keeps distant positions (early high-confidence
    end-of-sequence predictions in particular) from shaping the block.  Among
    window positions predicting a delimiter token the most confident wins,
    lowest index on ties; the delimiter must reach ``tau_d`` or the decision
    falls back to the fixed size.
    """
    L = config.gen_budget
    if not 0 <= g < L:
        raise ValueError(f"block start {g} outside [0, {L})")
    if len(predicted) != L or len(confidence) != L:
        raise ValueError("predicted/confidence must cover the full generation region")

    remaining = L - g
    w = min(max(1, math.floor(config.window_fraction * g)), remaining)

    best_pos: int | None = None
    best_conf = -math.inf
    for i in range(g, g + w):
        if predicted[i] in config.delimiters and confidence[i] > best_conf:
            best_pos, best_conf = i, confidence[i]

    if best_pos is not None and best_conf >= config.tau_d:
        return BlockDecision(
            block_size=best_pos - g + 1,
            source=DELIMITER,
            window_start=g,
            window_len=w,
            delimiter_pos=best_pos,
            delimiter_conf=best_conf,
        )
    return BlockDecision(
        block_size=min(config.b0, remaining),
        source=FALLBACK,
        window_start=g,
        window_len=w,
    )


def scheduler_view(
    state: SequenceState, frame: PredictionFrame
) -> tuple[list[int], list[float]]:
    """Generation-region (predicted, confidence) arrays for block sizing.

    Committed positions override the frame with their committed token at
    confidence 1.0: a token already on the page is maximal evidence of a
    boundary, and the delimiter search should see it.
    """
    mask = state.mask_id
    tokens = state.tokens[state.prompt_len :]
    pred = [t if t != mask else p for t, p in zip(tokens, frame.predicted)]
    conf = [1.0 if t != mask else c for t, c in zip(tokens, frame.confidence)]
    return pred, conf


def decide_block(
    state: SequenceState, frame: PredictionFrame, config: DecodeConfig, g: int
) -> BlockDecision:
    """Run the configured scheduler on a block-opening frame."""
    if config.scheduler == "fixed":
        return fixed_block_length(config, g)
    pred, conf = scheduler_view(state, frame)
    return compute_block_length(pred, conf, config, g)
