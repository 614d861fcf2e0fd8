"""Sampling strategies: vanilla top-1, linear schedule, threshold-based dynamic.

Every sampler takes the open block's masked generation-relative positions,
ascending, as the decoder slices them from its one masked list, and returns
the positions it commits as an ascending tuple of them.  Ties in any
confidence comparison break toward the lowest position index so the whole
pipeline stays deterministic.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .core import DecodeConfig, PredictionFrame, SENTINEL_CONFIDENCE


def _confidence(frame: PredictionFrame, g: int) -> float:
    c = frame.confidence[g]
    if c == SENTINEL_CONFIDENCE:
        raise ValueError(f"masked scope position {g} was never evaluated")
    return c


def top1(confidence: Sequence[float], positions: Iterable[int]) -> int:
    """The most confident of ``positions``, lowest index on ties.

    ``max`` keeps the first of equal maxima, so over ascending positions the
    lowest index wins.  The sampler's forced commit and the adaptive
    scheduler's delimiter choose by this rule; the failure metrics need only
    the confidence it picks, the highest, whichever way ties break.
    """
    return max(positions, key=confidence.__getitem__)


def vanilla_sample(frame: PredictionFrame, masked: Sequence[int]) -> tuple[int, ...]:
    """Top-1 confidence sampling: dynamic sampling at a threshold no confidence reaches."""
    return threshold_sample(frame, math.inf, masked)


def linear_sample(
    frame: PredictionFrame, per_step: int, masked: Sequence[int]
) -> tuple[int, ...]:
    """Fixed-budget sampling: the ``per_step`` most confident masked positions."""
    if per_step < 1:
        raise ValueError("per_step must be >= 1")
    ranked = sorted(masked, key=lambda g: (-_confidence(frame, g), g))
    return tuple(sorted(ranked[:per_step]))


def threshold_sample(
    frame: PredictionFrame, tau: float, masked: Sequence[int]
) -> tuple[int, ...]:
    """Dynamic sampling: the top-1 masked position plus every one at or above tau.

    The forced top-1 guarantees progress even when every confidence sits below
    the threshold; when any reaches it, the top-1 is among them.  An empty
    ``masked`` yields the empty tuple, which signals block completion rather
    than an error.
    """
    selected = tuple(g for g in masked if _confidence(frame, g) >= tau)
    if selected or not masked:
        return selected
    return (top1(frame.confidence, masked),)


def linear_per_step(config: DecodeConfig) -> int:
    """Tokens per step for the linear sampler: ceil(L / T) preserves the budget,
    with T = ``linear_steps``, or ``max_steps`` when it is unset."""
    return math.ceil(config.gen_budget / (config.linear_steps or config.max_steps))


def sample_step(
    frame: PredictionFrame, config: DecodeConfig, masked: Sequence[int]
) -> tuple[int, ...]:
    """Dispatch one sampling step according to ``config.sampler``."""
    if config.sampler == "vanilla":
        return vanilla_sample(frame, masked)
    if config.sampler == "linear":
        return linear_sample(frame, linear_per_step(config), masked)
    if config.sampler == "dynamic":
        return threshold_sample(frame, config.tau, masked)
    raise ValueError(f"unknown sampler {config.sampler!r}")
