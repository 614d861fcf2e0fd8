"""Sampling strategies: vanilla top-1, linear schedule, threshold-based dynamic.

All samplers take a scope of generation-relative positions, consider only the
masked positions inside it, and return a generation-relative position set.
Ties in any confidence comparison break toward the lowest position index so
the whole pipeline stays deterministic.
"""

from __future__ import annotations

import math
from typing import Iterable

from .core import DecodeConfig, PredictionFrame, SENTINEL_CONFIDENCE, SequenceState


def _masked_in_scope(state: SequenceState, scope: Iterable[int]) -> list[int]:
    return sorted(state.masked.intersection(scope))


def _confidence(frame: PredictionFrame, g: int) -> float:
    c = frame.confidence[g]
    if c == SENTINEL_CONFIDENCE:
        raise ValueError(f"masked scope position {g} was never evaluated")
    return c

def _top1(frame: PredictionFrame, masked: list[int]) -> int:
    # max confidence, lowest index on ties; masked is sorted ascending
    best = masked[0]
    best_c = _confidence(frame, best)
    for g in masked[1:]:
        c = _confidence(frame, g)
        if c > best_c:
            best, best_c = g, c
    return best


def vanilla_sample(
    state: SequenceState, frame: PredictionFrame, scope: Iterable[int]
) -> frozenset[int]:
    """Top-1 confidence sampling: the single most confident masked position."""
    masked = _masked_in_scope(state, scope)
    if not masked:
        return frozenset()
    return frozenset({_top1(frame, masked)})


def linear_sample(
    state: SequenceState,
    frame: PredictionFrame,
    per_step: int,
    scope: Iterable[int],
) -> frozenset[int]:
    """Fixed-budget sampling: the ``per_step`` most confident masked positions."""
    if per_step < 1:
        raise ValueError("per_step must be >= 1")
    masked = _masked_in_scope(state, scope)
    if not masked:
        return frozenset()
    ranked = sorted(masked, key=lambda g: (-_confidence(frame, g), g))
    return frozenset(ranked[: min(per_step, len(ranked))])


def threshold_sample(
    state: SequenceState,
    frame: PredictionFrame,
    tau: float,
    scope: Iterable[int],
) -> frozenset[int]:
    """Dynamic sampling: the top-1 masked position plus every one at or above tau.

    The forced top-1 guarantees progress even when every confidence sits below
    the threshold.  An empty masked scope yields the empty set, which signals
    block completion rather than an error.
    """
    masked = _masked_in_scope(state, scope)
    if not masked:
        return frozenset()
    top = _top1(frame, masked)
    selected = {top}
    for g in masked:
        if _confidence(frame, g) >= tau:
            selected.add(g)
    return frozenset(selected)


def linear_per_step(config: DecodeConfig) -> int:
    """Tokens per step for the linear sampler: ceil(L / T) preserves the budget,
    with T = ``linear_steps``, or ``max_steps`` when it is unset."""
    return math.ceil(config.gen_budget / (config.linear_steps or config.max_steps))


def sample_step(
    state: SequenceState,
    frame: PredictionFrame,
    config: DecodeConfig,
    scope: Iterable[int],
) -> frozenset[int]:
    """Dispatch one sampling step according to ``config.sampler``."""
    if config.sampler == "vanilla":
        return vanilla_sample(state, frame, scope)
    if config.sampler == "linear":
        return linear_sample(state, frame, linear_per_step(config), scope)
    if config.sampler == "dynamic":
        return threshold_sample(state, frame, config.tau, scope)
    raise ValueError(f"unknown sampler {config.sampler!r}")
