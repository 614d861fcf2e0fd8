"""The blockwise semi-autoregressive decode loop.

Decoding is one loop of denoise-sample steps; every step appends one step
record to the trace.  A step evaluates the cache policy's scope and denoises.
If no block is open, the scheduler then sizes one from that step's frame and
the step opens it; either way the step samples only within the open block.
Once the block holds no masks it closes and the next step opens the block
after it, so blocks advance left to right.

Cache policies are modelled as evaluation scopes over prediction frames:

* ``none``   - recompute every masked generation position on every call (the
  whole region when a block opens), so snapshots are always fresh.
* ``prefix`` - recompute everything from the current block start onward;
  positions before the block keep the values from when their block closed.
* ``dual``   - recompute the whole region at block opens but only the block's
  masked positions in between, so out-of-block values stay frozen until the
  next block opens.

The policies change which predictions are fresh and what evaluation work is
charged, never which tokens may be sampled.

What is charged is not always what is computed.  After each commit the
predictor's :meth:`~semiar.predictors.MaskPredictor.invalidated` names the
positions whose prediction the commit may have changed.  Within the charged
scope the loop recomputes just the positions invalidated since they were
last computed and carries the rest in the frame, where they already hold
the very value a recomputation would give.  A value that ``prefix`` or
``dual`` left stale outside the scope stays stale until it is computed again:
being in the frame is not enough to be reused.  Frames, traces and the
charged ``evaluated`` sets are the same as if every scope were recomputed.
Each record keeps the positions its step computed
(:attr:`~semiar.core.StepRecord.computed`) and their values, nothing else of
the frame, so the trace writer re-formats only those values and a replay of
the trace recomputes only them.

No step sorts or scans the generation region, nor copies the frame or the
tokens.  The loop keeps one frame and one sequence state, which denoise and
:func:`~semiar.core.apply_sample` update in place, and one ascending list of
the masked positions, the only set of them, from which it deletes each
commit by bisection.  The step's ``masked_before`` is one tuple of that
list; every scope, and the block's masked positions the sampler chooses
from, is a slice of it or of the region; and ``computed`` is drawn from the
positions invalidated since they were last computed.  What is left of O(L)
is C-level copying: that tuple, and the n-gram predictor's encoding of the
tokens into one bytes object per denoise call, which its memo keys slice.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Sequence

from .core import (
    DecodeConfig,
    DecodeTrace,
    PredictionFrame,
    SequenceState,
    StepRecord,
    Vocabulary,
    apply_sample,
    delimiter_error,
    init_state,
    prompt_error,
)
from .predictors import MaskPredictor
from .sampling import sample_step
from .scheduler import BlockDecision, decide_block


class DecodeError(RuntimeError):
    """Raised when a decode session cannot continue."""


@lru_cache(maxsize=8)
def _region(gen_budget: int) -> tuple[int, ...]:
    """Every generation position, ascending: the tuple region scopes slice."""
    return tuple(range(gen_budget))


def evaluation_scope(
    policy: str,
    g: int,
    block_size: int | None,
    masked: tuple[int, ...],
    gen_budget: int,
) -> tuple[int, ...]:
    """Generation positions one denoise call must evaluate under ``policy``,
    ascending.

    ``masked`` is the ascending tuple of masked positions; under ``none`` the
    scope between block opens is that very tuple.  ``block_size`` is None for
    the block-opening call, whose block is not yet sized.  Every scope is a
    run of the region or the masked positions of one, which
    :func:`_stale_in_scope` relies on.
    """
    if policy == "none":
        return _region(gen_budget) if block_size is None else masked
    if policy == "prefix":
        return _region(gen_budget)[g:]
    if policy == "dual":
        if block_size is None:
            return _region(gen_budget)
        return _masked_in(masked, g, g + block_size)
    raise ValueError(f"unknown cache policy {policy!r}")


def _masked_in(masked: tuple[int, ...], start: int, end: int) -> tuple[int, ...]:
    """The positions of the ascending ``masked`` in ``[start, end)``, as a slice."""
    return masked[bisect_left(masked, start) : bisect_left(masked, end)]


def _stale_in_scope(
    stale: set[int], scope: tuple[int, ...], state: SequenceState
) -> tuple[int, ...]:
    """The ``stale`` positions in ``scope``, ascending, found without walking
    the scope: a scope with gaps holds exactly the masked positions of its
    span, and one without holds every position of it."""
    if not scope:
        return ()
    ordered = sorted(stale)
    found = ordered[bisect_left(ordered, scope[0]) : bisect_right(ordered, scope[-1])]
    if scope[-1] - scope[0] + 1 != len(scope):
        tokens, lp, mask = state.tokens, state.prompt_len, state.mask_id
        return tuple([p for p in found if tokens[lp + p] == mask])
    return tuple(found)


@dataclass(frozen=True)
class DecodeResult:
    """Everything one decode session produced."""

    final_tokens: tuple[int, ...]
    trace: DecodeTrace
    blocks: tuple[BlockDecision, ...]
    remaining_masks: int

    @property
    def completed(self) -> bool:
        return self.remaining_masks == 0

    @property
    def status(self) -> str:
        return "completed" if self.completed else "partial"

    @property
    def steps_used(self) -> int:
        return len(self.trace)

    @property
    def denoise_calls(self) -> int:
        """One denoise call per denoise-sample cycle, so equal to ``steps_used``."""
        return len(self.trace)

    @property
    def position_evaluations(self) -> int:
        return sum(len(r.evaluated) for r in self.trace.steps)

    def generated_tokens(self) -> tuple[int, ...]:
        return self.final_tokens[self.trace.prompt_len :]


def decode(
    predictor: MaskPredictor,
    config: DecodeConfig,
    prompt: Sequence[int],
) -> DecodeResult:
    """Run one full decode session.

    Terminates when the generation region holds no masks, or with a partial
    result when the step budget runs out first; nothing is force-committed in
    that case so the trace stays faithful.
    """
    vocab = predictor.vocabulary
    if why := (delimiter_error(config.delimiters, vocab)
               or prompt_error(prompt, vocab.size, vocab.mask_id)):
        raise ValueError(why)
    state = init_state(prompt, config.gen_budget, vocab.mask_id)
    L = config.gen_budget

    frame = PredictionFrame.sentinel(L, vocab.mask_id)
    records: list[StepRecord] = []
    blocks: list[BlockDecision] = []
    g = 0
    B: int | None = None  # size of the open block; None until a step opens one
    region = _region(L)
    masked = list(region)  # the masked generation positions, ascending
    stale = set(region)  # invalidated since last computed

    while g < L and len(records) < config.max_steps:
        masked_before = tuple(masked)
        evaluated = evaluation_scope(config.cache, g, B, masked_before, L)
        computed = _stale_in_scope(stale, evaluated, state)
        try:
            frame = predictor.denoise(state, computed, prior=frame)
        except Exception as exc:
            raise DecodeError(
                f"predictor failed at denoise call {len(records)}: {exc}"
            ) from exc

        opens = B is None
        if opens:
            decision = decide_block(frame, config, g)
            blocks.append(decision)
            B = decision.block_size
        end = g + B

        block = _masked_in(masked_before, g, end)
        sampled = sample_step(frame, config, block)
        records.append(
            StepRecord(
                step=len(records),
                block_start=g,
                block_end=end,
                block_size=B if opens else None,
                evaluated=evaluated,
                predicted=tuple(map(frame.predicted.__getitem__, computed)),
                confidence=tuple(map(frame.confidence.__getitem__, computed)),
                sampled=sampled,
                masked_before=masked_before,
                cache=config.cache,
                computed=computed,
            )
        )
        state = apply_sample(state, frame, sampled)
        stale.difference_update(computed)
        stale.update(*predictor.invalidated(state, sampled))
        for p in sampled:
            del masked[bisect_left(masked, p)]
        if len(sampled) == len(block):  # the block holds no masks
            g, B = end, None
            if config.cache == "prefix":  # no later scope reaches below g
                stale = {p for p in stale if p >= g}

    return DecodeResult(
        final_tokens=tuple(state.tokens),
        trace=DecodeTrace(prompt_len=state.prompt_len, gen_budget=L, mask_id=vocab.mask_id,
                          steps=tuple(records)),
        blocks=tuple(blocks),
        remaining_masks=len(state.gen_masked()),
    )


def result_summary(result: DecodeResult, vocab: Vocabulary) -> dict:
    """Summary object mirroring what the trace file cannot carry compactly."""
    text = " ".join(
        vocab.token_of(t) for t in result.generated_tokens() if t != vocab.mask_id
    )
    return {
        "status": result.status,
        "steps": result.steps_used,
        "nfe": result.denoise_calls,
        "position_evals": result.position_evaluations,
        "blocks": [
            {"g": d.window_start, "B": d.block_size, "source": d.source}
            for d in result.blocks
        ],
        "text": text,
    }


def write_summary(path: str | Path, result: DecodeResult, vocab: Vocabulary) -> None:
    Path(path).write_text(
        json.dumps(result_summary(result, vocab), indent=2) + "\n", encoding="utf-8"
    )
