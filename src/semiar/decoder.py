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

No step sorts, scans or copies the generation region, nor copies the frame
or the tokens.  The loop keeps one frame and one sequence state, which
denoise and :func:`~semiar.core.apply_sample` update in place.  Blocks
advance left to right, so every position before the open block is
committed and every one after it masked: the loop keeps only the open
block's masked positions, one short ascending list from which it deletes
each commit by bisection, and the sampler chooses from it.  The step's
``masked_before`` is a :class:`~semiar.core.Positions` of that list's tuple
and the all-masked tail (of the tail alone at a block open), so no record
holds an L-long tuple for the cyclic garbage collector to walk.  Every
scope is a :class:`~semiar.core.Positions` too: that value, the region or
its part from the block start on, or the list's tuple; and ``computed`` is
drawn from the positions invalidated since they were last computed.  What
is left of O(L) is the n-gram predictor's C-level encoding of the tokens
into one bytes object per denoise call, which its memo keys slice.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .core import (
    DecodeConfig,
    DecodeTrace,
    Positions,
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


def evaluation_scope(
    policy: str,
    g: int,
    block_size: int | None,
    masked: tuple[int, ...] | Positions,
    gen_budget: int,
) -> tuple[int, ...] | Positions:
    """Generation positions one denoise call must evaluate under ``policy``,
    ascending.

    ``masked`` holds the masked positions, ascending: a tuple, or the
    decoder's :class:`~semiar.core.Positions` of the open block's masked
    positions and the all-masked tail from the block end on.  ``block_size``
    is None for the block-opening call, whose block is not yet sized.  Every
    scope is a :class:`~semiar.core.Positions`, except one drawn from a tuple
    ``masked`` between block opens: that very value under ``none``.
    """
    if policy == "none":
        return Positions((), 0, gen_budget) if block_size is None else masked
    if policy == "prefix":
        return Positions((), g, gen_budget)
    if policy == "dual":
        if block_size is None:
            return Positions((), 0, gen_budget)
        end = g + block_size
        if type(masked) is Positions and masked.start >= end:  # the tail lies past the block
            return Positions(masked.head, end, end)
        return masked[bisect_left(masked, g) : bisect_left(masked, end)]
    raise ValueError(f"unknown cache policy {policy!r}")


def _stale_in_scope(stale: set[int], scope: Positions, state: SequenceState) -> tuple[int, ...]:
    """The ``stale`` positions in ``scope``, ascending, found without walking
    the scope: its first and last position and its size are read from its
    fields, and a scope with gaps holds exactly the masked positions of its
    span, one without every position of it.  No decoder scope is empty: each
    holds the open block's first masked position."""
    head, start, stop = scope.head, scope.start, scope.stop
    size = len(head) + stop - start
    first = head[0] if head else start
    last = stop - 1 if stop > start else head[-1]
    ordered = sorted(stale)
    found = ordered[bisect_left(ordered, first) : bisect_right(ordered, last)]
    if last - first + 1 != size:
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
    g = end = 0
    B: int | None = None  # size of the open block; None until a step opens one
    # the open block's masked positions, ascending; every position from the
    # block end on is masked, and every one before g committed
    head: list[int] = []
    stale = set(range(L))  # invalidated since last computed

    while g < L and len(records) < config.max_steps:
        opens = B is None
        masked_before = Positions((), g, L) if opens else Positions(tuple(head), end, L)
        evaluated = evaluation_scope(config.cache, g, B, masked_before, L)
        computed = _stale_in_scope(stale, evaluated, state)
        try:
            frame = predictor.denoise(state, computed, prior=frame)
        except Exception as exc:
            raise DecodeError(
                f"predictor failed at denoise call {len(records)}: {exc}"
            ) from exc

        if opens:
            decision = decide_block(frame, config, g)
            blocks.append(decision)
            B = decision.block_size
            end = g + B
            head = list(range(g, end))
        sampled = sample_step(frame, config, head)
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
            del head[bisect_left(head, p)]
        if not head:  # the block holds no masks
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
