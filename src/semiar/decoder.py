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

What is charged is not always what is computed.  A predictor that declares a
finite :attr:`~semiar.predictors.MaskPredictor.reach` predicts each position
from the tokens within that distance alone, so a commit at ``c`` can change
only the predictions at ``c - reach .. c + reach``.  Within the charged scope
the loop recomputes just the positions a commit has touched since they were
last computed and carries the rest from the prior frame, where they already
hold the very value a recomputation would give.  A value that ``prefix`` or
``dual`` left stale outside the scope stays marked stale until it is computed
again: being in the frame is not enough to be reused.  Frames, traces and the
charged ``evaluated`` sets are the same as if every scope were recomputed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .core import (
    DecodeConfig,
    DecodeTrace,
    PredictionFrame,
    StepRecord,
    Vocabulary,
    apply_sample,
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
    masked: Iterable[int],
    gen_budget: int,
) -> frozenset[int]:
    """Generation positions one denoise call must evaluate under ``policy``.

    ``block_size`` is None for the block-opening call, whose block is not yet
    sized.
    """
    if policy == "none":
        return frozenset(range(gen_budget) if block_size is None else masked)
    if policy == "prefix":
        return frozenset(range(g, gen_budget))
    if policy == "dual":
        if block_size is None:
            return frozenset(range(gen_budget))
        return frozenset(masked).intersection(range(g, g + block_size))
    raise ValueError(f"unknown cache policy {policy!r}")


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
    config.validate_against(vocab)
    if why := prompt_error(prompt, vocab.size, vocab.mask_id):
        raise ValueError(why)
    state = init_state(prompt, config.gen_budget, config.max_steps, vocab.mask_id)
    L = config.gen_budget

    frame = PredictionFrame.sentinel(L, vocab.mask_id)
    records: list[StepRecord] = []
    blocks: list[BlockDecision] = []
    g = 0
    B: int | None = None  # size of the open block; None until a step opens one
    reach = predictor.reach
    # stale[p]: a commit within reach of p since p was last computed, so its
    # frame value may differ from what the predictor would say now
    stale = [True] * L

    while g < L and state.step >= 1:
        masked = state.gen_masked()
        evaluated = sorted(evaluation_scope(config.cache, g, B, masked, L))
        if reach is None:
            computed = evaluated
        else:
            computed = [p for p in evaluated if stale[p]]
            for p in computed:
                stale[p] = False
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
        block = range(g, g + B)

        sampled = sample_step(state, frame, config, block)
        records.append(
            StepRecord(
                step=len(records),
                block_start=g,
                block_end=g + B,
                block_size=B if opens else None,
                evaluated=tuple(evaluated),
                predicted=frame.predicted,
                confidence=frame.confidence,
                sampled=tuple(sorted(sampled)),
                masked_before=tuple(sorted(masked)),
                cache=config.cache,
            )
        )
        state = apply_sample(state, frame, sampled)
        if reach is not None:
            for c in sampled:
                lo, hi = max(0, c - reach), min(L, c + reach + 1)
                stale[lo:hi] = [True] * (hi - lo)
        if state.gen_masked().isdisjoint(block):
            g, B = g + B, None

    return DecodeResult(
        final_tokens=state.tokens,
        trace=DecodeTrace(prompt_len=state.prompt_len, gen_budget=L, steps=tuple(records)),
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
