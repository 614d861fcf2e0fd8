"""Mask predictors: the pluggable denoiser behind every decode.

Three backends share one interface:

* :class:`SyntheticPredictor` generates a controlled three-regime confidence
  landscape (high plateau behind the decode frontier, a volatility band at
  it, a low floor beyond) for tests that need ground truth.
* :class:`NGramPredictor` scores masked positions from bidirectional add-k
  count tables built over a small corpus, so confidence actually depends on
  nearby committed context.
* :class:`TraceReplayPredictor` serves prediction frames recorded in a trace
  file, one denoise call per recorded step.

A predictor is deterministic given its construction arguments, the sequence
state, and the evaluation scope.  Synthetic and n-gram predictors are pure:
each memoises values that depend only on its construction arguments and a
position or context, per instance.  A memo entry is computed from those alone,
so two sessions filling one entry at once store equal values; the fills are
idempotent and the predictor is safe to share across concurrent decode
sessions.  Its memory grows with the distinct positions and contexts it has
served.  A replay predictor holds a cursor and belongs to exactly one session.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .core import SENTINEL_CONFIDENCE, PredictionFrame, SequenceState, Vocabulary
from .seeding import unit_draw
from . import tracefile


class PredictorError(RuntimeError):
    """Raised when a predictor cannot serve a denoise request."""


class MaskPredictor:
    """Interface: ``denoise(state, eval_positions)`` producing merged frames."""

    #: How far a commit reaches: a predictor with an int ``reach`` predicts
    #: each generation position from the tokens at most ``reach`` slots away
    #: (its own included) and from nothing else that a decode changes, so a
    #: commit at ``c`` can change only the predictions at ``c - reach .. c +
    #: reach`` and the decoder reuses every other one.  ``None`` means any
    #: commit may change any prediction, and every evaluation is computed.
    reach: int | None = None

    @property
    def vocabulary(self) -> Vocabulary:
        raise NotImplementedError

    def predict(
        self, state: SequenceState, positions: Sequence[int]
    ) -> list[tuple[int, float]]:
        """(token, confidence) per generation position, aligned with input order."""
        raise NotImplementedError

    def denoise(
        self,
        state: SequenceState,
        eval_positions: Iterable[int],
        prior: PredictionFrame | None = None,
    ) -> PredictionFrame:
        """Evaluate ``eval_positions`` and carry everything else from ``prior``.

        Subclasses implement :meth:`predict`; this validation and merge is
        shared and not overridden.
        """
        positions = sorted(set(eval_positions))
        L = state.gen_budget
        if positions and not (0 <= positions[0] and positions[-1] < L):
            bad = next(pos for pos in positions if not 0 <= pos < L)
            raise PredictorError(f"evaluation position {bad} out of range")
        values = self.predict(state, positions)
        mask_id = self.vocabulary.mask_id
        masked = state.masked
        for pos, (tok, conf) in zip(positions, values):
            if pos in masked:
                if tok == mask_id:
                    raise PredictorError(f"predicted the mask token at {pos}")
                if not 0.0 < conf <= 1.0:
                    raise PredictorError(f"confidence {conf} at {pos} outside (0, 1]")
        base = prior or PredictionFrame.sentinel(L, mask_id)
        return base.merge(positions, values)


# ---------------------------------------------------------------------------
# Synthetic confidence field
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SyntheticFieldParams:
    """Shape parameters for the generated confidence landscape.

    The decode frontier is the count of committed generation positions scaled
    by ``plateau_rate``.  Positions behind it form the plateau, a band of
    ``vb_width_mean`` (jittered) positions at it fluctuates per step, and
    everything beyond sits on the floor.  With ``delimiter_period = s > 0`` a
    delimiter token is planted every ``s`` positions and the band stretches
    from the frontier to the end of the current delimiter-bounded span, so
    band width tracks the local span structure instead of the fixed mean.
    """

    plateau_rate: float = 1.0
    vb_width_mean: int = 4
    vb_width_jitter: int = 0
    floor_level: float = 0.05
    vb_low: float = 0.4
    vb_high: float = 0.85
    plateau_level: float = 0.95
    delimiter_period: int = 0
    noise_seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.floor_level < self.vb_low < self.vb_high <= self.plateau_level <= 1.0:
            raise ValueError(
                "need 0 < floor_level < vb_low < vb_high <= plateau_level <= 1"
            )
        if self.vb_width_mean < 1:
            raise ValueError("vb_width_mean must be >= 1")
        if self.vb_width_jitter < 0:
            raise ValueError("vb_width_jitter must be >= 0")
        if self.plateau_rate <= 0.0:
            raise ValueError("plateau_rate must be > 0")
        if self.delimiter_period < 0:
            raise ValueError("delimiter_period must be >= 0")


PLATEAU = "plateau"
BAND = "band"
FLOOR = "floor"

_FILLER_COUNT = 8


class SyntheticPredictor(MaskPredictor):
    """Generates the three-regime confidence landscape by construction.

    Plateau confidences and whole floor predictions (token and confidence)
    depend only on (noise seed, position), so each is computed once per
    instance and memoised; band draws stay keyed by (position, frontier) and
    are drawn afresh.  Its :attr:`reach` is global: the frontier counts every
    commit, so a commit anywhere may move any position's regime.
    """

    def __init__(self, params: SyntheticFieldParams):
        self.params = params
        fillers = [f"w{i}" for i in range(_FILLER_COUNT)]
        self._vocab = Vocabulary.build(fillers + ["\n"])
        self._delimiter_id = self._vocab.id_of("\n")
        self._filler_ids = tuple(self._vocab.id_of(f) for f in fillers)
        self._plateau: dict[int, float] = {}
        self._floor: dict[int, tuple[int, float]] = {}

    @property
    def vocabulary(self) -> Vocabulary:
        return self._vocab

    @property
    def delimiter_id(self) -> int:
        return self._delimiter_id

    # -- regime geometry ----------------------------------------------------

    def frontier(self, unmasked_count: int, gen_budget: int) -> int:
        return min(gen_budget, math.floor(self.params.plateau_rate * unmasked_count))

    def band_width(self, frontier: int) -> int:
        p = self.params
        if p.delimiter_period > 0:
            # band runs to the end of the current delimiter-bounded span
            span_end = (frontier // p.delimiter_period + 1) * p.delimiter_period - 1
            return span_end - frontier + 1
        if p.vb_width_jitter == 0:
            return p.vb_width_mean
        u = unit_draw(p.noise_seed, "width", frontier)
        offset = round((2.0 * u - 1.0) * p.vb_width_jitter)
        return max(1, p.vb_width_mean + offset)

    def regime_of(self, gen_pos: int, frontier: int) -> str:
        return _regime(gen_pos, frontier, frontier + self.band_width(frontier))

    # -- field values ---------------------------------------------------------

    def _plateau_conf(self, gen_pos: int) -> float:
        conf = self._plateau.get(gen_pos)
        if conf is None:
            p = self.params
            u = unit_draw(p.noise_seed, "plateau", gen_pos)
            conf = self._plateau[gen_pos] = p.plateau_level + u * (1.0 - p.plateau_level)
        return conf

    def _floor_prediction(self, gen_pos: int) -> tuple[int, float]:
        out = self._floor.get(gen_pos)
        if out is None:
            p = self.params
            u = unit_draw(p.noise_seed, "floor", gen_pos)
            out = self._floor[gen_pos] = (self._token(gen_pos, FLOOR),
                                          p.floor_level * (0.5 + 0.5 * u))
        return out

    def _band_conf(self, gen_pos: int, frontier: int) -> float:
        # fresh draw per (position, frontier): the frontier advances every
        # sampling step, so the band fluctuates in time and space
        p = self.params
        u = unit_draw(p.noise_seed, "band", gen_pos, frontier)
        return p.vb_low + u * (p.vb_high - p.vb_low)

    def _confidence(self, gen_pos: int, frontier: int, regime: str) -> float:
        if regime == PLATEAU:
            return self._plateau_conf(gen_pos)
        if regime == BAND:
            return self._band_conf(gen_pos, frontier)
        return self._floor_prediction(gen_pos)[1]

    def _token(self, gen_pos: int, regime: str) -> int:
        period = self.params.delimiter_period
        if period > 0 and gen_pos % period == period - 1:
            return self._delimiter_id
        if regime == FLOOR:
            return self._vocab.eos_id
        return self._filler_ids[gen_pos % _FILLER_COUNT]

    def confidence_at(self, gen_pos: int, frontier: int) -> float:
        return self._confidence(gen_pos, frontier, self.regime_of(gen_pos, frontier))

    def token_at(self, gen_pos: int, frontier: int) -> int:
        return self._token(gen_pos, self.regime_of(gen_pos, frontier))

    def predict(
        self, state: SequenceState, positions: Sequence[int]
    ) -> list[tuple[int, float]]:
        tokens, mask, lp = state.tokens, state.mask_id, state.prompt_len
        frontier = self.frontier(state.unmasked_gen_count(), state.gen_budget)
        band_end = frontier + self.band_width(frontier)
        floor = self._floor.get
        out: list[tuple[int, float]] = []
        for gen in positions:
            tok = tokens[lp + gen]
            if tok != mask:
                # committed tokens keep reading as themselves, scored high
                out.append((tok, self._plateau_conf(gen)))
            elif gen >= band_end:
                # _regime's FLOOR case, inlined and served from the memo:
                # floor positions are nearly every evaluation of a long decode
                out.append(floor(gen) or self._floor_prediction(gen))
            else:
                regime = _regime(gen, frontier, band_end)
                out.append((self._token(gen, regime),
                            self._confidence(gen, frontier, regime)))
        return out


def _regime(gen_pos: int, frontier: int, band_end: int) -> str:
    if gen_pos < frontier:
        return PLATEAU
    if gen_pos < band_end:
        return BAND
    return FLOOR


def build_synthetic(params: SyntheticFieldParams) -> SyntheticPredictor:
    return SyntheticPredictor(params)


# ---------------------------------------------------------------------------
# Bidirectional n-gram predictor
# ---------------------------------------------------------------------------

def tokenize(corpus: str, char_mode: bool = False) -> list[str]:
    if char_mode:
        return [ch for ch in corpus.strip()]
    return corpus.split()


#: Counts of the tokens filling a slot after one context, and their add-k
#: denominator ``total + k * candidates``.
ContextCounts = tuple[Counter, float]


@dataclass
class NGramModel:
    """Add-k smoothed count tables over left and right contexts of length < n.

    ``left[k]`` maps a k-token context immediately preceding a slot to the
    counts of the token filling it and their add-k denominator; ``right[k]``
    does the same for the k tokens immediately following the slot, stored in
    sentence order.  The tables never change after construction, so
    :meth:`best_token` memoises its answer per context pair.
    """

    order: int
    smoothing_k: float
    vocab: Vocabulary
    left: list[dict[tuple[int, ...], ContextCounts]]
    right: list[dict[tuple[int, ...], ContextCounts]]
    corpus_ids: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        self._candidates = self.vocab.size - 1  # every token except the mask
        self._unseen: ContextCounts = (Counter(), self.smoothing_k * self._candidates)
        self._best: dict[tuple[tuple[int, ...], tuple[int, ...]], tuple[int, float]] = {}

    def _prob(self, side: ContextCounts, token: int) -> float:
        counts, denom = side
        if denom == 0.0:  # k == 0 over an unseen context: uniform
            return 1.0 / self._candidates
        return (counts.get(token, 0) + self.smoothing_k) / denom

    def _sides(
        self, left_ctx: tuple[int, ...], right_ctx: tuple[int, ...]
    ) -> tuple[ContextCounts, ContextCounts]:
        return (self.left[len(left_ctx)].get(left_ctx, self._unseen),
                self.right[len(right_ctx)].get(right_ctx, self._unseen))

    def _blend(self, sides: tuple[ContextCounts, ContextCounts], token: int) -> float:
        return 0.5 * self._prob(sides[0], token) + 0.5 * self._prob(sides[1], token)

    def blended(
        self, left_ctx: tuple[int, ...], right_ctx: tuple[int, ...], token: int
    ) -> float:
        return self._blend(self._sides(left_ctx, right_ctx), token)

    def distribution(
        self, left_ctx: tuple[int, ...], right_ctx: tuple[int, ...]
    ) -> dict[int, float]:
        sides = self._sides(left_ctx, right_ctx)
        mask = self.vocab.mask_id
        return {
            tok: self._blend(sides, tok) for tok in range(self.vocab.size) if tok != mask
        }

    def best_token(
        self, left_ctx: tuple[int, ...], right_ctx: tuple[int, ...]
    ) -> tuple[int, float]:
        """Argmax of the blended distribution, lowest token id on ties.

        Memoised per ``(left_ctx, right_ctx)``.  Concurrent callers may both
        fill one entry; they store equal values, so the fill is idempotent.
        """
        key = (left_ctx, right_ctx)
        best = self._best.get(key)
        if best is None:
            best = self._best[key] = self._argmax(left_ctx, right_ctx)
        return best

    def _argmax(
        self, left_ctx: tuple[int, ...], right_ctx: tuple[int, ...]
    ) -> tuple[int, float]:
        # Only tokens observed in either context table can beat the shared
        # smoothing baseline, so the scan stays proportional to the counts.
        sides = self._sides(left_ctx, right_ctx)
        (counts_l, _), (counts_r, _) = sides
        mask = self.vocab.mask_id
        seen = (counts_l.keys() | counts_r.keys()) - {mask}

        best_tok, best_p = None, -1.0
        for tok in sorted(seen):
            p = self._blend(sides, tok)
            if p > best_p:
                best_tok, best_p = tok, p

        if len(seen) < self._candidates:  # some token sits at the shared baseline
            unseen = next(
                t for t in range(self.vocab.size) if t != mask and t not in seen
            )
            baseline = self._blend(sides, unseen)
            if best_tok is None or baseline > best_p or (
                baseline == best_p and unseen < best_tok
            ):
                return unseen, baseline
        return best_tok, best_p


def _committed(window: tuple[int, ...], mask_id: int) -> tuple[int, ...]:
    """The committed tokens of a window slice, in order."""
    masks = window.count(mask_id)
    if not masks:
        return window
    if masks == len(window):
        return ()
    return tuple(filter(mask_id.__ne__, window))


class NGramPredictor(MaskPredictor):
    """Scores masked slots from the nearest committed tokens on either side.

    Context is gathered from the ``n-1`` sequence slots immediately left and
    right of a position; masked slots in those windows are skipped, so a
    position with no committed neighbour within reach degrades to the blended
    unigram (or uniform) distribution.  That gradient is what produces
    confidence locality around committed text.  Those slots and the
    position's own token are all a prediction reads, so :attr:`reach` is
    ``n-1``.
    """

    def __init__(self, model: NGramModel):
        self.model = model

    @property
    def vocabulary(self) -> Vocabulary:
        return self.model.vocab

    @property
    def reach(self) -> int:  # type: ignore[override]
        return self.model.order - 1

    def predict(
        self, state: SequenceState, positions: Sequence[int]
    ) -> list[tuple[int, float]]:
        model = self.model
        tokens, mask, lp = state.tokens, state.mask_id, state.prompt_len
        reach = model.order - 1
        out: list[tuple[int, float]] = []
        for g in positions:
            pos = lp + g
            left = _committed(tokens[max(0, pos - reach) : pos], mask)
            right = _committed(tokens[pos + 1 : pos + 1 + reach], mask)
            tok = tokens[pos]
            if tok != mask:
                out.append((tok, model.blended(left, right, tok)))
            else:
                out.append(model.best_token(left, right))
        return out


def build_ngram(
    corpus: str, order: int, smoothing_k: float, char_mode: bool = False
) -> NGramPredictor:
    """Train the bidirectional count tables from a plain-text corpus."""
    if order < 1:
        raise ValueError("order must be >= 1")
    if smoothing_k < 0:
        raise ValueError("smoothing_k must be >= 0")
    tokens = tokenize(corpus, char_mode)
    if not tokens:
        raise ValueError("corpus is empty after tokenization")

    vocab = Vocabulary.build(sorted(set(tokens)))
    seq = [vocab.id_of(t) for t in tokens]
    if vocab.mask_id in seq:
        raise ValueError(
            f"corpus contains the mask token {vocab.token_of(vocab.mask_id)!r} "
            f"at token index {seq.index(vocab.mask_id)}"
        )

    left: list[dict[tuple[int, ...], Counter]] = [dict() for _ in range(order)]
    right: list[dict[tuple[int, ...], Counter]] = [dict() for _ in range(order)]
    for p, tok in enumerate(seq):
        for k in range(order):
            if p - k >= 0:
                ctx = tuple(seq[p - k : p])
                left[k].setdefault(ctx, Counter())[tok] += 1
            if p + k < len(seq):
                ctx = tuple(seq[p + 1 : p + 1 + k])
                right[k].setdefault(ctx, Counter())[tok] += 1

    extra = smoothing_k * (vocab.size - 1)

    def with_denoms(tables):
        return [{ctx: (counts, sum(counts.values()) + extra)
                 for ctx, counts in table.items()} for table in tables]

    model = NGramModel(order=order, smoothing_k=smoothing_k, vocab=vocab,
                       left=with_denoms(left), right=with_denoms(right),
                       corpus_ids=tuple(seq))
    return NGramPredictor(model)


# ---------------------------------------------------------------------------
# Trace replay
# ---------------------------------------------------------------------------

class ReplayExhausted(PredictorError):
    """The recorded trace ran out before the decode terminated."""


class TraceReplayPredictor(MaskPredictor):
    """Replays recorded prediction frames, one per denoise call, in order.

    Each denoise call is served from the accumulated snapshot of the record
    at the cursor, matching the carry-forward semantics of live frames.
    Each instance owns a cursor, so concurrent sessions need separate
    instances (see :meth:`fork`).  Its :attr:`reach` is global, so every
    denoise call asks it for the whole scope and its cursor moves once per
    step.
    """

    def __init__(self, data: "tracefile.TraceFileData"):
        self._data = data
        self._cursor = 0

    @property
    def vocabulary(self) -> Vocabulary:
        return self._data.vocab

    @property
    def recorded_prompt(self) -> tuple[int, ...] | None:
        return self._data.prompt

    @property
    def recorded_config(self):
        return self._data.config

    def fork(self) -> "TraceReplayPredictor":
        """Fresh replayer over the same parsed data, cursor rewound."""
        return TraceReplayPredictor(self._data)

    def predict(
        self, state: SequenceState, positions: Sequence[int]
    ) -> list[tuple[int, float]]:
        trace = self._data.trace
        if self._cursor >= len(trace):
            raise ReplayExhausted(
                f"trace has {len(trace)} recorded steps; "
                f"denoise call {self._cursor + 1} has nothing to replay"
            )
        rec = trace.steps[self._cursor]
        self._cursor += 1

        L = trace.gen_budget
        out: list[tuple[int, float]] = []
        for gen in positions:
            # a snapshot still holds the sentinel where no record evaluated yet
            if not 0 <= gen < L or rec.confidence[gen] == SENTINEL_CONFIDENCE:
                raise PredictorError(
                    f"replay step {self._cursor - 1}: position {gen} absent "
                    f"from the recorded frames"
                )
            out.append((rec.predicted[gen], rec.confidence[gen]))
        return out


def load_trace_predictor(path: str | Path) -> TraceReplayPredictor:
    """Parse a trace file eagerly and wrap it in a replay predictor."""
    return TraceReplayPredictor(tracefile.read_trace_file(path))
