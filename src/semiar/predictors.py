"""Mask predictors: the pluggable denoiser behind every decode.

Three backends share one interface:

* :class:`SyntheticPredictor` generates a controlled three-regime confidence
  landscape (high plateau behind the decode frontier, a volatility band at
  it, a low floor beyond) for tests that need ground truth.
* :class:`NGramPredictor` scores masked positions from bidirectional add-k
  counts read from one sorted index of a small corpus, so confidence actually
  depends on nearby committed context.
* :class:`TraceReplayPredictor` serves prediction frames recorded in a trace
  file, one denoise call per recorded step.

A predictor is deterministic given its construction arguments, the sequence
state, and the evaluation scope.  Synthetic and n-gram predictors are pure:
each memoises values that depend only on its construction arguments and a
position or context window, per instance.  A memo entry is computed from those
alone, so two sessions filling one entry at once store equal values; the fills
are idempotent and the predictor is safe to share across concurrent decode
sessions.  Its memory grows with the distinct positions and context windows it
has served, up to :data:`WINDOW_MEMO_CAP` windows and as many contexts' counts
for the n-gram predictor, whose window memo is keyed by each window's tokens
packed into one bytes object: one slice of the sequence packed once per call
and padded at both ends, so a lookup builds, hashes and compares its key in C.
A replay predictor holds a cursor and belongs to exactly one session.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from itertools import islice
from operator import lt
from typing import Collection, Iterable, Sequence

from .core import SENTINEL_CONFIDENCE, PredictionFrame, Regime, SequenceState, Vocabulary
from .seeding import stream, unit_draw
from . import tracefile


class PredictorError(RuntimeError):
    """Raised when a predictor cannot serve a denoise request."""


class MaskPredictor:
    """Interface: ``denoise(state, eval_positions)`` producing merged frames."""

    @property
    def vocabulary(self) -> Vocabulary:
        raise NotImplementedError

    def predict(
        self, state: SequenceState, positions: Sequence[int]
    ) -> list[tuple[int, float]]:
        """(token, confidence) per generation position, aligned with input order."""
        raise NotImplementedError

    def invalidated(
        self, state: SequenceState, committed: Collection[int]
    ) -> Iterable[Iterable[int]]:
        """Ranges (or other groups) of generation positions whose prediction a
        commit may change.

        ``state`` has just had the distinct positions ``committed`` committed,
        so it held ``len(committed)`` fewer unmasked ones before; every position
        outside the groups predicts the same as it did then.  By default every
        position is named.
        """
        return [range(state.gen_budget)]

    def denoise(
        self,
        state: SequenceState,
        eval_positions: Iterable[int],
        prior: PredictionFrame | None = None,
    ) -> PredictionFrame:
        """Evaluate ``eval_positions`` into ``prior``, in place, and return it;
        without a ``prior``, into a fresh sentinel frame.

        Subclasses implement :meth:`predict`; this validation and merge is
        shared and not overridden.  ``eval_positions`` must strictly ascend,
        as every decoder scope does.
        """
        positions = tuple(eval_positions)
        if not all(map(lt, positions, islice(positions, 1, None))):
            prev, bad = next((a, b) for a, b in zip(positions, positions[1:]) if not a < b)
            raise PredictorError(f"evaluation position {bad} after {prev}: positions must ascend")
        L = state.gen_budget
        if positions and not (0 <= positions[0] and positions[-1] < L):
            bad = next(pos for pos in positions if not 0 <= pos < L)
            raise PredictorError(f"evaluation position {bad} out of range")
        values = self.predict(state, positions)
        mask_id = self.vocabulary.mask_id
        tokens, lp = state.tokens, state.prompt_len
        for pos, (tok, conf) in zip(positions, values):
            if tokens[lp + pos] == mask_id:
                if tok == mask_id:
                    raise PredictorError(f"predicted the mask token at {pos}")
                if not 0.0 < conf <= 1.0:
                    raise PredictorError(f"confidence {conf} at {pos} outside (0, 1]")
        frame = prior or PredictionFrame.sentinel(L, mask_id)
        return frame.merge(positions, values)


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


_FILLER_COUNT = 8


class SyntheticPredictor(MaskPredictor):
    """Generates the three-regime confidence landscape by construction.

    Confidences are blake2b draws from three streams of the noise seed
    (:func:`~semiar.seeding.stream`, equal to :func:`~semiar.seeding.unit_draw`
    bit for bit): ``plateau`` and ``floor`` keyed by position, ``band`` by
    (position, frontier).  Plateau and floor confidences thus depend only on
    the position, so each is drawn once per instance and memoised; band
    draws are drawn afresh.  A commit therefore changes only the committed
    positions and, when it moves the frontier, the stretch from the old
    frontier to the later of the two band ends.  A predictor pickles as its
    ``params``, and its copy starts with empty memos.
    """

    def __init__(self, params: SyntheticFieldParams):
        self.params = params
        fillers = [f"w{i}" for i in range(_FILLER_COUNT)]
        self._vocab = Vocabulary.build(fillers + ["\n"])
        self._delimiter_id = self._vocab.id_of("\n")
        self._filler_ids = tuple(self._vocab.id_of(f) for f in fillers)
        self._plateau: dict[int, float] = {}
        self._floor: dict[int, float] = {}
        # the tags stay plain strings: a draw hashes str(tag), and
        # str(Regime.PLATEAU) is 'Regime.PLATEAU', so a member would move every draw
        seed = params.noise_seed
        self._plateau_draw = stream(seed, "plateau")
        self._floor_draw = stream(seed, "floor")
        self._band_draw = stream(seed, "band", 2)

    def __reduce__(self):
        # a stream holds a hash state, which does not pickle; the memos are exact
        return type(self), (self.params,)

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

    def regime_of(self, gen_pos: int, frontier: int) -> Regime:
        if gen_pos < frontier:
            return Regime.PLATEAU
        if gen_pos < frontier + self.band_width(frontier):
            return Regime.VOLATILITY_BAND
        return Regime.FLOOR

    # -- field values ---------------------------------------------------------

    def invalidated(self, state: SequenceState, committed: Collection[int]) -> list[range]:
        # a masked prediction reads only its position and the frontier, which
        # never moves back; jitter can shrink the band, hence the max
        out = [range(c, c + 1) for c in committed]
        L = state.gen_budget
        old = self.frontier(state.unmasked - len(committed), L)
        new = self.frontier(state.unmasked, L)
        if new != old:
            end = max(old + self.band_width(old), new + self.band_width(new))
            out.append(range(old, min(L, end)))
        return out

    def predict(
        self, state: SequenceState, positions: Sequence[int]
    ) -> list[tuple[int, float]]:
        p = self.params
        tokens, mask, lp = state.tokens, state.mask_id, state.prompt_len
        frontier = self.frontier(state.unmasked, state.gen_budget)
        band_end = frontier + self.band_width(frontier)
        plateau, floor, band_draw = self._plateau, self._floor, self._band_draw
        period, fillers, eos = p.delimiter_period, self._filler_ids, self._vocab.eos_id
        vb_low, vb_high = p.vb_low, p.vb_high
        out: list[tuple[int, float]] = []
        for gen in positions:
            tok = tokens[lp + gen]
            if tok != mask or gen < frontier:
                # the plateau, where committed tokens keep reading as themselves
                conf = plateau.get(gen)
                if conf is None:
                    u = self._plateau_draw(gen)
                    conf = plateau[gen] = p.plateau_level + u * (1.0 - p.plateau_level)
                if tok != mask:
                    out.append((tok, conf))
                    continue
            elif gen < band_end:
                # fresh draw per (position, frontier): the frontier advances every
                # sampling step, so the band fluctuates in time and space
                conf = vb_low + band_draw(gen, frontier) * (vb_high - vb_low)
            else:
                conf = floor.get(gen)
                if conf is None:
                    u = self._floor_draw(gen)
                    conf = floor[gen] = p.floor_level * (0.5 + 0.5 * u)
            if period > 0 and gen % period == period - 1:
                out.append((self._delimiter_id, conf))
            else:
                out.append((fillers[gen % _FILLER_COUNT] if gen < band_end else eos, conf))
        return out


def build_synthetic(params: SyntheticFieldParams) -> SyntheticPredictor:
    return SyntheticPredictor(params)


# ---------------------------------------------------------------------------
# Bidirectional n-gram predictor
# ---------------------------------------------------------------------------

#: Counts of the tokens filling a slot next to one context, and their add-k
#: denominator ``total + k * candidates``.
ContextCounts = tuple[Counter, float]


@dataclass
class NGramModel:
    """Add-k smoothed counts over left and right contexts of length < n.

    The ``len(corpus_ids) + 1`` corpus slots, the end one included, are sorted
    by the at most ``order - 1`` ids that start at each, so the slots where a
    context occurs form one run.  A left context counts the token after each,
    a right one (in sentence order) the token before, inside the corpus only:
    the empty context counts every token.  Counts are memoised per model for
    up to :data:`WINDOW_MEMO_CAP` contexts.
    """

    order: int
    smoothing_k: float
    vocab: Vocabulary
    corpus_ids: tuple[int, ...]

    def __post_init__(self) -> None:
        self._candidates = self.vocab.size - 1  # every token except the mask
        ids, reach = self.corpus_ids, self.order - 1
        extra = self.smoothing_k * self._candidates
        index = sorted(range(len(ids) + 1), key=lambda i: ids[i : i + reach])

        # over locals, not self: no cycle keeps a dropped model and its memo alive
        def counts(ctx: tuple[int, ...], right: bool) -> ContextCounts:
            n = len(ctx)
            def key(i): return ids[i : i + n]
            # a context of more than ``reach`` ids lies beyond the model: an empty run
            lo = bisect_left(index, ctx, key=key) if n <= reach else len(index)
            run = index[lo : bisect_right(index, ctx, lo, key=key)]
            found = Counter([ids[i - 1] for i in run if i] if right
                            else [ids[i + n] for i in run if i + n < len(ids)])
            return found, sum(found.values()) + extra
        self._counts = lru_cache(WINDOW_MEMO_CAP)(counts)

    def _prob(self, side: ContextCounts, token: int) -> float:
        counts, denom = side
        if denom == 0.0:  # k == 0 over an unseen context: uniform
            return 1.0 / self._candidates
        return (counts.get(token, 0) + self.smoothing_k) / denom

    def _blend(self, sides: tuple[ContextCounts, ContextCounts], token: int) -> float:
        return 0.5 * self._prob(sides[0], token) + 0.5 * self._prob(sides[1], token)

    def blended(
        self, left_ctx: tuple[int, ...], right_ctx: tuple[int, ...], token: int
    ) -> float:
        sides = self._counts(left_ctx, False), self._counts(right_ctx, True)
        return self._blend(sides, token)

    def best_token(
        self, left_ctx: tuple[int, ...], right_ctx: tuple[int, ...]
    ) -> tuple[int, float]:
        """Argmax of the blended distribution, lowest token id on ties."""
        # Every token unobserved next to both contexts sits at the same
        # smoothing baseline, so the lowest of them stands for all of them.
        sides = self._counts(left_ctx, False), self._counts(right_ctx, True)
        (counts_l, _), (counts_r, _) = sides
        mask = self.vocab.mask_id
        tokens = (counts_l.keys() | counts_r.keys()) - {mask}
        if len(tokens) < self._candidates:
            tokens.add(next(t for t in range(self.vocab.size) if t != mask and t not in tokens))
        probs = {tok: self._blend(sides, tok) for tok in sorted(tokens)}
        best = max(probs, key=probs.__getitem__)  # the first, so the lowest, on ties
        return best, probs[best]


#: An :class:`NGramPredictor` empties its window memo when a miss finds it
#: this full: over 2.5x the 3,600-6,300 windows one cycle of perfbench's
#: ngram-zone fills, and about 3.4 MB at order 31 (~205 bytes per entry as
#: tracemalloc counts it: a 61-byte key, its value pair and its dict slot).
WINDOW_MEMO_CAP = 1 << 14


class NGramPredictor(MaskPredictor):
    """Scores masked slots from the nearest committed tokens on either side.

    Context is gathered from the ``n-1`` sequence slots immediately left and
    right of a position; masked slots in those windows are skipped, so a
    position with no committed neighbour within reach degrades to the blended
    unigram (or uniform) distribution.  That gradient is what produces
    confidence locality around committed text.  Those slots and the
    position's own token are all a prediction reads, so a commit at ``c``
    changes only the predictions at ``c - (n-1) .. c + (n-1)``.

    Every prediction, masked or committed, is memoised per raw window: the
    bytes of the ``2r+1`` slots centred on the position, masks and its own
    token included, packed at one fixed width per id, where ``r`` is
    ``n-1`` clipped to the sequence's length.  The packed sequence is padded
    at both ends with ``r`` slots of the id ``vocabulary.size``, which no
    token has, so a window the sequence's ends clip carries pad slots there.
    The key's length fixes ``r``, and the pad slots then fix the position's
    place in the window, so the bytes alone tell which slots are left or
    right context, also across sequences of different lengths.  The memo is
    emptied when a miss finds :data:`WINDOW_MEMO_CAP` entries in it.
    """

    def __init__(self, model: NGramModel):
        self.model = model
        size = model.vocab.size  # the pad id, so it must fit the code too
        self._code = "B" if size < 1 << 8 else "H" if size < 1 << 16 else "I"
        self._width = array(self._code).itemsize
        self._pad = array(self._code, [size]).tobytes()
        self._windows: dict[bytes, tuple[int, float]] = {}

    @property
    def vocabulary(self) -> Vocabulary:
        return self.model.vocab

    def invalidated(self, state: SequenceState, committed: Collection[int]) -> list[range]:
        """The positions within ``n-1`` of a commit, as ascending ranges that
        neither overlap nor touch."""
        reach, L = self.model.order - 1, state.gen_budget
        out: list[range] = []
        for c in sorted(committed):
            lo, hi = max(0, c - reach), min(L, c + reach + 1)
            if out and lo <= out[-1].stop:
                out[-1] = range(out[-1].start, hi)
            else:
                out.append(range(lo, hi))
        return out

    def predict(
        self, state: SequenceState, positions: Sequence[int]
    ) -> list[tuple[int, float]]:
        model, memo = self.model, self._windows
        tokens, mask, lp = state.tokens, state.mask_id, state.prompt_len
        reach = model.order - 1
        r = min(reach, len(tokens))  # a wider pad only repeats pad slots
        pad, w = self._pad * r, self._width
        packed = bytes(tokens) if w == 1 else array(self._code, tokens).tobytes()
        # generation slot g's window starts at byte g * w of raw
        raw, span = (pad + packed + pad)[lp * w :], (2 * r + 1) * w
        out: list[tuple[int, float]] = []
        for start in positions if w == 1 else [g * w for g in positions]:
            key = raw[start : start + span]
            value = memo.get(key)
            if value is None:
                if len(memo) >= WINDOW_MEMO_CAP:
                    memo.clear()
                pos = lp + start // w
                lo = pos - reach if pos > reach else 0
                left = tuple(filter(mask.__ne__, tokens[lo:pos]))
                right = tuple(filter(mask.__ne__, tokens[pos + 1 : pos + 1 + reach]))
                tok = tokens[pos]
                value = memo[key] = (model.best_token(left, right) if tok == mask
                                     else (tok, model.blended(left, right, tok)))
            out.append(value)
        return out


def ngram_option_error(name: str, value: float) -> str | None:
    """Why ``value`` is out of range for the :func:`build_ngram` argument
    ``name`` (``order`` or ``smoothing_k``), or None when it is in range."""
    least = {"order": 1, "smoothing_k": 0}[name]
    return None if value >= least else f"must be >= {least}, got {value}"


def build_ngram(
    corpus: str, order: int, smoothing_k: float, char_mode: bool = False
) -> NGramPredictor:
    """Index a plain-text corpus for the bidirectional n-gram model."""
    for name, value in (("order", order), ("smoothing_k", smoothing_k)):
        if why := ngram_option_error(name, value):
            raise ValueError(f"{name} {why}")
    tokens = list(corpus.strip()) if char_mode else corpus.split()
    if not tokens:
        raise ValueError("corpus is empty after tokenization")

    vocab = Vocabulary.build(sorted(set(tokens)))
    seq = tuple(map(vocab.id_of, tokens))
    if vocab.mask_id in seq:
        raise ValueError(
            f"corpus contains the mask token {vocab.token_of(vocab.mask_id)!r} "
            f"at token index {seq.index(vocab.mask_id)}"
        )

    model = NGramModel(order=order, smoothing_k=smoothing_k, vocab=vocab, corpus_ids=seq)
    return NGramPredictor(model)


# ---------------------------------------------------------------------------
# Trace replay
# ---------------------------------------------------------------------------

class ReplayExhausted(PredictorError):
    """The recorded trace ran out before the decode terminated."""


class TraceReplayPredictor(MaskPredictor):
    """Replays recorded prediction frames, one per denoise call, in order.

    Each denoise call is served from the dense rows after the record at the
    cursor (:meth:`~semiar.core.DecodeTrace.rows`), so under any replay config.
    Each instance owns a cursor, so concurrent sessions need separate
    instances (see :meth:`fork`).  The cursor moves once per denoise call,
    so once per step, however few positions the call asks for.

    :meth:`invalidated` names the next record's
    :attr:`~semiar.core.StepRecord.computed` positions: a recorded value
    changes only there, so every other position still holds the value it
    was last served, under any replay config.  Once the trace is exhausted
    it names none, and the next denoise call raises :class:`ReplayExhausted`.
    """

    def __init__(self, data: "tracefile.TraceFileData"):
        self._data = data
        self._cursor = 0
        self._rows = data.trace.rows()

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

    def invalidated(
        self, state: SequenceState, committed: Collection[int]
    ) -> list[tuple[int, ...]]:
        steps = self._data.trace.steps
        return [steps[self._cursor].computed] if self._cursor < len(steps) else []

    def predict(
        self, state: SequenceState, positions: Sequence[int]
    ) -> list[tuple[int, float]]:
        trace = self._data.trace
        row = next(self._rows, None)
        if row is None:
            raise ReplayExhausted(
                f"trace has {len(trace)} recorded steps; "
                f"denoise call {self._cursor + 1} has nothing to replay"
            )
        _, predicted, confidence = row
        self._cursor += 1

        L = trace.gen_budget
        out: list[tuple[int, float]] = []
        for gen in positions:
            # a row still holds the sentinel where no record evaluated yet
            if not 0 <= gen < L or confidence[gen] == SENTINEL_CONFIDENCE:
                raise PredictorError(
                    f"replay step {self._cursor - 1}: position {gen} absent "
                    f"from the recorded frames"
                )
            out.append((predicted[gen], confidence[gen]))
        return out


def load_trace_predictor(path: str | Path) -> TraceReplayPredictor:
    """Parse a trace file eagerly and wrap it in a replay predictor."""
    return TraceReplayPredictor(tracefile.read_trace_file(path))
