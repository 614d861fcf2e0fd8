"""Core domain types: vocabulary, sequence state, prediction frames, config, traces.

Position convention: every position is a generation-region coordinate
``g`` in ``[0, L)``, and ``SequenceState.tokens`` is the only structure indexed
absolutely, where ``g`` sits at ``tokens[prompt_len + g]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from enum import Enum
from pathlib import Path
from typing import (
    Any, Callable, Collection, Iterable, Iterator, Sequence, get_args, get_origin, get_type_hints,
)

#: Confidence stored for positions that no denoise call has touched yet.
SENTINEL_CONFIDENCE = -1.0

SAMPLERS = ("vanilla", "linear", "dynamic")
SCHEDULERS = ("fixed", "adaptive")
CACHES = ("none", "prefix", "dual")


class Regime(str, Enum):
    """The confidence regime of a generation position: the synthetic field's
    ground truth and the label :func:`~semiar.metrics.segment_regimes` gives.

    A member equals and hashes as its value, which reports write; ``str()``
    and f-strings give ``Regime.NAME`` instead.
    """

    PLATEAU = "plateau"
    VOLATILITY_BAND = "band"
    FLOOR = "floor"
    DECODED = "decoded"


@dataclass(frozen=True)
class Vocabulary:
    """Ordered token table with the two special ids every decode needs."""

    tokens: tuple[str, ...]
    mask_id: int
    eos_id: int
    _ids: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ids = {token: i for i, token in enumerate(self.tokens)}
        if len(ids) != len(self.tokens):
            raise ValueError("duplicate token strings break the token<->id bijection")
        for name, tid in (("mask_id", self.mask_id), ("eos_id", self.eos_id)):
            if not 0 <= tid < len(self.tokens):
                raise ValueError(f"{name}={tid} outside [0, {len(self.tokens)})")
        if self.mask_id == self.eos_id:
            raise ValueError("mask_id and eos_id must be distinct")
        object.__setattr__(self, "_ids", ids)

    @property
    def size(self) -> int:
        return len(self.tokens)

    def id_of(self, token: str) -> int:
        try:
            return self._ids[token]
        except KeyError:
            raise KeyError(f"unknown token {token!r}") from None

    def token_of(self, token_id: int) -> str:
        return self.tokens[token_id]

    @classmethod
    def build(
        cls,
        regular_tokens: Sequence[str],
        mask_token: str = "[MASK]",
        eos_token: str = "<EOS>",
    ) -> "Vocabulary":
        """Assemble a vocabulary from regular tokens plus the two specials."""
        toks = list(dict.fromkeys(regular_tokens))
        for special in (mask_token, eos_token):
            if special not in toks:
                toks.append(special)
        return cls(tuple(toks), toks.index(mask_token), toks.index(eos_token))


@dataclass
class SequenceState:
    """The evolving token sequence: committed prompt, generation region, mask occupancy.

    A decode keeps one state, and :func:`apply_sample` commits into it in
    place, so a state is running state, as a :class:`PredictionFrame` is:
    copy ``tokens`` to keep them.  ``unmasked`` counts the committed
    generation positions; it is counted from ``tokens`` on construction (so
    ``dataclasses.replace`` recounts) and advanced by :func:`apply_sample`.
    The masked positions themselves are read from ``tokens``.  The step
    budget is the decode loop's, not the state's.
    """

    tokens: list[int]
    prompt_len: int
    gen_budget: int
    mask_id: int
    unmasked: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.tokens = list(self.tokens)
        if len(self.tokens) != self.prompt_len + self.gen_budget:
            raise ValueError("token vector length must equal prompt_len + gen_budget")
        self.unmasked = self.gen_budget - self.tokens[self.prompt_len :].count(self.mask_id)

    def gen_masked(self) -> frozenset[int]:
        """Masked positions in generation-region coordinates, by a scan of ``tokens``."""
        lp, mask = self.prompt_len, self.mask_id
        return frozenset(i for i, t in enumerate(self.tokens[lp:]) if t == mask)


@dataclass
class PredictionFrame:
    """Per-position greedy predictions and confidences over the generation region.

    A decode keeps one frame, and :meth:`merge` overwrites its rows in place,
    so a frame is running state: copy a row to keep it.  Positions a denoise
    call did not evaluate keep their values; before any call they hold
    ``mask_id`` / :data:`SENTINEL_CONFIDENCE`.
    """

    predicted: list[int]
    confidence: list[float]

    def __post_init__(self) -> None:
        self.predicted, self.confidence = list(self.predicted), list(self.confidence)
        if len(self.predicted) != len(self.confidence):
            raise ValueError("predicted and confidence must be index-aligned")

    @classmethod
    def sentinel(cls, length: int, mask_id: int) -> "PredictionFrame":
        return cls([mask_id] * length, [SENTINEL_CONFIDENCE] * length)

    def merge(
        self, positions: Sequence[int], values: Iterable[tuple[int, float]]
    ) -> "PredictionFrame":
        """Overwrite ``positions`` with ``values`` in place; returns this frame.

        A repeated position keeps its last value.
        """
        predicted, confidence = self.predicted, self.confidence
        for p, (tok, c) in zip(positions, values, strict=True):
            predicted[p] = tok
            confidence[p] = c
        return self


def prompt_error(prompt: Sequence[int], vocab_size: int, mask_id: int) -> str | None:
    """Why ``prompt`` cannot start a decode, or None: names the first id
    outside ``[0, vocab_size)`` or equal to the mask, with its index."""
    for index, token in enumerate(prompt):
        if not 0 <= token < vocab_size:
            return f"prompt id {token} at index {index} outside the vocabulary [0, {vocab_size})"
        if token == mask_id:
            return f"prompt id {token} at index {index} is the mask id"
    return None


def init_state(prompt: Sequence[int], gen_budget: int, mask_id: int) -> SequenceState:
    """Build the initial state: the prompt followed by ``gen_budget`` masks."""
    if len(prompt) == 0:
        raise ValueError("prompt must not be empty")
    if mask_id in prompt:
        raise ValueError("prompt must not contain the mask token")
    if gen_budget < 1:
        raise ValueError("gen_budget must be >= 1")
    return SequenceState(
        tokens=list(prompt) + [mask_id] * gen_budget,
        prompt_len=len(prompt),
        gen_budget=gen_budget,
        mask_id=mask_id,
    )


def apply_sample(
    state: SequenceState, frame: PredictionFrame, selected: Collection[int]
) -> SequenceState:
    """Commit predicted tokens at the ``selected`` generation positions, in
    place, and return ``state``.

    ``selected`` holds distinct positions, each of which must currently be
    masked; all other positions are untouched.  The empty selection is a
    legal no-op.  The step writes the committed tokens and nothing else.  A
    rejected position raises ``ValueError`` with the positions before it
    committed.
    """
    tokens, lp, mask = state.tokens, state.prompt_len, state.mask_id
    for g in selected:
        if not 0 <= g < state.gen_budget:
            raise ValueError(f"selected position {g} out of range")
        if tokens[lp + g] != mask:
            raise ValueError(f"selected position {g} is not masked")
        new_tok = frame.predicted[g]
        if new_tok == mask:
            raise ValueError(f"frame predicts the mask token at position {g}")
        tokens[lp + g] = new_tok
        state.unmasked += 1
    return state


_INTEGER = (lambda v: type(v) is int, "must be an integer")
_NUMBER = (lambda v: type(v) is int or type(v) is float, "must be a number")
_STRING = (lambda v: type(v) is str, "must be a string")
_UNIT = (lambda v: 0.0 < v <= 1.0, "must lie in (0, 1]")
_POSITIVE = (lambda v: v >= 1, "must be >= 1")

#: The rules of each checked DecodeConfig field, in checking order: tests the
#: value passes, each with what the value must be otherwise.  The type rule
#: comes first, so a range test sees only values of its type; a bool is
#: neither an integer nor a number here.
_FIELD_RULES: dict[str, tuple[tuple[Callable[[Any], bool], str], ...]] = {
    "tau": (_NUMBER, _UNIT),
    "tau_d": (_NUMBER, _UNIT),
    "b0": (_INTEGER, _POSITIVE),
    "gen_budget": (_INTEGER, _POSITIVE),
    "max_steps": (_INTEGER, _POSITIVE),
    "window_fraction": (_NUMBER, _UNIT),
    "sampler": (_STRING, (SAMPLERS.__contains__, f"must be one of {SAMPLERS}")),
    "scheduler": (_STRING, (SCHEDULERS.__contains__, f"must be one of {SCHEDULERS}")),
    "cache": (_STRING, (CACHES.__contains__, f"must be one of {CACHES}")),
    "linear_steps": ((lambda v: v is None or type(v) is int, "must be an integer"),
                     (lambda v: v is None or v >= 1, "must be >= 1")),
    "seed": (_INTEGER,),
    "delimiters": ((lambda v: all(type(d) is int for d in v), "must hold only integers"),),
}


def config_value_error(key: str, value: Any) -> str | None:
    """Why ``value`` is of the wrong type or out of range for the
    :class:`DecodeConfig` field ``key``, or None when it passes every rule."""
    return next((why for test, why in _FIELD_RULES.get(key, ()) if not test(value)), None)


@dataclass(frozen=True)
class DecodeConfig:
    """All decode hyperparameters.

    Defaults follow the documented engine defaults: tau=0.9, b0=32,
    tau_d=0.3, window_fraction=0.25.
    """

    gen_budget: int
    max_steps: int
    tau: float = 0.9
    b0: int = 32
    tau_d: float = 0.3
    delimiters: frozenset[int] = frozenset()
    window_fraction: float = 0.25
    sampler: str = "dynamic"
    scheduler: str = "fixed"
    cache: str = "none"
    linear_steps: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        for key in _FIELD_RULES:
            if why := config_value_error(key, getattr(self, key)):
                raise ValueError(f"{key} {why}")


def delimiter_error(delimiters: Iterable[int], vocab: Vocabulary) -> str | None:
    """Why ``delimiters`` cannot end blocks over ``vocab``, or None when they can."""
    for d in delimiters:
        if not 0 <= d < vocab.size:
            return f"delimiter id {d} outside the vocabulary"
        if d == vocab.mask_id:
            return "the mask token cannot be a delimiter"
    return None


# The one DecodeConfig codec: field types drive a spec cell's text values and
# a trace header's JSON.
_FIELD_TYPES = get_type_hints(DecodeConfig)
#: The DecodeConfig fields without a default, which every spec cell must set.
REQUIRED_CONFIG_KEYS = ("gen_budget", "max_steps")


def parse_config_value(key: str, raw: str) -> Any:
    """Parse the text form of the :class:`DecodeConfig` field ``key``.

    Raises ``KeyError`` for a name that is not a field and ``ValueError`` for
    a malformed value; callers name the key.
    """
    tp, raw = _FIELD_TYPES[key], raw.strip()
    args = get_args(tp)
    if type(None) in args:  # X | None: "none" or an empty value means None
        if raw.lower() in ("", "none"):
            return None
        (tp,) = (a for a in args if a is not type(None))
    return tp(raw)


def read_utf8(
    path: str | Path, error: type[ValueError] = UnicodeError, newlines: bool = True
) -> str:
    """The text of the UTF-8 file ``path``.

    With ``newlines`` a ``"\\r\\n"`` or lone ``"\\r"`` reads as ``"\\n"``, as
    ``Path.read_text`` gives it; without, the text is as stored.  A byte that is
    not UTF-8 raises ``error("PATH: line N: ...")``, N counting the lines of the
    text as read.
    """
    raw = Path(path).read_bytes()
    if newlines:  # in UTF-8 these two bytes only ever encode "\r" and "\n"
        raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}: line {line}: 'utf-8' codec can't decode byte "
                    f"{raw[exc.start]:#04x}: {exc.reason}") from None


def config_to_dict(config: DecodeConfig) -> dict[str, Any]:
    """JSON-ready form: sets become sorted lists, other values stay as they are."""
    out: dict[str, Any] = {}
    for f in fields(DecodeConfig):
        value = getattr(config, f.name)
        out[f.name] = sorted(value) if isinstance(value, frozenset) else value
    return out


def config_from_dict(data: dict[str, Any]) -> DecodeConfig:
    """Inverse of :func:`config_to_dict`; rejects keys that are not fields."""
    unknown = sorted(data.keys() - _FIELD_TYPES.keys())
    if unknown:
        raise ValueError(f"unknown config key {unknown[0]!r}")
    return DecodeConfig(**{
        key: frozenset(value) if get_origin(_FIELD_TYPES[key]) is frozenset else value
        for key, value in data.items()
    })


@dataclass(frozen=True)
class StepRecord:
    """One denoise-sample cycle, as the decoder records it or a trace file holds it.

    ``block_size`` is set only on block-opening records; ``block_start`` and
    ``block_end`` describe the block in effect on every record so each record
    is self-contained for analysis.  All positions are generation-relative.
    ``block_end``, ``sampled``, ``masked_before`` and ``cache`` are None only
    for records read from a minimal-schema file.

    ``computed`` names the positions whose predicted or confidence value may
    differ from the previous record's, a subset of ``evaluated``: the decoder
    stores the positions it recomputed, the trace reader the positions whose
    values changed, sign of zero included.  ``predicted``/``confidence`` hold
    the values at ``computed`` alone, index-aligned with it as a trace line's
    ``pred`` and ``conf`` are with its ``positions``; every other
    position keeps what an earlier record left there (:meth:`DecodeTrace.rows`).
    Two records of one step may name different positions, so records
    compare without ``computed`` and their values, and traces compare their
    dense rows.

    Records may share tuple objects: under the ``none`` cache a decoder
    record's ``evaluated`` between block opens is its ``masked_before``.
    Treat every field as a value: compare with ``==``, not ``is``.
    """

    step: int
    block_start: int
    block_end: int | None
    block_size: int | None
    evaluated: tuple[int, ...]
    predicted: tuple[int, ...] = field(compare=False)
    confidence: tuple[float, ...] = field(compare=False)
    sampled: tuple[int, ...] | None
    masked_before: tuple[int, ...] | None
    cache: str | None
    computed: tuple[int, ...] = field(compare=False)

    @property
    def is_block_open(self) -> bool:
        return self.block_size is not None


@dataclass(frozen=True, eq=False)
class DecodeTrace:
    """Ordered step records plus the geometry needed to interpret them; two
    traces are equal when these and the dense rows of every step are."""

    prompt_len: int
    gen_budget: int
    mask_id: int
    steps: tuple[StepRecord, ...]

    def __len__(self) -> int:
        return len(self.steps)

    def rows(self) -> Iterator[tuple[StepRecord, list[int], list[float]]]:
        """Each record with the dense rows after its step: every position's
        token and confidence as the latest record that changed it left them,
        the mask id and :data:`SENTINEL_CONFIDENCE` where none did.  The rows
        change in place as the cursor moves on: copy them to keep them.
        """
        predicted = [self.mask_id] * self.gen_budget
        confidence = [SENTINEL_CONFIDENCE] * self.gen_budget
        for rec in self.steps:
            for p, tok, c in zip(rec.computed, rec.predicted, rec.confidence, strict=True):
                predicted[p] = tok
                confidence[p] = c
            yield rec, predicted, confidence

    def first_minimal_step(self) -> int | None:
        """The step of the first record read from a minimal-schema file, which
        lacks the extended fields analysis needs; None when no record does."""
        return next((rec.step for rec in self.steps
                     if None in (rec.block_end, rec.sampled, rec.masked_before, rec.cache)),
                    None)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DecodeTrace):
            return NotImplemented
        return (
            (self.prompt_len, self.gen_budget, self.mask_id, self.steps)
            == (other.prompt_len, other.gen_budget, other.mask_id, other.steps)
            and all(mine[1:] == theirs[1:] for mine, theirs in zip(self.rows(), other.rows()))
        )
