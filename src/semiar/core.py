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


@dataclass(frozen=True)
class SequenceState:
    """The evolving token sequence: committed prompt, generation region, mask occupancy.

    ``step`` counts remaining denoise-sample iterations and only decreases.
    ``masked`` holds the masked generation positions.  It is derived from
    ``tokens`` on construction (so ``dataclasses.replace`` rescans) and
    carried forward by :func:`apply_sample`, which never rescans.
    """

    tokens: tuple[int, ...]
    prompt_len: int
    gen_budget: int
    step: int
    mask_id: int
    masked: frozenset[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.tokens) != self.prompt_len + self.gen_budget:
            raise ValueError("token vector length must equal prompt_len + gen_budget")
        if self.step < 0:
            raise ValueError("step counter cannot be negative")
        lp, mask = self.prompt_len, self.mask_id
        object.__setattr__(self, "masked", frozenset(
            i for i, t in enumerate(self.tokens[lp:]) if t == mask
        ))

    def gen_masked(self) -> frozenset[int]:
        """Masked positions in generation-region coordinates."""
        return self.masked

    def unmasked_gen_count(self) -> int:
        return self.gen_budget - len(self.masked)


_STATE_FIELDS = tuple(f.name for f in fields(SequenceState))


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


def init_state(
    prompt: Sequence[int], gen_budget: int, max_steps: int, mask_id: int
) -> SequenceState:
    """Build the initial state: the prompt followed by ``gen_budget`` masks."""
    if len(prompt) == 0:
        raise ValueError("prompt must not be empty")
    if mask_id in prompt:
        raise ValueError("prompt must not contain the mask token")
    if gen_budget < 1:
        raise ValueError("gen_budget must be >= 1")
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    return SequenceState(
        tokens=tuple(prompt) + (mask_id,) * gen_budget,
        prompt_len=len(prompt),
        gen_budget=gen_budget,
        step=max_steps,
        mask_id=mask_id,
    )


def apply_sample(
    state: SequenceState, frame: PredictionFrame, selected: Collection[int]
) -> SequenceState:
    """Commit predicted tokens at the ``selected`` generation positions.

    ``selected`` holds distinct positions, each of which must currently be
    masked; all other positions are untouched and the step counter decreases
    by one.  The empty selection is a legal no-op step.  The successor's
    masked set is the current one minus the committed positions, so the step
    rescans nothing: it copies the token tuple and the masked set once each.
    """
    if state.step < 1:
        raise ValueError("step budget exhausted; cannot advance")
    tokens = list(state.tokens)
    lp = state.prompt_len
    for g in selected:
        if not 0 <= g < state.gen_budget:
            raise ValueError(f"selected position {g} out of range")
        if tokens[lp + g] != state.mask_id:
            raise ValueError(f"selected position {g} is not masked")
        new_tok = frame.predicted[g]
        if new_tok == state.mask_id:
            raise ValueError(f"frame predicts the mask token at position {g}")
        tokens[lp + g] = new_tok
    changed = {
        "tokens": tuple(tokens),
        "step": state.step - 1,
        "masked": state.masked.difference(selected),
    }
    # Built field by field: not through __init__, so the masked set is not
    # rescanned (the checks above keep __post_init__'s invariants), and not
    # through __dict__, which would slow every attribute read of the state.
    successor = object.__new__(SequenceState)
    for name in _STATE_FIELDS:
        object.__setattr__(successor, name, changed.get(name, getattr(state, name)))
    return successor


#: The range rule of each checked DecodeConfig field, in checking order: a
#: test the value passes, and what it must be otherwise.
_FIELD_RULES: dict[str, tuple[Callable[[Any], bool], str]] = {
    "tau": (lambda v: 0.0 < v <= 1.0, "must lie in (0, 1]"),
    "tau_d": (lambda v: 0.0 < v <= 1.0, "must lie in (0, 1]"),
    "b0": (lambda v: v >= 1, "must be >= 1"),
    "gen_budget": (lambda v: v >= 1, "must be >= 1"),
    "max_steps": (lambda v: v >= 1, "must be >= 1"),
    "window_fraction": (lambda v: 0.0 < v <= 1.0, "must lie in (0, 1]"),
    "sampler": (SAMPLERS.__contains__, f"must be one of {SAMPLERS}"),
    "scheduler": (SCHEDULERS.__contains__, f"must be one of {SCHEDULERS}"),
    "cache": (CACHES.__contains__, f"must be one of {CACHES}"),
    "linear_steps": (lambda v: v is None or v >= 1, "must be >= 1"),
}


def config_value_error(key: str, value: Any) -> str | None:
    """Why ``value`` is out of range for the :class:`DecodeConfig` field
    ``key``, or None when it is in range."""
    rule = _FIELD_RULES.get(key)
    return None if rule is None or rule[0](value) else rule[1]


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

    def validate_against(self, vocab: Vocabulary) -> None:
        """Check vocabulary-dependent constraints on the delimiter set."""
        if why := delimiter_error(self.delimiters, vocab):
            raise ValueError(why)


def delimiter_error(delimiters: Iterable[int], vocab: Vocabulary) -> str | None:
    """Why ``delimiters`` cannot end blocks over ``vocab``, or None when they can."""
    for d in delimiters:
        if not 0 <= d < vocab.size:
            return f"delimiter id {d} outside the vocabulary"
        if d == vocab.mask_id:
            return "the mask token cannot be a delimiter"
    return None


# The one DecodeConfig codec: field types drive the text and the JSON forms.
_FIELD_TYPES = get_type_hints(DecodeConfig)
#: The DecodeConfig fields without a default, which every config text must set.
REQUIRED_CONFIG_KEYS = ("gen_budget", "max_steps")


def _parse(tp: Any, raw: str) -> Any:
    args = get_args(tp)
    if type(None) in args:  # X | None: "none" or an empty value means None
        if raw.lower() in ("", "none"):
            return None
        (inner,) = (a for a in args if a is not type(None))
        return _parse(inner, raw)
    if get_origin(tp) is frozenset:
        return frozenset(_parse(args[0], tok) for tok in raw.replace(",", " ").split())
    return tp(raw)


def parse_config_value(key: str, raw: str) -> Any:
    """Parse the text form of the :class:`DecodeConfig` field ``key``.

    Raises ``KeyError`` for a name that is not a field and ``ValueError`` for
    a malformed value; callers name the key.
    """
    return _parse(_FIELD_TYPES[key], raw.strip())


def config_from_text(text: str) -> DecodeConfig:
    """Parse a key=value config document (``#`` comments) into a :class:`DecodeConfig`."""
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"line {lineno}: expected key = value")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        try:
            values[key] = value = parse_config_value(key, raw)
            if why := config_value_error(key, value):
                raise ValueError(why)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {key}: {exc}") from None
    missing = set(REQUIRED_CONFIG_KEYS) - values.keys()
    if missing:
        raise ValueError(f"missing required config keys: {sorted(missing)}")
    return DecodeConfig(**values)


def load_config(path: str | Path) -> DecodeConfig:
    return config_from_text(Path(path).read_text(encoding="utf-8"))


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
    values changed, sign of zero included, and ``None`` means every
    ``evaluated`` position (:attr:`changed`).  ``predicted``/``confidence``
    hold the values at :attr:`changed` alone, index-aligned with it as a trace
    line's ``pred`` and ``conf`` are with its ``positions``; every other
    position keeps what an earlier record left there (:meth:`DecodeTrace.rows`).
    Two records of one step may name different changed positions, so records
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
    computed: tuple[int, ...] | None = field(default=None, compare=False)

    @property
    def is_block_open(self) -> bool:
        return self.block_size is not None

    @property
    def changed(self) -> tuple[int, ...]:
        """The positions whose values may differ from the previous record's:
        ``computed``, or every ``evaluated`` position where that is unknown."""
        return self.evaluated if self.computed is None else self.computed


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
            for p, tok, c in zip(rec.changed, rec.predicted, rec.confidence, strict=True):
                predicted[p] = tok
                confidence[p] = c
            yield rec, predicted, confidence

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DecodeTrace):
            return NotImplemented
        return (
            (self.prompt_len, self.gen_budget, self.mask_id, self.steps)
            == (other.prompt_len, other.gen_budget, other.mask_id, other.steps)
            and all(mine[1:] == theirs[1:] for mine, theirs in zip(self.rows(), other.rows()))
        )
