"""Trace file IO: one JSON header line, then one JSON object per denoise step.

Header: ``{"vocab": [...], "mask_id": int, "prompt_len": int, "gen_budget": int}``.
Step lines: ``{"step": int, "g": int, "positions": [int], "pred": [int],
"conf": [float]}`` with the three arrays index-aligned and positions given in
generation-relative coordinates.

Files written by this package additionally carry ``eos_id``, ``prompt`` and
``config`` in the header and ``B``, ``block_end``, ``sampled``, ``masked``,
``cache`` per step line.  The extras let ``analyze`` and ``replay`` work from
the file alone; readers that only need the required keys can ignore them.

The reader rejects, naming the line, a ``vocab`` that repeats a token, a
``step`` other than the number of step lines before it (blank lines do not
count), a ``g`` outside ``[0, gen_budget)``, and, where present, a
``block_end`` outside ``(g, gen_budget]``, a ``B`` outside ``[1, gen_budget -
g]`` or a ``cache`` that names no cache policy.  Every value of every line
is checked, even one that repeats the value its position already holds.

The format holds no record of which values changed, and needs none: a line
repeats every evaluated value.  Both sides recover the changes instead.  The writer keeps
each position's formatted text and re-formats only a record's
:attr:`~semiar.core.StepRecord.computed` positions; the reader sets
``computed`` to the positions whose value differs from the running snapshot,
so a replay, ``analyze`` and a rewrite look only at those.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import copysign, isfinite
from pathlib import Path
from typing import Any, Sequence

from .core import (
    CACHES,
    SENTINEL_CONFIDENCE,
    DecodeConfig,
    DecodeTrace,
    StepRecord,
    Vocabulary,
    prompt_error,
)
from .core import config_from_dict, config_to_dict  # the header's config codec


class TraceFormatError(ValueError):
    """A trace file violates the schema; the message names the first bad line."""


_HEADER_REQUIRED = ("vocab", "mask_id", "prompt_len", "gen_budget")
_RECORD_REQUIRED = ("step", "g", "positions", "pred", "conf")
_INT = frozenset({int})
_NUMBER = frozenset({int, float})


@dataclass(frozen=True)
class TraceFileData:
    """A parsed trace file: the header's vocabulary, the recorded decode, and
    the prompt and config when the header carries them."""

    vocab: Vocabulary
    trace: DecodeTrace
    prompt: tuple[int, ...] | None = None
    config: DecodeConfig | None = None


def _eos_id(header: dict) -> int:
    """The header's ``eos_id``, else "<EOS>", else the first id that is not
    the mask (the mask itself when the vocabulary holds nothing else)."""
    vocab, mask_id = header["vocab"], header["mask_id"]
    if "eos_id" in header:
        return header["eos_id"]
    if "<EOS>" in vocab:
        return vocab.index("<EOS>")
    return next((i for i in range(len(vocab)) if i != mask_id), mask_id)


def _header_error(header: dict) -> str | None:
    """Why the header's values are malformed, or None when they are sound."""
    vocab = header["vocab"]
    if not isinstance(vocab, list) or any(type(t) is not str for t in vocab):
        return "vocab must be a JSON array of strings"
    for key in ("mask_id", "eos_id", "prompt_len", "gen_budget"):
        if key in header and type(header[key]) is not int:
            return f"{key} {header[key]!r} is not an integer"
    for key in ("mask_id", "eos_id"):
        if key in header and not 0 <= header[key] < len(vocab):
            return f"{key} {header[key]} outside the vocabulary [0, {len(vocab)})"
    if _eos_id(header) == header["mask_id"]:
        return "the vocabulary needs distinct mask and end-of-sequence tokens"
    if header["prompt_len"] < 0:
        return f"prompt_len {header['prompt_len']} is negative"
    if header["gen_budget"] < 1:
        return f"gen_budget {header['gen_budget']} is below 1"
    prompt = header.get("prompt")
    if prompt is None:
        return None
    if not isinstance(prompt, list) or any(type(t) is not int for t in prompt):
        return "prompt must be a JSON array of integers"
    if len(prompt) != header["prompt_len"]:
        return f"prompt holds {len(prompt)} ids but prompt_len is {header['prompt_len']}"
    return prompt_error(prompt, len(vocab), header["mask_id"])


def _invalid(values: list, lo: float, hi: float, types: frozenset[type]) -> list:
    """The values whose type is not in ``types`` or that lie outside
    ``[lo, hi]``, NaN included."""
    # the common case, checked at C speed: min and max pass over a NaN, but
    # once they hold the sum is bounded, so it is not finite only for a NaN
    if set(map(type, values)) <= types and (
        not values or lo <= min(values) and max(values) <= hi and isfinite(sum(values))
    ):
        return []
    return [v for v in values if type(v) not in types or not lo <= v <= hi]


def _merge_line(
    pred_row: list[int], conf_row: list[float], positions: list[int], pred: list[int],
    conf: list[float],
) -> tuple[int, ...]:
    """Write one step line's values into the running rows and return the
    positions whose value changed, in line order.

    An equal value is no change, except a zero whose sign flipped: ``0.0 ==
    -0.0``, yet the two print differently.  A repeated position keeps its
    last value, as it would in :meth:`~semiar.core.PredictionFrame.merge`.
    Most values repeat the running row's, so a plain loop that writes only
    the changes beats C-level comparisons of the whole line.
    """
    changed = []
    for p, token, c in zip(positions, pred, conf):
        old = conf_row[p]
        if c != old or token != pred_row[p] or not c and copysign(1.0, c) != copysign(1.0, old):
            changed.append(p)
            pred_row[p], conf_row[p] = token, float(c)
    return tuple(changed)


def read_trace_file(path: str | Path) -> TraceFileData:
    """Parse a trace file eagerly, reporting the first malformed line.

    Each step line becomes a :class:`StepRecord` holding the snapshot
    accumulated over it and every earlier line, as the decoder recorded it.
    """
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise TraceFormatError(f"{path}: line 1: missing header")

    def bad(lineno: int, why: str) -> TraceFormatError:
        return TraceFormatError(f"{path}: line {lineno}: {why}")

    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise bad(1, f"invalid JSON ({exc.msg})") from exc
    if not isinstance(header, dict):
        raise bad(1, "header must be a JSON object")
    for key in _HEADER_REQUIRED:
        if key not in header:
            raise bad(1, f"header missing key {key!r}")
    if why := _header_error(header):
        raise bad(1, why)

    try:
        vocab = Vocabulary(tuple(header["vocab"]), header["mask_id"], _eos_id(header))
    except ValueError as exc:
        raise bad(1, str(exc)) from exc
    prompt = tuple(header["prompt"]) if header.get("prompt") is not None else None
    try:
        config = config_from_dict(header["config"]) if header.get("config") else None
    except (TypeError, ValueError) as exc:
        raise bad(1, f"invalid config ({exc})") from exc
    L = header["gen_budget"]

    # the running rows, and the last record's snapshot of them
    pred_row, conf_row = [vocab.mask_id] * L, [SENTINEL_CONFIDENCE] * L
    predicted, confidence = tuple(pred_row), tuple(conf_row)
    records: list[StepRecord] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise bad(lineno, f"invalid JSON ({exc.msg})") from exc
        if not isinstance(obj, dict):
            raise bad(lineno, "step record must be a JSON object")
        for key in _RECORD_REQUIRED:
            if key not in obj:
                raise bad(lineno, f"record missing key {key!r}")
        for key in ("positions", "pred", "conf", "sampled", "masked"):
            if key in obj and not isinstance(obj[key], list):
                raise bad(lineno, f"{key!r} must be a JSON array")
        positions = obj["positions"]
        pred = obj["pred"]
        conf = obj["conf"]
        if not (len(positions) == len(pred) == len(conf)):
            raise bad(lineno, "positions/pred/conf arrays are not index-aligned")
        if not (type(obj["step"]) is int and type(obj["g"]) is int):
            raise bad(lineno, "step and g must be integers")
        if obj["step"] != len(records):
            raise bad(lineno, f"step {obj['step']} should be {len(records)}; steps count from 0")
        g, end, size, cache = obj["g"], obj.get("block_end"), obj.get("B"), obj.get("cache")
        if not 0 <= g < L:
            raise bad(lineno, f"g {g} is not in [0, {L})")
        if end is not None and not (type(end) is int and g < end <= L):
            raise bad(lineno, f"block_end {end!r} is not an integer in ({g}, {L}]")
        if size is not None and not (type(size) is int and 1 <= size <= L - g):
            raise bad(lineno, f"B {size!r} is not an integer in [1, {L - g}]")
        if cache not in (None, *CACHES):
            raise bad(lineno, f"cache {cache!r} is not one of {', '.join(CACHES)}")
        for key in ("positions", "sampled", "masked"):
            if wrong := _invalid(obj.get(key, []), 0, L - 1, _INT):
                raise bad(lineno, f"position {wrong[0]!r} is not an integer in [0, {L})")
        if wrong := _invalid(pred, 0, vocab.size - 1, _INT):
            raise bad(lineno, f"token {wrong[0]!r} is not an integer in [0, {vocab.size})")
        if wrong := _invalid(conf, 0.0, 1.0, _NUMBER):
            raise bad(lineno, f"confidence {wrong[0]!r} is not a number in [0, 1]")
        computed = _merge_line(pred_row, conf_row, positions, pred, conf)
        if computed:
            predicted, confidence = tuple(pred_row), tuple(conf_row)
        records.append(
            StepRecord(
                step=obj["step"],
                block_start=g,
                block_end=end,
                block_size=size,
                evaluated=tuple(positions),
                predicted=predicted,
                confidence=confidence,
                sampled=tuple(obj["sampled"]) if "sampled" in obj else None,
                masked_before=tuple(obj["masked"]) if "masked" in obj else None,
                cache=cache,
                computed=computed,
            )
        )

    trace = DecodeTrace(prompt_len=header["prompt_len"], gen_budget=L, steps=tuple(records))
    return TraceFileData(vocab, trace, prompt, config)


def _json_text(value: object) -> str:
    """``json.dumps(value)``, with ints and finite floats printed directly."""
    kind = type(value)
    if kind is int or kind is float and isfinite(value):
        return repr(value)
    return "null" if value is None else json.dumps(value)


def _int_array_text(values: Sequence[int], texts: dict[int, str]) -> str:
    """``json.dumps(list(values))``, joined from ``texts`` when every value is
    an int (a bool, which hashes as one, is not) that ``texts`` holds."""
    if set(map(type, values)) <= _INT:
        try:
            return f"[{', '.join(map(texts.__getitem__, values))}]"
        except KeyError:
            pass
    return json.dumps(list(values))


def write_trace(
    path: str | Path,
    trace: DecodeTrace,
    vocab: Vocabulary,
    prompt: tuple[int, ...] | None = None,
    config: DecodeConfig | None = None,
) -> None:
    """Serialize a decode trace, header first, one line per step record."""
    header: dict[str, Any] = {
        "vocab": list(vocab.tokens),
        "mask_id": vocab.mask_id,
        "prompt_len": trace.prompt_len,
        "gen_budget": trace.gen_budget,
        "eos_id": vocab.eos_id,
    }
    if prompt is not None:
        header["prompt"] = list(prompt)
    if config is not None:
        header["config"] = config_to_dict(config)

    lines = [json.dumps(header)]
    position_text = {p: str(p) for p in range(trace.gen_budget)}
    # each position's value as the last record that changed it prints it
    pred_text: list[str] = []
    conf_text: list[str] = []
    for rec in trace.steps:
        if not pred_text:
            pred_text = list(map(_json_text, rec.predicted))
            conf_text = list(map(_json_text, rec.confidence))
        else:
            for p in rec.changed:
                pred_text[p] = _json_text(rec.predicted[p])
                conf_text[p] = _json_text(rec.confidence[p])
        # json.dumps of the step's object, one value text at a time
        positions = rec.evaluated
        pred = ", ".join(map(pred_text.__getitem__, positions))
        conf = ", ".join(map(conf_text.__getitem__, positions))
        evaluated = _int_array_text(positions, position_text)
        masked = (evaluated if rec.masked_before is positions
                  else _int_array_text(rec.masked_before, position_text))
        lines.append(
            f'{{"step": {_json_text(rec.step)}, "g": {_json_text(rec.block_start)}, '
            f'"positions": {evaluated}, "pred": [{pred}], "conf": [{conf}], '
            f'"B": {_json_text(rec.block_size)}, "block_end": {_json_text(rec.block_end)}, '
            f'"sampled": {_int_array_text(rec.sampled, position_text)}, '
            f'"masked": {masked}, "cache": {_json_text(rec.cache)}}}'
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def trace_from_file(data: TraceFileData) -> DecodeTrace:
    """The decode trace held by a file, accumulated snapshots included.

    Requires the extended per-step fields; files holding only the required
    schema keys carry too little to reconstruct sampling decisions.
    """
    for rec in data.trace.steps:
        if None in (rec.block_end, rec.sampled, rec.masked_before, rec.cache):
            raise TraceFormatError(
                "trace lacks the extended per-step fields needed for analysis"
            )
    return data.trace
