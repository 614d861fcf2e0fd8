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
is checked, even one that repeats the value its position already holds: a
text the position held before was checked when it was first read, and a
value written another way (a float token ``3.0``) is checked anew.

Lines end at a line feed alone: a carriage return before it is JSON
whitespace, and a character such as U+2028, which a JSON string may hold
raw, ends no line.

The format holds no record of which values changed, and needs none: a line
repeats every evaluated value.  Both sides recover the changes instead.  The
writer keeps each position's formatted text and re-formats only a record's
changed positions, read from :meth:`~semiar.core.DecodeTrace.rows`; the
reader keeps running rows and makes each line a record of the positions whose
value differs from them, and their values alone (see
:class:`~semiar.core.StepRecord`), so a replay, ``analyze`` and a rewrite look
only at those.

The reader works the writer's way in reverse.  When every step line has the
writer's exact layout, it keeps each position's last ``pred`` and ``conf``
text and parses only the texts that differ, accepting a value only in the
one form the writer prints it.  Any other file, or any line or value that
does not fit, is parsed in full by ``json.loads``, one line at a time, and
that loop alone words the errors, so both paths give the same records, or
the same error, for the same file.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import compress
from math import copysign, isfinite
from operator import lt, ne, or_
from pathlib import Path
from typing import Any, Callable, Sequence

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

# a step line exactly as write_trace lays it out: its keys in its order, ", "
# between values, ints in JSON's form and no string but a cache name; the
# first read compiles it (re caches the result), not the import
_ARRAY = r"\[([^\]]*)\]"
_COUNT = "(0|[1-9][0-9]*)"
_OPTIONAL_COUNT = "(null|0|[1-9][0-9]*)"
_WRITTEN_STEP = (
    rf'\{{"step": {_COUNT}, "g": {_COUNT}, "positions": {_ARRAY}, "pred": {_ARRAY}, '
    rf'"conf": {_ARRAY}, "B": {_OPTIONAL_COUNT}, "block_end": {_OPTIONAL_COUNT}, '
    rf'"sampled": {_ARRAY}, "masked": {_ARRAY}, '
    rf'"cache": (?:null|"({"|".join(map(re.escape, CACHES))})")\}}'
)


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


def _split(text: str) -> list[str]:
    """The value texts of an array's text as ``write_trace`` joins them."""
    return text.split(", ") if text else []


def _lookup(text: str, value_of: dict[str, int]) -> tuple[int, ...]:
    """The values of an array's text; a text ``value_of`` lacks raises KeyError."""
    return tuple(map(value_of.__getitem__, _split(text)))


def _text_records(lines: list[str], L: int, vocab: Vocabulary) -> list[StepRecord] | None:
    """The records of step lines laid out exactly as :func:`write_trace` lays
    them out, or None when any line or value does not fit that layout.

    Each position keeps the ``pred`` and ``conf`` texts last read there, and
    only a text that differs is parsed: a token must be the decimal text of a
    vocabulary id, a confidence the ``repr`` of a float in ``[0, 1]``, which
    is a JSON number.  So one text is one value, a zero's sign included, and
    ``computed`` is what :func:`_merge_line` would make of the parsed values.
    Positions must ascend, as every evaluation scope does, so none repeats.
    A ``masked`` text equal to the previous line's masked positions less its
    commits is read as that tuple; only another text is mapped value by value.
    """
    fullmatch = re.compile(_WRITTEN_STEP).fullmatch
    position_of = {str(p): p for p in range(L)}
    position_text = list(position_of)
    token_of = {str(t): t for t in range(vocab.size)}
    # no array text holds "]", so the first value read at a position differs
    pred_text, conf_text = ["]"] * L, ["]"] * L
    pred_row = [vocab.mask_id] * L
    positions_text, positions = None, ()
    masked_before: tuple[int, ...] = ()
    sampled: tuple[int, ...] = ()  # the previous line's commits
    records: list[StepRecord] = []
    try:
        for line in lines:
            match = fullmatch(line)
            if match is None:
                return None
            step, g, evaluated, preds, confs, size, end, sampled_text, masked, cache = (
                match.groups())
            step, g = int(step), int(g)
            size = None if size == "null" else int(size)
            end = None if end == "null" else int(end)
            if not (step == len(records) and g < L and (end is None or g < end <= L)
                    and (size is None or 1 <= size <= L - g)):
                return None
            if evaluated != positions_text:
                positions = _lookup(evaluated, position_of)
                if not all(map(lt, positions, positions[1:])):
                    return None
                positions_text = evaluated
            confs = _split(confs)
            if len(confs) != len(positions):
                return None
            changed = map(ne, confs, map(conf_text.__getitem__, positions))
            # most lines change no token: one join then stands for every comparison
            tokens_changed = preds != ", ".join(map(pred_text.__getitem__, positions))
            if tokens_changed:
                preds = _split(preds)
                if len(preds) != len(positions):
                    return None
                changed = map(or_, changed, map(ne, preds, map(pred_text.__getitem__, positions)))
            changed = list(changed)
            computed = tuple(compress(positions, changed))
            confidence = []
            for p, text in zip(computed, compress(confs, changed)):
                value = float(text)
                if not (0.0 <= value <= 1.0 and repr(value) == text):
                    return None
                confidence.append(value)
                conf_text[p] = text
            if tokens_changed:
                for p, token in zip(computed, compress(preds, changed)):
                    pred_row[p], pred_text[p] = token_of[token], token
            if masked == evaluated:
                masked_before = positions
            else:
                # the writer's masked positions are the previous line's minus
                # its commits, so one join stands for mapping every text
                expected = list(masked_before)
                for p in sampled:
                    if p in expected:
                        expected.remove(p)
                masked_before = (
                    tuple(expected)
                    if masked == ", ".join(map(position_text.__getitem__, expected))
                    else _lookup(masked, position_of)
                )
            sampled = _lookup(sampled_text, position_of)
            records.append(
                StepRecord(
                    step=step,
                    block_start=g,
                    block_end=end,
                    block_size=size,
                    evaluated=positions,
                    predicted=tuple(map(pred_row.__getitem__, computed)),
                    confidence=tuple(confidence),
                    sampled=sampled,
                    masked_before=masked_before,
                    cache=cache,
                    computed=computed,
                )
            )
    except (KeyError, ValueError):  # a position, token or confidence text that does not fit
        return None
    return records


def _json_records(
    lines: list[str], L: int, vocab: Vocabulary, bad: Callable[[int, str], TraceFormatError],
) -> list[StepRecord]:
    """The records of step lines parsed as JSON, whatever their layout; every
    malformed line raises ``bad(lineno, why)``.  ``lines`` start at line 2."""
    pred_row, conf_row = [vocab.mask_id] * L, [SENTINEL_CONFIDENCE] * L
    records: list[StepRecord] = []
    for lineno, line in enumerate(lines, start=2):
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
        records.append(
            StepRecord(
                step=obj["step"],
                block_start=g,
                block_end=end,
                block_size=size,
                evaluated=tuple(positions),
                predicted=tuple(map(pred_row.__getitem__, computed)),
                confidence=tuple(map(conf_row.__getitem__, computed)),
                sampled=tuple(obj["sampled"]) if "sampled" in obj else None,
                masked_before=tuple(obj["masked"]) if "masked" in obj else None,
                cache=cache,
                computed=computed,
            )
        )
    return records


def read_trace_file(path: str | Path) -> TraceFileData:
    """Parse a trace file eagerly, reporting the first malformed line.

    Each step line becomes a :class:`StepRecord` of the values it changed,
    as the decoder records its steps.
    """
    path = Path(path)
    # no newline translation: a line ends at "\n" alone, and json reads a "\r"
    # before it as whitespace
    lines = path.read_bytes().decode("utf-8").split("\n")
    if not lines[-1]:
        lines.pop()  # the newline that ends the last line
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

    records = _text_records(lines[1:], L, vocab)
    if records is None:
        records = _json_records(lines[1:], L, vocab, bad)
    trace = DecodeTrace(prompt_len=header["prompt_len"], gen_budget=L,
                        mask_id=header["mask_id"], steps=tuple(records))
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
    for rec, predicted, confidence in trace.rows():
        if not pred_text:
            pred_text = list(map(_json_text, predicted))
            conf_text = list(map(_json_text, confidence))
        else:
            for p in rec.changed:
                pred_text[p] = _json_text(predicted[p])
                conf_text[p] = _json_text(confidence[p])
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
    """The decode trace held by a file.

    Requires the extended per-step fields; files holding only the required
    schema keys carry too little to reconstruct sampling decisions.
    """
    for rec in data.trace.steps:
        if None in (rec.block_end, rec.sampled, rec.masked_before, rec.cache):
            raise TraceFormatError(
                "trace lacks the extended per-step fields needed for analysis"
            )
    return data.trace
