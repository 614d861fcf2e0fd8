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
g]`` or a ``cache`` that names no cache policy, and a header ``config`` whose
``gen_budget`` is not the header's or whose delimiters fall outside the
header's vocabulary or name its mask.  Every value of every line
is checked, even one that repeats the value its position already holds: a
text the position held before was checked when it was first read, and a
value written another way (a float token ``3.0``) is checked anew.

Lines end at a line feed alone: a carriage return before it is JSON
whitespace, and a character such as U+2028, which a JSON string may hold
raw, ends no line.

The format holds no record of which values changed, and needs none: a line
repeats every evaluated value.  Both sides recover the changes instead.  The
writer keeps each position's formatted text and formats only a record's own
values, those at its ``computed`` positions; the reader keeps each
position's last ``pred`` and ``conf`` text and makes each line a record of
the positions whose text differs, and their values alone (see
:class:`~semiar.core.StepRecord`), so a replay, ``analyze`` and a rewrite
look only at those.

The reader works the writer's way in reverse, one step line at a time.  A
line in the writer's exact layout is read from its text, and only the texts
that differ are parsed, a value accepted only in the one form the writer
prints it.  Any other line, or one holding a value that does not fit, is
parsed by ``json.loads``, which alone words the errors, and its values are
turned into the writer's texts.  Every line then meets the same text
comparison, so a file gives the same records, or the same error, however
each of its lines is read.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import compress
from math import isfinite
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
    delimiter_error,
    prompt_error,
    read_utf8,
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
    if not isinstance(header.get("config", {}), dict | None):
        return "config must be a JSON object"
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


def _split(text: str) -> list[str]:
    """The value texts of an array's text as ``write_trace`` joins them."""
    return text.split(", ") if text else []


class _PositionOf(dict):
    """The position each canonical text of an int in ``[0, L)`` names, each
    entered on its first lookup, so a read costs what the file holds and not
    what ``L`` says; any other text raises ``KeyError``."""

    def __init__(self, L: int) -> None:
        super().__init__()
        self.longest = len(str(L - 1))
        self.L = L

    def __missing__(self, text: str) -> int:
        if (text.isascii() and text.isdigit() and len(text) <= self.longest
                and (text == "0" or text[0] != "0") and int(text) < self.L):
            self[text] = position = int(text)
            return position
        raise KeyError(text)


def _lookup(text: str, value_of: dict[str, int]) -> tuple[int, ...]:
    """The values of an array's text; a text ``value_of`` lacks raises KeyError."""
    return tuple(map(value_of.__getitem__, _split(text)))


def _less(
    text: str, values: tuple[int, ...], commits: tuple[int, ...],
) -> tuple[str, tuple[int, ...]]:
    """``values`` less the first occurrence of each commit among them, with
    that tuple's text.  ``text`` must be the text ``write_trace`` joins for
    ``values``: no value text holds ", ", so in ``", {text}, "`` the first
    ``", p, "`` is the first p."""
    padded, kept = f", {text}, ", list(values)
    for p in commits:
        if p in kept:
            kept.remove(p)
            padded = padded.replace(f", {p}, ", ", ", 1)
    return padded[2:-2], tuple(kept)


def _loads(text: str, lineno: int, bad: Callable[[int, str], TraceFormatError]) -> object:
    """``json.loads(text)``, raising ``bad(lineno, why)`` when it cannot be read."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise bad(lineno, f"invalid JSON ({exc.msg})") from exc
    except (ValueError, RecursionError) as exc:  # an int past Python's digit limit, deep nesting
        raise bad(lineno, f"unreadable JSON ({exc})") from exc


def _json_line(
    line: str, lineno: int, step: int, L: int, vocab_size: int,
    bad: Callable[[int, str], TraceFormatError],
) -> tuple[dict, tuple[int, ...], str, list[str]]:
    """One step line read by ``json.loads``, each malformed value raising
    ``bad(lineno, why)``; ``step`` is the number it must carry.  Returns the
    object, its positions once each (a repeated one keeps its last value, as
    in :meth:`~semiar.core.PredictionFrame.merge`) and their values as the
    texts :func:`write_trace` prints: the ``pred`` texts joined, the ``conf``
    texts listed.
    """
    obj = _loads(line, lineno, bad)
    if not isinstance(obj, dict):
        raise bad(lineno, "step record must be a JSON object")
    for key in _RECORD_REQUIRED:
        if key not in obj:
            raise bad(lineno, f"record missing key {key!r}")
    for key in ("positions", "pred", "conf", "sampled", "masked"):
        if key in obj and not isinstance(obj[key], list):
            raise bad(lineno, f"{key!r} must be a JSON array")
    positions, pred, conf = obj["positions"], obj["pred"], obj["conf"]
    if not (len(positions) == len(pred) == len(conf)):
        raise bad(lineno, "positions/pred/conf arrays are not index-aligned")
    if not (type(obj["step"]) is int and type(obj["g"]) is int):
        raise bad(lineno, "step and g must be integers")
    if obj["step"] != step:
        raise bad(lineno, f"step {obj['step']} should be {step}; steps count from 0")
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
    if wrong := _invalid(pred, 0, vocab_size - 1, _INT):
        raise bad(lineno, f"token {wrong[0]!r} is not an integer in [0, {vocab_size})")
    if wrong := _invalid(conf, 0.0, 1.0, _NUMBER):
        raise bad(lineno, f"confidence {wrong[0]!r} is not a number in [0, 1]")
    last = {p: (str(token), repr(float(c))) for p, token, c in zip(positions, pred, conf)}
    return (obj, tuple(last), ", ".join(token for token, _ in last.values()),
            [c for _, c in last.values()])


def _step_records(
    lines: list[str], L: int, vocab: Vocabulary, bad: Callable[[int, str], TraceFormatError],
) -> list[StepRecord]:
    """The records of the step lines ``lines``, which start at line 2.

    A line in the writer's layout is read from its text, a changed value only
    in the form :func:`write_trace` prints it; its positions must ascend, as
    every evaluation scope's do, so none repeats.  Any other line is read by
    :func:`_json_line`.  Each position keeps its last ``pred`` and ``conf``
    text, and a record holds the positions whose texts differ, a zero whose
    sign flipped included, and their values.
    """
    fullmatch = re.compile(_WRITTEN_STEP).fullmatch
    position_of = _PositionOf(L)
    token_of = {str(t): t for t in range(vocab.size)}
    # each position's last pred and conf text, up to the highest position read;
    # no value's text is "]", so the first value read at a position differs
    pred_text, conf_text = [], []
    # the last positions read from a line's text, and that text
    layout_positions, layout_text = (), ""
    # the previous record's masked positions and commits, and the text of
    # those positions ("]", which no array text is, after a json.loads line)
    masked_before: tuple[int, ...] | None = ()
    sampled: tuple[int, ...] | None = ()
    masked_before_text = ""
    records: list[StepRecord] = []
    for lineno, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        # read from its text when it has the writer's layout, else by json.loads
        for written in (fullmatch(line), None):
            if written is None:
                obj, positions, preds, confs = _json_line(
                    line, lineno, len(records), L, vocab.size, bad)
                step, g, evaluated = obj["step"], obj["g"], tuple(obj["positions"])
                end, size, cache = obj.get("block_end"), obj.get("B"), obj.get("cache")
                sampled_now = tuple(obj["sampled"]) if "sampled" in obj else None
                masked_now = tuple(obj["masked"]) if "masked" in obj else None
                masked_text = "]"
                top = max(positions, default=-1)
            else:
                (step, g, evaluated_text, preds, confs, size, end, sampled_text, masked_text,
                 cache) = written.groups()
                try:
                    step, g = int(step), int(g)
                    size = None if size == "null" else int(size)
                    end = None if end == "null" else int(end)
                    if not (step == len(records) and g < L and (end is None or g < end <= L)
                            and (size is None or 1 <= size <= L - g)):
                        continue
                    # the writer's positions and masked positions are mostly
                    # the previous ones less their commits: one text comparison
                    # then stands for mapping every text
                    commits = sampled or ()
                    if evaluated_text != layout_text:
                        expected, positions = _less(layout_text, layout_positions, commits)
                        if evaluated_text != expected:
                            positions = _lookup(evaluated_text, position_of)
                            if not all(map(lt, positions, positions[1:])):
                                continue
                        layout_positions, layout_text = positions, evaluated_text
                    positions = evaluated = layout_positions
                    top = positions[-1] if positions else -1
                    confs = _split(confs)
                    if len(confs) != len(positions):
                        continue
                    if masked_text == evaluated_text:
                        masked_now = positions
                    else:
                        expected, masked_now = _less(masked_before_text, masked_before or (),
                                                     commits)
                        if masked_text != expected:
                            masked_now = _lookup(masked_text, position_of)
                    sampled_now = _lookup(sampled_text, position_of)
                except (KeyError, ValueError):  # a text that does not fit, an int too long
                    continue
            if top >= len(pred_text):
                pred_text += ["]"] * (top + 1 - len(pred_text))
                conf_text += ["]"] * (top + 1 - len(conf_text))
            changed = map(ne, confs, map(conf_text.__getitem__, positions))
            # most lines change no token: one join then stands for every comparison
            tokens_changed = preds != ", ".join(map(pred_text.__getitem__, positions))
            if tokens_changed:
                preds = _split(preds)
                if len(preds) != len(positions):
                    continue
                changed = map(or_, changed, map(ne, preds, map(pred_text.__getitem__, positions)))
            changed = list(changed)
            computed = tuple(compress(positions, changed))
            new_confs = list(compress(confs, changed))
            new_preds = list(compress(preds, changed)) if tokens_changed else []
            # every changed value is checked before any running text is written
            if not all(map(token_of.__contains__, new_preds)):
                continue
            try:
                confidence = []
                for text in new_confs:
                    value = float(text)
                    if not (0.0 <= value <= 1.0 and repr(value) == text):
                        raise ValueError(text)
                    confidence.append(value)
            except (KeyError, ValueError):
                continue
            break
        for p, text in zip(computed, new_confs):
            conf_text[p] = text
        for p, text in zip(computed, new_preds):
            pred_text[p] = text
        masked_before, sampled, masked_before_text = masked_now, sampled_now, masked_text
        records.append(
            StepRecord(
                step=step,
                block_start=g,
                block_end=end,
                block_size=size,
                evaluated=evaluated,
                predicted=tuple(map(token_of.__getitem__, map(pred_text.__getitem__, computed))),
                confidence=tuple(confidence),
                sampled=sampled,
                masked_before=masked_before,
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
    lines = read_utf8(path, TraceFormatError, newlines=False).split("\n")
    if not lines[-1]:
        lines.pop()  # the newline that ends the last line
    if not lines:
        raise TraceFormatError(f"{path}: line 1: missing header")

    def bad(lineno: int, why: str) -> TraceFormatError:
        return TraceFormatError(f"{path}: line {lineno}: {why}")

    header = _loads(lines[0], 1, bad)
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
        if config is not None and config.gen_budget != header["gen_budget"]:
            raise ValueError(f"gen_budget {config.gen_budget} is not the header's "
                             f"{header['gen_budget']}")
        if config is not None and (why := delimiter_error(config.delimiters, vocab)):
            raise ValueError(why)
    except (TypeError, ValueError) as exc:
        raise bad(1, f"invalid config ({exc})") from exc
    L = header["gen_budget"]

    records = _step_records(lines[1:], L, vocab, bad)
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
    # the text of each position's value in the dense rows (DecodeTrace.rows)
    pred_text = [_json_text(trace.mask_id)] * trace.gen_budget
    conf_text = [_json_text(SENTINEL_CONFIDENCE)] * trace.gen_budget
    for rec in trace.steps:
        for p, token, c in zip(rec.computed, rec.predicted, rec.confidence):
            pred_text[p] = _json_text(token)
            conf_text[p] = _json_text(c)
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
    if data.trace.first_minimal_step() is not None:
        raise TraceFormatError("trace lacks the extended per-step fields needed for analysis")
    return data.trace
