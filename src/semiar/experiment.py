"""Experiment harness: sweep decode configurations, record traces, aggregate results.

Experiment specs are INI-style text files.  ``[experiment]`` holds run-wide
settings, ``[predictor]`` describes the denoiser backend, and every
``[cell NAME]`` section describes one family of decode configurations.  Cell
keys mirror :class:`~semiar.core.DecodeConfig` fields; a comma-separated
value sweeps that key, and the section expands to the cross-product of all
swept keys.  ``seed`` is set only in ``[experiment]``, and delimiters only
through ``delimiter_tokens``.  Example::

    [experiment]
    seed = 7
    repetitions = 5
    prompt = corpus:4

    [predictor]
    kind = ngram
    corpus = corpus.txt
    order = 3
    smoothing = 0.01

    [cell sweep]
    gen_budget = 64
    max_steps = 64
    b0 = 16,32,64
    scheduler = fixed,adaptive
    delimiter_tokens = \n

Each run derives its seed from the experiment seed plus the cell and
repetition indices, so paired comparisons across cells reuse identical
streams.  Aggregate rows are ordered by cell then repetition regardless of
worker scheduling, and nothing in the outputs depends on wall-clock time, so
re-running a spec reproduces the files byte for byte.

:func:`run` and :func:`analyze` share one ``jobs`` parameter.  At ``1`` they
work in this process; above it, in a pool of that many worker processes; at
``None``, on as many workers as this process may use CPUs, never more than
there are tasks.  A worker gets only plain data (the spec, paths, floats),
writes its run's or its trace's files itself and returns only what the parent
aggregates: a run's :class:`RunCounts`, never its trace or failure events, and
a trace's ``failures.csv`` row.  The parent logs failed runs and skipped traces
in task order, so the outputs and the log are the same at every ``jobs``.
Each process builds an ``ngram`` or ``trace`` predictor once per :func:`run`
call and a ``synthetic`` one per run (see :func:`_run_predictor`); the
predictors' memos are exact, so reuse changes no output.
"""

from __future__ import annotations

import configparser
import itertools
import logging
import os
from dataclasses import dataclass, fields, replace
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, get_type_hints

from . import metrics, tracefile
from .core import (
    REQUIRED_CONFIG_KEYS,
    DecodeConfig,
    Vocabulary,
    config_value_error,
    delimiter_error,
    parse_config_value,
    prompt_error,
    read_utf8,
)
from .decoder import DecodeResult, decode, write_summary
from .predictors import (
    MaskPredictor,
    SyntheticFieldParams,
    build_ngram,
    build_synthetic,
    load_trace_predictor,
    ngram_option_error,
)
from .seeding import mix_seed, unit_draw

log = logging.getLogger("semiar.experiment")

AGGREGATE_COLUMNS = [
    "cell",
    "scheduler",
    "sampler",
    "cache",
    "b0",
    "tau_d",
    "seed",
    "steps",
    "nfe",
    "position_evals",
    "late_overhead_rate",
    "premature_rate",
    "mean_block_size",
    "completed",
]


@dataclass(frozen=True)
class PredictorSpec:
    kind: str  # synthetic | ngram | trace
    options: dict[str, Any]


@dataclass(frozen=True)
class PromptSpec:
    kind: str  # literal | corpus
    tokens: tuple[int, ...] = ()
    length: int = 4


@dataclass(frozen=True)
class Cell:
    cell_id: str
    config: DecodeConfig
    # cells expanded from one [cell] section share this index, so their runs
    # draw identical seed streams and stay pairwise comparable
    section_index: int = 0


@dataclass(frozen=True)
class ExperimentSpec:
    seed: int
    repetitions: int
    predictor: PredictorSpec
    prompt: PromptSpec
    cells: tuple[Cell, ...]
    out_dir: Path


def _section_values(
    section: str, items: Mapping[str, str], types: dict[str, Callable[[str], Any]]
) -> dict[str, Any]:
    """Convert a spec section's values; errors name ``[section] key``."""
    if unknown := sorted(items.keys() - types.keys()):
        settable = (key for key, tp in types.items() if not isinstance(tp, _Reserved))
        raise ValueError(f"[{section}] {unknown[0]}: unknown key; "
                         f"expected one of {', '.join(sorted(settable))}")
    values = {}
    for key, raw in items.items():
        try:
            values[key] = types[key](raw)
        except (KeyError, ValueError) as exc:  # KeyError: Vocabulary.id_of
            raise ValueError(f"[{section}] {key}: {exc.args[0]}") from None
    return values


@dataclass(frozen=True)
class _Reserved:
    """The converter of a key its section may not set: it says where to set it."""

    instead: str

    def __call__(self, raw: str) -> Any:
        raise ValueError(f"reserved key; {self.instead}")


def _swept(key: str, raw: str) -> list[Any]:
    """The values a cell key sweeps; a range error names the value."""
    values = []
    for text in raw.split(","):
        value = parse_config_value(key, text)
        if why := config_value_error(key, value):
            raise ValueError(f"{text.strip()}: {why}")
        values.append(value)
    return values


def _parse_cell_section(
    name: str, section: configparser.SectionProxy, vocab: Vocabulary
) -> list[tuple[str, DecodeConfig]]:
    """Expand one [cell] section into (cell_id, config) combos.

    A key is any :class:`DecodeConfig` field but the reserved ones: the comma
    separates swept values, so delimiters come from whitespace-separated
    ``delimiter_tokens``, and each run derives its own seed.  Each key reads
    as the list of values it sweeps; the combos are their cross-product, and a
    cell id names the keys that take more than one value.
    """
    types: dict[str, Callable[[str], Any]] = {
        field.name: partial(_swept, field.name) for field in fields(DecodeConfig)
    }
    types["seed"] = _Reserved("runs derive it from [experiment] seed")
    types["delimiters"] = _Reserved("name them through delimiter_tokens")

    def delimiter_tokens(raw: str) -> list[frozenset[int]]:
        ids = frozenset(vocab.id_of(tok.replace("\\n", "\n")) for tok in raw.split())
        if why := delimiter_error(ids, vocab):
            raise ValueError(why)
        return [ids]

    types["delimiter_tokens"] = delimiter_tokens
    values = _section_values(section.name, section, types)
    for key in REQUIRED_CONFIG_KEYS:
        if key not in values:
            raise ValueError(f"[{section.name}] {key}: required")
    if "delimiter_tokens" in values:
        values["delimiters"] = values.pop("delimiter_tokens")
    keys = sorted(values)
    combos: list[tuple[str, DecodeConfig]] = []
    for combo in itertools.product(*(values[k] for k in keys)):
        suffix = "-".join(f"{k}={v}" for k, v in zip(keys, combo) if len(values[k]) > 1)
        combos.append((f"{name}.{suffix}" if suffix else name,
                       DecodeConfig(**dict(zip(keys, combo)))))
    return combos


def _ngram_option(tp: Callable[[str], Any], name: str) -> Callable[[str], Any]:
    """A converter to ``tp`` that rejects what :func:`build_ngram` would for ``name``."""
    def convert(raw: str) -> Any:
        if why := ngram_option_error(name, value := tp(raw)):
            raise ValueError(why)
        return value
    return convert


def _boolean(raw: str) -> bool:
    if raw.lower() not in ("true", "false"):
        raise ValueError(f"expected true or false, got {raw!r}")
    return raw.lower() == "true"


#: The [predictor] keys each kind reads in :func:`build_predictor`, besides
#: ``kind``, with their value types.  Synthetic keys are the field parameters;
#: each run sets its own noise seed.
_PREDICTOR_KEYS: dict[str, dict[str, Callable[[str], Any]]] = {
    "synthetic": {key: tp for key, tp in get_type_hints(SyntheticFieldParams).items()
                  if key != "noise_seed"},
    "ngram": {"corpus": str, "order": _ngram_option(int, "order"),
              "smoothing": _ngram_option(float, "smoothing_k"), "char_mode": _boolean},
    "trace": {"path": str},
}
#: The [predictor] key each kind cannot do without.
_REQUIRED_PREDICTOR_KEY = {"ngram": "corpus", "trace": "path"}


def build_predictor(spec: PredictorSpec, seed: int) -> MaskPredictor:
    """Instantiate a predictor backend for one run from parsed options."""
    opts = spec.options
    if spec.kind == "synthetic":
        return build_synthetic(SyntheticFieldParams(**opts, noise_seed=seed))
    if spec.kind == "ngram":
        corpus = read_utf8(opts["corpus"])
        return build_ngram(
            corpus,
            order=opts.get("order", 3),
            smoothing_k=opts.get("smoothing", 0.01),
            char_mode=opts.get("char_mode", False),
        )
    if spec.kind == "trace":
        return load_trace_predictor(opts["path"])
    raise ValueError(f"unknown predictor kind {spec.kind!r}")


def _prompt_spec(raw: str) -> PromptSpec:
    kind, _, arg = raw.partition(":")
    if kind == "literal":
        tokens = tuple(int(t) for t in arg.split())
        if not tokens:
            raise ValueError("literal prompt must list at least one token id")
        return PromptSpec("literal", tokens=tokens)
    if kind == "corpus":
        length = int(arg or "4")
        if length < 1:
            raise ValueError(f"corpus prompt length {length} is below 1")
        return PromptSpec("corpus", length=length)
    raise ValueError(f"unknown prompt source {raw!r}")


def _repetitions(raw: str) -> int:
    if (count := int(raw)) < 1:
        raise ValueError(f"must be >= 1, got {count}")
    return count


#: The [experiment] keys :func:`parse_spec` reads, with their value types.
_EXPERIMENT_KEYS = {"seed": int, "repetitions": _repetitions, "out": Path,
                    "prompt": _prompt_spec}


def parse_spec(
    text: str, out_dir: Path | None = None, source: str = "<string>"
) -> ExperimentSpec:
    """Parse spec text; ``source`` names it in INI syntax errors."""
    # no section header can name a newline, so [DEFAULT] reads as an ordinary
    # section and is rejected like any other unknown one
    parser = configparser.ConfigParser(default_section="\n", interpolation=None)
    parser.optionxform = str.lower  # type: ignore[assignment]
    parser.read_string(text, source)

    if "experiment" not in parser:
        raise ValueError("spec is missing the [experiment] section")
    exp = _section_values("experiment", parser["experiment"], _EXPERIMENT_KEYS)
    seed, repetitions = exp.get("seed", 0), exp.get("repetitions", 1)
    out = out_dir or exp.get("out", Path("runs"))
    prompt = exp.get("prompt", PromptSpec("literal", tokens=(0,)))

    if "predictor" not in parser:
        raise ValueError("spec is missing the [predictor] section")
    pred_section = dict(parser["predictor"])
    pred_kind = pred_section.pop("kind", None)
    if pred_kind not in _PREDICTOR_KEYS:
        raise ValueError(f"[predictor] kind: expected synthetic, ngram or trace; "
                         f"got {pred_kind!r}")
    options = _section_values("predictor", pred_section, _PREDICTOR_KEYS[pred_kind])
    required = _REQUIRED_PREDICTOR_KEY.get(pred_kind)
    if required is not None and required not in options:
        raise ValueError(f"[predictor] {required}: required for kind = {pred_kind}")
    predictor = PredictorSpec(pred_kind, options)

    # the predictor options, prompt and cells are validated against a probe
    # predictor so bad specs fail up front, not in every run
    try:
        probe = build_predictor(predictor, seed)
    except (OSError, UnicodeError, tracefile.TraceFormatError) as exc:
        # only the file the kind's required key names is ever read
        raise ValueError(f"[predictor] {required}: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"[predictor] {exc}") from None
    try:
        why = prompt_error(resolve_prompt(prompt, probe, seed),
                           probe.vocabulary.size, probe.vocabulary.mask_id)
    except ValueError as exc:
        why = str(exc)
    if why:
        raise ValueError(f"[experiment] prompt: {why}")
    cells: list[Cell] = []
    section_of: dict[str, str] = {}  # cell id -> the section that yields it
    others = [name for name in parser.sections() if name not in ("experiment", "predictor")]
    for section_index, section_name in enumerate(others):
        if not section_name.startswith("cell"):
            raise ValueError(f"unknown section [{section_name}]; "
                             "expected [experiment], [predictor] or [cell NAME]")
        name = section_name[4:].strip() or "cell"
        # a cell's runs write under out_dir / cell_id
        if name in (".", "..") or "/" in name or "\\" in name:
            raise ValueError(f"[{section_name}]: cell name {name!r} must be one "
                             "path component, not '.', '..' or one holding / or \\")
        for cell_id, config in _parse_cell_section(
            name, parser[section_name], probe.vocabulary
        ):
            if cell_id in section_of:
                raise ValueError(f"[{section_name}]: cell id {cell_id!r} is already "
                                 f"taken by [{section_of[cell_id]}]; their runs "
                                 "would share files")
            section_of[cell_id] = section_name
            cells.append(Cell(cell_id, config, section_index))
    if not cells:
        raise ValueError("spec defines no [cell] sections")

    return ExperimentSpec(
        seed=seed,
        repetitions=repetitions,
        predictor=predictor,
        prompt=prompt,
        cells=tuple(cells),
        out_dir=Path(out),
    )


def load_spec(path: str | Path, out_dir: Path | None = None) -> ExperimentSpec:
    return parse_spec(read_utf8(path), out_dir, str(path))


def _corpus_prompt(
    predictor: MaskPredictor, length: int, run_seed: int
) -> tuple[int, ...]:
    """A contiguous window of corpus tokens, start position chosen by the seed."""
    model = getattr(predictor, "model", None)
    seq = getattr(model, "corpus_ids", ()) if model is not None else ()
    if len(seq) < length:
        raise ValueError(f"corpus:{length} needs a predictor corpus of at least "
                         f"{length} tokens; this one has {len(seq)}")
    start = int(unit_draw(run_seed, "prompt") * (len(seq) - length + 1))
    return tuple(seq[start : start + length])


def resolve_prompt(
    spec: PromptSpec, predictor: MaskPredictor, run_seed: int
) -> tuple[int, ...]:
    if spec.kind == "literal":
        return spec.tokens
    return _corpus_prompt(predictor, spec.length, run_seed)


@dataclass(frozen=True)
class RunCounts:
    """The numbers ``aggregate.csv`` and ``semiar run``'s cell lines read of a
    run; its trace and failure events stay in the run's trace file."""

    steps_used: int
    denoise_calls: int
    position_evaluations: int
    mean_block_size: float
    completed: bool
    late_overhead_steps: int
    premature_steps: int


@dataclass(frozen=True)
class RunOutcome:
    cell: Cell
    repetition: int
    run_seed: int
    result: RunCounts | None
    error: str | None = None


def write_run(
    stem: Path,
    result: DecodeResult,
    vocab: Vocabulary,
    prompt: tuple[int, ...],
    config: DecodeConfig,
) -> None:
    """Write one decode's ``<stem>.trace.jsonl`` and ``<stem>.summary.json``,
    creating ``stem``'s directory."""
    stem.parent.mkdir(parents=True, exist_ok=True)
    tracefile.write_trace(f"{stem}.trace.jsonl", result.trace, vocab,
                          prompt=prompt, config=config)
    write_summary(f"{stem}.summary.json", result, vocab)


#: The ``ngram`` or ``trace`` predictor this process built during the
#: :func:`run` call in progress, with the spec it was built from; None
#: between calls, so every call reads its corpus or trace file anew.
_reused: tuple[PredictorSpec, MaskPredictor] | None = None


def _run_predictor(spec: PredictorSpec, run_seed: int) -> MaskPredictor:
    """One run's predictor.  A ``synthetic`` one is built per run, since its
    noise seed is the run seed.  The other kinds read no seed, so each is
    built once per :func:`run` call in a process, and a ``trace`` replayer is
    forked per run so that every run replays from the first record.  A build
    that raises is not kept."""
    global _reused
    if spec.kind == "synthetic":
        return build_predictor(spec, run_seed)
    held = _reused
    if held is None or held[0] != spec:
        held = _reused = spec, build_predictor(spec, run_seed)
    return held[1].fork() if spec.kind == "trace" else held[1]


def _execute_run(
    spec: ExperimentSpec, cell_index: int, repetition: int
) -> RunOutcome:
    """Decode one run and write its files; a failure becomes the outcome's
    ``error``, which the caller logs."""
    cell = spec.cells[cell_index]
    run_seed = mix_seed(spec.seed, cell.section_index, repetition)
    try:
        predictor = _run_predictor(spec.predictor, run_seed)
        config = replace(cell.config, seed=run_seed)
        prompt = resolve_prompt(spec.prompt, predictor, run_seed)
        result = decode(predictor, config, prompt)
        report = metrics.failure_rates(result.trace, config.tau)
        write_run(spec.out_dir / cell.cell_id / f"rep{repetition:03d}",
                  result, predictor.vocabulary, prompt, config)
        blocks = result.blocks
        counts = RunCounts(result.steps_used, result.denoise_calls,
                           result.position_evaluations,
                           sum(d.block_size for d in blocks) / len(blocks) if blocks else 0.0,
                           result.completed, report.late_overhead_steps, report.premature_steps)
        return RunOutcome(cell, repetition, run_seed, counts)
    except Exception as exc:  # cell isolation: one failure must not sink the sweep
        return RunOutcome(cell, repetition, run_seed, None, error=str(exc))


def _aggregate_row(oc: RunOutcome) -> list[Any]:
    """A successful run's ``aggregate.csv`` row, in :data:`AGGREGATE_COLUMNS` order."""
    cfg, result = oc.cell.config, oc.result
    return [oc.cell.cell_id, cfg.scheduler, cfg.sampler, cfg.cache, cfg.b0, cfg.tau_d,
            oc.run_seed, result.steps_used, result.denoise_calls,
            result.position_evaluations, result.late_overhead_steps / result.steps_used,
            result.premature_steps / result.steps_used, result.mean_block_size,
            int(result.completed)]


def _workers(jobs: int | None, tasks: int) -> int:
    """How many processes work on ``tasks``: ``jobs``, or at None the CPUs
    this process may use, never more than the tasks."""
    if jobs is None:
        jobs = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
    elif jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return max(1, min(jobs, tasks))


def _map(workers: int, func: Callable[..., Any], *iterables: Iterable[Any]) -> Iterator[Any]:
    """``map(func, *iterables)``, in this process at one worker, else in a
    pool of ``workers`` processes; results come in task order either way."""
    if workers == 1:
        yield from map(func, *iterables)
        return
    # imported here, not with the package, whose import it would slow by tens of ms
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(func, *iterables)


def run(spec: ExperimentSpec, jobs: int | None = None) -> tuple[list[RunOutcome], Path]:
    """Execute every cell and repetition on ``jobs`` workers (see the module
    docstring); returns outcomes and the CSV path."""
    global _reused
    tasks = list(itertools.product(range(len(spec.cells)), range(spec.repetitions)))
    workers = _workers(jobs, len(tasks))
    spec.out_dir.mkdir(parents=True, exist_ok=True)
    outcomes = []
    _reused = None  # before the pool forks, so no worker inherits a stale one
    try:
        for oc in _map(workers, partial(_execute_run, spec), *zip(*tasks)):
            if oc.error is not None:
                log.error("cell %s rep %d failed: %s", oc.cell.cell_id, oc.repetition, oc.error)
            outcomes.append(oc)
    finally:
        _reused = None

    csv_path = spec.out_dir / "aggregate.csv"
    metrics.write_csv(csv_path, AGGREGATE_COLUMNS,
                      (_aggregate_row(oc) for oc in outcomes if oc.error is None))
    return outcomes, csv_path


def _analyze_one(
    trace_dir: Path, out: Path, tau_hi: float, tau_lo: float, persistence_k: int,
    rel: Path, name: str,
) -> list[Any] | str:
    """Read the trace at ``trace_dir / rel`` and write its three reports as
    ``out / name``; returns its ``failures.csv`` row, or why it was skipped."""
    try:
        data = tracefile.read_trace_file(trace_dir / rel)
        trace = tracefile.trace_from_file(data)
        cfg = data.config
        report = metrics.failure_rates(trace, cfg.tau if cfg else DecodeConfig.tau)
        labels = metrics.segment_regimes(trace, tau_hi, tau_lo, persistence_k)
    except Exception as exc:
        return str(exc)
    widths = metrics.vb_width_series(labels)
    stem = out / name
    metrics.write_step_report(f"{stem}.steps.csv", trace, report, widths)
    metrics.write_heatmap(f"{stem}.heatmap.csv", trace)
    metrics.write_regime_labels(f"{stem}.regimes.csv", labels)
    return [
        str(rel),
        *((cfg.scheduler, cfg.sampler, cfg.cache, cfg.b0) if cfg else [""] * 4),
        len(trace),
        report.late_overhead_rate,
        report.premature_rate,
        sum(widths) / len(widths),
    ]


def analyze(
    trace_dir: str | Path,
    out_dir: str | Path | None = None,
    tau_hi: float = metrics.TAU_HI,
    tau_lo: float = metrics.TAU_LO,
    persistence_k: int = metrics.PERSISTENCE_K,
    jobs: int | None = None,
) -> Path:
    """Post-process every trace file under ``trace_dir`` into report CSVs, on
    ``jobs`` workers (see the module docstring).

    Failure events are detected at each trace's recorded ``tau``, as the run
    that wrote it did for ``aggregate.csv``; a trace without a recorded config
    uses :class:`DecodeConfig`'s default.  A trace's reports are named after
    its path with ``/`` as ``__``; two traces that would share a name raise
    ``ValueError`` before anything is written.  A trace that cannot be read or
    labelled is logged and skipped.
    """
    metrics.check_regime_params(tau_hi, tau_lo, persistence_k)
    trace_dir = Path(trace_dir)
    out = Path(out_dir) if out_dir is not None else trace_dir / "analysis"
    paths = sorted(trace_dir.rglob("*.trace.jsonl"))
    workers = _workers(jobs, len(paths))
    if not paths:
        raise FileNotFoundError(f"no trace files under {trace_dir}")
    stems: dict[str, Path] = {}  # report name -> the trace it belongs to
    for path in paths:
        rel = path.relative_to(trace_dir)
        name = str(rel).replace("/", "__").replace(".trace.jsonl", "")
        if name in stems:
            raise ValueError(f"{rel}: report name {name!r} is already taken by "
                             f"{stems[name]}; their reports would share files")
        stems[name] = rel
    out.mkdir(parents=True, exist_ok=True)

    rows = []
    analyze_one = partial(_analyze_one, trace_dir, out, tau_hi, tau_lo, persistence_k)
    for rel, row in zip(stems.values(), _map(workers, analyze_one, stems.values(), stems)):
        if isinstance(row, str):
            log.warning("skipping %s: %s", trace_dir / rel, row)
        else:
            rows.append(row)

    summary_path = out / "failures.csv"
    metrics.write_csv(summary_path, ["trace", "scheduler", "sampler", "cache", "b0", "steps",
                                     "late_overhead_rate", "premature_rate", "mean_vb_width"],
                      rows)
    return summary_path
