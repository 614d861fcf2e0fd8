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
"""

from __future__ import annotations

import configparser
import csv
import itertools
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Mapping, get_type_hints

from . import metrics, tracefile
from .core import (
    REQUIRED_CONFIG_KEYS,
    DecodeConfig,
    Vocabulary,
    parse_config_value,
    prompt_error,
)
from .decoder import DecodeResult, decode, write_summary
from .predictors import (
    MaskPredictor,
    SyntheticFieldParams,
    build_ngram,
    build_synthetic,
    load_trace_predictor,
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

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if not self.cells:
            raise ValueError("an experiment needs at least one cell")


# DecodeConfig fields a cell may not set, and where to set them instead
_RESERVED_CELL_KEYS = {
    "seed": "runs derive it from [experiment] seed",
    "delimiters": "name them through delimiter_tokens",
}


def _parse_cell_section(
    name: str, section: configparser.SectionProxy, vocab: Vocabulary
) -> list[tuple[str, DecodeConfig]]:
    """Expand one [cell] section into (cell_id, config) combos.

    A key is any :class:`DecodeConfig` field but the reserved ones: the comma
    separates swept values, so delimiters come from whitespace-separated
    ``delimiter_tokens``, and each run derives its own seed.  Errors name
    ``[cell NAME] key``.
    """
    fixed: dict[str, Any] = {}
    swept: dict[str, list[Any]] = {}
    where = f"[{section.name}]"
    for key, raw in section.items():
        if key in _RESERVED_CELL_KEYS:
            raise ValueError(f"{where} {key}: reserved key; {_RESERVED_CELL_KEYS[key]}")
        if key == "delimiter_tokens":
            try:
                fixed["delimiters"] = frozenset(
                    vocab.id_of(tok.replace("\\n", "\n")) for tok in raw.split()
                )
            except KeyError as exc:
                raise ValueError(f"{where} {key}: {exc.args[0]}") from None
            continue
        try:
            values = [parse_config_value(key, v) for v in raw.split(",")]
        except KeyError:
            raise ValueError(f"{where} {key}: unknown key; expected a decode config "
                             "field or delimiter_tokens") from None
        except ValueError as exc:  # already names the key
            raise ValueError(f"{where} {exc}") from None
        if len(values) == 1:
            fixed[key] = values[0]
        else:
            swept[key] = values
    for key in REQUIRED_CONFIG_KEYS:
        if key not in fixed and key not in swept:
            raise ValueError(f"{where} {key}: required")

    combos: list[tuple[str, DecodeConfig]] = []
    swept_keys = sorted(swept)
    for combo in itertools.product(*(swept[k] for k in swept_keys)):
        suffix = "-".join(f"{k}={v}" for k, v in zip(swept_keys, combo))
        try:
            config = DecodeConfig(**fixed, **dict(zip(swept_keys, combo)))
            config.validate_against(vocab)
        except ValueError as exc:
            raise ValueError(f"{where} {exc}") from None
        combos.append((f"{name}.{suffix}" if suffix else name, config))
    return combos


def _section_values(
    section: str, items: Mapping[str, str], types: dict[str, Callable[[str], Any]]
) -> dict[str, Any]:
    """Convert a spec section's values; errors name ``[section] key``."""
    if unknown := sorted(items.keys() - types.keys()):
        raise ValueError(f"[{section}] {unknown[0]}: unknown key; "
                         f"expected one of {', '.join(sorted(types))}")
    values = {}
    for key, raw in items.items():
        try:
            values[key] = types[key](raw)
        except ValueError as exc:
            raise ValueError(f"[{section}] {key}: {exc}") from None
    return values


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
    "ngram": {"corpus": str, "order": int, "smoothing": float, "char_mode": _boolean},
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
        corpus = Path(opts["corpus"]).read_text(encoding="utf-8")
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


#: The [experiment] keys :func:`parse_spec` reads, with their value types.
_EXPERIMENT_KEYS = {"seed": int, "repetitions": int, "out": Path, "prompt": _prompt_spec}


def parse_spec(text: str, out_dir: Path | None = None) -> ExperimentSpec:
    # no section header can name a newline, so [DEFAULT] reads as an ordinary
    # section and is rejected like any other unknown one
    parser = configparser.ConfigParser(default_section="\n", interpolation=None)
    parser.optionxform = str.lower  # type: ignore[assignment]
    parser.read_string(text)

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

    # the prompt and cells are validated against a probe predictor so bad
    # specs fail up front, not in every run
    probe = build_predictor(predictor, seed)
    try:
        why = prompt_error(resolve_prompt(prompt, probe, seed),
                           probe.vocabulary.size, probe.vocabulary.mask_id)
    except ValueError as exc:
        why = str(exc)
    if why:
        raise ValueError(f"[experiment] prompt: {why}")
    cells: list[Cell] = []
    section_of: dict[str, str] = {}  # cell id -> the section that yields it
    section_index = 0
    for section_name in parser.sections():
        if section_name in ("experiment", "predictor"):
            continue
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
        section_index += 1
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
    return parse_spec(Path(path).read_text(encoding="utf-8"), out_dir)


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
class RunOutcome:
    cell: Cell
    repetition: int
    run_seed: int
    result: DecodeResult | None
    report: metrics.FailureReport | None
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


def _execute_run(
    spec: ExperimentSpec, cell_index: int, repetition: int
) -> RunOutcome:
    cell = spec.cells[cell_index]
    run_seed = mix_seed(spec.seed, cell.section_index, repetition)
    try:
        predictor = build_predictor(spec.predictor, run_seed)
        config = replace(cell.config, seed=run_seed)
        prompt = resolve_prompt(spec.prompt, predictor, run_seed)
        result = decode(predictor, config, prompt)
        report = metrics.failure_rates(result.trace, config.tau)
        write_run(spec.out_dir / cell.cell_id / f"rep{repetition:03d}",
                  result, predictor.vocabulary, prompt, config)
        return RunOutcome(cell, repetition, run_seed, result, report)
    except Exception as exc:  # cell isolation: one failure must not sink the sweep
        log.error("cell %s rep %d failed: %s", cell.cell_id, repetition, exc)
        return RunOutcome(cell, repetition, run_seed, None, None, error=str(exc))


def run(spec: ExperimentSpec, jobs: int = 1) -> tuple[list[RunOutcome], Path]:
    """Execute every cell and repetition; returns outcomes and the CSV path."""
    spec.out_dir.mkdir(parents=True, exist_ok=True)
    tasks = [
        (ci, rep)
        for ci in range(len(spec.cells))
        for rep in range(spec.repetitions)
    ]
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(lambda t: _execute_run(spec, *t), tasks))
    else:
        outcomes = [_execute_run(spec, *t) for t in tasks]

    csv_path = spec.out_dir / "aggregate.csv"
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(AGGREGATE_COLUMNS)
        for oc in outcomes:
            if oc.result is None or oc.report is None:
                continue
            cfg = oc.cell.config
            blocks = oc.result.blocks
            mean_b = sum(d.block_size for d in blocks) / len(blocks) if blocks else 0.0
            writer.writerow(
                [
                    oc.cell.cell_id,
                    cfg.scheduler,
                    cfg.sampler,
                    cfg.cache,
                    cfg.b0,
                    repr(cfg.tau_d),
                    oc.run_seed,
                    oc.result.steps_used,
                    oc.result.denoise_calls,
                    oc.result.position_evaluations,
                    repr(oc.report.late_overhead_rate),
                    repr(oc.report.premature_rate),
                    repr(mean_b),
                    int(oc.result.completed),
                ]
            )
    return outcomes, csv_path


def analyze(
    trace_dir: str | Path,
    out_dir: str | Path | None = None,
    tau_hi: float = 0.9,
    tau_lo: float = 0.1,
    persistence_k: int = 3,
) -> Path:
    """Post-process every trace file under ``trace_dir`` into report CSVs.

    Failure events are detected at each trace's recorded ``tau``, as the run
    that wrote it did for ``aggregate.csv``; a trace without a recorded config
    uses :class:`DecodeConfig`'s default.
    """
    trace_dir = Path(trace_dir)
    out = Path(out_dir) if out_dir is not None else trace_dir / "analysis"
    paths = sorted(trace_dir.rglob("*.trace.jsonl"))
    if not paths:
        raise FileNotFoundError(f"no trace files under {trace_dir}")
    out.mkdir(parents=True, exist_ok=True)

    rows = []
    for path in paths:
        try:
            data = tracefile.read_trace_file(path)
            trace = tracefile.trace_from_file(data)
            cfg = data.config
            report = metrics.failure_rates(trace, cfg.tau if cfg else DecodeConfig.tau)
            labels = metrics.segment_regimes(trace, tau_hi, tau_lo, persistence_k)
        except Exception as exc:
            log.warning("skipping %s: %s", path, exc)
            continue
        widths = metrics.vb_width_series(labels)
        rel = path.relative_to(trace_dir)
        stem = out / str(rel).replace("/", "__").replace(".trace.jsonl", "")
        metrics.write_step_report(f"{stem}.steps.csv", trace, report, widths)
        metrics.write_heatmap(f"{stem}.heatmap.csv", trace)
        metrics.write_regime_labels(f"{stem}.regimes.csv", labels)
        rows.append(
            [
                str(path.relative_to(trace_dir)),
                cfg.scheduler if cfg else "",
                cfg.sampler if cfg else "",
                cfg.cache if cfg else "",
                cfg.b0 if cfg else "",
                len(trace),
                repr(report.late_overhead_rate),
                repr(report.premature_rate),
                repr(sum(widths) / len(widths)) if widths else "0",
            ]
        )

    summary_path = out / "failures.csv"
    with open(summary_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "trace",
                "scheduler",
                "sampler",
                "cache",
                "b0",
                "steps",
                "late_overhead_rate",
                "premature_rate",
                "mean_vb_width",
            ]
        )
        writer.writerows(rows)
    return summary_path
