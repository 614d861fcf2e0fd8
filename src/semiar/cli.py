"""Command-line entry points: run sweeps, analyze traces, replay decodes."""

from __future__ import annotations

import argparse
import itertools
import json
import logging
import sys
from dataclasses import replace
from pathlib import Path

from . import experiment, metrics
from .decoder import decode, result_summary
from .predictors import load_trace_predictor


def _cell_line(outcomes: list[experiment.RunOutcome]) -> str:
    """One cell's runs pooled: means per ok run, failure rates as events over steps."""
    ok = [oc.result for oc in outcomes if oc.error is None]
    line = f"{outcomes[0].cell.cell_id} ok={len(ok)}/{len(outcomes)}"
    if not ok:
        return line
    steps = sum(r.steps_used for r in ok)
    late = sum(r.late_overhead_steps for r in ok)
    premature = sum(r.premature_steps for r in ok)
    return (
        f"{line} steps={steps / len(ok):.1f}"
        f" nfe={sum(r.denoise_calls for r in ok) / len(ok):.1f}"
        f" position_evals={sum(r.position_evaluations for r in ok) / len(ok):.1f}"
        f" late={late / steps:.4f} premature={premature / steps:.4f}"
    )


def _cmd_run(args: argparse.Namespace) -> int:
    spec = experiment.load_spec(args.spec, Path(args.out) if args.out else None)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    outcomes, csv_path = experiment.run(spec, jobs=args.jobs)
    failed = [oc for oc in outcomes if oc.error is not None]
    print(f"{len(outcomes) - len(failed)}/{len(outcomes)} runs ok -> {csv_path}")
    # outcomes come ordered by cell, then repetition
    for _, cell_outcomes in itertools.groupby(outcomes, key=lambda oc: oc.cell):
        print(_cell_line(list(cell_outcomes)))
    for oc in failed:
        print(f"FAILED {oc.cell.cell_id} rep {oc.repetition}: {oc.error}", file=sys.stderr)
    return 1 if failed else 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    summary = experiment.analyze(
        args.traces,
        out_dir=Path(args.out) if args.out else None,
        tau_hi=args.tau_hi,
        tau_lo=args.tau_lo,
        persistence_k=args.persistence,
        jobs=args.jobs,
    )
    print(f"reports -> {summary.parent}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    predictor = load_trace_predictor(args.trace)
    config = predictor.recorded_config
    prompt = predictor.recorded_prompt
    if config is None or prompt is None:
        print("trace header lacks the recorded config/prompt; cannot replay",
              file=sys.stderr)
        return 1
    if args.sampler:
        config = replace(config, sampler=args.sampler)
    if args.scheduler:
        config = replace(config, scheduler=args.scheduler)

    result = decode(predictor, config, prompt)
    out = Path(args.out) if args.out else Path(args.trace).parent
    stem = out / (Path(args.trace).name.replace(".trace.jsonl", "") + ".replayed")
    experiment.write_run(stem, result, predictor.vocabulary, prompt, config)
    print(json.dumps(result_summary(result, predictor.vocabulary), indent=2))
    return 0


def _add_jobs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes; 1 works in this process "
                             "(default: the usable CPUs, at most one per task)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semiar",
        description="Blockwise semi-autoregressive mask-decoding experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment spec")
    p_run.add_argument("--spec", required=True, help="experiment spec file")
    p_run.add_argument("--out", default=None, help="output directory override")
    p_run.add_argument("--seed", type=int, default=None, help="experiment seed override")
    _add_jobs(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_an = sub.add_parser("analyze", help="post-process stored traces into reports")
    p_an.add_argument("--traces", required=True, help="directory holding *.trace.jsonl")
    p_an.add_argument("--out", default=None, help="report directory (default: traces/analysis)")
    p_an.add_argument("--tau-hi", type=float, default=metrics.TAU_HI, dest="tau_hi")
    p_an.add_argument("--tau-lo", type=float, default=metrics.TAU_LO, dest="tau_lo")
    p_an.add_argument("--persistence", type=int, default=metrics.PERSISTENCE_K)
    _add_jobs(p_an)
    p_an.set_defaults(func=_cmd_analyze)

    p_rep = sub.add_parser("replay", help="re-decode a recorded trace")
    p_rep.add_argument("--trace", required=True, help="trace file to replay")
    p_rep.add_argument("--out", default=None, help="output directory")
    p_rep.add_argument("--sampler", default=None, help="override the recorded sampler")
    p_rep.add_argument("--scheduler", default=None, help="override the recorded scheduler")
    p_rep.set_defaults(func=_cmd_replay)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
