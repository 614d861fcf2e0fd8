"""Run one benchmark workload and print its metrics; the last line is JSON.

    python3 perfbench/run.py --workload ngram-zone --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.  ``--trace 1``
runs the same cycles untraced and then traced, reports the per-layer metrics
and the tracing overhead, writes the spans under ``.perfbench/`` and checks
that the traced outputs equal the untraced ones.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

WORK = workloads.ROOT / ".perfbench"
SETUP_SAMPLES = 7


def declared(kind: str) -> list[tuple[str, str]]:
    """(name, unit) of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [(m["name"], m["unit"]) for m in spec[kind]]


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def machine_note() -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return (f"nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
            f"cpu={cpu!r}")


def measure_setup(name: str, seed: int, workdir: Path) -> list[float]:
    """Set-up seconds from ``SETUP_SAMPLES`` fresh interpreters, one after another."""
    probe = Path(__file__).resolve().with_name("setup_probe.py")
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, str(probe), name, str(seed), str(workdir)],
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def run_cycles(workload, seconds: float | None = None, count: int | None = None) -> list:
    """Whole cycles until ``seconds`` have passed (at least one), or exactly ``count``."""
    cycles = []
    start = perf_counter()
    while (len(cycles) < count) if count is not None else (
            not cycles or perf_counter() - start < seconds):
        cycles.append(workload.cycle())
    return cycles


def judge(workload, cycles: list, pinned: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, notes).  Every cycle must reproduce the pinned digest
    for this seed, or the first cycle's when none is pinned; a cycle that does
    not counts all its operations as failed."""
    expected = pinned.get(workload.name, {}).get(str(workload.seed))
    reference = expected or cycles[0].digest
    notes = [f"digest {cycles[0].digest[:16]} "
             + ("(pinned: match)" if expected == cycles[0].digest else
                "(pinned: MISMATCH)" if expected else "(no pinned digest for this seed)")]
    attempted = failed = 0
    for i, cycle in enumerate(cycles):
        attempted += cycle.attempted
        if cycle.digest != reference:
            failed += cycle.attempted
            notes.append(f"cycle {i}: digest {cycle.digest[:16]} != {reference[:16]}")
        else:
            failed += cycle.failed
        notes.extend(f"cycle {i}: {p}" for p in cycle.problems[:5])
    return attempted, failed, notes


def end_to_end(cycles: list, setup_samples: list[float]) -> dict[str, tuple[float, str, str]]:
    """name -> (value, unit, sample note), every metric printed for the workload.

    Times are reference seconds (stopwatch.py); ``decodes_per_wall_s`` shows
    the uncorrected rate and ``speed`` the machine's state during the run."""
    n = len(cycles)
    by_input: dict[int, list[float]] = {}
    for c in cycles:
        for index, ms in c.decode_ms.items():
            by_input.setdefault(index, []).append(ms)
    decode_ms = [ms for times in by_input.values() for ms in times]
    timed = [c for c in cycles if c.seconds]
    out = {
        "decodes_per_s": (median([c.decodes / c.seconds for c in timed]), "1/s",
                          f"median of {n} cycles, {sum(c.decodes for c in cycles)} decodes"),
        "evals_per_s": (median([c.evals / c.seconds for c in timed]), "1/s",
                        f"median of {n} cycles, charged position evaluations"),
        "decode_ms_p50": (statistics.fmean([median(t) for t in by_input.values()] or [0.0]),
                          "ms", f"mean over {len(by_input)} inputs of each one's median, "
                                f"{len(decode_ms)} decodes"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB",
                         "this process"),
        "setup_s": (median(setup_samples), "s", f"median of {len(setup_samples)} fresh processes"),
    }
    if len(decode_ms) >= 100:
        out["decode_ms_p90"] = (statistics.quantiles(decode_ms, n=10)[-1], "ms",
                                f"{len(decode_ms)} decodes")
    if cycles[0].stages:
        for metric, stage, count in (("runs_per_s", "run", "runs"),
                                     ("traces_analyzed_per_s", "analyze", "analyzed"),
                                     ("replays_per_s", "replay", "replays")):
            out[metric] = (median([getattr(c, count) / c.stages[stage] for c in cycles
                                   if c.stages[stage]]), "1/s",
                           f"median of {n} cycles, {sum(getattr(c, count) for c in cycles)} total")
    out["decodes_per_wall_s"] = (median([c.decodes / c.wall_s for c in timed]), "1/s",
                                 "uncorrected wall time")
    out["speed"] = (median([c.seconds / c.wall_s for c in timed]), "ratio",
                    "reference seconds per wall second, median over cycles")
    return out


def run(args: argparse.Namespace, workdir: Path) -> dict:
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir / "main")
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"# machine {machine_note()}")
    setup_samples = [] if args.trace else measure_setup(args.workload, args.seed,
                                                        workdir / "probe")
    workload.setup()
    workload.warmup()
    pinned = workloads.load_pinned()
    if not args.trace:
        cycles = run_cycles(workload, seconds=args.seconds)
        attempted, failed, notes = judge(workload, cycles, pinned)
        report = end_to_end(cycles, setup_samples)
        for name, (value, unit, samples) in report.items():
            print(f"{name:24s} {value:14.6f} {unit:5s} ({samples})")
        metrics = {name: {"value": report[name][0], "unit": unit}
                   for name, unit in declared("end_to_end")}
    else:
        untraced = run_cycles(workload, seconds=args.seconds / 2)
        with Tracer() as tracer:
            traced = run_cycles(workload, count=len(untraced))
        attempted, failed, notes = judge(workload, untraced + traced, pinned)
        overhead = sum(c.seconds for c in traced) - sum(c.seconds for c in untraced)
        values = layers.per_layer(
            tracer, cycles=len(traced),
            runs=sum(c.runs for c in traced), analyzed=sum(c.analyzed for c in traced),
            runs_failed=sum(c.runs_failed for c in traced),
            jobs=getattr(workload, "jobs", 1), overhead_s=overhead)
        WORK.mkdir(exist_ok=True)
        spans_path = WORK / f"spans-{args.workload}-{args.seed}.tsv"
        tracer.write_spans(spans_path)
        print(f"# {len(traced)} traced cycles, {len(tracer.spans)} spans -> {spans_path}")
        listed = declared("per_layer")
        for name, unit in listed + layers.WORKLOAD_SPECIFIC:
            if values[name] or (name, unit) in listed:
                print(f"{name:40s} {values[name]:16.6f} {unit}")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in listed}
    print(f"error_rate {failed / attempted:.6f} ratio ({failed} failed / {attempted} attempted)")
    for note in notes:
        print(f"# {note}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads.use_checkout_source()
    workdir = WORK / f"run-{os.getpid()}"
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
