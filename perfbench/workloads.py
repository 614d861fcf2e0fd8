"""The benchmark's three workloads: seeded inputs, set-up, one timed cycle, digests.

A workload's *cycle* is one pass over its whole input set, which is generated
from the seed alone.  Every cycle of a run repeats the same inputs, so its
outputs must repeat byte for byte; the first cycle's digest is compared with
the digest pinned in ``digests.json`` for that seed.

The package under test is imported lazily, inside :meth:`Workload.setup`, so
that set-up time includes the import.  Every call into it goes through a
module attribute looked up at call time (``decoder.decode``, never a name
bound once), so the tracer's wrappers see it.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import random
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from stopwatch import Stopwatch

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINNED_PATH = HERE / "digests.json"

# ngram-zone: the acceptance criterion-3 decode.
ZONE_ORDER = 31
ZONE_SMOOTHING = 0.01
ZONE_L = 392
ZONE_B0S = (16, 32, 64)
ZONE_PROMPTS = 3
ZONE_PROMPT_LEN = 8

# synth-long: the long synthetic field, one fixed/adaptive pair per noise seed.
SYNTH_L = 1024
SYNTH_B0 = 32
SYNTH_NOISE_SEEDS = 1
SYNTH_FIELD = {"delimiter_period": 6, "vb_width_mean": 1, "vb_high": 0.92}
SYNTH_PROMPT = (0, 1)

# sweep: run + analyze + replay over one sampler x scheduler x cache section.
SWEEP_L = 256
SWEEP_REPETITIONS = 1
STAGE_CALIBRATIONS = 5  # calibration runs on each side of a multi-second interval


def use_checkout_source() -> None:
    """Import the package from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "semiar" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source under {src}; run from a repository checkout")
    sys.path.insert(0, str(src))


def zone_corpus(zone_len: int = 30, run_len: int = 3, reps: int = 8) -> str:
    """Long runs of one token broken by short distinct runs (criterion 3's corpus)."""
    parts = []
    for _ in range(reps):
        parts.append(" ".join(["the"] * zone_len))
        parts.append("mm")
        parts.append(" ".join(f"r{j}" for j in range(run_len)))
    return " ".join(parts)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench/{workload}/{seed}")


def ngram_inputs(seed: int) -> dict:
    corpus = zone_corpus()
    rng = _rng("ngram-zone", seed)
    n = len(corpus.split())
    offsets = [rng.randrange(n - ZONE_PROMPT_LEN + 1) for _ in range(ZONE_PROMPTS)]
    return {"corpus": corpus, "offsets": offsets, "b0s": list(ZONE_B0S), "L": ZONE_L}


def synth_inputs(seed: int) -> dict:
    rng = _rng("synth-long", seed)
    noise = [rng.randrange(2**31) for _ in range(SYNTH_NOISE_SEEDS)]
    return {"noise_seeds": noise, "L": SYNTH_L, "b0": SYNTH_B0,
            "schedulers": ["fixed", "adaptive"], "prompt": list(SYNTH_PROMPT)}


def sweep_spec(seed: int, gen_budget: int = SWEEP_L) -> str:
    """The pinned synthetic spec: one [cell] section, 3 samplers x 2 schedulers x 3 caches."""
    spec_seed = _rng("sweep", seed).randrange(2**31)
    return (
        "[experiment]\n"
        f"seed = {spec_seed}\n"
        f"repetitions = {SWEEP_REPETITIONS}\n"
        "prompt = literal:0 1\n"
        "\n"
        "[predictor]\n"
        "kind = synthetic\n"
        "delimiter_period = 6\n"
        "vb_width_mean = 2\n"
        "vb_high = 0.92\n"
        "\n"
        "[cell grid]\n"
        f"gen_budget = {gen_budget}\n"
        f"max_steps = {gen_budget}\n"
        "b0 = 32\n"
        "sampler = vanilla,linear,dynamic\n"
        "scheduler = fixed,adaptive\n"
        "cache = none,prefix,dual\n"
        f"linear_steps = {max(1, gen_budget // 4)}\n"
        "delimiter_tokens = \\n\n"
    )


def sweep_inputs(seed: int) -> dict:
    return {"spec": sweep_spec(seed)}


@dataclass
class Cycle:
    """What one pass over a workload's inputs did and how long it took."""

    seconds: float  # timed reference seconds (see stopwatch.py): package calls only
    wall_s: float  # the same interval in wall seconds
    decodes: int
    evals: int  # charged position evaluations
    decode_ms: dict[int, float]  # reference milliseconds per input (index in the cycle)
    attempted: int
    failed: int
    digest: str
    problems: list[str] = field(default_factory=list)
    stages: dict[str, float] = field(default_factory=dict)  # sweep: reference seconds per stage
    runs: int = 0
    runs_failed: int = 0
    analyzed: int = 0
    replays: int = 0


def _sha(*parts: object) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def decode_digest(label: object, result) -> str:
    """Digest of a decode's deterministic outputs: tokens, counts, blocks, commits."""
    return _sha(
        label,
        result.status,
        result.final_tokens,
        result.steps_used,
        result.denoise_calls,
        result.position_evaluations,
        tuple((d.block_size, d.source) for d in result.blocks),
        tuple(rec.sampled for rec in result.trace.steps),
    )


def check_decode(result, gen_budget: int, prompt) -> list[str]:
    """Counts agree with the trace, and the decode invariants hold."""
    trace = result.trace
    problems = []
    if not (result.steps_used == result.denoise_calls == len(trace.steps)):
        problems.append(
            f"steps {result.steps_used} / nfe {result.denoise_calls} / "
            f"trace records {len(trace.steps)} disagree"
        )
    evals = sum(len(rec.evaluated) for rec in trace.steps)
    if result.position_evaluations != evals:
        problems.append(f"position_evals {result.position_evaluations} != trace {evals}")
    if not result.completed:
        problems.append(f"decode ended {result.status}")
    committed: set[int] = set()
    for rec in trace.steps:
        masked = set(rec.masked_before)
        if not set(rec.sampled) <= masked or not masked.isdisjoint(committed):
            problems.append(f"step {rec.step} commits an unmasked position")
            break
        committed.update(rec.sampled)
    sizes = [d.block_size for d in result.blocks]
    if sum(sizes) != gen_budget and result.completed:
        problems.append(f"blocks {sizes} do not tile L={gen_budget}")
    if tuple(result.final_tokens[: len(prompt)]) != tuple(prompt):
        problems.append("prompt was overwritten")
    return problems


def load_pinned() -> dict:
    return json.loads(PINNED_PATH.read_text()) if PINNED_PATH.exists() else {}


class Workload:
    """One workload: ``setup`` once, ``warmup`` once, then ``cycle`` repeatedly.

    Everything it writes stays under ``workdir``, which the caller removes."""

    name = ""

    def __init__(self, seed: int, workdir: Path, inputs: dict | None = None):
        self.seed = seed
        self.workdir = Path(workdir)
        self.inputs = inputs if inputs is not None else self.make_inputs(seed)

    @staticmethod
    def make_inputs(seed: int) -> dict:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def cycle(self) -> Cycle:
        raise NotImplementedError


class _DecodeWorkload(Workload):
    """A closed loop of decodes, one client, each decode a separate operation."""

    calibrations = 1  # calibration runs on each side of a decode (see stopwatch.py)

    def _ops(self) -> list[tuple[object, object, tuple[int, ...], object]]:
        """(label, predictor, prompt, config) per decode, in cycle order."""
        raise NotImplementedError

    def setup(self) -> None:
        from semiar import decoder

        self._decoder = decoder
        self._build()
        self.ops = self._ops()

    def _build(self) -> None:
        raise NotImplementedError

    def _run_ops(self, ops) -> Cycle:
        decoder = self._decoder
        seconds = wall = 0.0
        evals = 0
        times: dict[int, float] = {}
        digests: list[str] = []
        problems: list[str] = []
        failed = 0
        for index, (label, predictor, prompt, config) in enumerate(ops):
            try:
                with Stopwatch(self.calibrations) as sw:
                    result = decoder.decode(predictor, config, prompt)
            except Exception as exc:  # a decode that raises is a failed operation
                failed += 1
                problems.append(f"{label}: {exc}")
                digests.append(f"raised {type(exc).__name__}")
                continue
            seconds += sw.seconds
            wall += sw.wall
            times[index] = sw.seconds * 1e3
            evals += result.position_evaluations
            bad = check_decode(result, config.gen_budget, prompt)
            if bad:
                failed += 1
                problems.extend(f"{label}: {p}" for p in bad)
            digests.append(decode_digest(label, result))
            del result  # keep one decode's snapshots alive at a time
        return Cycle(seconds, wall, len(times), evals, times, len(ops), failed,
                     _sha(*digests), problems)

    def cycle(self) -> Cycle:
        return self._run_ops(self.ops)


class NGramZone(_DecodeWorkload):
    name = "ngram-zone"
    make_inputs = staticmethod(ngram_inputs)

    def _build(self) -> None:
        from semiar import predictors

        self.predictor = predictors.build_ngram(
            self.inputs["corpus"], order=ZONE_ORDER, smoothing_k=ZONE_SMOOTHING
        )

    def _config(self, b0: int, gen_budget: int):
        from semiar.core import DecodeConfig

        return DecodeConfig(gen_budget=gen_budget, max_steps=3 * gen_budget, b0=b0,
                            tau=0.9, sampler="dynamic", scheduler="fixed", cache="none")

    def _ops(self):
        ids = self.predictor.model.corpus_ids
        L = self.inputs["L"]
        return [
            ((b0, off), self.predictor, tuple(ids[off : off + ZONE_PROMPT_LEN]),
             self._config(b0, L))
            for b0 in self.inputs["b0s"]
            for off in self.inputs["offsets"]
        ]

    def warmup(self) -> None:
        ids = self.predictor.model.corpus_ids
        self._run_ops([("warmup", self.predictor, tuple(ids[:ZONE_PROMPT_LEN]),
                        self._config(16, 32))])


class SynthLong(_DecodeWorkload):
    name = "synth-long"
    calibrations = STAGE_CALIBRATIONS  # decodes take seconds
    make_inputs = staticmethod(synth_inputs)

    def _build(self) -> None:
        from semiar import predictors

        self.predictors = [
            predictors.build_synthetic(predictors.SyntheticFieldParams(
                noise_seed=noise, **SYNTH_FIELD))
            for noise in self.inputs["noise_seeds"]
        ]

    def _config(self, predictor, scheduler: str, gen_budget: int):
        from semiar.core import DecodeConfig

        return DecodeConfig(gen_budget=gen_budget, max_steps=gen_budget,
                            b0=self.inputs["b0"], sampler="dynamic",
                            scheduler=scheduler, cache="none",
                            delimiters=frozenset({predictor.delimiter_id}))

    def _ops(self):
        prompt = tuple(self.inputs["prompt"])
        return [
            ((noise, scheduler), predictor, prompt,
             self._config(predictor, scheduler, self.inputs["L"]))
            for noise, predictor in zip(self.inputs["noise_seeds"], self.predictors)
            for scheduler in self.inputs["schedulers"]
        ]

    def warmup(self) -> None:
        predictor = self.predictors[0]
        prompt = tuple(self.inputs["prompt"])
        self._run_ops([
            ("warmup", predictor, prompt, self._config(predictor, scheduler, 64))
            for scheduler in self.inputs["schedulers"]
        ])


def _scan_outputs(root: Path) -> tuple[str, dict[str, int], dict[str, bytes]]:
    """Digest of every file under ``root``, step-line counts of the traces, and
    the bytes of the small files the checks read (summaries and CSVs outside
    ``analysis/``).  Files are read one at a time so the scan holds no copy of
    the outputs."""
    h = hashlib.sha256()
    step_lines: dict[str, int] = {}
    small: dict[str, bytes] = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        rel = path.relative_to(root).as_posix()
        data = path.read_bytes()
        h.update(rel.encode() + b"\0" + hashlib.sha256(data).digest())
        if rel.endswith(".trace.jsonl"):
            step_lines[rel] = data.count(b"\n") - 1  # minus the header line
        elif rel.endswith(".summary.json") or rel in ("aggregate.csv", "analysis/failures.csv"):
            small[rel] = data
    return h.hexdigest(), step_lines, small


class Sweep(Workload):
    name = "sweep"
    make_inputs = staticmethod(sweep_inputs)

    def setup(self) -> None:
        from semiar import decoder, experiment, predictors

        self._decoder, self._experiment, self._predictors = decoder, experiment, predictors
        self.jobs = min(2, len(os.sched_getaffinity(0)))
        self.workdir.mkdir(parents=True, exist_ok=True)
        spec_path = self.workdir / "sweep.spec"
        spec_path.write_text(self.inputs["spec"], encoding="utf-8")
        self.spec = experiment.load_spec(spec_path, self.workdir / "sweep")

    def warmup(self) -> None:
        small = self._experiment.parse_spec(
            sweep_spec(self.seed, gen_budget=16), self.workdir / "warmup"
        )
        self._sweep(small)

    def cycle(self) -> Cycle:
        return self._sweep(self.spec)

    def _sweep(self, spec) -> Cycle:
        experiment, decoder, predictors = self._experiment, self._decoder, self._predictors
        out = spec.out_dir
        if out.exists():
            shutil.rmtree(out)

        with Stopwatch(STAGE_CALIBRATIONS) as run_sw:
            outcomes, _ = experiment.run(spec, jobs=self.jobs)
        traces = sorted(out.rglob("*.trace.jsonl"))
        with Stopwatch(STAGE_CALIBRATIONS) as analyze_sw:
            experiment.analyze(out)

        files_digest, step_lines, files = _scan_outputs(out)
        rows = _rows_by_trace(_read_csv(files.get("aggregate.csv", b"")))
        analysed = len(_read_csv(files.get("analysis/failures.csv", b"")))
        run_errors = [oc for oc in outcomes if oc.error is not None]
        problems = [f"run {oc.cell.cell_id}: {oc.error}" for oc in run_errors]
        if analysed != len(traces):
            problems.append(f"analyze reported {analysed} of {len(traces)} traces")
        failed = len(run_errors) + len(traces) - analysed
        evals = sum(oc.result.position_evaluations for oc in outcomes if oc.result)

        replay_s = replay_wall = 0.0
        replay_ms: dict[int, float] = {}
        replay_digests: list[str] = []
        for index, path in enumerate(traces):
            rel = path.relative_to(out).as_posix()
            try:
                with Stopwatch() as sw:
                    predictor = predictors.load_trace_predictor(path)
                    t1 = perf_counter()
                    result = decoder.decode(
                        predictor, predictor.recorded_config, predictor.recorded_prompt
                    )
                    t2 = perf_counter()
            except Exception as exc:  # a replay that raises is a failed operation
                failed += 1
                problems.append(f"replay {rel}: {exc}")
                continue
            finally:
                replay_s += sw.seconds
                replay_wall += sw.wall
            replay_ms[index] = (t2 - t1) * sw.factor * 1e3
            evals += result.position_evaluations
            bad = check_decode(result, result.trace.gen_budget, predictor.recorded_prompt)
            bad += _check_against_files(rel, result, step_lines.get(rel), files, rows.get(rel))
            if bad:
                failed += 1
                problems.extend(f"{rel}: {p}" for p in bad)
            replay_digests.append(decode_digest(rel, result))
            del result, predictor  # keep one replay's snapshots alive at a time

        return Cycle(
            seconds=run_sw.seconds + analyze_sw.seconds + replay_s,
            wall_s=run_sw.wall + analyze_sw.wall + replay_wall,
            decodes=len(outcomes) - len(run_errors) + len(replay_digests),
            evals=evals,
            decode_ms=replay_ms,
            attempted=len(outcomes) + 2 * len(traces),
            failed=failed,
            digest=_sha(files_digest, *replay_digests),
            problems=problems,
            stages={"run": run_sw.seconds, "analyze": analyze_sw.seconds, "replay": replay_s},
            runs=len(outcomes),
            runs_failed=len(run_errors),
            analyzed=len(traces),
            replays=len(traces),
        )


def _read_csv(data: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(data.decode("utf-8"))))


def _rows_by_trace(rows: list[dict]) -> dict[str, dict]:
    """aggregate.csv rows keyed by trace path; rows run cell by cell, reps in order."""
    keyed: dict[str, dict] = {}
    reps: dict[str, int] = {}
    for row in rows:
        rep = reps.get(row["cell"], 0)
        reps[row["cell"]] = rep + 1
        keyed[f"{row['cell']}/rep{rep:03d}.trace.jsonl"] = row
    return keyed


def _check_against_files(rel: str, result, lines: int | None, files: dict[str, bytes],
                         row: dict | None) -> list[str]:
    """The replayed decode, the trace file, its summary and its aggregate row agree."""
    problems = []
    if lines != result.steps_used:
        problems.append(f"trace has {lines} step lines, replay took {result.steps_used} steps")
    expect = (result.steps_used, result.denoise_calls, result.position_evaluations)
    summary_bytes = files.get(rel.replace(".trace.jsonl", ".summary.json"))
    summary = json.loads(summary_bytes) if summary_bytes else {}
    if (summary.get("steps"), summary.get("nfe"), summary.get("position_evals")) != expect:
        problems.append(f"summary counts differ from replay {expect}")
    if row is None or (int(row["steps"]), int(row["nfe"]), int(row["position_evals"])) != expect:
        problems.append(f"aggregate.csv counts differ from replay {expect}")
    return problems


WORKLOADS = {cls.name: cls for cls in (NGramZone, SynthLong, Sweep)}

