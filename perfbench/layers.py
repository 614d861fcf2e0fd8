"""Per-layer metrics from one traced run (see README.md for what each one moves).

:func:`per_layer` computes every metric BENCHMARK.json lists under
``per_layer`` and the workload-specific times below.

Normalisation: decode-path times and counts are per decode (decodes made by
``experiment.run`` and by the benchmark's own replays both count); harness
numbers are per run of ``experiment.run`` (one trace written), per trace
analysed, or per file read.  Distinct-key counts cover one cycle, the
workload's full input set, which every cycle repeats.
"""

from __future__ import annotations

from collections import defaultdict

# Times of layers that only some workloads call.  On the others they are
# exactly zero on every run, so they are printed for the workloads that call
# them and kept out of the machine-read result.
WORKLOAD_SPECIFIC = [
    ("predictors.best_token_ms", "ms"),
    ("predictors.replay_predict_ms", "ms"),
    ("seeding.unit_draw_ms", "ms"),
    ("metrics.failure_rates_ms", "ms"),
    ("metrics.segment_regimes_ms", "ms"),
    ("metrics.write_reports_ms", "ms"),
    ("tracefile.write_ms", "ms"),
    ("tracefile.read_ms", "ms"),
    ("tracefile.trace_from_file_ms", "ms"),
    ("experiment.build_predictor_ms", "ms"),
]

_WRITE_REPORTS = ("metrics.write_step_report", "metrics.write_heatmap",
                  "metrics.write_regime_labels")


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(tracer, cycles: int, runs: int, analyzed: int, runs_failed: int,
              jobs: int, overhead_s: float) -> dict[str, float]:
    """Every per-layer metric, listed and workload-specific, from a traced run.

    ``runs``, ``analyzed`` and ``runs_failed`` are totals over the traced
    cycles; ``overhead_s`` is traced minus untraced wall time over them.
    """
    total = defaultdict(lambda: [0.0, 0.0, 0])  # seconds, self seconds, calls
    in_decode = defaultdict(lambda: [0.0, 0.0, 0])
    run_spans = []
    for span_id, parent, decode, thread, name, t0, t1, self_s, cpu in tracer.spans:
        for agg in (total, in_decode) if decode >= 0 else (total,):
            agg[name][0] += t1 - t0
            agg[name][1] += self_s
            agg[name][2] += 1
        if name == "experiment.run":
            run_spans.append((span_id, thread, t0, t1))

    counts = tracer.counts()
    decodes = counts["decodes"]

    def per_decode_ms(name: str, part: int = 0) -> float:
        return 1e3 * _div(in_decode[name][part], decodes)

    best_calls, best_s, best_distinct = tracer.hot("predictors.best_token")
    draw_calls, draw_s, draw_distinct = tracer.hot("seeding.unit_draw")
    denoise_ms = per_decode_ms("predictors.denoise")
    predict_ms = per_decode_ms("predictors.predict") + per_decode_ms("predictors.replay_predict")
    reads = total["tracefile.read_trace_file"][2]

    busy = 0.0
    for run_id, run_thread, r0, r1 in run_spans:
        for span_id, parent, decode, thread, name, t0, t1, self_s, cpu in tracer.spans:
            if parent == run_id or (parent == -1 and thread != run_thread and r0 <= t0 <= r1):
                busy += cpu
    run_wall = sum(r1 - r0 for _, _, r0, r1 in run_spans)

    return {
        "predictors.denoise_ms": denoise_ms,
        "predictors.predict_ms": predict_ms,
        "predictors.check_merge_ms": denoise_ms - predict_ms,
        "predictors.best_token_calls": _div(best_calls, decodes),
        "predictors.best_token_distinct_contexts": best_distinct,
        "predictors.best_token_reuse_ratio": 1.0 - _div(best_distinct, _div(best_calls, cycles)) if best_calls else 0.0,
        "seeding.unit_draw_calls": _div(draw_calls, decodes),
        "seeding.unit_draw_distinct_keys": draw_distinct,
        "seeding.unit_draw_reuse_ratio": 1.0 - _div(draw_distinct, _div(draw_calls, cycles)) if draw_calls else 0.0,
        "core.merge_ms": per_decode_ms("core.merge"),
        "core.apply_sample_ms": per_decode_ms("core.apply_sample"),
        "core.gen_masked_ms": per_decode_ms("core.gen_masked"),
        "core.elems_copied": _div(counts["elems_copied"], decodes),
        "core.snapshot_elems_retained": _div(counts["snapshot_elems"], decodes),
        "decoder.self_ms": per_decode_ms("decoder.decode", part=1),
        "decoder.scope_ms": per_decode_ms("decoder.evaluation_scope"),
        "decoder.steps": _div(counts["steps"], decodes),
        "decoder.nfe": _div(counts["nfe"], decodes),
        "decoder.position_evals": _div(counts["position_evals"], decodes),
        "sampling.sample_step_ms": per_decode_ms("sampling.sample_step"),
        "sampling.commits_per_step": _div(counts["commits"], counts["steps"]),
        "scheduler.decide_block_ms": per_decode_ms("scheduler.decide_block"),
        "scheduler.blocks": _div(counts["blocks"], decodes),
        "scheduler.delimiter_ratio": _div(counts["delimiter_decisions"], counts["adaptive_decisions"]),
        "metrics.segment_regimes_calls_per_trace": _div(total["metrics.segment_regimes"][2], analyzed),
        "tracefile.bytes_written": _div(counts["bytes_written"], runs),
        "tracefile.bytes_read": _div(counts["bytes_read"], reads),
        "experiment.build_predictor_calls": _div(total["experiment.build_predictor"][2], runs),
        "experiment.worker_busy_ratio": _div(busy, jobs * run_wall),
        "experiment.runs_failed": _div(runs_failed, cycles),
        "trace.overhead_s": _div(overhead_s, cycles),
        "predictors.best_token_ms": 1e3 * _div(best_s, decodes),
        "predictors.replay_predict_ms": per_decode_ms("predictors.replay_predict"),
        "seeding.unit_draw_ms": 1e3 * _div(draw_s, decodes),
        "metrics.failure_rates_ms": 1e3 * _div(total["metrics.failure_rates"][0], runs),
        "metrics.segment_regimes_ms": 1e3 * _div(total["metrics.segment_regimes"][0], analyzed),
        "metrics.write_reports_ms": 1e3 * _div(sum(total[n][1] for n in _WRITE_REPORTS), analyzed),
        "tracefile.write_ms": 1e3 * _div(total["tracefile.write_trace"][0], runs),
        "tracefile.read_ms": 1e3 * _div(total["tracefile.read_trace_file"][0], reads),
        "tracefile.trace_from_file_ms": 1e3 * _div(total["tracefile.trace_from_file"][0],
                                                  total["tracefile.trace_from_file"][2]),
        "experiment.build_predictor_ms": 1e3 * _div(total["experiment.build_predictor"][0], runs),
    }
