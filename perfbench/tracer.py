"""Spans and counters recorded from outside the package, around its public calls.

:class:`Tracer` replaces functions where the package looks them up (module
attributes such as ``semiar.decoder.sample_step``, methods on their classes
such as ``PredictionFrame.merge``) with wrappers, and puts every original back
on exit.  A wrapped call records one span: name, start, end, parent span, the
decode it belongs to, its self time (duration minus its direct children) and
its thread CPU time.  Spans stay in memory until :meth:`Tracer.write_spans`.

The per-position hot calls, ``unit_draw`` and ``NGramModel.best_token``, get
counters, cumulative time and distinct-key sets instead of spans, so memory
stays bounded by the distinct keys rather than the calls.
"""

from __future__ import annotations

import itertools
import os
import threading
from collections import defaultdict
from time import perf_counter, thread_time

# (module, attribute, span name) for functions patched where they are looked up.
_FUNCTIONS = [
    ("semiar.decoder", "decode", "decoder.decode"),
    ("semiar.experiment", "decode", "decoder.decode"),
    ("semiar.decoder", "evaluation_scope", "decoder.evaluation_scope"),
    ("semiar.experiment", "write_summary", "decoder.write_summary"),
    ("semiar.decoder", "apply_sample", "core.apply_sample"),
    ("semiar.decoder", "sample_step", "sampling.sample_step"),
    ("semiar.decoder", "decide_block", "scheduler.decide_block"),
    ("semiar.metrics", "failure_rates", "metrics.failure_rates"),
    ("semiar.metrics", "segment_regimes", "metrics.segment_regimes"),
    ("semiar.metrics", "write_step_report", "metrics.write_step_report"),
    ("semiar.metrics", "write_heatmap", "metrics.write_heatmap"),
    ("semiar.metrics", "write_regime_labels", "metrics.write_regime_labels"),
    ("semiar.tracefile", "write_trace", "tracefile.write_trace"),
    ("semiar.tracefile", "read_trace_file", "tracefile.read_trace_file"),
    ("semiar.tracefile", "trace_from_file", "tracefile.trace_from_file"),
    ("semiar.experiment", "build_predictor", "experiment.build_predictor"),
    ("semiar.experiment", "run", "experiment.run"),
    ("semiar.experiment", "analyze", "experiment.analyze"),
]

# (module, class, method, span name) for methods patched on their class.
_METHODS = [
    ("semiar.predictors", "MaskPredictor", "denoise", "predictors.denoise"),
    ("semiar.predictors", "SyntheticPredictor", "predict", "predictors.predict"),
    ("semiar.predictors", "NGramPredictor", "predict", "predictors.predict"),
    ("semiar.predictors", "TraceReplayPredictor", "predict", "predictors.replay_predict"),
    ("semiar.core", "PredictionFrame", "merge", "core.merge"),
    ("semiar.core", "SequenceState", "gen_masked", "core.gen_masked"),
]

# Hot calls: counters only.  (module, owner class or None, attribute, counter name)
_HOT = [
    ("semiar.predictors", None, "unit_draw", "seeding.unit_draw"),
    ("semiar.experiment", None, "unit_draw", "seeding.unit_draw"),
    ("semiar.predictors", "NGramModel", "best_token", "predictors.best_token"),
]

SPAN_FIELDS = ("id", "parent", "decode", "thread", "name", "start", "end", "self", "cpu")


class _Hot:
    __slots__ = ("calls", "seconds", "keys")

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        self.keys: set = set()


class _ThreadStats:
    """Counters one thread owns, so no update is shared between threads."""

    def __init__(self) -> None:
        self.hot: dict[str, _Hot] = defaultdict(_Hot)
        self.counts: dict[str, float] = defaultdict(float)


class Tracer:
    """Install with ``with Tracer() as tracer:``; originals are restored on exit."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._decode_ids = itertools.count()
        self._local = threading.local()
        self._stats: list[_ThreadStats] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def __enter__(self) -> "Tracer":
        import importlib

        for module, attr, name in _FUNCTIONS:
            mod = importlib.import_module(module)
            self._patch(mod, attr, self._span_wrapper(getattr(mod, attr), name))
        for module, cls_name, attr, name in _METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            self._patch(cls, attr, self._span_wrapper(vars(cls)[attr], name))
        for module, cls_name, attr, name in _HOT:
            owner = importlib.import_module(module)
            if cls_name is not None:
                owner = getattr(owner, cls_name)
            self._patch(owner, attr, self._hot_wrapper(vars(owner)[attr], name,
                                                       method=cls_name is not None))
        return self

    def __exit__(self, *exc: object) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, owner: object, attr: str, wrapper: object) -> None:
        # every patched name is defined on its owner itself, never inherited
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    # -- per-thread state ----------------------------------------------------

    def _thread(self) -> tuple[list, _ThreadStats]:
        local = self._local
        try:
            return local.stack, local.stats
        except AttributeError:
            local.stack, local.stats, local.decode = [], _ThreadStats(), -1
            self._stats.append(local.stats)
            return local.stack, local.stats

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, fn, name: str):
        tracer = self
        account = _ACCOUNTING.get(name)
        is_decode = name == "decoder.decode"

        def wrapper(*args, **kwargs):
            stack, stats = tracer._thread()
            local = tracer._local
            span_id = next(tracer._ids)
            parent = stack[-1][0] if stack else -1
            outer_decode = local.decode
            if is_decode:
                local.decode = next(tracer._decode_ids)
            frame = [span_id, 0.0]
            stack.append(frame)
            c0 = thread_time()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                c1 = thread_time()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                tracer.spans.append((span_id, parent, local.decode, threading.get_ident(),
                                     name, t0, t1, t1 - t0 - frame[1], c1 - c0))
                local.decode = outer_decode
            if account is not None:
                account(stats.counts, args, result, outer_decode >= 0)
            return result

        return wrapper

    def _hot_wrapper(self, fn, name: str, method: bool):
        tracer = self

        def wrapper(*args):
            t0 = perf_counter()
            result = fn(*args)
            dt = perf_counter() - t0
            hot = tracer._thread()[1].hot[name]
            hot.calls += 1
            hot.seconds += dt
            hot.keys.add(args[1:] if method else args)
            return result

        return wrapper

    # -- results -------------------------------------------------------------

    def hot(self, name: str) -> tuple[int, float, int]:
        """(calls, seconds, distinct keys) of a hot call, over all threads."""
        calls, seconds, keys = 0, 0.0, set()
        for stats in self._stats:
            if name in stats.hot:
                h = stats.hot[name]
                calls += h.calls
                seconds += h.seconds
                keys |= h.keys
        return calls, seconds, len(keys)

    def counts(self) -> dict[str, float]:
        total: dict[str, float] = defaultdict(float)
        for stats in self._stats:
            for key, value in stats.counts.items():
                total[key] += value
        return total

    def write_spans(self, path: str | os.PathLike) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\t".join(SPAN_FIELDS) + "\n")
            for span in sorted(self.spans):
                fh.write("\t".join(map(str, span)) + "\n")


def _account_decode(counts, args, result, in_decode) -> None:
    config = args[1]
    steps = result.trace.steps
    counts["decodes"] += 1
    counts["steps"] += result.steps_used
    counts["nfe"] += result.denoise_calls
    counts["position_evals"] += result.position_evaluations
    counts["commits"] += sum(len(rec.sampled) for rec in steps)
    counts["blocks"] += len(result.blocks)
    if config.scheduler == "adaptive":
        counts["adaptive_decisions"] += len(result.blocks)
        counts["delimiter_decisions"] += sum(1 for d in result.blocks if d.source == "delimiter")
    snapshot = sum(len(rec.predicted) + len(rec.confidence) for rec in steps)
    counts["snapshot_elems"] += snapshot
    counts["elems_copied"] += snapshot  # each record's snapshot is a fresh slice


def _account_merge(counts, args, result, in_decode) -> None:
    if in_decode:  # merge also rebuilds frames in trace_from_file, outside decodes
        counts["elems_copied"] += 2 * len(result.predicted)


def _account_apply_sample(counts, args, result, in_decode) -> None:
    counts["elems_copied"] += len(result.tokens)


def _account_write_trace(counts, args, result, in_decode) -> None:
    counts["bytes_written"] += os.path.getsize(args[0])


def _account_read_trace(counts, args, result, in_decode) -> None:
    counts["bytes_read"] += os.path.getsize(args[0])


_ACCOUNTING = {
    "decoder.decode": _account_decode,
    "core.merge": _account_merge,
    "core.apply_sample": _account_apply_sample,
    "tracefile.write_trace": _account_write_trace,
    "tracefile.read_trace_file": _account_read_trace,
}
