"""Failure-event detectors and regime segmentation on constructed and live traces."""

import csv
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from semiar.core import (
    CACHES,
    SAMPLERS,
    SCHEDULERS,
    SENTINEL_CONFIDENCE,
    DecodeConfig,
    DecodeTrace,
    StepRecord,
)
from semiar.decoder import decode
from semiar.metrics import (
    Regime,
    detect_late_overhead,
    detect_premature,
    failure_rates,
    segment_regimes,
    vb_width_series,
    write_heatmap,
    write_regime_labels,
)
from semiar.predictors import SyntheticFieldParams, build_ngram, build_synthetic
from semiar.tracefile import read_trace_file, write_trace


MASK = 9


def record(conf, masked, block=(0, 8), sampled=(), step=0, open_=True):
    L = len(conf)
    return StepRecord(
        step=step,
        block_start=block[0],
        block_end=block[1],
        block_size=(block[1] - block[0]) if open_ else None,
        evaluated=tuple(range(L)),
        predicted=tuple(0 for _ in range(L)),
        confidence=tuple(conf),
        sampled=tuple(sampled),
        masked_before=tuple(sorted(masked)),
        cache="none",
    )


class TestLateOverhead:
    def test_high_confidence_position_outside_block(self):
        conf = [0.5] * 12
        conf[9] = 0.93
        rec = record(conf, masked=range(12), block=(0, 8))
        ev = detect_late_overhead(rec, rec.confidence, 0.9)
        assert ev is not None and ev.positions == (9,)
        assert ev.confidences == (0.93,)

    def test_floor_outside_stays_quiet(self):
        conf = [0.5] * 8 + [0.05] * 4
        rec = record(conf, masked=range(12), block=(0, 8))
        assert detect_late_overhead(rec, rec.confidence, 0.9) is None

    def test_final_block_has_no_outside(self):
        conf = [0.99] * 8
        rec = record(conf, masked=range(8), block=(0, 8))
        assert detect_late_overhead(rec, rec.confidence, 0.9) is None

    def test_unmasked_outside_positions_ignored(self):
        conf = [0.5] * 8 + [0.99] * 4
        rec = record(conf, masked=range(8), block=(0, 8))
        assert detect_late_overhead(rec, rec.confidence, 0.9) is None


class TestPremature:
    def test_forced_low_top_with_better_outside(self):
        conf = [0.4, 0.3, 0.2, 0.1] + [0.92] + [0.05] * 3
        rec = record(conf, masked=range(8), block=(0, 4))
        ev = detect_premature(rec, rec.confidence, 0.9)
        assert ev is not None
        assert ev.forced_pos == 0 and ev.forced_conf == 0.4
        assert ev.better_positions == (4,)

    def test_no_event_when_top_reaches_threshold(self):
        conf = [0.95, 0.3] + [0.99] * 2
        rec = record(conf, masked=range(4), block=(0, 2))
        assert detect_premature(rec, rec.confidence, 0.9) is None

    def test_no_event_without_strictly_better_outside(self):
        conf = [0.4, 0.3] + [0.4, 0.2]
        rec = record(conf, masked=range(4), block=(0, 2))
        assert detect_premature(rec, rec.confidence, 0.9) is None

    def test_tie_break_picks_lowest_forced_position(self):
        conf = [0.4, 0.4] + [0.6]
        rec = record(conf, masked=range(3), block=(0, 2))
        ev = detect_premature(rec, rec.confidence, 0.9)
        assert ev.forced_pos == 0

    def test_empty_block_yields_nothing(self):
        conf = [0.4] * 4
        rec = record(conf, masked=[2, 3], block=(0, 2))
        assert detect_premature(rec, rec.confidence, 0.9) is None


class TestFailureRates:
    def test_empty_trace_rejected(self):
        trace = DecodeTrace(prompt_len=1, gen_budget=4, mask_id=MASK, steps=())
        with pytest.raises(ValueError):
            failure_rates(trace, 0.9)

    def test_single_clean_step(self):
        rec = record([0.95] * 4, masked=range(4), block=(0, 4))
        trace = DecodeTrace(prompt_len=1, gen_budget=4, mask_id=MASK, steps=(rec,))
        report = failure_rates(trace, 0.9)
        assert (report.late_overhead_steps, report.premature_steps) == (0, 0)
        assert report.late_overhead_rate == 0.0

    def test_step_can_count_for_both(self):
        conf = [0.4, 0.3, 0.95, 0.05]
        rec = record(conf, masked=range(4), block=(0, 2))
        trace = DecodeTrace(prompt_len=1, gen_budget=4, mask_id=MASK, steps=(rec,))
        report = failure_rates(trace, 0.9)
        assert report.late_overhead_steps == 1
        assert report.premature_steps == 1

    def test_mismatched_period_under_fixed_blocks_forces_events(self):
        pred = build_synthetic(SyntheticFieldParams(
            noise_seed=9, delimiter_period=6, vb_width_mean=1,
            vb_low=0.4, vb_high=0.92))
        cfg = DecodeConfig(
            gen_budget=96, max_steps=96, b0=32, scheduler="fixed",
            delimiters=frozenset({pred.delimiter_id}),
        )
        result = decode(pred, cfg, (0, 1))
        report = failure_rates(result.trace, cfg.tau)
        assert report.premature_steps > 0

    def test_adaptive_scheduler_cuts_premature_events(self):
        pred = build_synthetic(SyntheticFieldParams(
            noise_seed=9, delimiter_period=6, vb_width_mean=1,
            vb_low=0.4, vb_high=0.92))
        base = dict(gen_budget=96, max_steps=96, b0=32,
                    delimiters=frozenset({pred.delimiter_id}))
        fixed = failure_rates(
            decode(pred, DecodeConfig(scheduler="fixed", **base), (0, 1)).trace, 0.9
        )
        adaptive = failure_rates(
            decode(pred, DecodeConfig(scheduler="adaptive", **base), (0, 1)).trace, 0.9
        )
        assert adaptive.premature_steps < fixed.premature_steps


class TestSegmentation:
    def synthetic_trace(self, **kw):
        params = dict(noise_seed=4, vb_width_mean=4, vb_low=0.4, vb_high=0.85,
                      plateau_level=0.95, floor_level=0.05)
        params.update(kw)
        pred = build_synthetic(SyntheticFieldParams(**params))
        cfg = DecodeConfig(gen_budget=24, max_steps=24, b0=24, cache="none")
        return pred, decode(pred, cfg, (0, 1))

    def test_matches_generator_ground_truth(self):
        pred, result = self.synthetic_trace()
        labels = segment_regimes(result.trace, tau_hi=0.95, tau_lo=0.05, persistence_k=1)
        total = hits = 0
        for rec, row in zip(result.trace.steps, labels):
            masked = set(rec.masked_before)
            frontier = pred.frontier(24 - len(masked), 24)
            for i in range(24):
                if i not in masked:
                    truth = Regime.DECODED
                else:
                    truth = {
                        "plateau": Regime.PLATEAU,
                        "band": Regime.VOLATILITY_BAND,
                        "floor": Regime.FLOOR,
                    }[pred.regime_of(i, frontier)]
                total += 1
                hits += truth is row[i]
        assert hits / total >= 0.99

    def test_uniform_midband_is_all_volatility(self):
        conf = [0.5] * 6
        rec = record(conf, masked=range(6), block=(0, 6))
        labels = segment_regimes(
            DecodeTrace(prompt_len=0, gen_budget=6, mask_id=MASK, steps=(rec,)),
            tau_hi=0.9, tau_lo=0.1, persistence_k=1,
        )
        assert labels == [[Regime.VOLATILITY_BAND] * 6]

    def test_decoded_positions_label_decoded(self):
        rec = record([0.01] * 4, masked=[2, 3], block=(0, 4))
        labels = segment_regimes(
            DecodeTrace(prompt_len=0, gen_budget=4, mask_id=MASK, steps=(rec,)),
            tau_hi=0.9, tau_lo=0.1, persistence_k=1,
        )
        assert labels[0][:2] == [Regime.DECODED, Regime.DECODED]
        assert labels[0][2:] == [Regime.FLOOR, Regime.FLOOR]

    def test_persistence_requires_consecutive_snapshots(self):
        flicker = record([0.95, 0.5], masked=range(2), block=(0, 2), step=0)
        steady = record([0.95, 0.5], masked=range(2), block=(0, 2), step=1)
        trace = DecodeTrace(prompt_len=0, gen_budget=2, mask_id=MASK, steps=(flicker, steady))
        labels = segment_regimes(trace, tau_hi=0.9, tau_lo=0.1, persistence_k=2)
        assert labels[1][0] is Regime.PLATEAU
        dip = record([0.3, 0.5], masked=range(2), block=(0, 2), step=0)
        trace = DecodeTrace(prompt_len=0, gen_budget=2, mask_id=MASK, steps=(dip, steady))
        labels = segment_regimes(trace, tau_hi=0.9, tau_lo=0.1, persistence_k=2)
        assert labels[1][0] is Regime.VOLATILITY_BAND

    def test_invalid_thresholds_rejected(self):
        rec = record([0.5], masked=[0], block=(0, 1))
        trace = DecodeTrace(prompt_len=0, gen_budget=1, mask_id=MASK, steps=(rec,))
        with pytest.raises(ValueError):
            segment_regimes(trace, tau_hi=0.1, tau_lo=0.9)
        with pytest.raises(ValueError):
            segment_regimes(trace, persistence_k=0)
        # a trace shorter than the window is labelled from the history it has
        assert segment_regimes(trace, persistence_k=5) == segment_regimes(trace, persistence_k=1)

    def test_labels_are_exhaustive_and_exclusive(self):
        _, result = self.synthetic_trace(vb_width_mean=3)
        labels = segment_regimes(result.trace, tau_hi=0.95, tau_lo=0.05, persistence_k=2)
        assert len(labels) == len(result.trace)
        for row in labels:
            assert len(row) == 24
            assert all(isinstance(lab, Regime) for lab in row)


def _window_labels(trace, tau_hi, tau_lo, k):
    """Regime labels straight from the definition: the last k snapshots."""
    rows = [tuple(conf) for _, _, conf in trace.rows()]
    labels = []
    for r, rec in enumerate(trace.steps):
        window = rows[max(0, r - k + 1) : r + 1]
        row = []
        for i in range(trace.gen_budget):
            history = [w[i] for w in window]
            if i not in rec.masked_before:
                row.append(Regime.DECODED)
            elif all(c >= tau_hi for c in history):
                row.append(Regime.PLATEAU)
            elif all(c <= tau_lo for c in history):
                row.append(Regime.FLOOR)
            else:
                row.append(Regime.VOLATILITY_BAND)
        labels.append(row)
    return labels


def _dense_csv(path, width, rows):
    """What a plain csv.writer writes for the header and the dense ``rows``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step"] + [f"p{i}" for i in range(width)])
        writer.writerows(rows)
    return Path(path).read_bytes()


def check_against_dense_references(trace, tau_hi, tau_lo, k):
    """Segmentation and the matrix writers, which look only at what each step
    evaluated, equal their dense definitions."""
    labels = segment_regimes(trace, tau_hi, tau_lo, k)
    assert labels == _window_labels(trace, tau_hi, tau_lo, k)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        L = trace.gen_budget
        write_heatmap(out / "heatmap.csv", trace)
        assert (out / "heatmap.csv").read_bytes() == _dense_csv(
            out / "dense-heatmap.csv", L, ([rec.step, *conf] for rec, _, conf in trace.rows()))
        write_regime_labels(out / "regimes.csv", labels)
        assert (out / "regimes.csv").read_bytes() == _dense_csv(
            out / "dense-regimes.csv", L, ([step, *row] for step, row in enumerate(labels)))


def carried_record(step, L, evaluated, values, masked):
    """A record that evaluates ``evaluated`` and holds their ``values``, so
    every other position keeps its value, as the decoder and the trace
    reader do (see StepRecord)."""
    return StepRecord(step=step, block_start=0, block_end=L, block_size=L if step == 0 else None,
                      evaluated=tuple(evaluated), predicted=(0,) * len(evaluated),
                      confidence=tuple(values), sampled=(),
                      masked_before=tuple(sorted(masked)), cache="none")


# the thresholds themselves, the never-evaluated sentinel and equal values
# that print differently (0.0 and -0.0, 1 and 1.0) are the edge cases
_CONFIDENCES = st.sampled_from([-1.0, 0.0, -0.0, 1e-05, 0.05, 0.1, 0.5, 0.9, 0.95, 1.0, 1, 0])


class TestSegmentationMatchesDefinition:
    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        L=st.integers(1, 6),
        steps=st.integers(1, 8),
        k=st.integers(1, 4),
    )
    def test_streak_counts_equal_window_scan(self, data, L, steps, k):
        """Random carry-forward traces; any record, the first included, may
        evaluate any subset of the positions."""
        conf = [SENTINEL_CONFIDENCE] * L
        recs, dense = [], []
        for step in range(steps):
            evaluated = sorted(data.draw(st.sets(st.integers(0, L - 1))))
            values = [data.draw(_CONFIDENCES) for _ in evaluated]
            masked = data.draw(st.sets(st.integers(0, L - 1)))
            recs.append(carried_record(step, L, evaluated, values, masked))
            for i, c in zip(evaluated, values):
                conf[i] = c
            dense.append(tuple(map(repr, conf)))
        trace = DecodeTrace(prompt_len=0, gen_budget=L, mask_id=MASK, steps=tuple(recs))
        assert [tuple(map(repr, row)) for _, _, row in trace.rows()] == dense
        check_against_dense_references(trace, 0.9, 0.1, k)


class TestWritersMatchDenseReference:
    """Hand-built and live traces in which steps evaluate strict subsets."""

    def test_equal_values_with_different_text(self):
        L = 3
        recs = []
        # position 0 stays evaluated through equal-but-differently-printed
        # values, position 1 is evaluated only at the start, and position 2
        # keeps the sentinel because no step ever evaluates it
        for step, c in enumerate([-1.0, 0.0, -0.0, 1e-05, 1.0, 1, 1, 1.0, 0.0]):
            evaluated = (0, 1) if step == 0 else (0,)
            values = (c, 0.5) if step == 0 else (c,)
            recs.append(carried_record(step, L, evaluated, values, range(L)))
        trace = DecodeTrace(prompt_len=0, gen_budget=L, mask_id=MASK, steps=tuple(recs))
        for k in (1, 2, 3):
            check_against_dense_references(trace, 0.9, 0.1, k)
        with tempfile.TemporaryDirectory() as tmp:
            write_heatmap(Path(tmp) / "h.csv", trace)
            column = [line.split(",")[1]
                      for line in (Path(tmp) / "h.csv").read_text().splitlines()[1:]]
        assert column == ["-1.0", "0.0", "-0.0", "1e-05", "1.0", "1", "1", "1.0", "0.0"]

    PREDICTORS = {
        "synthetic": lambda: build_synthetic(SyntheticFieldParams(
            noise_seed=3, delimiter_period=4, vb_width_mean=3, vb_low=0.4, vb_high=0.85)),
        "ngram": lambda: build_ngram(" . ".join(["a b c d e", "f g h i j"] * 4),
                                     order=3, smoothing_k=0.01),
    }

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(sorted(PREDICTORS)),
        sampler=st.sampled_from(SAMPLERS),
        scheduler=st.sampled_from(SCHEDULERS),
        cache=st.sampled_from(CACHES),
        L=st.integers(2, 20),
        b0=st.integers(1, 8),
        tau=st.floats(0.3, 1.0),
        thresholds=st.sampled_from([(0.9, 0.1), (0.95, 0.05), (0.6, 0.4)]),
        k=st.integers(1, 4),
    )
    def test_live_and_read_back_decodes(
        self, kind, sampler, scheduler, cache, L, b0, tau, thresholds, k
    ):
        pred = self.PREDICTORS[kind]()
        delims = frozenset({pred.vocabulary.id_of(".") if kind == "ngram"
                            else pred.delimiter_id})
        config = DecodeConfig(gen_budget=L, max_steps=2 * L, b0=b0, tau=tau,
                              sampler=sampler, scheduler=scheduler, cache=cache,
                              delimiters=delims, linear_steps=max(1, L // 2))
        trace = decode(pred, config, (0, 1)).trace
        assume(any(len(rec.evaluated) < L for rec in trace.steps))
        check_against_dense_references(trace, *thresholds, k)
        with tempfile.TemporaryDirectory() as tmp:
            write_trace(Path(tmp) / "t.trace.jsonl", trace, pred.vocabulary)
            read_back = read_trace_file(Path(tmp) / "t.trace.jsonl").trace
        check_against_dense_references(read_back, *thresholds, k)


class TestWidthSeries:
    def test_constant_width_until_edge_effects(self):
        pred, result = (None, None)
        pred = build_synthetic(SyntheticFieldParams(
            noise_seed=7, vb_width_mean=4, vb_low=0.4, vb_high=0.85))
        cfg = DecodeConfig(gen_budget=24, max_steps=24, b0=24, cache="none")
        result = decode(pred, cfg, (0, 1))
        labels = segment_regimes(result.trace, tau_hi=0.95, tau_lo=0.05, persistence_k=1)
        series = vb_width_series(labels)
        assert len(series) == len(result.trace)
        assert series[0] == 4
        assert max(series) == 4
        # the band stays at its nominal width until the budget edge truncates it;
        # out-of-order commits may briefly punch one-position holes
        assert all(w >= 3 for w in series[:12])

    def test_fully_decoded_step_has_zero_width(self):
        rec = record([0.5] * 4, masked=[], block=(0, 4))
        labels = segment_regimes(
            DecodeTrace(prompt_len=0, gen_budget=4, mask_id=MASK, steps=(rec,)),
            tau_hi=0.9, tau_lo=0.1, persistence_k=1,
        )
        assert vb_width_series(labels) == [0]
