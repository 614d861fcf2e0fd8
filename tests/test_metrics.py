"""Failure-event detectors and regime segmentation on constructed and live traces."""

import pytest
from hypothesis import given, settings, strategies as st

from semiar.core import DecodeConfig, DecodeTrace, StepRecord
from semiar.decoder import decode
from semiar.metrics import (
    Regime,
    detect_late_overhead,
    detect_premature,
    failure_rates,
    segment_regimes,
    vb_width_series,
)
from semiar.predictors import SyntheticFieldParams, build_synthetic


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
        ev = detect_late_overhead(rec, 0.9)
        assert ev is not None and ev.positions == (9,)
        assert ev.confidences == (0.93,)

    def test_floor_outside_stays_quiet(self):
        conf = [0.5] * 8 + [0.05] * 4
        rec = record(conf, masked=range(12), block=(0, 8))
        assert detect_late_overhead(rec, 0.9) is None

    def test_final_block_has_no_outside(self):
        conf = [0.99] * 8
        rec = record(conf, masked=range(8), block=(0, 8))
        assert detect_late_overhead(rec, 0.9) is None

    def test_unmasked_outside_positions_ignored(self):
        conf = [0.5] * 8 + [0.99] * 4
        rec = record(conf, masked=range(8), block=(0, 8))
        assert detect_late_overhead(rec, 0.9) is None


class TestPremature:
    def test_forced_low_top_with_better_outside(self):
        conf = [0.4, 0.3, 0.2, 0.1] + [0.92] + [0.05] * 3
        rec = record(conf, masked=range(8), block=(0, 4))
        ev = detect_premature(rec, 0.9)
        assert ev is not None
        assert ev.forced_pos == 0 and ev.forced_conf == 0.4
        assert ev.better_positions == (4,)

    def test_no_event_when_top_reaches_threshold(self):
        conf = [0.95, 0.3] + [0.99] * 2
        rec = record(conf, masked=range(4), block=(0, 2))
        assert detect_premature(rec, 0.9) is None

    def test_no_event_without_strictly_better_outside(self):
        conf = [0.4, 0.3] + [0.4, 0.2]
        rec = record(conf, masked=range(4), block=(0, 2))
        assert detect_premature(rec, 0.9) is None

    def test_tie_break_picks_lowest_forced_position(self):
        conf = [0.4, 0.4] + [0.6]
        rec = record(conf, masked=range(3), block=(0, 2))
        ev = detect_premature(rec, 0.9)
        assert ev.forced_pos == 0

    def test_empty_block_yields_nothing(self):
        conf = [0.4] * 4
        rec = record(conf, masked=[2, 3], block=(0, 2))
        assert detect_premature(rec, 0.9) is None


class TestFailureRates:
    def test_empty_trace_rejected(self):
        trace = DecodeTrace(prompt_len=1, gen_budget=4, steps=())
        with pytest.raises(ValueError):
            failure_rates(trace, 0.9)

    def test_single_clean_step(self):
        rec = record([0.95] * 4, masked=range(4), block=(0, 4))
        trace = DecodeTrace(prompt_len=1, gen_budget=4, steps=(rec,))
        report = failure_rates(trace, 0.9)
        assert (report.late_overhead_steps, report.premature_steps) == (0, 0)
        assert report.late_overhead_rate == 0.0

    def test_step_can_count_for_both(self):
        conf = [0.4, 0.3, 0.95, 0.05]
        rec = record(conf, masked=range(4), block=(0, 2))
        trace = DecodeTrace(prompt_len=1, gen_budget=4, steps=(rec,))
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
            DecodeTrace(prompt_len=0, gen_budget=6, steps=(rec,)),
            tau_hi=0.9, tau_lo=0.1, persistence_k=1,
        )
        assert labels == [[Regime.VOLATILITY_BAND] * 6]

    def test_decoded_positions_label_decoded(self):
        rec = record([0.01] * 4, masked=[2, 3], block=(0, 4))
        labels = segment_regimes(
            DecodeTrace(prompt_len=0, gen_budget=4, steps=(rec,)),
            tau_hi=0.9, tau_lo=0.1, persistence_k=1,
        )
        assert labels[0][:2] == [Regime.DECODED, Regime.DECODED]
        assert labels[0][2:] == [Regime.FLOOR, Regime.FLOOR]

    def test_persistence_requires_consecutive_snapshots(self):
        flicker = record([0.95, 0.5], masked=range(2), block=(0, 2), step=0)
        steady = record([0.95, 0.5], masked=range(2), block=(0, 2), step=1)
        trace = DecodeTrace(prompt_len=0, gen_budget=2, steps=(flicker, steady))
        labels = segment_regimes(trace, tau_hi=0.9, tau_lo=0.1, persistence_k=2)
        assert labels[1][0] is Regime.PLATEAU
        dip = record([0.3, 0.5], masked=range(2), block=(0, 2), step=0)
        trace = DecodeTrace(prompt_len=0, gen_budget=2, steps=(dip, steady))
        labels = segment_regimes(trace, tau_hi=0.9, tau_lo=0.1, persistence_k=2)
        assert labels[1][0] is Regime.VOLATILITY_BAND

    def test_invalid_thresholds_rejected(self):
        rec = record([0.5], masked=[0], block=(0, 1))
        trace = DecodeTrace(prompt_len=0, gen_budget=1, steps=(rec,))
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
    labels = []
    for r, rec in enumerate(trace.steps):
        window = trace.steps[max(0, r - k + 1) : r + 1]
        row = []
        for i in range(trace.gen_budget):
            history = [w.confidence[i] for w in window]
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


# thresholds themselves and the never-evaluated sentinel are the edge cases
_CONFIDENCES = st.sampled_from([-1.0, 0.0, 0.05, 0.1, 0.5, 0.9, 0.95, 1.0])


class TestSegmentationMatchesDefinition:
    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        L=st.integers(1, 6),
        steps=st.integers(1, 8),
        k=st.integers(1, 4),
    )
    def test_streak_counts_equal_window_scan(self, data, L, steps, k):
        recs = tuple(
            record(data.draw(st.lists(_CONFIDENCES, min_size=L, max_size=L)),
                   masked=data.draw(st.sets(st.integers(0, L - 1))), block=(0, L), step=r)
            for r in range(steps)
        )
        trace = DecodeTrace(prompt_len=0, gen_budget=L, steps=recs)
        assert segment_regimes(trace, 0.9, 0.1, k) == _window_labels(trace, 0.9, 0.1, k)


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
            DecodeTrace(prompt_len=0, gen_budget=4, steps=(rec,)),
            tau_hi=0.9, tau_lo=0.1, persistence_k=1,
        )
        assert vb_width_series(labels) == [0]
