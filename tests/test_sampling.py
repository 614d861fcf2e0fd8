"""Sampler behaviour against hand-worked cases plus randomized laws."""

import pytest
from hypothesis import given, settings, strategies as st

from semiar.core import PredictionFrame
from semiar.sampling import linear_sample, threshold_sample, vanilla_sample

MASK = 99


def block_of(confidences, committed=()):
    """A frame over len(confidences) generation slots, and the ascending
    positions among them that are still masked: every one but ``committed``."""
    frame = PredictionFrame(
        predicted=tuple(5 for _ in confidences),
        confidence=tuple(confidences),
    )
    return frame, tuple(g for g in range(len(confidences)) if g not in committed)


class TestThresholdSample:
    def test_threshold_plus_top1(self):
        frame, masked = block_of([0.95, 0.50, 0.92])
        assert threshold_sample(frame, 0.9, masked) == (0, 2)

    def test_all_below_threshold_forces_top1(self):
        frame, masked = block_of([0.2, 0.6, 0.4])
        assert threshold_sample(frame, 0.9, masked) == (1,)

    def test_tie_breaks_to_lowest_index(self):
        frame, masked = block_of([0.4, 0.4])
        assert threshold_sample(frame, 0.9, masked) == (0,)

    def test_empty_masked_scope_returns_empty(self):
        frame, masked = block_of([0.5, 0.5], committed=(0, 1))
        assert threshold_sample(frame, 0.9, masked) == ()

    def test_unevaluated_masked_scope_rejected(self):
        _, masked = block_of([0.5])
        bare = PredictionFrame.sentinel(1, MASK)
        with pytest.raises(ValueError, match="never evaluated"):
            threshold_sample(bare, 0.9, masked)


class TestLinearSample:
    def test_top_k_by_confidence(self):
        frame, masked = block_of([0.1, 0.9, 0.5])
        assert linear_sample(frame, 2, masked) == (1, 2)

    def test_per_step_caps_at_masked_count(self):
        frame, masked = block_of([0.1, 0.9])
        assert linear_sample(frame, 5, masked) == (0, 1)

    def test_k1_matches_vanilla(self):
        frame, masked = block_of([0.3, 0.8, 0.8, 0.1])
        assert linear_sample(frame, 1, masked) == vanilla_sample(frame, masked) == (1,)

    def test_invalid_per_step(self):
        frame, masked = block_of([0.5])
        with pytest.raises(ValueError):
            linear_sample(frame, 0, masked)


class TestVanillaSample:
    def test_argmax(self):
        frame, masked = block_of([0.2, 0.8])
        assert vanilla_sample(frame, masked) == (1,)

    def test_single_mask_forced(self):
        frame, masked = block_of([0.01, 0.99], committed=(1,))
        assert vanilla_sample(frame, masked) == (0,)

    def test_equal_confidences_take_lowest_index(self):
        frame, masked = block_of([0.6, 0.6, 0.6])
        assert vanilla_sample(frame, masked) == (0,)


confidence_lists = st.lists(
    st.floats(min_value=0.001, max_value=1.0, allow_nan=False), min_size=1, max_size=24
)


@given(confidence_lists, st.floats(0.05, 1.0), st.floats(0.05, 1.0))
@settings(max_examples=300)
def test_threshold_dominance_and_progress(confs, t1, t2):
    lo, hi = sorted((t1, t2))
    frame, masked = block_of(confs)
    s_hi = threshold_sample(frame, hi, masked)
    s_lo = threshold_sample(frame, lo, masked)
    assert set(s_hi) <= set(s_lo)
    assert s_hi, "non-empty whenever the block holds a mask"
    assert set(s_lo) <= set(masked)


@given(confidence_lists, st.data())
@settings(max_examples=200)
def test_scope_containment_all_samplers(confs, data):
    committed = data.draw(st.sets(st.integers(0, len(confs) - 1)))
    frame, masked = block_of(confs, committed=committed)
    scope = data.draw(st.sets(st.integers(0, len(confs) - 1)))
    masked_scope = tuple(g for g in masked if g in scope)
    for result in (
        vanilla_sample(frame, masked_scope),
        linear_sample(frame, 2, masked_scope),
        threshold_sample(frame, 0.7, masked_scope),
    ):
        assert set(result) <= set(masked_scope)
        assert list(result) == sorted(set(result)), "an ascending tuple of distinct positions"
        if masked_scope:
            assert result
