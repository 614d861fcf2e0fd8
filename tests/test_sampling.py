"""Sampler behaviour against hand-worked cases plus randomized laws."""

import pytest
from hypothesis import given, settings, strategies as st

from semiar.core import PredictionFrame, init_state
from semiar.sampling import linear_sample, threshold_sample, vanilla_sample

MASK = 99
PROMPT = (1,)


def masked_state(confidences, committed=()):
    """State with one prompt token and len(confidences) generation slots."""
    L = len(confidences)
    state = init_state(PROMPT, L, L + 1, MASK)
    tokens = list(state.tokens)
    for g in committed:
        tokens[1 + g] = 7
    state = state.__class__(
        tokens=tuple(tokens), prompt_len=1, gen_budget=L, step=L + 1, mask_id=MASK
    )
    frame = PredictionFrame(
        predicted=tuple(5 for _ in confidences),
        confidence=tuple(confidences),
    )
    return state, frame


class TestThresholdSample:
    def test_threshold_plus_top1(self):
        state, frame = masked_state([0.95, 0.50, 0.92])
        assert threshold_sample(state, frame, 0.9, range(3)) == {0, 2}

    def test_all_below_threshold_forces_top1(self):
        state, frame = masked_state([0.2, 0.6, 0.4])
        assert threshold_sample(state, frame, 0.9, range(3)) == {1}

    def test_tie_breaks_to_lowest_index(self):
        state, frame = masked_state([0.4, 0.4])
        assert threshold_sample(state, frame, 0.9, range(2)) == {0}

    def test_empty_masked_scope_returns_empty(self):
        state, frame = masked_state([0.5, 0.5], committed=(0, 1))
        assert threshold_sample(state, frame, 0.9, range(2)) == frozenset()

    def test_unevaluated_masked_scope_rejected(self):
        state, frame = masked_state([0.5])
        bare = PredictionFrame.sentinel(state.gen_budget, MASK)
        with pytest.raises(ValueError, match="never evaluated"):
            threshold_sample(state, bare, 0.9, range(1))


class TestLinearSample:
    def test_top_k_by_confidence(self):
        state, frame = masked_state([0.1, 0.9, 0.5])
        assert linear_sample(state, frame, 2, range(3)) == {1, 2}

    def test_per_step_caps_at_masked_count(self):
        state, frame = masked_state([0.1, 0.9])
        assert linear_sample(state, frame, 5, range(2)) == {0, 1}

    def test_k1_matches_vanilla(self):
        state, frame = masked_state([0.3, 0.8, 0.8, 0.1])
        assert linear_sample(state, frame, 1, range(4)) == vanilla_sample(
            state, frame, range(4)
        )

    def test_invalid_per_step(self):
        state, frame = masked_state([0.5])
        with pytest.raises(ValueError):
            linear_sample(state, frame, 0, range(1))


class TestVanillaSample:
    def test_argmax(self):
        state, frame = masked_state([0.2, 0.8])
        assert vanilla_sample(state, frame, range(2)) == {1}

    def test_single_mask_forced(self):
        state, frame = masked_state([0.01, 0.99], committed=(1,))
        assert vanilla_sample(state, frame, range(2)) == {0}

    def test_equal_confidences_take_lowest_index(self):
        state, frame = masked_state([0.6, 0.6, 0.6])
        assert vanilla_sample(state, frame, range(3)) == {0}


confidence_lists = st.lists(
    st.floats(min_value=0.001, max_value=1.0, allow_nan=False), min_size=1, max_size=24
)


@given(confidence_lists, st.floats(0.05, 1.0), st.floats(0.05, 1.0))
@settings(max_examples=300)
def test_threshold_dominance_and_progress(confs, t1, t2):
    lo, hi = sorted((t1, t2))
    state, frame = masked_state(confs)
    scope = range(len(confs))
    s_hi = threshold_sample(state, frame, hi, scope)
    s_lo = threshold_sample(state, frame, lo, scope)
    assert s_hi <= s_lo
    assert s_hi, "non-empty whenever the scope holds a mask"
    assert s_lo <= frozenset(scope)


@given(confidence_lists, st.data())
@settings(max_examples=200)
def test_scope_containment_all_samplers(confs, data):
    committed = data.draw(st.sets(st.integers(0, len(confs) - 1)))
    state, frame = masked_state(confs, committed=sorted(committed))
    scope = data.draw(st.sets(st.integers(0, len(confs) - 1)))
    masked_scope = {g for g in scope if g not in committed}
    for result in (
        vanilla_sample(state, frame, scope),
        linear_sample(state, frame, 2, scope),
        threshold_sample(state, frame, 0.7, scope),
    ):
        assert result <= masked_scope
        if masked_scope:
            assert result
