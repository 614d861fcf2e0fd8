"""State construction, the sample update rule, and config plumbing."""

import json
import time
from dataclasses import fields, replace

import pytest
from hypothesis import given, strategies as st

from semiar.core import (
    CACHES,
    SAMPLERS,
    SCHEDULERS,
    DecodeConfig,
    PredictionFrame,
    SENTINEL_CONFIDENCE,
    Vocabulary,
    apply_sample,
    config_from_dict,
    config_from_text,
    config_to_dict,
    init_state,
)
from semiar.experiment import parse_spec

MASK = 9


def config_to_text(config):
    """A config document that sets every field, in the form config_from_text reads."""
    def text(value):
        if value is None:
            return "none"
        if isinstance(value, frozenset):
            return ",".join(str(v) for v in sorted(value))
        return str(value)

    return "".join(f"{f.name} = {text(getattr(config, f.name))}\n" for f in fields(config))


def frame_for(state, predicted, confidence=None):
    conf = confidence or tuple(0.5 for _ in predicted)
    return PredictionFrame(tuple(predicted), tuple(conf))


class TestVocabulary:
    def test_build_appends_specials(self):
        v = Vocabulary.build(["a", "b"])
        assert v.size == 4
        assert v.token_of(v.mask_id) == "[MASK]"
        assert v.token_of(v.eos_id) == "<EOS>"
        assert v.mask_id != v.eos_id

    def test_round_trip_bijection(self):
        v = Vocabulary.build(["x", "y", "z"])
        for i in range(v.size):
            assert v.id_of(v.token_of(i)) == i

    def test_ids_of_a_large_vocabulary(self):
        # one id_of per corpus token builds an n-gram model: it must not
        # scan the vocabulary (50,000 lookups over 5,000 tokens take seconds
        # that way)
        v = Vocabulary.build([f"t{i}" for i in range(5000)])
        tokens = [f"t{(7 * i) % 5000}" for i in range(50_000)]
        start = time.perf_counter()
        ids = [v.id_of(t) for t in tokens]
        assert time.perf_counter() - start < 0.5
        assert ids == [(7 * i) % 5000 for i in range(50_000)]
        assert v.id_of("[MASK]") == v.mask_id == 5000
        with pytest.raises(KeyError, match=r"^\"unknown token 't5000'\"$"):
            v.id_of("t5000")

    def test_duplicate_tokens_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary(("a", "a", "m", "e"), 2, 3)

    def test_same_special_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary(("a", "m"), 1, 1)


class TestInitState:
    def test_direct_construction(self):
        s = init_state([7, 3], gen_budget=4, max_steps=8, mask_id=MASK)
        assert s.tokens == (7, 3, MASK, MASK, MASK, MASK)
        assert s.step == 8
        assert s.prompt_len == 2

    def test_length_is_prompt_plus_budget(self):
        s = init_state(list(range(1, 6)), gen_budget=512, max_steps=512, mask_id=MASK)
        assert len(s.tokens) == 5 + 512

    def test_masked_prompt_rejected(self):
        with pytest.raises(ValueError):
            init_state([5, MASK, 2], gen_budget=4, max_steps=4, mask_id=MASK)

    def test_empty_prompt_rejected(self):
        with pytest.raises(ValueError):
            init_state([], gen_budget=4, max_steps=4, mask_id=MASK)


class TestApplySample:
    def test_empty_selection_only_decrements_step(self):
        s = init_state([7], 3, 5, MASK)
        frame = frame_for(s, (1, 2, 3))
        s2 = apply_sample(s, frame, ())
        assert s2.tokens == s.tokens
        assert s2.step == 4

    def test_selected_positions_take_predictions(self):
        # tokens [7, M, M], predictions (4, 8) at generation 0..1, select {0}
        s = init_state([7], 2, 4, MASK)
        frame = frame_for(s, (4, 8))
        s2 = apply_sample(s, frame, {0})
        assert s2.tokens == (7, 4, MASK)

    def test_full_selection_clears_all_masks(self):
        s = init_state([7], 3, 4, MASK)
        frame = frame_for(s, (1, 2, 3))
        s2 = apply_sample(s, frame, {0, 1, 2})
        assert MASK not in s2.tokens
        assert s2.gen_masked() == frozenset()

    def test_unmasked_selection_rejected(self):
        # the prompt is outside the generation region, so a committed
        # generation position stands in for the unmasked one
        s = init_state([7], 2, 4, MASK)
        frame = frame_for(s, (4, 8))
        s2 = apply_sample(s, frame, {0})
        with pytest.raises(ValueError, match="not masked"):
            apply_sample(s2, frame, {0})

    @pytest.mark.parametrize("pos", [-1, 2])
    def test_out_of_range_selection_rejected(self, pos):
        s = init_state([7], 2, 4, MASK)
        with pytest.raises(ValueError, match="out of range"):
            apply_sample(s, frame_for(s, (4, 8)), {pos})

    def test_exhausted_step_budget_rejected(self):
        s = init_state([7], 1, 1, MASK)
        frame = frame_for(s, (4,))
        s2 = apply_sample(s, frame, {0})
        with pytest.raises(ValueError):
            apply_sample(s2, frame, ())

    @given(st.data())
    def test_monotone_unmasking_and_conservation(self, data):
        budget = data.draw(st.integers(1, 12))
        s = init_state([1, 2], budget, budget + 1, MASK)
        frame = frame_for(s, tuple([3] * budget))
        masked_before = set(s.gen_masked())
        pick = data.draw(st.sets(st.sampled_from(sorted(masked_before))))
        s2 = apply_sample(s, frame, pick)
        masked_after = set(s2.gen_masked())
        assert masked_after <= masked_before
        assert len(masked_before) - len(masked_after) == len(pick)
        assert s2.tokens[:2] == s.tokens[:2]


class TestPredictionFrame:
    def test_sentinel_has_no_evaluated_positions(self):
        f = PredictionFrame.sentinel(4, MASK)
        assert f.predicted == [MASK] * 4
        assert all(c == SENTINEL_CONFIDENCE for c in f.confidence)

    def test_merge_carries_old_values(self):
        f = PredictionFrame.sentinel(3, MASK)
        f1 = f.merge([0, 2], [(5, 0.9), (6, 0.8)])
        f2 = f1.merge([2], [(7, 0.7)])
        assert f2.predicted == [5, MASK, 7]
        assert f2.confidence == [0.9, SENTINEL_CONFIDENCE, 0.7]

    def test_merge_of_nothing_is_the_same_frame(self):
        f = PredictionFrame((4, 5), (0.5, 0.6))
        assert f.merge((), []) is f
        assert (f.predicted, f.confidence) == ([4, 5], [0.5, 0.6])

    def test_merge_writes_in_place(self):
        f = PredictionFrame((4, 5), (0.5, 0.6))
        rows = f.predicted, f.confidence
        assert f.merge([1], [(5, 0.7)]) is f
        assert (f.predicted, f.confidence) == ([4, 5], [0.5, 0.7])
        assert rows[0] is f.predicted and rows[1] is f.confidence
        # an equal token of another type is stored as given
        assert type(f.merge([0], [(4.0, 0.5)]).predicted[0]) is float

    def test_merge_rejects_misaligned_values(self):
        with pytest.raises(ValueError):
            PredictionFrame((4, 5), (0.5, 0.6)).merge([0, 1], [(4, 0.5)])

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2)), max_size=8))
    def test_merge_keeps_the_last_value_of_a_repeated_position(self, writes):
        pred, conf = [0, 1, 2, 0], [0.5] * 4
        f = PredictionFrame(pred, conf)
        merged = f.merge([p for p, _ in writes], [(tok, 0.25 * tok) for _, tok in writes])
        for p, tok in writes:
            pred[p], conf[p] = tok, 0.25 * tok
        assert merged.predicted == pred and merged.confidence == conf


class TestDecodeConfig:
    def test_defaults_match_documentation(self):
        cfg = DecodeConfig(gen_budget=8, max_steps=8)
        assert cfg.tau == 0.9
        assert cfg.b0 == 32
        assert cfg.tau_d == 0.3
        assert cfg.window_fraction == 0.25

    @pytest.mark.parametrize(
        "bad",
        [
            dict(tau=0.0),
            dict(tau=1.5),
            dict(tau_d=0.0),
            dict(b0=0),
            dict(window_fraction=0.0),
            dict(sampler="greedy"),
            dict(cache="block"),
        ],
    )
    def test_invalid_fields_rejected(self, bad):
        with pytest.raises(ValueError):
            DecodeConfig(gen_budget=8, max_steps=8, **bad)

    def test_mask_delimiter_rejected(self):
        vocab = Vocabulary.build(["a"])
        cfg = DecodeConfig(gen_budget=8, max_steps=8, delimiters=frozenset({vocab.mask_id}))
        with pytest.raises(ValueError):
            cfg.validate_against(vocab)

    def test_text_round_trip(self):
        cfg = DecodeConfig(
            gen_budget=64, max_steps=64, b0=16, sampler="linear",
            scheduler="adaptive", cache="dual", delimiters=frozenset({3, 5}),
            linear_steps=32, seed=99,
        )
        assert config_from_text(config_to_text(cfg)) == cfg

    def test_parse_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown config key"):
            config_from_text("gen_budget = 4\nmax_steps = 4\nblocksize = 2\n")

    def test_parse_error_names_line_and_key(self):
        with pytest.raises(ValueError, match=r"^line 2: b0: invalid literal for int"):
            config_from_text("gen_budget = 4\nb0 = x\nmax_steps = 4\n")

    @pytest.mark.parametrize(
        "line, message",
        [("tau = 2", "line 3: tau: must lie in (0, 1]"),
         ("b0 = 0", "line 3: b0: must be >= 1"),
         ("sampler = greedy", "line 3: sampler: must be one of ('vanilla', 'linear', 'dynamic')")],
        ids=["tau", "b0", "sampler"],
    )
    def test_range_error_names_line_and_key(self, line, message):
        with pytest.raises(ValueError) as info:
            config_from_text(f"gen_budget = 4\nmax_steps = 4\n{line}\n")
        assert str(info.value) == message

    def test_parse_reports_missing_required(self):
        with pytest.raises(ValueError, match="missing required"):
            config_from_text("tau = 0.5\n")

    def test_comments_and_blanks_ignored(self):
        cfg = config_from_text("# hello\n\ngen_budget = 4\nmax_steps = 6 # inline\n")
        assert cfg.gen_budget == 4
        assert cfg.max_steps == 6


unit_interval = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
configs = st.builds(
    DecodeConfig,
    gen_budget=st.integers(1, 10_000),
    max_steps=st.integers(1, 10_000),
    tau=unit_interval,
    b0=st.integers(1, 10_000),
    tau_d=unit_interval,
    delimiters=st.frozensets(st.integers(0, 10_000), max_size=5),
    window_fraction=unit_interval,
    sampler=st.sampled_from(SAMPLERS),
    scheduler=st.sampled_from(SCHEDULERS),
    cache=st.sampled_from(CACHES),
    linear_steps=st.none() | st.integers(1, 10_000),
    seed=st.integers(-(2**63), 2**64),
)


class TestConfigCodec:
    @given(configs)
    def test_text_round_trip(self, cfg):
        assert config_from_text(config_to_text(cfg)) == cfg

    @given(configs)
    def test_dict_json_round_trip(self, cfg):
        assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg

    @given(configs)
    def test_cell_values_parse_like_text(self, cfg):
        # a cell takes every field's config-file text, bar the two it reserves
        cell = "".join(
            line + "\n"
            for line in config_to_text(cfg).splitlines()
            if line.split(" = ")[0] not in ("delimiters", "seed")
        )
        spec = parse_spec("[experiment]\n[predictor]\nkind = synthetic\n[cell c]\n" + cell)
        (parsed,) = spec.cells
        assert parsed.config == replace(cfg, delimiters=frozenset(), seed=0)
