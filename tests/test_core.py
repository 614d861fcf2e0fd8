"""State construction, the sample update rule, and config plumbing."""

import json
import pickle
import re
import tempfile
import time
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from semiar.core import (
    CACHES,
    SAMPLERS,
    SCHEDULERS,
    DecodeConfig,
    Positions,
    PredictionFrame,
    SENTINEL_CONFIDENCE,
    Vocabulary,
    apply_sample,
    config_from_dict,
    config_to_dict,
    init_state,
    read_utf8,
)
from semiar.decoder import decode
from semiar.experiment import parse_spec
from semiar.predictors import SyntheticFieldParams, build_synthetic

MASK = 9


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
        s = init_state([7, 3], gen_budget=4, mask_id=MASK)
        assert s.tokens == [7, 3, MASK, MASK, MASK, MASK]
        assert s.prompt_len == 2
        assert s.unmasked == 0

    def test_length_is_prompt_plus_budget(self):
        s = init_state(list(range(1, 6)), gen_budget=512, mask_id=MASK)
        assert len(s.tokens) == 5 + 512

    def test_masked_prompt_rejected(self):
        with pytest.raises(ValueError):
            init_state([5, MASK, 2], gen_budget=4, mask_id=MASK)

    def test_empty_prompt_rejected(self):
        with pytest.raises(ValueError):
            init_state([], gen_budget=4, mask_id=MASK)


class TestApplySample:
    def test_empty_selection_changes_nothing(self):
        s = init_state([7], 3, MASK)
        frame = frame_for(s, (1, 2, 3))
        before = list(s.tokens)
        s2 = apply_sample(s, frame, ())
        assert s2 is s
        assert s2.tokens == before
        assert s2.unmasked == 0

    def test_selected_positions_take_predictions(self):
        # tokens [7, M, M], predictions (4, 8) at generation 0..1, select {0}
        s = init_state([7], 2, MASK)
        frame = frame_for(s, (4, 8))
        s2 = apply_sample(s, frame, (0,))
        assert s2 is s
        assert s2.tokens == [7, 4, MASK]
        assert s2.unmasked == 1

    def test_full_selection_clears_all_masks(self):
        s = init_state([7], 3, MASK)
        frame = frame_for(s, (1, 2, 3))
        s2 = apply_sample(s, frame, {0, 1, 2})
        assert MASK not in s2.tokens
        assert s2.gen_masked() == frozenset()

    def test_unmasked_selection_rejected(self):
        # the prompt is outside the generation region, so a committed
        # generation position stands in for the unmasked one
        s = init_state([7], 2, MASK)
        frame = frame_for(s, (4, 8))
        s2 = apply_sample(s, frame, {0})
        with pytest.raises(ValueError, match="not masked"):
            apply_sample(s2, frame, {0})

    @pytest.mark.parametrize("pos", [-1, 2])
    def test_out_of_range_selection_rejected(self, pos):
        s = init_state([7], 2, MASK)
        with pytest.raises(ValueError, match="out of range"):
            apply_sample(s, frame_for(s, (4, 8)), {pos})

    def test_rejected_position_keeps_the_commits_before_it(self):
        # the state stays consistent: tokens and count agree
        s = init_state([7], 3, MASK)
        with pytest.raises(ValueError, match="position 5 out of range"):
            apply_sample(s, frame_for(s, (4, 8, 6)), (0, 5, 2))
        assert s.tokens == [7, 4, MASK, MASK]
        assert s.unmasked == 1

    @given(st.data())
    def test_monotone_unmasking_and_conservation(self, data):
        budget = data.draw(st.integers(1, 12))
        s = init_state([1, 2], budget, MASK)
        frame = frame_for(s, tuple([3] * budget))
        masked_before = set(s.gen_masked())
        pick = data.draw(st.sets(st.sampled_from(sorted(masked_before))))
        s2 = apply_sample(s, frame, pick)
        masked_after = set(s2.gen_masked())
        assert masked_after <= masked_before
        assert len(masked_before) - len(masked_after) == len(pick)
        assert s2.tokens[:2] == [1, 2]


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

    @pytest.mark.parametrize(
        "bad, message",
        [
            (dict(b0=2.5), "b0 must be an integer"),
            (dict(gen_budget=8.0), "gen_budget must be an integer"),
            (dict(max_steps=True), "max_steps must be an integer"),
            (dict(seed=1.0), "seed must be an integer"),
            (dict(linear_steps=2.0), "linear_steps must be an integer"),
            (dict(tau=True), "tau must be a number"),
            (dict(tau_d="0.3"), "tau_d must be a number"),
            (dict(window_fraction=None), "window_fraction must be a number"),
            (dict(sampler=b"dynamic"), "sampler must be a string"),
            (dict(scheduler=None), "scheduler must be a string"),
            (dict(cache=0), "cache must be a string"),
            (dict(delimiters=frozenset({"a"})), "delimiters must hold only integers"),
            (dict(delimiters=frozenset({True})), "delimiters must hold only integers"),
        ],
        ids=["b0-float", "gen_budget-float", "max_steps-bool", "seed-float",
             "linear_steps-float", "tau-bool", "tau_d-str", "window_fraction-none",
             "sampler-bytes", "scheduler-none", "cache-int", "delimiters-str",
             "delimiters-bool"],
    )
    def test_wrong_types_rejected(self, bad, message):
        with pytest.raises(ValueError) as info:
            DecodeConfig(**{"gen_budget": 8, "max_steps": 8, **bad})
        assert str(info.value) == message

    def test_mask_delimiter_rejected(self):
        pred = build_synthetic(SyntheticFieldParams())
        mask = pred.vocabulary.mask_id
        cfg = DecodeConfig(gen_budget=8, max_steps=8, delimiters=frozenset({mask}))
        with pytest.raises(ValueError, match="^the mask token cannot be a delimiter$"):
            decode(pred, cfg, (0, 1))


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
    def test_dict_json_round_trip(self, cfg):
        assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg

    @given(configs)
    def test_cell_values_parse_like_text(self, cfg):
        # a cell takes every field's text, bar the two it reserves
        cell = "".join(
            f"{f.name} = {'none' if getattr(cfg, f.name) is None else getattr(cfg, f.name)}\n"
            for f in fields(cfg) if f.name not in ("delimiters", "seed")
        )
        spec = parse_spec("[experiment]\n[predictor]\nkind = synthetic\n[cell c]\n" + cell)
        (parsed,) = spec.cells
        assert parsed.config == replace(cfg, delimiters=frozenset(), seed=0)


class TestReadUtf8:
    @given(st.text(st.sampled_from("a\u00e9\u20ac\U0001f600\r\n\u2028\x85\ufeff"), max_size=30))
    def test_valid_text_reads_as_read_text_gives_it(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "f.txt"
            path.write_bytes(text.encode("utf-8"))
            assert read_utf8(path) == path.read_text(encoding="utf-8")
            assert read_utf8(path, newlines=False) == text

    @given(st.lists(st.sampled_from([b"a", b"\xc3\xa9", b"\r", b"\n", b"\r\n"]), max_size=12),
           st.sampled_from([b"\xff", b"\xc3(", b"\xe2\x82", b"\x80"]))
    def test_undecodable_byte_names_its_line(self, head, bad):
        raw = b"".join(head)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "f.txt"
            path.write_bytes(raw + bad + b"z\n")
            line = len((raw.decode() + "z").splitlines())  # the line "z" would sit on
            with pytest.raises(UnicodeError, match=rf"^{re.escape(str(path))}: line {line}: "
                               rf"'utf-8' codec can't decode byte 0x{bad[0]:02x}: "):
                read_utf8(path)
            as_stored = raw.count(b"\n") + 1
            with pytest.raises(ValueError, match=rf": line {as_stored}: "):
                read_utf8(path, ValueError, newlines=False)


@st.composite
def positions_values(draw):
    """A :class:`Positions` over random ``head``, ``start`` and ``stop``."""
    head = tuple(draw(st.lists(st.integers(-5, 40), max_size=6)))
    start = draw(st.integers(-5, 40))
    return Positions(head, start, start + draw(st.integers(0, 12)))


class TestPositions:
    @given(positions_values(), st.integers(-25, 25), st.integers(-25, 25),
           st.integers(-25, 25) | st.none(), st.integers(-45, 45))
    def test_reads_as_its_tuple(self, value, i, j, step, x):
        as_tuple = tuple(value)
        assert as_tuple == value.head + tuple(range(value.start, value.stop))
        assert len(value) == len(as_tuple)
        assert list(value) == list(as_tuple)
        assert (x in value) == (x in as_tuple)
        if -len(as_tuple) <= i < len(as_tuple):
            assert value[i] == as_tuple[i]
        else:
            with pytest.raises(IndexError):
                value[i]
        if step != 0:
            assert value[i:j:step] == as_tuple[i:j:step]
            assert type(value[i:j:step]) is tuple
        assert repr(value) == repr(as_tuple)
        assert hash(value) == hash(as_tuple)
        assert pickle.loads(pickle.dumps(value)) == value
        assert type(pickle.loads(pickle.dumps(value))) is Positions

    @given(positions_values(), st.integers(0, 12), st.lists(st.integers(-5, 40), max_size=8))
    def test_compares_as_its_tuple(self, value, cut, other):
        as_tuple, other = tuple(value), tuple(other)
        # the same positions split at another place
        cut = min(cut, value.stop - value.start)
        resplit = Positions(value.head + tuple(range(value.start, value.start + cut)),
                            value.start + cut, value.stop)
        for same in (as_tuple, resplit):
            assert value == same and same == value
            assert not (value != same or same != value)
        assert (value == other) == (as_tuple == other) == (other == value)
        assert (value != other) == (as_tuple != other) == (other != value)
        assert (value == Positions(other, 0, 0)) == (as_tuple == other)
        assert value != list(as_tuple) and list(as_tuple) != value

    def test_is_immutable_and_stops_at_or_after_start(self):
        value = Positions((1, 3), 5, 7)
        with pytest.raises(AttributeError):
            value.start = 0
        with pytest.raises(ValueError):
            Positions((), 5, 4)
        assert value == (1, 3, 5, 6) and len(Positions((), 4, 4)) == 0
