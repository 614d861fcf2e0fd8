"""Trace file round-trips and schema validation."""

import json

import pytest

from semiar.core import DecodeConfig
from semiar.decoder import decode
from semiar.predictors import SyntheticFieldParams, build_synthetic
from semiar.tracefile import (
    TraceFormatError,
    config_from_dict,
    config_to_dict,
    read_trace_file,
    trace_from_file,
    write_trace,
)


@pytest.fixture
def small_run():
    pred = build_synthetic(SyntheticFieldParams(noise_seed=2, vb_width_mean=3))
    cfg = DecodeConfig(gen_budget=10, max_steps=10, b0=5, cache="dual")
    return pred, cfg, (0, 1), decode(pred, cfg, (0, 1))


class TestRoundTrip:
    def test_trace_reconstruction_matches_live_records(self, small_run, tmp_path):
        pred, cfg, prompt, result = small_run
        path = tmp_path / "run.trace.jsonl"
        write_trace(path, result.trace, pred.vocabulary, prompt=prompt, config=cfg)
        data = read_trace_file(path)
        assert data.prompt == prompt
        assert data.config == cfg
        rebuilt = trace_from_file(data)
        assert rebuilt == result.trace

    def test_header_carries_vocabulary(self, small_run, tmp_path):
        pred, cfg, prompt, result = small_run
        path = tmp_path / "run.trace.jsonl"
        write_trace(path, result.trace, pred.vocabulary)
        data = read_trace_file(path)
        assert data.vocab == pred.vocabulary
        assert len(data.trace) == len(result.trace)

    def test_rewrite_is_byte_identical(self, small_run, tmp_path):
        pred, cfg, prompt, result = small_run
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_trace(a, result.trace, pred.vocabulary, prompt=prompt, config=cfg)
        write_trace(b, result.trace, pred.vocabulary, prompt=prompt, config=cfg)
        assert a.read_bytes() == b.read_bytes()

    def test_config_dict_round_trip(self):
        cfg = DecodeConfig(gen_budget=8, max_steps=9, delimiters=frozenset({1, 4}),
                           scheduler="adaptive", linear_steps=3)
        assert config_from_dict(config_to_dict(cfg)) == cfg


def _set(key, index, value):
    def edit(obj):
        obj[key][index] = value
    return edit


def _put(key, value):
    def edit(obj):
        obj[key] = value
    return edit


def _drop(key):
    def edit(obj):
        del obj[key]
    return edit


def _header(**changes):
    """A sound header with ``changes`` applied."""
    header = {"vocab": ["a", "[MASK]", "<EOS>"], "mask_id": 1, "eos_id": 2,
              "prompt_len": 1, "gen_budget": 4, "prompt": [0]}
    header.update(changes)
    return header


class TestValidation:
    @pytest.mark.parametrize(
        "header, match",
        [
            pytest.param({"vocab": ["a", "[MASK]", "<EOS>"]}, "missing key", id="missing-key"),
            pytest.param(
                {"vocab": ["a", "[MASK]", "<EOS>"], "mask_id": 1, "prompt_len": 1,
                 "gen_budget": 4, "config": {"gen_budget": 4, "max_steps": 4, "block": 2}},
                "unknown config key 'block'",
                id="unknown-config-key",
            ),
            pytest.param(_header(gen_budget="four"), "gen_budget 'four' is not an integer",
                         id="gen-budget-string"),
            pytest.param(_header(mask_id="x"), "mask_id 'x' is not an integer",
                         id="mask-id-string"),
            pytest.param(_header(eos_id=2.0), "eos_id 2.0 is not an integer",
                         id="eos-id-float"),
            pytest.param(_header(prompt_len=True), "prompt_len True is not an integer",
                         id="prompt-len-bool"),
            pytest.param(_header(gen_budget=-3), "gen_budget -3 is below 1",
                         id="gen-budget-negative"),
            pytest.param(_header(gen_budget=0), "gen_budget 0 is below 1",
                         id="gen-budget-zero"),
            pytest.param(_header(prompt_len=-1), "prompt_len -1 is negative",
                         id="prompt-len-negative"),
            pytest.param(_header(mask_id=3), r"mask_id 3 outside the vocabulary \[0, 3\)",
                         id="mask-id-beyond-vocab"),
            pytest.param(_header(eos_id=-1), r"eos_id -1 outside the vocabulary \[0, 3\)",
                         id="eos-id-negative"),
            pytest.param(_header(eos_id=1), "distinct mask and end-of-sequence",
                         id="eos-is-mask"),
            pytest.param({"vocab": ["[MASK]"], "mask_id": 0, "prompt_len": 1,
                          "gen_budget": 4}, "distinct mask and end-of-sequence",
                         id="vocab-holds-only-mask"),
            pytest.param({"vocab": ["<EOS>", "a"], "mask_id": 0, "prompt_len": 0,
                          "gen_budget": 1}, "distinct mask and end-of-sequence",
                         id="fallback-eos-is-mask"),
            pytest.param(_header(vocab=5), "vocab must be a JSON array of strings",
                         id="vocab-number"),
            pytest.param(_header(vocab=["a", 1, "<EOS>"]),
                         "vocab must be a JSON array of strings", id="vocab-holds-int"),
            pytest.param(_header(prompt=7), "prompt must be a JSON array of integers",
                         id="prompt-number"),
            pytest.param(_header(prompt=[0, "a"]), "prompt must be a JSON array of integers",
                         id="prompt-holds-string"),
            pytest.param(_header(prompt=[0, 0]), "prompt holds 2 ids but prompt_len is 1",
                         id="prompt-length-mismatch"),
            pytest.param(_header(prompt=[3]), r"prompt id 3 at index 0 outside the vocabulary",
                         id="prompt-beyond-vocab"),
            pytest.param(_header(prompt=[1]), "prompt id 1 at index 0 is the mask id",
                         id="prompt-holds-mask"),
            pytest.param(_header(vocab=["a", "a", "[MASK]", "<EOS>"], mask_id=2, eos_id=3),
                         "duplicate token strings", id="vocab-repeats-token"),
        ],
    )
    def test_malformed_header_names_line_1(self, header, match, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(header) + "\n")
        with pytest.raises(TraceFormatError, match=f"line 1: .*{match}"):
            read_trace_file(path)

    @pytest.mark.parametrize(
        "edit, match",
        [
            pytest.param(lambda obj: obj["conf"].pop(), "index-aligned", id="misaligned"),
            pytest.param(_set("positions", 0, 99), "position 99", id="position-beyond-budget"),
            pytest.param(_set("positions", 0, -1), "position -1", id="position-negative"),
            pytest.param(_set("positions", 0, "3"), "position '3'", id="position-string"),
            pytest.param(_set("positions", 0, None), "position None", id="position-null"),
            pytest.param(_set("masked", 0, 10), "position 10", id="masked-beyond-budget"),
            pytest.param(_put("step", 1.5), "step and g", id="step-float"),
            pytest.param(_put("step", "x"), "step and g", id="step-string"),
            pytest.param(_set("pred", 0, 2.0), "token 2.0", id="token-float"),
            pytest.param(_set("pred", 0, True), "token True", id="token-bool"),
            pytest.param(_set("conf", 0, "high"), "confidence 'high'", id="conf-string"),
            pytest.param(_set("conf", 0, 1.5), "confidence 1.5", id="conf-above-one"),
            pytest.param(_set("conf", 0, -0.1), "confidence -0.1", id="conf-negative"),
            pytest.param(_set("conf", 0, float("nan")), "confidence nan", id="conf-nan"),
            pytest.param(_drop("conf"), "missing key 'conf'", id="lacks-conf"),
            pytest.param(_put("sampled", 3), "'sampled' must be a JSON array",
                         id="sampled-not-list"),
            pytest.param(_put("g", -5), r"g -5 is not in \[0, 10\)", id="g-negative"),
            pytest.param(_put("g", 10), r"g 10 is not in \[0, 10\)", id="g-beyond-budget"),
            pytest.param(_put("block_end", "9"), "block_end '9'", id="block-end-string"),
            pytest.param(_put("block_end", 99), r"block_end 99 is not an integer in \(0, 10\]",
                         id="block-end-beyond-budget"),
            pytest.param(_put("block_end", 0), "block_end 0", id="block-end-at-g"),
            pytest.param(_put("B", "x"), "B 'x'", id="block-size-string"),
            pytest.param(_put("B", 0), r"B 0 is not an integer in \[1, 10\]", id="block-size-zero"),
            pytest.param(_put("B", 11), "B 11", id="block-size-beyond-budget"),
            pytest.param(_put("cache", "bogus"), "cache 'bogus' is not one of none, prefix, dual",
                         id="cache-unknown"),
        ],
    )
    def test_malformed_step_line_names_line(self, edit, match, small_run, tmp_path):
        pred, cfg, prompt, result = small_run
        path = tmp_path / "run.jsonl"
        write_trace(path, result.trace, pred.vocabulary)
        lines = path.read_text().splitlines()
        obj = json.loads(lines[1])
        edit(obj)
        lines[1] = json.dumps(obj)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceFormatError, match=f"line 2: .*{match}"):
            read_trace_file(path)

    def test_step_line_not_an_object_names_line(self, small_run, tmp_path):
        pred, cfg, prompt, result = small_run
        path = tmp_path / "run.jsonl"
        write_trace(path, result.trace, pred.vocabulary)
        lines = path.read_text().splitlines()
        lines[2] = json.dumps([json.loads(lines[2])])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceFormatError, match="line 3: step record must be a JSON object"):
            read_trace_file(path)

    def test_minimal_schema_readable_but_not_analyzable(self, small_run, tmp_path):
        pred, cfg, prompt, result = small_run
        path = tmp_path / "run.jsonl"
        write_trace(path, result.trace, pred.vocabulary)
        lines = path.read_text().splitlines()
        slim = [lines[0]]
        for line in lines[1:]:
            obj = json.loads(line)
            slim.append(json.dumps(
                {k: obj[k] for k in ("step", "g", "positions", "pred", "conf")}
            ))
        path.write_text("\n".join(slim) + "\n")
        data = read_trace_file(path)  # required keys suffice for replay
        assert len(data.trace) == len(result.trace)
        with pytest.raises(TraceFormatError, match="extended"):
            trace_from_file(data)

    def test_blank_lines_tolerated(self, small_run, tmp_path):
        pred, cfg, prompt, result = small_run
        path = tmp_path / "run.jsonl"
        write_trace(path, result.trace, pred.vocabulary)
        path.write_text(path.read_text().replace("\n", "\n\n"))
        data = read_trace_file(path)
        assert len(data.trace) == len(result.trace)
