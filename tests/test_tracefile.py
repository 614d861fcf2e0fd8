"""Trace file round-trips and schema validation."""

import dataclasses
import json
import random
import re
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from semiar import tracefile
from semiar.core import (
    CACHES, SAMPLERS, SCHEDULERS, DecodeConfig, DecodeTrace, StepRecord, Vocabulary,
)
from semiar.decoder import decode
from semiar.metrics import write_heatmap
from semiar.predictors import (
    SyntheticFieldParams,
    TraceReplayPredictor,
    build_ngram,
    build_synthetic,
)
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

    PREDICTORS = {
        "synthetic": lambda: build_synthetic(SyntheticFieldParams(
            noise_seed=4, delimiter_period=4, vb_width_mean=3, vb_low=0.4, vb_high=0.85)),
        "ngram": lambda: build_ngram(" . ".join(["a b c d e", "f g h i j"] * 4),
                                     order=3, smoothing_k=0.01),
    }

    @staticmethod
    def replay_predictor(L):
        """A replay of a recorded top-1 decode of L steps: every decode of at
        most L steps, under any config, has a record to replay at each step,
        and every position holds a value from the first record on."""
        source = build_synthetic(SyntheticFieldParams(noise_seed=6, delimiter_period=4))
        config = DecodeConfig(gen_budget=L, max_steps=L, b0=3, sampler="vanilla")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "source.jsonl"
            write_trace(path, decode(source, config, (0, 1)).trace, source.vocabulary)
            return TraceReplayPredictor(read_trace_file(path))

    @settings(max_examples=90, deadline=None)
    @given(
        kind=st.sampled_from([*sorted(PREDICTORS), "replay"]),
        sampler=st.sampled_from(SAMPLERS),
        scheduler=st.sampled_from(SCHEDULERS),
        cache=st.sampled_from(CACHES),
        L=st.integers(1, 20),
        b0=st.integers(1, 8),
        tau=st.floats(0.3, 1.0),
        slack=st.integers(0, 12),
    )
    def test_decode_write_read_replay_write(self, kind, sampler, scheduler, cache, L, b0,
                                            tau, slack):
        """Replay recomputes only the positions each record changed, yet its
        trace, and every trace written without ``computed``, has the same bytes.
        A written file is read from its text, no line by ``json.loads``, into
        the records ``json.loads`` reads from it, and the dense rows after
        every step are the same in the decode, in its file and in the replay."""
        pred = self.replay_predictor(L) if kind == "replay" else self.PREDICTORS[kind]()
        vocab = pred.vocabulary
        delims = frozenset({vocab.id_of("." if kind == "ngram" else "\n")})
        config = DecodeConfig(gen_budget=L, max_steps=max(1, L - slack), b0=b0, tau=tau,
                              sampler=sampler, scheduler=scheduler, cache=cache,
                              delimiters=delims, linear_steps=max(1, L // 2))
        prompt = (0, 1)
        recorded = decode(pred, config, prompt).trace
        with tempfile.TemporaryDirectory() as tmp:
            paths = [Path(tmp) / f"{name}.jsonl"
                     for name in ("recorded", "replayed", "evaluated", "read-evaluated")]
            write_trace(paths[0], recorded, vocab, prompt=prompt, config=config)
            with mock.patch.object(tracefile, "_json_line",
                                   side_effect=AssertionError("read by json.loads")):
                data = read_trace_file(paths[0])
            assert _outcome(data) == _outcome(_read_by_json_loads(paths[0]))
            replayed = decode(TraceReplayPredictor(data), config, prompt).trace
            write_trace(paths[1], replayed, vocab, prompt=prompt, config=config)
            for path, trace in zip(paths[2:], (recorded, data.trace)):
                write_trace(path, _every_evaluated_computed(trace), vocab, prompt=prompt,
                            config=config)
            texts = {path.read_bytes() for path in paths}
        assert len(texts) == 1
        assert replayed == recorded
        assert _dense(data.trace) == _dense(replayed) == _dense(recorded)
        for trace in (recorded, data.trace, replayed):
            for rec in trace.steps:
                assert set(rec.computed) <= set(rec.evaluated)

    def test_zero_changing_sign_is_a_change(self, tmp_path):
        # 0.0 == -0.0, but they print differently: the reader must count the
        # flip as a change, so the snapshot, the heatmap and a rewrite keep it
        header = {"vocab": ["a", "[MASK]", "<EOS>"], "mask_id": 1, "prompt_len": 1,
                  "gen_budget": 2, "eos_id": 2}
        lines = [json.dumps(header)]
        for step, text in enumerate(["0.0", "-0.0", "0.0", "-0.0"]):
            lines.append(
                f'{{"step": {step}, "g": 0, "positions": [0, 1], "pred": [0, 0], '
                f'"conf": [{text}, 0.5], "B": {"2" if step == 0 else "null"}, '
                f'"block_end": 2, "sampled": [], "masked": [0, 1], "cache": "none"}}')
        path = tmp_path / "zero.trace.jsonl"
        path.write_text("\n".join(lines) + "\n")
        trace = read_trace_file(path).trace
        assert [rec.computed for rec in trace.steps] == [(0, 1), (0,), (0,), (0,)]
        assert [tuple(map(str, rec.confidence)) for rec in trace.steps] == [
            ("0.0", "0.5"), ("-0.0",), ("0.0",), ("-0.0",)]
        assert [str(conf[0]) for _, _, conf in trace.rows()] == ["0.0", "-0.0", "0.0", "-0.0"]
        write_trace(tmp_path / "again.trace.jsonl", trace, read_trace_file(path).vocab)
        assert (tmp_path / "again.trace.jsonl").read_bytes() == path.read_bytes()
        write_heatmap(tmp_path / "heatmap.csv", trace)
        assert (tmp_path / "heatmap.csv").read_bytes() == (
            b"step,p0,p1\r\n0,0.0,0.5\r\n1,-0.0,0.5\r\n2,0.0,0.5\r\n3,-0.0,0.5\r\n")

    @staticmethod
    def _written_step_line(rec, tmp):
        vocab = build_synthetic(SyntheticFieldParams()).vocabulary
        path = Path(tmp) / "one.jsonl"
        write_trace(path, DecodeTrace(1, 6, vocab.mask_id, (rec,)), vocab)
        return path.read_text().splitlines()[1]

    @staticmethod
    def _dumped(rec):
        return json.dumps({
            "step": rec.step, "g": rec.block_start, "positions": list(rec.evaluated),
            "pred": list(rec.predicted), "conf": list(rec.confidence),
            "B": rec.block_size, "block_end": rec.block_end, "sampled": list(rec.sampled),
            "masked": list(rec.masked_before), "cache": rec.cache,
        })

    @settings(max_examples=60, deadline=None)
    @given(
        evaluated=st.lists(st.integers(0, 5), max_size=6),
        sampled=st.lists(st.one_of(st.integers(-3, 9), st.booleans()), max_size=6),
        masked=st.lists(st.one_of(st.integers(-3, 9), st.booleans()), max_size=6),
    )
    def test_int_arrays_print_as_json_dumps(self, evaluated, sampled, masked):
        """Position arrays joined from per-value texts read as ``json.dumps``
        reads them, bools and out-of-range values included."""
        conf = (0.5, 1.0, 0.25, 0.125, 1e-07, 0.75)
        rec = StepRecord(step=0, block_start=0, block_end=6, block_size=6,
                         evaluated=tuple(evaluated), predicted=tuple(evaluated),
                         confidence=tuple(conf[p] for p in evaluated),
                         sampled=tuple(sampled), masked_before=tuple(masked), cache="none",
                         computed=tuple(evaluated))
        with tempfile.TemporaryDirectory() as tmp:
            assert self._written_step_line(rec, tmp) == self._dumped(rec)

    def test_bool_in_sampled_prints_true(self, tmp_path):
        rec = StepRecord(step=0, block_start=0, block_end=2, block_size=2, evaluated=(0, 1),
                         predicted=(0, 1), confidence=(0.5, 0.5), sampled=(True, 1),
                         masked_before=(0, 1), cache="none", computed=(0, 1))
        line = self._written_step_line(rec, tmp_path)
        assert line == self._dumped(rec)
        assert '"sampled": [true, 1]' in line

    def test_config_dict_round_trip(self):
        cfg = DecodeConfig(gen_budget=8, max_steps=9, delimiters=frozenset({1, 4}),
                           scheduler="adaptive", linear_steps=3)
        assert config_from_dict(config_to_dict(cfg)) == cfg

    @given(st.data())
    def test_every_valid_config_reads_back_from_a_header(self, data):
        """The header checks of its config reject nothing the writer writes."""
        vocab = Vocabulary.build([f"t{i}" for i in range(data.draw(st.integers(1, 30)))])
        unit = st.floats(min_value=0.0, max_value=1.0, exclude_min=True) | st.just(1)
        config = data.draw(st.builds(
            DecodeConfig,
            gen_budget=st.integers(1, 10_000),
            max_steps=st.integers(1, 10_000),
            tau=unit,
            b0=st.integers(1, 10_000),
            tau_d=unit,
            delimiters=st.frozensets(st.integers(0, vocab.size - 1).filter(
                lambda d: d != vocab.mask_id), max_size=5),
            window_fraction=unit,
            sampler=st.sampled_from(SAMPLERS),
            scheduler=st.sampled_from(SCHEDULERS),
            cache=st.sampled_from(CACHES),
            linear_steps=st.none() | st.integers(1, 10_000),
            seed=st.integers(-(2**63), 2**64),
        ))
        trace = DecodeTrace(prompt_len=1, gen_budget=config.gen_budget,
                            mask_id=vocab.mask_id, steps=())
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.trace.jsonl"
            write_trace(path, trace, vocab, prompt=(0,), config=config)
            assert read_trace_file(path).config == config


def _read_by_json_loads(path):
    """``read_trace_file(path)`` with every step line parsed by ``json.loads``."""
    with mock.patch.object(tracefile, "_WRITTEN_STEP", "(?!)"):
        return read_trace_file(path)


def _dense(trace):
    """The dense rows after every step, the sign of each zero included."""
    return [(tuple(pred), tuple(map(repr, conf))) for _, pred, conf in trace.rows()]


def _outcome(data):
    """What a read gave: each record, its changed positions and values, and
    the dense rows, the sign of each zero included."""
    return data.vocab, data.prompt, data.config, data.trace.mask_id, [
        (rec, rec.computed, rec.predicted, tuple(map(repr, rec.confidence)))
        for rec in data.trace.steps], _dense(data.trace)


def _every_evaluated_computed(trace):
    """The trace with each record's ``computed`` its evaluated positions, and
    its values those at every position it evaluated."""
    return DecodeTrace(trace.prompt_len, trace.gen_budget, trace.mask_id, tuple(
        dataclasses.replace(rec, computed=rec.evaluated,
                            predicted=tuple(pred[p] for p in rec.evaluated),
                            confidence=tuple(conf[p] for p in rec.evaluated))
        for rec, pred, conf in trace.rows()))


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


def _on_line(lineno, edit):
    """The same edit, made to the step line at ``lineno`` instead of line 2."""
    edit.lineno = lineno
    return edit


def _raw(key, text):
    """An edit that writes ``key`` as the JSON text ``text`` and returns the
    line, for a value ``json.dumps`` cannot print or ``json.loads`` cannot read."""
    def edit(obj):
        obj[key] = 0
        return json.dumps(obj).replace(f'"{key}": 0', f'"{key}": {text}', 1)
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
            pytest.param(_header(config=[4, 4]), "config must be a JSON object",
                         id="config-array"),
            pytest.param(_header(config={"gen_budget": 4, "max_steps": 4, "b0": 2.5}),
                         r"invalid config \(b0 must be an integer\)", id="config-b0-float"),
            pytest.param(_header(config={"gen_budget": 4, "max_steps": 4, "delimiters": ["a"]}),
                         r"invalid config \(delimiters must hold only integers\)",
                         id="config-delimiter-string"),
            pytest.param(_header(config={"gen_budget": 12, "max_steps": 12}),
                         r"invalid config \(gen_budget 12 is not the header's 4\)",
                         id="config-gen-budget-differs"),
            pytest.param(_header(config={"gen_budget": 4, "max_steps": 4, "delimiters": [99]}),
                         r"invalid config \(delimiter id 99 outside the vocabulary\)",
                         id="config-delimiter-beyond-vocab"),
            pytest.param(_header(config={"gen_budget": 4, "max_steps": 4, "delimiters": [1]}),
                         r"invalid config \(the mask token cannot be a delimiter\)",
                         id="config-delimiter-is-mask"),
            pytest.param(_raw("prompt_len", "1" * 5000)(_header()), "integer string conversion",
                         id="prompt-len-too-many-digits"),
        ],
    )
    def test_malformed_header_names_line_1(self, header, match, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text((header if isinstance(header, str) else json.dumps(header)) + "\n")
        with pytest.raises(TraceFormatError, match=f"line 1: .*{match}"):
            read_trace_file(path)

    @pytest.mark.parametrize(
        "edit, match",
        [
            pytest.param(lambda obj: obj.update(conf=obj["conf"][:-1]), "index-aligned",
                         id="misaligned"),
            pytest.param(_set("positions", 0, 99), "position 99", id="position-beyond-budget"),
            pytest.param(_set("positions", 0, -1), "position -1", id="position-negative"),
            pytest.param(_set("positions", 0, "3"), "position '3'", id="position-string"),
            pytest.param(_set("positions", 0, None), "position None", id="position-null"),
            pytest.param(_set("masked", 0, 10), "position 10", id="masked-beyond-budget"),
            pytest.param(_put("step", 1.5), "step and g", id="step-float"),
            pytest.param(_put("step", "x"), "step and g", id="step-string"),
            pytest.param(_put("step", 1), "step 1 should be 0", id="step-skips"),
            pytest.param(_on_line(3, _put("step", 0)), "step 0 should be 1",
                         id="step-repeats"),
            pytest.param(_set("pred", 0, 2.0), "token 2.0", id="token-float"),
            pytest.param(_set("pred", 0, True), "token True", id="token-bool"),
            pytest.param(_set("conf", 0, "high"), "confidence 'high'", id="conf-string"),
            pytest.param(_set("conf", 0, 1.5), "confidence 1.5", id="conf-above-one"),
            pytest.param(_set("conf", 0, -0.1), "confidence -0.1", id="conf-negative"),
            pytest.param(_set("conf", 0, float("nan")), "confidence nan", id="conf-nan"),
            # min and max pass over a NaN that is not first
            pytest.param(_set("conf", 1, float("nan")), "confidence nan", id="conf-nan-later"),
            pytest.param(_set("conf", 0, float("inf")), "confidence inf", id="conf-infinity"),
            # the sentinel equals the running value of a position no line set yet
            pytest.param(_set("conf", 0, -1.0), "confidence -1.0", id="conf-sentinel"),
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
            pytest.param(_raw("step", "1" * 5000), "integer string conversion",
                         id="step-too-many-digits"),
            pytest.param(_raw("sampled", "[" * 10**5 + "]" * 10**5), "recursion depth",
                         id="sampled-nested-too-deep"),
        ],
    )
    def test_malformed_step_line_names_line(self, edit, match, small_run, tmp_path):
        pred, cfg, prompt, result = small_run
        path = tmp_path / "run.jsonl"
        write_trace(path, result.trace, pred.vocabulary)
        lines = path.read_text().splitlines()
        lineno = getattr(edit, "lineno", 2)
        obj = json.loads(lines[lineno - 1])
        lines[lineno - 1] = edit(obj) or json.dumps(obj)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceFormatError, match=f"line {lineno}: .*{match}"):
            read_trace_file(path)

    def test_undecodable_byte_names_its_line(self, small_run, tmp_path):
        pred, cfg, prompt, result = small_run
        path = tmp_path / "run.jsonl"
        write_trace(path, result.trace, pred.vocabulary, prompt=prompt, config=cfg)
        # a "\r" before each "\n" does not start a line of its own
        lines = path.read_bytes().replace(b"\n", b"\r\n").split(b"\n")
        lines[3] = lines[3].replace(b'"pred"', b'"pr\xffed"')
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(TraceFormatError, match=rf"^{re.escape(str(path))}: line 4: "
                           "'utf-8' codec can't decode byte 0xff: invalid start byte$"):
            read_trace_file(path)

    def test_token_equal_to_running_value_still_checked(self, small_run, tmp_path):
        # a float token equal to the int the position already holds changes
        # nothing in the snapshot, but it is still not a token id
        pred, cfg, prompt, result = small_run
        path = tmp_path / "run.jsonl"
        write_trace(path, result.trace, pred.vocabulary)
        lines = path.read_text().splitlines()
        first, second = json.loads(lines[1]), json.loads(lines[2])
        held = dict(zip(first["positions"], first["pred"]))
        index = next(i for i, (p, t) in enumerate(zip(second["positions"], second["pred"]))
                     if held.get(p) == t)
        second["pred"][index] = float(second["pred"][index])
        lines[2] = json.dumps(second)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceFormatError,
                           match=f"line 3: token {second['pred'][index]!r} is not an integer"):
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


def _value(key, text):
    """Replace the first value of the array ``key`` by ``text``."""
    return lambda line: re.sub(rf'("{key}": \[)[^,\]]*', rf"\g<1>{text}", line, count=1)


def _repeat_first_position(line):
    """The first position named twice, first with other values than its own."""
    obj = json.loads(line)
    for key, value in (("positions", obj["positions"][0]), ("pred", 0), ("conf", 0.25)):
        obj[key].insert(0, value)
    return json.dumps(obj)


def _later_pred_key(line):
    count = len(json.loads(line)["positions"])
    return f'{line[:-1]}, "pred": [{", ".join(["0"] * count)}]}}'


def _layout_line(step, positions, pred, conf, B=None, masked=None, sampled=()):
    """A step line in the writer's layout, its arrays given as texts."""
    return (f'{{"step": {step}, "g": 0, "positions": [{positions}], "pred": [{pred}], '
            f'"conf": [{conf}], "B": {"null" if B is None else B}, "block_end": 4, '
            f'"sampled": [{", ".join(map(str, sampled))}], '
            f'"masked": [{positions if masked is None else masked}], "cache": "none"}}')


def _json_linenos(path, read):
    """What ``read(path)`` gave, as :func:`_outcome` or the error text, and
    the numbers of the lines it read by ``json.loads``."""
    with mock.patch.object(tracefile, "_json_line", wraps=tracefile._json_line) as parse:
        try:
            outcome = _outcome(read(path))
        except TraceFormatError as exc:
            outcome = str(exc)
    return outcome, [call.args[1] for call in parse.call_args_list]


class TestTwoReadPaths:
    """A line in the writer's layout whose text the text comparison will not
    take reads exactly as ``json.loads`` reads it, error included, and the
    lines around it are still read from their text."""

    @pytest.mark.parametrize("where", ["first", "random", "consecutive", "last"])
    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(_value("conf", "1"), id="conf-int"),
            pytest.param(_value("conf", "0.50"), id="conf-trailing-zero"),
            pytest.param(_value("conf", "1.0E0"), id="conf-capital-exponent"),
            pytest.param(_value("conf", "5e-1"), id="conf-exponent"),
            pytest.param(_value("pred", "3.0"), id="token-float"),
            pytest.param(_repeat_first_position, id="position-repeated"),
            pytest.param(_later_pred_key, id="pred-key-repeated"),
            pytest.param(lambda line: line.replace(", ", ",", 1), id="comma-without-space"),
            pytest.param(lambda line: line + "\r", id="crlf-ending"),
        ],
    )
    def test_json_loads_reads_what_the_text_refuses(self, edit, where, small_run, tmp_path,
                                                    request):
        pred, cfg, prompt, result = small_run
        path = tmp_path / "run.jsonl"
        write_trace(path, result.trace, pred.vocabulary, prompt=prompt, config=cfg)
        lines = path.read_text().split("\n")
        last = len(lines) - 1  # the last step line's number; the file ends in "\n"
        rng = random.Random(request.node.name)
        start = {"first": 2, "random": rng.randint(3, last - 1),
                 "consecutive": rng.randint(2, last - 1), "last": last}[where]
        edited = [start, start + 1] if where == "consecutive" else [start]
        for lineno in edited:
            line = edit(lines[lineno - 1])
            assert line != lines[lineno - 1]
            lines[lineno - 1] = line
        path.write_text("\n".join(lines))
        outcome, by_json = _json_linenos(path, read_trace_file)
        json_outcome, all_by_json = _json_linenos(path, _read_by_json_loads)
        assert outcome == json_outcome
        if isinstance(outcome, str):  # the first line that raises ends both reads
            assert by_json and by_json == edited[:len(by_json)]
            assert all_by_json == list(range(2, by_json[-1] + 1))
        else:
            assert by_json == edited
            assert all_by_json == list(range(2, last + 1))

    def test_value_that_does_not_fit_after_one_that_does(self, tmp_path):
        # the second changed confidence sends the line to json.loads; the
        # first, which fits, must not be written before it is, or the line
        # would no longer count it as changed
        path = tmp_path / "run.jsonl"
        path.write_text("\n".join([
            json.dumps(_header()),
            _layout_line(0, "0, 1", "0, 0", "0.25, 0.25", B=4),
            _layout_line(1, "0, 1", "0, 0", "0.75, 0.50"),
            _layout_line(2, "0, 1", "0, 0", "0.75, 0.5"),
        ]) + "\n")
        outcome, by_json = _json_linenos(path, read_trace_file)
        assert by_json == [3]
        assert outcome == _outcome(_read_by_json_loads(path))
        assert [rec.computed for rec in read_trace_file(path).trace.steps] == [
            (0, 1), (0, 1), ()]

    def test_layout_lines_after_a_minimal_schema_line(self, tmp_path):
        # the masked array of a layout line is first compared with the
        # previous record's masked positions less its commits, which a
        # minimal-schema record does not hold
        path = tmp_path / "run.jsonl"
        path.write_text("\n".join([
            json.dumps(_header()),
            json.dumps({"step": 0, "g": 0, "positions": [0, 1, 2], "pred": [0, 0, 0],
                        "conf": [0.25, 0.5, 0.75]}),
            _layout_line(1, "0, 1, 2", "0, 0, 0", "0.25, 0.5, 0.875", masked="1, 2",
                         sampled=[2]),
            _layout_line(2, "0, 1", "0, 0", "0.25, 0.5", masked="1"),
        ]) + "\n")
        outcome, by_json = _json_linenos(path, read_trace_file)
        assert by_json == [2]
        assert outcome == _outcome(_read_by_json_loads(path))
        steps = read_trace_file(path).trace.steps
        assert [(rec.masked_before, rec.sampled) for rec in steps] == [
            (None, None), ((1, 2), (2,)), ((1,), ())]
        assert [rec.computed for rec in steps] == [(0, 1, 2), (2,), ()]

    @pytest.mark.parametrize("key, text", [
        ("masked", ""), ("masked", "9"), ("masked", "5, 6, 7, 8, 9"), ("positions", "1, 3, 5"),
    ])
    def test_array_read_where_it_does_not_follow_the_commits(self, key, text, small_run,
                                                             tmp_path):
        # another writer's positions or masked array need not be the previous
        # one less its commits; it is still read from its text, as json.loads
        # reads it
        pred, cfg, prompt, result = small_run
        path = tmp_path / "run.jsonl"
        write_trace(path, result.trace, pred.vocabulary, prompt=prompt, config=cfg)
        lines = path.read_text().split("\n")
        edited = re.sub(rf'"{key}": \[[^\]]*\]', f'"{key}": [{text}]', lines[3])
        assert edited != lines[3]
        lines[3] = edited
        path.write_text("\n".join(lines))
        with mock.patch.object(tracefile, "_json_line",
                               side_effect=AssertionError("read by json.loads")):
            data = read_trace_file(path)
        record = data.trace.steps[2]
        assert getattr(record, "evaluated" if key == "positions" else "masked_before") == (
            tuple(json.loads(f"[{text}]")))
        assert _outcome(data) == _outcome(_read_by_json_loads(path))

    def test_commit_that_was_not_masked_is_read(self, small_run, tmp_path):
        pred, cfg, prompt, result = small_run
        path = tmp_path / "run.jsonl"
        write_trace(path, result.trace, pred.vocabulary, prompt=prompt, config=cfg)
        lines = path.read_text().split("\n")
        committed = json.loads(lines[1])["sampled"][0]
        lines[2] = re.sub(r'"sampled": \[[^\]]*\]', f'"sampled": [{committed}]', lines[2])
        path.write_text("\n".join(lines))
        assert json.loads(lines[3])["masked"] != json.loads(lines[3])["positions"]
        with mock.patch.object(tracefile, "_json_line",
                               side_effect=AssertionError("read by json.loads")):
            data = read_trace_file(path)
        assert data.trace.steps[1].sampled == (committed,)
        assert _outcome(data) == _outcome(_read_by_json_loads(path))

    @pytest.mark.parametrize("text", ["01", "00", "+1", " 1", "1_0", "20", "99999",
                                      "\u0661", "1" * 5000])
    @pytest.mark.parametrize("key", ["positions", "masked", "sampled"])
    def test_position_text_not_canonical_reads_as_json_loads(self, key, text, tmp_path):
        # only the text str() gives an int in [0, L) is taken from the text;
        # json.loads words what any other text is, or reads its value
        first = _layout_line(0, "0, 1", "0, 0", "0.25, 0.25", B=4)
        second = {"positions": _layout_line(1, f"0, {text}", "0, 0", "0.25, 0.5"),
                  "masked": _layout_line(1, "0, 1", "0, 0", "0.25, 0.5", masked=f"0, {text}"),
                  "sampled": _layout_line(1, "0, 1", "0, 0", "0.25, 0.5").replace(
                      '"sampled": []', f'"sampled": [{text}]')}[key]
        path = tmp_path / "run.jsonl"
        path.write_text("\n".join([json.dumps(_header(gen_budget=20)), first, second]) + "\n")
        outcome, by_json = _json_linenos(path, read_trace_file)
        assert outcome == _json_linenos(path, _read_by_json_loads)[0]
        assert by_json == [3]

    def test_read_costs_what_the_file_holds_not_the_header_budget(self, tmp_path):
        path = tmp_path / "run.jsonl"
        for gen_budget in (10**6, 10**9):
            path.write_text(json.dumps(_header(gen_budget=gen_budget)) + "\n"
                            + json.dumps({"step": 0, "g": 0, "positions": [0], "pred": [0],
                                          "conf": [0.5]}) + "\n")
            tracemalloc.start()
            try:
                data = read_trace_file(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert data.trace.steps[0].computed == (0,)
            assert peak < 2**20, gen_budget

    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85"])
    def test_lines_end_at_newline_only(self, separator, tmp_path):
        # JSON strings may hold these raw; str.splitlines would break the line there
        pred = build_synthetic(SyntheticFieldParams(noise_seed=2, vb_width_mean=3))
        tokens = list(pred.vocabulary.tokens)
        tokens[0] = f"a{separator}b"
        vocab = dataclasses.replace(pred.vocabulary, tokens=tuple(tokens))
        cfg = DecodeConfig(gen_budget=10, max_steps=10, b0=5, cache="dual")
        trace = decode(pred, cfg, (0, 1)).trace
        path = tmp_path / "run.jsonl"
        write_trace(path, trace, vocab, prompt=(0, 1), config=cfg)
        lines = path.read_text().split("\n")
        lines[0] = json.dumps(json.loads(lines[0]), ensure_ascii=False)
        assert separator in lines[0]
        path.write_text("\n".join(lines), encoding="utf-8")
        data = read_trace_file(path)
        assert data.vocab == vocab
        assert data.trace == trace

    def test_crlf_file_reads_as_its_lf_twin(self, small_run, tmp_path):
        pred, cfg, prompt, result = small_run
        lf, crlf = tmp_path / "lf.jsonl", tmp_path / "crlf.jsonl"
        write_trace(lf, result.trace, pred.vocabulary, prompt=prompt, config=cfg)
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        assert _outcome(read_trace_file(crlf)) == _outcome(read_trace_file(lf))
