"""Experiment harness: spec parsing, sweeps, aggregation, analysis, CLI."""

import concurrent.futures
import configparser
import csv
import inspect
import json
import multiprocessing
import os
import pickle
import re
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from semiar import cli, experiment, metrics
from semiar.core import DecodeConfig
from semiar.decoder import decode
from semiar.predictors import SyntheticFieldParams, build_ngram, build_synthetic
from semiar.seeding import mix_seed
from semiar.tracefile import read_trace_file, write_trace

SPEC_TEMPLATE = """
[experiment]
seed = 11
repetitions = 2
prompt = literal:0 1

[predictor]
kind = synthetic
delimiter_period = 4
vb_high = 0.92

[cell sweep]
gen_budget = 24
max_steps = 24
b0 = 4,8
scheduler = fixed,adaptive
sampler = dynamic
cache = none
delimiter_tokens = \\n
"""


SYNTHETIC_OPTIONS = "kind = synthetic\ndelimiter_period = 4\nvb_high = 0.92"
# the keys of a cell section that yields one cell, named after its section
TINY_CELL = "gen_budget = 4\nmax_steps = 4\n"
# an n-gram corpus that exists wherever the tests run from
ZONE_CORPUS = Path(__file__).resolve().parent.parent / "specs" / "zone_corpus.txt"


def plateau_spec(rate):
    """The template with the frontier at ``rate`` times the commits and tau = 0.5.

    The template's failure rates read 0.0 on every run.  A frontier ahead of
    the commits (1.5) puts outside positions above tau, so late overhead shows;
    one behind them (0.5) leaves in-block positions below it, so premature
    commits show.
    """
    return (SPEC_TEMPLATE.replace("vb_high = 0.92", f"vb_high = 0.92\nplateau_rate = {rate}")
            + "tau = 0.5\n")


PLATEAU_SPEC = plateau_spec(1.5)


def write_spec(tmp_path, text=SPEC_TEMPLATE):
    path = tmp_path / "exp.spec"
    path.write_text(text)
    return path


def file_tree(root):
    """Every file under ``root``, by relative path, with its bytes."""
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


#: jobs values whose outputs and logs must agree: in-process, a pool of two,
#: and the default, the CPUs this process may use
JOBS = (1, 2, None)


class TestSpecParsing:
    def test_cross_product_expansion(self, tmp_path):
        spec = experiment.load_spec(write_spec(tmp_path), tmp_path / "out")
        assert len(spec.cells) == 4
        ids = sorted(c.cell_id for c in spec.cells)
        assert ids == [
            "sweep.b0=4-scheduler=adaptive",
            "sweep.b0=4-scheduler=fixed",
            "sweep.b0=8-scheduler=adaptive",
            "sweep.b0=8-scheduler=fixed",
        ]
        assert all(c.config.delimiters for c in spec.cells)

    def test_zero_repetitions_rejected(self, tmp_path):
        text = SPEC_TEMPLATE.replace("repetitions = 2", "repetitions = 0")
        with pytest.raises(ValueError, match="repetitions"):
            experiment.load_spec(write_spec(tmp_path, text))

    def test_missing_cells_rejected(self, tmp_path):
        text = "[experiment]\nseed = 1\n\n[predictor]\nkind = synthetic\n"
        with pytest.raises(ValueError, match="cell"):
            experiment.load_spec(write_spec(tmp_path, text))

    def test_unknown_cell_key_rejected(self, tmp_path):
        text = SPEC_TEMPLATE + "block = 9\n"
        with pytest.raises(ValueError, match=r"\[cell sweep\] block: unknown key"):
            experiment.load_spec(write_spec(tmp_path, text))

    def test_unknown_cell_key_lists_only_settable_keys(self, tmp_path):
        text = SPEC_TEMPLATE + "block = 9\n"
        with pytest.raises(ValueError) as info:
            experiment.load_spec(write_spec(tmp_path, text))
        listed = str(info.value).partition("expected one of ")[2].split(", ")
        settable = {f.name for f in fields(DecodeConfig)} - {"seed", "delimiters"}
        assert listed == sorted(settable | {"delimiter_tokens"})

    @pytest.mark.parametrize(
        "old, new, line, message",
        [("seed = 11", "seed = 11\nseed = 12", 4,
          r"option 'seed' in section 'experiment' already exists"),
         ("[cell sweep]", f"[cell a]\n{TINY_CELL}[cell a]\n{TINY_CELL}[cell sweep]", 15,
          r"section 'cell a' already exists"),
         ("cache = none", "cache = none\nno equals sign", 19, r"parsing errors")],
        ids=["duplicate-key", "duplicate-section", "no-equals"],
    )
    def test_syntax_error_names_spec_file(self, old, new, line, message, tmp_path):
        path = write_spec(tmp_path, SPEC_TEMPLATE.replace(old, new))
        with pytest.raises(configparser.Error, match=message) as info:
            experiment.load_spec(path)
        assert repr(str(path)) in str(info.value)
        assert re.search(rf"\[line +{line}\]", str(info.value))

    def test_undecodable_spec_names_path_and_line(self, tmp_path, capsys):
        text = SPEC_TEMPLATE.replace("seed = 11", "seed = 11\r\n# caf\udce9")
        path = tmp_path / "exp.spec"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        message = f"{path}: line 4: 'utf-8' codec can't decode byte 0xe9: invalid continuation byte"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            experiment.load_spec(path)
        assert cli.main(["run", "--spec", str(path)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("kind, key", [("ngram", "corpus"), ("trace", "path")])
    def test_undecodable_predictor_file_names_key_path_and_line(self, kind, key, tmp_path):
        bad = tmp_path / "bad.txt"
        # lines as the reader sees them: the corpus reads a lone "\r" as a line end
        bad.write_bytes(b'{"vocab": []}\r\n"a b"\r"c \xff"\n')
        line = 3 if kind == "ngram" else 2
        text = SPEC_TEMPLATE.replace(SYNTHETIC_OPTIONS, f"kind = {kind}\n{key} = {bad}")
        message = (f"[predictor] {key}: {bad}: line {line}: 'utf-8' codec can't decode "
                   "byte 0xff: invalid start byte")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            experiment.load_spec(write_spec(tmp_path, text))

    @pytest.mark.parametrize(
        "key, match",
        [("seed", r"\[cell sweep\] seed: reserved key; .*\[experiment\] seed"),
         ("delimiters", r"\[cell sweep\] delimiters: reserved key; .*delimiter_tokens")],
        ids=["seed", "delimiters"],
    )
    def test_reserved_cell_key_rejected(self, key, match, tmp_path):
        text = SPEC_TEMPLATE + f"{key} = 1,2\n"
        with pytest.raises(ValueError, match=match):
            experiment.load_spec(write_spec(tmp_path, text))

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("repetitions = 2", "repetitons = 3", r"\[experiment\] repetitons: unknown key"),
            ("vb_high = 0.92", "vb_widht_mean = 3", r"\[predictor\] vb_widht_mean: unknown key"),
            ("vb_high = 0.92", "order = 3", r"\[predictor\] order: unknown key"),
            ("[cell sweep]", "[cel a]", r"unknown section \[cel a\]"),
            ("seed = 11", "seed = x", r"\[experiment\] seed: invalid literal for int"),
            ("vb_high = 0.92", "vb_width_mean = three",
             r"\[predictor\] vb_width_mean: invalid literal for int"),
            ("prompt = literal:0 1", "prompt = corpus:x",
             r"\[experiment\] prompt: invalid literal for int"),
            (SYNTHETIC_OPTIONS, "kind = ngram\norder = 3",
             r"\[predictor\] corpus: required for kind = ngram"),
            (SYNTHETIC_OPTIONS, "kind = trace", r"\[predictor\] path: required for kind = trace"),
            (SYNTHETIC_OPTIONS, "kind = ngram\ncorpus = corpus.txt\nchar_mode = yes",
             r"\[predictor\] char_mode: expected true or false, got 'yes'"),
            ("[experiment]", "[DEFAULT]\nb0 = 4\n\n[experiment]", r"unknown section \[DEFAULT\]"),
            ("b0 = 4,8", "b0 = 4,x", r"\[cell sweep\] b0: invalid literal for int"),
            ("b0 = 4,8", "b0 = 0", r"\[cell sweep\] b0: 0: must be >= 1$"),
            ("delimiter_tokens = \\n", "delimiter_tokens = \\n nope",
             r"\[cell sweep\] delimiter_tokens: unknown token 'nope'"),
            ("gen_budget = 24\n", "", r"\[cell sweep\] gen_budget: required"),
            ("repetitions = 2", "repetitions = 1%",
             r"\[experiment\] repetitions: invalid literal for int"),
            ("kind = synthetic", "kind = neural",
             r"\[predictor\] kind: expected synthetic, ngram or trace; got 'neural'"),
            ("kind = synthetic\n", "", r"\[predictor\] kind: .*got None"),
            ("prompt = literal:0 1", "prompt = literal:",
             r"\[experiment\] prompt: literal prompt must list at least one token id"),
            ("prompt = literal:0 1", "prompt = literal:0 11",
             r"\[experiment\] prompt: prompt id 11 at index 1 outside the vocabulary"),
            ("prompt = literal:0 1", "prompt = literal:9",
             r"\[experiment\] prompt: prompt id 9 at index 0 is the mask id"),
            ("prompt = literal:0 1", "prompt = corpus:4",
             r"\[experiment\] prompt: corpus:4 needs a predictor corpus of at least 4 "
             r"tokens; this one has 0"),
            ("[cell sweep]", f"[cell a]\n{TINY_CELL}\n[cella]\n{TINY_CELL}\n[cell sweep]",
             r"\[cella\]: cell id 'a' is already taken by \[cell a\]"),
            ("[cell sweep]", f"[cell]\n{TINY_CELL}\n[cell cell]\n{TINY_CELL}\n[cell sweep]",
             r"\[cell cell\]: cell id 'cell' is already taken by \[cell\]"),
            ("[cell sweep]", f"[cell sweep.b0=4-scheduler=fixed]\n{TINY_CELL}\n[cell sweep]",
             r"\[cell sweep\]: cell id 'sweep.b0=4-scheduler=fixed' is already taken "
             r"by \[cell sweep.b0=4-scheduler=fixed\]"),
            ("b0 = 4,8", "b0 = 4,4",
             r"\[cell sweep\]: cell id 'sweep.b0=4-scheduler=fixed' is already taken "
             r"by \[cell sweep\]"),
            ("[cell sweep]", "[cell ../escape]",
             r"\[cell \.\./escape\]: cell name '\.\./escape' must be one path component"),
            ("[cell sweep]", "[cell a/b]", r"\[cell a/b\]: cell name 'a/b' must be one"),
            ("[cell sweep]", "[cell a\\b]", r"\[cell a\\b\]: cell name 'a\\\\b' must be one"),
            ("[cell sweep]", "[cell ..]", r"\[cell \.\.\]: cell name '\.\.' must be one"),
            ("[cell sweep]", "[cell.]", r"\[cell\.\]: cell name '\.' must be one"),
            ("repetitions = 2", "repetitions = 0",
             r"\[experiment\] repetitions: must be >= 1, got 0"),
            ("vb_high = 0.92", "vb_high = 0.92\nfloor_level = 0.9",
             r"\[predictor\] need 0 < floor_level < vb_low"),
            (SYNTHETIC_OPTIONS, f"kind = ngram\ncorpus = {ZONE_CORPUS}\norder = 0",
             r"\[predictor\] order: must be >= 1, got 0$"),
            (SYNTHETIC_OPTIONS, f"kind = ngram\ncorpus = {ZONE_CORPUS}\nsmoothing = -1",
             r"\[predictor\] smoothing: must be >= 0, got -1\.0$"),
            (SYNTHETIC_OPTIONS, "kind = ngram\ncorpus = missing-corpus.txt",
             r"\[predictor\] corpus: \[Errno 2\] No such file or directory: "
             r"'missing-corpus\.txt'$"),
            (SYNTHETIC_OPTIONS, "kind = trace\npath = missing.trace.jsonl",
             r"\[predictor\] path: \[Errno 2\] No such file or directory: "
             r"'missing\.trace\.jsonl'$"),
            (SYNTHETIC_OPTIONS, f"kind = trace\npath = {ZONE_CORPUS}",
             r"\[predictor\] path: .*zone_corpus\.txt: line 1: invalid JSON"),
            ("sampler = dynamic", "sampler = dynamic\ntau = 0.5,2",
             r"\[cell sweep\] tau: 2: must lie in \(0, 1\]$"),
            ("b0 = 4,8", "b0 = 4,0", r"\[cell sweep\] b0: 0: must be >= 1$"),
            ("sampler = dynamic", "sampler = dynamic,greedy",
             r"\[cell sweep\] sampler: greedy: must be one of "
             r"\('vanilla', 'linear', 'dynamic'\)$"),
            ("delimiter_tokens = \\n", "delimiter_tokens = \\n [MASK]",
             r"\[cell sweep\] delimiter_tokens: the mask token cannot be a delimiter$"),
        ],
        ids=["experiment-key", "predictor-key", "other-kind-key", "section", "seed",
             "predictor-value", "prompt", "ngram-corpus", "trace-path", "char-mode",
             "default-section", "cell-value", "cell-config", "cell-delimiter",
             "cell-budget-missing", "percent-value", "predictor-kind-unknown",
             "predictor-kind-missing", "prompt-empty", "prompt-beyond-vocab",
             "prompt-holds-mask", "prompt-without-corpus", "cell-id-prefix-glued",
             "cell-id-default-name", "cell-id-from-sweep", "cell-id-repeated-value",
             "cell-name-parent-escape", "cell-name-slash", "cell-name-backslash",
             "cell-name-dotdot", "cell-name-dot", "repetitions-zero",
             "predictor-field-order", "ngram-order-zero", "ngram-smoothing-negative",
             "ngram-corpus-missing", "trace-path-missing", "trace-path-malformed",
             "cell-swept-tau", "cell-swept-b0", "cell-swept-sampler", "cell-delimiter-mask"],
    )
    def test_malformed_spec_names_section_and_key(self, old, new, message, tmp_path):
        assert old in SPEC_TEMPLATE
        text = SPEC_TEMPLATE.replace(old, new)
        with pytest.raises(ValueError, match=message):
            experiment.load_spec(write_spec(tmp_path, text))

    def test_corpus_prompt_longer_than_corpus_rejected(self, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("a b c\n")
        text = (SPEC_TEMPLATE.replace("prompt = literal:0 1", "prompt = corpus:4")
                .replace(SYNTHETIC_OPTIONS, f"kind = ngram\ncorpus = {corpus}\norder = 2")
                .replace("delimiter_tokens = \\n\n", ""))
        with pytest.raises(ValueError, match=r"\[experiment\] prompt: corpus:4 needs a "
                           r"predictor corpus of at least 4 tokens; this one has 3"):
            experiment.load_spec(write_spec(tmp_path, text))

    def test_cell_values_parse_through_config_codec(self, tmp_path):
        text = SPEC_TEMPLATE.replace("b0 = 4,8", "b0 = 4") + "linear_steps = none,4\n"
        spec = experiment.load_spec(write_spec(tmp_path, text), tmp_path / "out")
        by_id = {c.cell_id: c.config.linear_steps for c in spec.cells}
        assert by_id == {
            "sweep.linear_steps=None-scheduler=adaptive": None,
            "sweep.linear_steps=None-scheduler=fixed": None,
            "sweep.linear_steps=4-scheduler=adaptive": 4,
            "sweep.linear_steps=4-scheduler=fixed": 4,
        }


    def test_char_mode_builds_a_character_ngram(self, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("abc abd abe\n")
        text = (f"[experiment]\nprompt = corpus:2\n[predictor]\nkind = ngram\n"
                f"corpus = {corpus}\nchar_mode = true\n[cell c]\n{TINY_CELL}")
        spec = experiment.load_spec(write_spec(tmp_path, text))
        assert spec.predictor.options["char_mode"] is True
        vocab = experiment.build_predictor(spec.predictor, 0).vocabulary
        assert set(vocab.tokens) == {"a", "b", "c", "d", "e", " ", "[MASK]", "<EOS>"}


class TestRun:
    def test_sweep_produces_per_run_files_and_aggregate(self, tmp_path):
        spec = experiment.load_spec(write_spec(tmp_path), tmp_path / "out")
        outcomes, csv_path = experiment.run(spec)
        assert len(outcomes) == 8
        assert all(oc.error is None for oc in outcomes)
        rows = list(csv.DictReader(csv_path.open()))
        assert len(rows) == 8
        assert set(experiment.AGGREGATE_COLUMNS) == set(rows[0])
        traces = list((tmp_path / "out").rglob("*.trace.jsonl"))
        summaries = list((tmp_path / "out").rglob("*.summary.json"))
        assert len(traces) == len(summaries) == 8

    def test_rerun_is_byte_identical(self, tmp_path):
        spec = experiment.load_spec(write_spec(tmp_path), tmp_path / "out")
        _, csv_path = experiment.run(spec)
        first = csv_path.read_bytes()
        _, csv_path = experiment.run(spec)
        assert csv_path.read_bytes() == first

    @pytest.mark.parametrize(
        "rate, nonzero",
        [(1.5, "late_overhead_rate"), (0.5, "premature_rate")],
        ids=["frontier-ahead", "frontier-behind"],
    )
    def test_jobs_do_not_change_results(self, rate, nonzero, tmp_path):
        trees = []
        spec_path = write_spec(tmp_path, plateau_spec(rate))
        for jobs in JOBS:
            out = tmp_path / f"jobs{jobs}"
            experiment.run(experiment.load_spec(spec_path, out), jobs=jobs)
            experiment.analyze(out, jobs=jobs)
            trees.append(file_tree(out))
        names = sorted(trees[0])
        # 8 traces and summaries, the aggregate, 8 x 3 analysis reports, failures.csv
        assert len(names) == 8 + 8 + 1 + 24 + 1
        for tree in trees[1:]:
            assert sorted(tree) == names
            for name in names:
                assert tree[name] == trees[0][name], name
        # the event detector must see something for the comparison to cover it
        rows = list(csv.DictReader(trees[0]["aggregate.csv"].decode().splitlines()))
        assert any(float(row[nonzero]) > 0 for row in rows)

    def test_jobs_do_not_change_ngram_results(self, tmp_path):
        # the criterion-3 model on a short region: every window clips at both
        # ends of the sequence, and the runs differ in their corpus prompts
        text = (SPEC_TEMPLATE.replace("prompt = literal:0 1", "prompt = corpus:8")
                .replace("repetitions = 2", "repetitions = 3")
                .replace(SYNTHETIC_OPTIONS,
                         f"kind = ngram\ncorpus = {ZONE_CORPUS}\norder = 31\nsmoothing = 0.01")
                .replace("scheduler = fixed,adaptive", "scheduler = fixed")
                .replace("cache = none", "cache = none,prefix")
                .replace("delimiter_tokens = \\n\n", "tau = 0.9\n"))
        spec_path = write_spec(tmp_path, text)
        trees = []
        for jobs in JOBS:
            out = tmp_path / f"jobs{jobs}"
            experiment.run(experiment.load_spec(spec_path, out), jobs=jobs)
            experiment.analyze(out, jobs=jobs)
            trees.append(file_tree(out))
        names = sorted(trees[0])
        # 12 traces and summaries, the aggregate, 12 x 3 analysis reports, failures.csv
        assert len(names) == 12 + 12 + 1 + 36 + 1
        for tree in trees[1:]:
            assert sorted(tree) == names
            for name in names:
                assert tree[name] == trees[0][name], name
        texts = {json.loads(data)["text"] for name, data in trees[0].items()
                 if name.endswith(".summary.json")}
        assert len(texts) > 1

    def test_disabled_delimiters_match_fixed_rows(self, tmp_path):
        text = SPEC_TEMPLATE.replace("delimiter_tokens = \\n\n", "")
        spec = experiment.load_spec(write_spec(tmp_path, text), tmp_path / "out")
        _, csv_path = experiment.run(spec)
        rows = list(csv.DictReader(csv_path.open()))
        by_key = {}
        for row in rows:
            key = (row["b0"], row["seed"])
            by_key.setdefault(key, []).append(row)
        compared = 0
        for (b0, seed), pair in by_key.items():
            if len(pair) != 2:
                continue
            a, b = pair
            for col in ("steps", "nfe", "late_overhead_rate", "premature_rate"):
                assert a[col] == b[col], (b0, seed, col)
            compared += 1
        assert compared == 4

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failing_cell_is_isolated(self, jobs, tmp_path, caplog):
        # record a short dynamic decode, then replay it under a sampler that
        # needs more steps than were recorded: that cell fails, others survive
        pred = build_synthetic(SyntheticFieldParams(noise_seed=3, vb_high=0.92))
        cfg = DecodeConfig(gen_budget=12, max_steps=12, b0=12, tau=0.5)
        result = decode(pred, cfg, (0, 1))
        trace_path = tmp_path / "seed.trace.jsonl"
        write_trace(trace_path, result.trace, pred.vocabulary, prompt=(0, 1), config=cfg)

        text = f"""
[experiment]
seed = 5
repetitions = 1
prompt = literal:0 1

[predictor]
kind = trace
path = {trace_path}

[cell ok]
gen_budget = 12
max_steps = 12
b0 = 12
tau = 0.5
sampler = dynamic

[cell starved]
gen_budget = 12
max_steps = 12
b0 = 12
sampler = vanilla
"""
        spec = experiment.load_spec(write_spec(tmp_path, text), tmp_path / "out")
        outcomes, csv_path = experiment.run(spec, jobs=jobs)
        by_cell = {oc.cell.cell_id: oc for oc in outcomes}
        assert by_cell["ok"].error is None
        assert by_cell["starved"].error is not None
        rows = list(csv.DictReader(csv_path.open()))
        assert [r["cell"] for r in rows] == ["ok"]
        # the parent logs the error the worker returned
        assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
            ("ERROR", f"cell starved rep 0 failed: {by_cell['starved'].error}")]
        assert not (tmp_path / "out" / "starved").exists()

    def test_outcomes_hold_counts_not_traces(self, tmp_path, monkeypatch):
        # decode is patched inside the run, so the runs stay in this process
        decoded = []

        def keep(*args):
            decoded.append(result := decode(*args))
            return result

        monkeypatch.setattr(experiment, "decode", keep)
        spec = experiment.load_spec(write_spec(tmp_path), tmp_path / "out")
        outcomes, _ = experiment.run(spec, jobs=1)
        assert len(decoded) == len(outcomes) == 8
        for oc, result in zip(outcomes, decoded):
            assert type(oc.result) is experiment.RunCounts
            report = metrics.failure_rates(result.trace, oc.cell.config.tau)
            assert oc.result == experiment.RunCounts(
                result.steps_used, result.denoise_calls, result.position_evaluations,
                sum(d.block_size for d in result.blocks) / len(result.blocks),
                result.completed, report.late_overhead_steps, report.premature_steps)

    def test_outcomes_cross_the_pool_as_a_few_numbers(self, tmp_path):
        # the criterion-3 workload, whose failure reports hold thousands of events
        text = f"""
[experiment]
seed = 0
repetitions = 2
prompt = corpus:8

[predictor]
kind = ngram
corpus = {ZONE_CORPUS}
order = 31
smoothing = 0.01

[cell fixed]
gen_budget = 392
max_steps = 1176
b0 = 16
cache = none
"""
        spec = experiment.parse_spec(text, tmp_path / "out")
        outcomes, _ = experiment.run(spec, jobs=1)
        for oc in outcomes:
            assert oc.result.late_overhead_steps + oc.result.premature_steps > 100
            assert {type(getattr(oc.result, f.name)) for f in fields(oc.result)} <= {
                int, float, bool}
            assert len(pickle.dumps(oc)) < 4096
        assert experiment.run(spec, jobs=2)[0] == outcomes

    def test_pooled_outcomes_equal_in_process_ones(self, tmp_path):
        spec = experiment.load_spec(write_spec(tmp_path, PLATEAU_SPEC), tmp_path / "out")
        first, _ = experiment.run(spec, jobs=1)
        assert experiment.run(spec, jobs=2)[0] == first

    def test_workers_run_under_spawn(self, tmp_path, monkeypatch):
        # workers get only module-level callables and plain data, so a start
        # method that imports the package afresh gives the same files
        spawn = multiprocessing.get_context("spawn")
        pools = []

        def spawning_pool(max_workers):
            pools.append(max_workers)
            return pool_class(max_workers=max_workers, mp_context=spawn)

        pool_class = concurrent.futures.ProcessPoolExecutor
        spec_path = write_spec(tmp_path, PLATEAU_SPEC)
        trees = []
        for jobs in (1, 2):
            if jobs == 2:
                monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spawning_pool)
            out = tmp_path / f"jobs{jobs}"
            experiment.run(experiment.load_spec(spec_path, out), jobs=jobs)
            experiment.analyze(out, jobs=jobs)
            trees.append(file_tree(out))
        assert pools == [2, 2]  # run's and analyze's
        assert trees[0] == trees[1]

    @pytest.mark.parametrize("jobs, tasks, workers", [
        (1, 8, 1), (2, 8, 2), (3, 2, 2), (2, 0, 1),
        (None, 1, 1),
        (None, 10**6, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count() or 1),
    ])
    def test_workers_per_jobs(self, jobs, tasks, workers):
        assert experiment._workers(jobs, tasks) == workers

    def test_default_jobs_without_sched_getaffinity(self, tmp_path, monkeypatch):
        # as on macOS and Windows: the default falls back to the CPU count
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert experiment._workers(None, 8) == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # undeterminable
        assert experiment._workers(None, 8) == 1
        out = tmp_path / "out"
        assert cli.main(["run", "--spec", str(write_spec(tmp_path)), "--out", str(out)]) == 0
        assert cli.main(["analyze", "--traces", str(out)]) == 0

    def test_cli_import_loads_no_pool(self):
        # _map imports the pool only when it starts one, so a fresh interpreter
        # that imports the CLI pays for neither module
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        probe = ("import sys, semiar.cli; print(sorted(m for m in sys.modules "
                 "if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
        proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


def reuse_spec(kind, tmp_path, corpus=ZONE_CORPUS):
    """A 2-cell, 3-repetition spec over a ``kind`` predictor.  A ``trace`` one
    replays a recorded decode whose config the first cell repeats."""
    if kind == "trace":
        pred = build_synthetic(SyntheticFieldParams(noise_seed=3, vb_high=0.92))
        cfg = DecodeConfig(gen_budget=12, max_steps=12, b0=4, tau=0.5, sampler="dynamic")
        result = decode(pred, cfg, (0, 1))
        path = tmp_path / "recorded.trace.jsonl"
        write_trace(path, result.trace, pred.vocabulary, prompt=(0, 1), config=cfg)
        options, prompt = f"kind = trace\npath = {path}", "literal:0 1"
    elif kind == "ngram":
        options, prompt = f"kind = ngram\ncorpus = {corpus}\norder = 5", "corpus:3"
    else:
        options, prompt = SYNTHETIC_OPTIONS, "literal:0 1"
    return f"""
[experiment]
seed = 11
repetitions = 3
prompt = {prompt}

[predictor]
{options}

[cell c]
gen_budget = 12
max_steps = 12
b0 = 4
tau = 0.5
sampler = dynamic
cache = none,prefix
"""


def counting_builds(monkeypatch):
    """The seeds ``experiment.build_predictor`` is called with from now on."""
    seeds = []
    build = experiment.build_predictor

    def counted(spec, seed):
        seeds.append(seed)
        return build(spec, seed)

    monkeypatch.setattr(experiment, "build_predictor", counted)
    return seeds


class TestPredictorReuse:
    """``run`` builds an ``ngram`` or ``trace`` predictor once per call in a
    process, and a ``synthetic`` one per run."""

    @pytest.mark.parametrize("kind", ["synthetic", "ngram", "trace"])
    def test_builds_per_run_call_at_one_job(self, kind, tmp_path, monkeypatch):
        spec = experiment.load_spec(write_spec(tmp_path, reuse_spec(kind, tmp_path)),
                                    tmp_path / "out")
        seeds = counting_builds(monkeypatch)
        for call in (1, 2):
            outcomes, _ = experiment.run(spec, jobs=1)
            assert len(outcomes) == 6 and all(oc.error is None for oc in outcomes)
            if kind == "synthetic":  # its noise seed is the run seed
                assert seeds[-6:] == [oc.run_seed for oc in outcomes]
            assert len(seeds) == call * (6 if kind == "synthetic" else 1)
        assert experiment._reused is None

    def test_every_trace_rep_replays_from_the_first_record(self, tmp_path):
        spec_path = write_spec(tmp_path, reuse_spec("trace", tmp_path))
        recorded = (tmp_path / "recorded.trace.jsonl").read_text().splitlines()[1:]
        trees = []
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            outcomes, _ = experiment.run(experiment.load_spec(spec_path, out), jobs=jobs)
            assert all(oc.error is None for oc in outcomes)
            trees.append(file_tree(out))
            # the header holds each run's seed; the step lines are the recording's
            for rep in range(3):
                lines = trees[-1][f"c.cache=none/rep{rep:03d}.trace.jsonl"].decode()
                assert lines.splitlines()[1:] == recorded
        assert trees[0] == trees[1]

    def test_corpus_edited_between_run_calls_is_read_anew(self, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("a b c d e f . a b c . d e f " * 4)
        spec = experiment.load_spec(write_spec(tmp_path, reuse_spec("ngram", tmp_path, corpus)),
                                    tmp_path / "out")
        trees = []
        for text in ("a b c d e f . a b c . d e f " * 4, "f e d c b a . c b a . f e d " * 4):
            corpus.write_text(text)
            for out in ("out", "fresh"):  # the spec parsed before the edit, and after
                experiment.run(experiment.load_spec(tmp_path / "exp.spec", tmp_path / out)
                               if out == "fresh" else spec, jobs=1)
                trees.append(file_tree(tmp_path / out))
        assert trees[0] == trees[1] != trees[2] == trees[3]

    def test_failed_build_is_not_kept(self, tmp_path, monkeypatch, caplog):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("a b c d e f . a b c . d e f " * 4)
        spec = experiment.load_spec(write_spec(tmp_path, reuse_spec("ngram", tmp_path, corpus)),
                                    tmp_path / "out")
        seeds = counting_builds(monkeypatch)
        corpus.unlink()
        outcomes, _ = experiment.run(spec, jobs=1)
        assert len(seeds) == 6  # every run tries, and fails, on its own
        errors = {oc.error for oc in outcomes}
        assert len(errors) == 1 and str(corpus) in errors.pop()
        assert [r.getMessage() for r in caplog.records] == [
            f"cell {oc.cell.cell_id} rep {oc.repetition} failed: {oc.error}" for oc in outcomes]
        corpus.write_text("a b c d e f . a b c . d e f " * 4)
        outcomes, _ = experiment.run(spec, jobs=1)
        assert all(oc.error is None for oc in outcomes) and len(seeds) == 7

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_run_ignores_a_predictor_left_from_before(self, jobs, tmp_path, monkeypatch):
        # an equal spec's predictor over another corpus, as a forked worker
        # would inherit it if run did not clear it first
        spec_path = write_spec(tmp_path, reuse_spec("ngram", tmp_path))
        spec = experiment.load_spec(spec_path, tmp_path / "clean")
        experiment.run(spec, jobs=jobs)
        stale = build_ngram("the the mm r0 r1 r2 " * 8, order=5, smoothing_k=0.01)
        monkeypatch.setattr(experiment, "_reused", (spec.predictor, stale))
        experiment.run(experiment.load_spec(spec_path, tmp_path / "out"), jobs=jobs)
        assert file_tree(tmp_path / "out") == file_tree(tmp_path / "clean")
        assert experiment._reused is None


class TestAnalyze:
    def test_reports_per_trace_plus_summary(self, tmp_path):
        spec = experiment.load_spec(write_spec(tmp_path), tmp_path / "out")
        experiment.run(spec)
        summary = experiment.analyze(tmp_path / "out")
        assert summary.exists()
        rows = list(csv.DictReader(summary.open()))
        assert len(rows) == 8
        reports = list(summary.parent.glob("*.steps.csv"))
        heatmaps = list(summary.parent.glob("*.heatmap.csv"))
        regimes = list(summary.parent.glob("*.regimes.csv"))
        assert len(reports) == len(heatmaps) == len(regimes) == 8

    def test_idempotent(self, tmp_path):
        spec = experiment.load_spec(write_spec(tmp_path), tmp_path / "out")
        experiment.run(spec)
        first = experiment.analyze(tmp_path / "out").read_bytes()
        second = experiment.analyze(tmp_path / "out").read_bytes()
        assert first == second

    def test_empty_directory_errors(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            experiment.analyze(tmp_path)

    def test_rates_match_aggregate_at_recorded_tau(self, tmp_path):
        # events are detected at the tau each trace recorded, as in the run
        out = tmp_path / "out"
        outcomes, csv_path = experiment.run(
            experiment.load_spec(write_spec(tmp_path, PLATEAU_SPEC), out))
        rates = ("late_overhead_rate", "premature_rate")
        expected = {}
        for oc, row in zip(outcomes, csv.DictReader(csv_path.open()), strict=True):
            assert row["cell"] == oc.cell.cell_id
            trace = f"{oc.cell.cell_id}/rep{oc.repetition:03d}.trace.jsonl"
            expected[trace] = [row[r] for r in rates]
        analyzed = {row["trace"]: [row[r] for r in rates]
                    for row in csv.DictReader(experiment.analyze(out).open())}
        assert analyzed == expected

    def test_trace_shorter_than_persistence_is_analyzed(self, tmp_path):
        text = SPEC_TEMPLATE.replace("gen_budget = 24\nmax_steps = 24\nb0 = 4,8",
                                     "gen_budget = 2\nmax_steps = 2\nb0 = 2")
        out = tmp_path / "out"
        experiment.run(experiment.load_spec(write_spec(tmp_path, text), out))
        summary = experiment.analyze(out, persistence_k=3)
        rows = list(csv.DictReader(summary.open()))
        assert len(rows) == 4  # 2 schedulers x 2 repetitions
        assert {row["steps"] for row in rows} == {"2"}
        for suffix in ("steps", "heatmap", "regimes"):
            assert len(list(summary.parent.glob(f"*.{suffix}.csv"))) == 4

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_malformed_trace_skipped(self, jobs, tmp_path, caplog):
        out = tmp_path / "out"
        experiment.run(experiment.load_spec(write_spec(tmp_path), out), jobs=jobs)
        # sorted among the good traces, not first or last
        bad = out / "sweep.b0=4-scheduler=fixed" / "broken.trace.jsonl"
        bad.write_text("not json\n")
        summary = experiment.analyze(out, jobs=jobs)
        rows = list(csv.DictReader(summary.open()))
        assert len(rows) == 8  # the broken file is skipped, not fatal
        assert "broken" not in {row["trace"] for row in rows}
        for suffix in ("steps", "heatmap", "regimes"):
            reports = sorted(p.name for p in summary.parent.glob(f"*.{suffix}.csv"))
            assert len(reports) == 8
            assert not any("broken" in name for name in reports)
        assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
            ("WARNING", f"skipping {bad}: {bad}: line 1: invalid JSON (Expecting value)")]

    def test_logs_do_not_depend_on_jobs(self, tmp_path, caplog):
        out = tmp_path / "out"
        experiment.run(experiment.load_spec(write_spec(tmp_path), out), jobs=1)
        for name in ("a", "m", "z"):
            (out / f"{name}.trace.jsonl").write_text(f"{name}\n")
        logs = []
        for jobs in JOBS:
            caplog.clear()
            experiment.analyze(out, jobs=jobs)
            logs.append([r.getMessage() for r in caplog.records])
        # in path order, which puts the cells' traces between a and z
        assert [len(log) for log in logs] == [3, 3, 3]
        assert all(f"{name}.trace.jsonl: line 1" in message
                   for name, message in zip("amz", logs[0]))
        assert logs[1] == logs[0] and logs[2] == logs[0]

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected_before_writing(self, jobs, tmp_path, capsys):
        out = tmp_path / "out"
        experiment.run(experiment.load_spec(write_spec(tmp_path), out), jobs=1)
        with pytest.raises(ValueError, match=f"^jobs must be >= 1, got {jobs}$"):
            experiment.analyze(out, jobs=jobs)
        assert not (out / "analysis").exists()
        assert cli.main(["analyze", "--traces", str(out), "--jobs", str(jobs)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: jobs must be >= 1, got {jobs}"]
        assert not (out / "analysis").exists()

    def test_fields_that_need_quoting_read_back(self, tmp_path):
        # a cell id holding a comma is quoted in both summary CSVs
        out = tmp_path / "out"
        text = SPEC_TEMPLATE.replace("[cell sweep]", "[cell a,b]").replace("b0 = 4,8", "b0 = 4")
        _, csv_path = experiment.run(experiment.load_spec(write_spec(tmp_path, text), out))
        summary = experiment.analyze(out)
        assert b'\r\n"a,b.scheduler=fixed",fixed,' in csv_path.read_bytes()
        assert b'\r\n"a,b.scheduler=fixed/rep000.trace.jsonl",fixed,' in summary.read_bytes()
        cells = [row["cell"] for row in csv.DictReader(csv_path.open(newline=""))]
        assert cells == ["a,b.scheduler=fixed"] * 2 + ["a,b.scheduler=adaptive"] * 2
        traces = [row["trace"] for row in csv.DictReader(summary.open(newline=""))]
        assert traces == [f"a,b.scheduler={s}/rep00{r}.trace.jsonl"
                          for s in ("adaptive", "fixed") for r in (0, 1)]

    def test_colliding_report_names_rejected(self, tmp_path, capsys):
        # both traces would write x__a__rep000.*.csv; neither may overwrite the other
        spec = experiment.load_spec(write_spec(tmp_path), tmp_path / "run")
        experiment.run(spec)
        trace = sorted((tmp_path / "run").rglob("*.trace.jsonl"))[0]
        traces = tmp_path / "traces"
        for rel in ("x/a__rep000.trace.jsonl", "x__a/rep000.trace.jsonl"):
            (traces / rel).parent.mkdir(parents=True)
            shutil.copy(trace, traces / rel)
        message = ("x__a/rep000.trace.jsonl: report name 'x__a__rep000' is already taken "
                   "by x/a__rep000.trace.jsonl; their reports would share files")
        with pytest.raises(ValueError) as info:
            experiment.analyze(traces)
        assert str(info.value) == message
        assert not (traces / "analysis").exists()
        assert cli.main(["analyze", "--traces", str(traces)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not (traces / "analysis").exists()


class TestCli:
    def test_run_then_analyze_then_replay(self, tmp_path, capsys):
        spec_path = write_spec(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["run", "--spec", str(spec_path), "--out", str(out)]) == 0
        assert (out / "aggregate.csv").exists()

        assert cli.main(["analyze", "--traces", str(out)]) == 0
        assert (out / "analysis" / "failures.csv").exists()

        trace = sorted(out.rglob("*.trace.jsonl"))[0]
        assert cli.main(["replay", "--trace", str(trace)]) == 0
        replayed = sorted(trace.parent.glob("*.replayed.trace.jsonl"))
        assert replayed
        # deterministic replay reproduces the recorded trace byte for byte
        assert replayed[0].read_bytes() == trace.read_bytes()

    def _recorded_trace(self, tmp_path, sampler, with_header=True):
        pred = build_synthetic(SyntheticFieldParams(noise_seed=3, vb_high=0.92,
                                                    delimiter_period=4))
        cfg = DecodeConfig(gen_budget=12, max_steps=12, b0=4, tau=0.5, sampler=sampler,
                           delimiters=frozenset({pred.delimiter_id}))
        result = decode(pred, cfg, (0, 1))
        path = tmp_path / "seed.trace.jsonl"
        if with_header:
            write_trace(path, result.trace, pred.vocabulary, prompt=(0, 1), config=cfg)
        else:
            write_trace(path, result.trace, pred.vocabulary)
        return path

    def test_replay_with_overrides(self, tmp_path, capsys):
        # vanilla commits one position per step, so a dynamic replay, which
        # commits at least one, never asks for more steps than were recorded
        trace = self._recorded_trace(tmp_path, "vanilla")
        out = tmp_path / "replays"
        assert cli.main(["replay", "--trace", str(trace), "--out", str(out),
                         "--sampler", "dynamic", "--scheduler", "adaptive"]) == 0
        printed = json.loads(capsys.readouterr().out)
        data = read_trace_file(out / "seed.replayed.trace.jsonl")
        assert (data.config.sampler, data.config.scheduler) == ("dynamic", "adaptive")
        assert printed["status"] == "completed"
        assert printed["steps"] == len(data.trace) < 12
        assert json.loads((out / "seed.replayed.summary.json").read_text()) == printed

    def test_replay_that_runs_out_exits_1(self, tmp_path, capsys):
        trace = self._recorded_trace(tmp_path, "dynamic")
        assert cli.main(["replay", "--trace", str(trace), "--sampler", "vanilla"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "nothing to replay" in err[0]

    def test_replay_without_recorded_config_exits_1(self, tmp_path, capsys):
        trace = self._recorded_trace(tmp_path, "dynamic", with_header=False)
        assert cli.main(["replay", "--trace", str(trace)]) == 1
        assert "lacks the recorded config/prompt" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.replayed.*"))

    def test_run_reports_each_failed_run_once(self, tmp_path):
        # a vanilla decode needs more steps than the dynamic one recorded
        text = f"""
[experiment]
repetitions = 2
prompt = literal:0 1

[predictor]
kind = trace
path = {self._recorded_trace(tmp_path, "dynamic")}

[cell starved]
gen_budget = 12
max_steps = 12
b0 = 4
sampler = vanilla
"""
        out = tmp_path / "out"
        # a process of its own, so the log lines reach stderr as a user sees them
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "semiar.cli", "run", "--spec", str(write_spec(tmp_path, text)),
             "--out", str(out), "--jobs", "1"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stdout.splitlines()[0] == f"0/2 runs ok -> {out / 'aggregate.csv'}"
        reported = [line for line in proc.stderr.splitlines() if "starved" in line]
        assert len(reported) == 2
        for rep, line in enumerate(reported):
            assert line.startswith(f"ERROR cell starved rep {rep} failed: "), line

    def test_run_seed_override_sets_seed_column(self, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["run", "--spec", str(write_spec(tmp_path)), "--out", str(out),
                         "--seed", "99"]) == 0
        rows = list(csv.DictReader((out / "aggregate.csv").open()))
        reps = [0, 1] * 4  # four cells of one section, two repetitions each
        assert [int(row["seed"]) for row in rows] == [mix_seed(99, 0, r) for r in reps]

    def test_run_prints_pooled_line_per_cell(self, tmp_path, capsys):
        out = tmp_path / "out"
        spec_path = write_spec(tmp_path, PLATEAU_SPEC)
        assert cli.main(["run", "--spec", str(spec_path), "--out", str(out)]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed[0] == f"8/8 runs ok -> {out / 'aggregate.csv'}"

        rows = list(csv.DictReader((out / "aggregate.csv").open()))
        expected = []
        for cell in dict.fromkeys(row["cell"] for row in rows):
            runs = [row for row in rows if row["cell"] == cell]
            steps = [int(row["steps"]) for row in runs]

            def mean(col):
                return sum(int(row[col]) for row in runs) / len(runs)

            def pooled(col):
                events = sum(round(float(row[col]) * n) for row, n in zip(runs, steps))
                return events / sum(steps)

            expected.append(
                f"{cell} ok={len(runs)}/2 steps={mean('steps'):.1f} nfe={mean('nfe'):.1f}"
                f" position_evals={mean('position_evals'):.1f}"
                f" late={pooled('late_overhead_rate'):.4f}"
                f" premature={pooled('premature_rate'):.4f}"
            )
        assert printed[1:] == expected
        assert any(not line.endswith("late=0.0000 premature=0.0000") for line in expected)

    @pytest.mark.parametrize(
        "flags, message",
        [(["--persistence", "0"], "persistence_k must be >= 1"),
         (["--tau-hi", "0.1", "--tau-lo", "0.9"], "tau_lo must be strictly below tau_hi")],
        ids=["persistence", "tau-order"],
    )
    def test_analyze_rejects_bad_regime_flags(self, flags, message, tmp_path, capsys):
        # the flags are checked before any trace is read or report written, so
        # a bad value fails the command instead of skipping every trace
        out = tmp_path / "out"
        assert cli.main(["run", "--spec", str(write_spec(tmp_path)), "--out", str(out)]) == 0
        assert cli.main(["analyze", "--traces", str(out), *flags]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not (out / "analysis").exists()

        assert cli.main(["analyze", "--traces", str(out)]) == 0
        reports = {p: p.read_bytes() for p in (out / "analysis").iterdir()}
        assert cli.main(["analyze", "--traces", str(out), *flags]) == 1
        assert {p: p.read_bytes() for p in (out / "analysis").iterdir()} == reports

    def test_analyze_defaults_agree(self):
        args = cli.build_parser().parse_args(["analyze", "--traces", "t"])
        flags = {"tau_hi": args.tau_hi, "tau_lo": args.tau_lo,
                 "persistence_k": args.persistence}
        for func in (experiment.analyze, metrics.segment_regimes):
            params = inspect.signature(func).parameters
            assert {name: params[name].default for name in flags} == flags, func.__name__

    def test_jobs_default_to_the_usable_cpus(self):
        for argv in (["run", "--spec", "s"], ["analyze", "--traces", "t"]):
            assert cli.build_parser().parse_args(argv).jobs is None
        for func in (experiment.run, experiment.analyze):
            assert inspect.signature(func).parameters["jobs"].default is None

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_run_rejects_jobs_below_one(self, jobs, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(["run", "--spec", str(write_spec(tmp_path)), "--out", str(out),
                         "--jobs", jobs]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: jobs must be >= 1, got {jobs}"
        ]
        assert not out.exists()

    def test_malformed_spec_prints_one_error_line(self, tmp_path, capsys):
        spec_path = write_spec(tmp_path, SPEC_TEMPLATE.replace("seed = 11", "seed = x"))
        assert cli.main(["run", "--spec", str(spec_path)]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "error: [experiment] seed: invalid literal for int() with base 10: 'x'"
        ]

    def test_bad_spec_returns_nonzero(self, tmp_path):
        text = SPEC_TEMPLATE.replace("kind = synthetic", "kind = trace\npath = missing.jsonl")
        spec_path = write_spec(tmp_path, text)
        assert cli.main(["run", "--spec", str(spec_path)]) != 0
