"""Experiment harness: spec parsing, sweeps, aggregation, analysis, CLI."""

import csv
import json

import pytest

from semiar import cli, experiment
from semiar.core import DecodeConfig
from semiar.decoder import decode
from semiar.predictors import SyntheticFieldParams, build_synthetic
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
            ("b0 = 4,8", "b0 = 0", r"\[cell sweep\] b0 must be >= 1"),
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
        ],
        ids=["experiment-key", "predictor-key", "other-kind-key", "section", "seed",
             "predictor-value", "prompt", "ngram-corpus", "trace-path", "char-mode",
             "default-section", "cell-value", "cell-config", "cell-delimiter",
             "cell-budget-missing", "percent-value", "predictor-kind-unknown",
             "predictor-kind-missing", "prompt-empty", "prompt-beyond-vocab",
             "prompt-holds-mask", "prompt-without-corpus", "cell-id-prefix-glued",
             "cell-id-default-name", "cell-id-from-sweep", "cell-id-repeated-value",
             "cell-name-parent-escape", "cell-name-slash", "cell-name-backslash",
             "cell-name-dotdot", "cell-name-dot"],
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
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            experiment.run(experiment.load_spec(spec_path, out), jobs=jobs)
            experiment.analyze(out)
            trees.append({path.relative_to(out).as_posix(): path.read_bytes()
                          for path in sorted(out.rglob("*")) if path.is_file()})
        names = sorted(trees[0])
        # 8 traces and summaries, the aggregate, 8 x 3 analysis reports, failures.csv
        assert len(names) == 8 + 8 + 1 + 24 + 1
        assert sorted(trees[1]) == names
        for name in names:
            assert trees[0][name] == trees[1][name], name
        # the event detector must see something for the comparison to cover it
        rows = list(csv.DictReader(trees[0]["aggregate.csv"].decode().splitlines()))
        assert any(float(row[nonzero]) > 0 for row in rows)

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

    def test_failing_cell_is_isolated(self, tmp_path):
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
        outcomes, csv_path = experiment.run(spec)
        by_cell = {oc.cell.cell_id: oc for oc in outcomes}
        assert by_cell["ok"].error is None
        assert by_cell["starved"].error is not None
        rows = list(csv.DictReader(csv_path.open()))
        assert [r["cell"] for r in rows] == ["ok"]


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

    def test_malformed_trace_skipped(self, tmp_path):
        spec = experiment.load_spec(write_spec(tmp_path), tmp_path / "out")
        experiment.run(spec)
        bad = tmp_path / "out" / "broken.trace.jsonl"
        bad.write_text("not json\n")
        summary = experiment.analyze(tmp_path / "out")
        rows = list(csv.DictReader(summary.open()))
        assert len(rows) == 8  # the broken file is skipped, not fatal


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
