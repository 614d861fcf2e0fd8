"""The experiment specs under specs/ describe the experiments they document, and run."""

import csv
from pathlib import Path

import pytest

from semiar import cli, experiment
from semiar.core import DecodeConfig
from semiar.experiment import PredictorSpec, PromptSpec
from semiar.predictors import SyntheticFieldParams, build_synthetic

ROOT = Path(__file__).resolve().parent.parent
NEWLINE = build_synthetic(SyntheticFieldParams()).delimiter_id

# per spec: repetitions, prompt, predictor, and the cell configs it expands to
EXPECTED = {
    "block_size_sweep.spec": (
        25,
        PromptSpec("literal", tokens=(0, 1)),
        PredictorSpec("synthetic", {"delimiter_period": 6, "vb_width_mean": 1,
                                    "vb_low": 0.4, "vb_high": 0.92}),
        {DecodeConfig(gen_budget=288, max_steps=288, b0=b0, scheduler=scheduler,
                      delimiters=frozenset({NEWLINE}))
         for b0 in (4, 8, 16, 32, 64, 128) for scheduler in ("fixed", "adaptive")},
    ),
    "failure_rates.spec": (
        50,
        PromptSpec("corpus", length=8),
        PredictorSpec("ngram", {"corpus": "specs/zone_corpus.txt", "order": 31,
                                "smoothing": 0.01}),
        {DecodeConfig(gen_budget=392, max_steps=392 * 3, b0=b0, cache="none")
         for b0 in (16, 32, 64)},
    ),
    "confidence_landscape.spec": (
        1,
        PromptSpec("literal", tokens=(0, 1)),
        PredictorSpec("synthetic", {"vb_width_mean": 5, "vb_low": 0.4, "vb_high": 0.85,
                                    "plateau_level": 0.95, "floor_level": 0.05}),
        {DecodeConfig(gen_budget=64, max_steps=64, b0=16, cache="none")},
    ),
}


def test_every_spec_is_described():
    assert sorted(p.name for p in (ROOT / "specs").glob("*.spec")) == sorted(EXPECTED)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_spec_expands_to_its_experiment(name, monkeypatch):
    monkeypatch.chdir(ROOT)  # spec paths are relative to the repository root
    spec = experiment.load_spec(Path("specs") / name)
    repetitions, prompt, predictor, configs = EXPECTED[name]
    assert spec.repetitions == repetitions
    assert spec.prompt == prompt
    assert spec.predictor == predictor
    assert len(spec.cells) == len(configs)
    assert {c.config for c in spec.cells} == configs


def test_zone_corpus_is_the_acceptance_corpus():
    from test_acceptance import zone_corpus

    assert (ROOT / "specs" / "zone_corpus.txt").read_text() == zone_corpus() + "\n"


def test_landscape_runs_and_analyzes(tmp_path, capsys):
    out = tmp_path / "landscape"
    spec = ROOT / "specs" / "confidence_landscape.spec"
    assert cli.main(["run", "--spec", str(spec), "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("landscape ok=1/1 steps=")
    assert cli.main(["analyze", "--traces", str(out), "--tau-hi", "0.95",
                     "--tau-lo", "0.05", "--persistence", "1"]) == 0
    analysis = out / "analysis"
    for report in ("heatmap", "regimes", "steps"):
        assert (analysis / f"landscape__rep000.{report}.csv").stat().st_size > 0
    with (analysis / "landscape__rep000.steps.csv").open() as fh:
        widths = [int(row["vb_width"]) for row in csv.DictReader(fh)]
    assert widths and max(widths) > 0
