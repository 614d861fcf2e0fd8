"""Tests of the benchmark itself, on shrunken inputs so they run in seconds.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402

workloads.use_checkout_source()


def small(name, seed, tmp_path):
    inputs = workloads.WORKLOADS[name].make_inputs(seed)
    if name == "ngram-zone":
        inputs = dict(inputs, L=24, offsets=inputs["offsets"][:1])
    elif name == "synth-long":
        inputs = dict(inputs, L=48)
    else:
        inputs = {"spec": workloads.sweep_spec(seed, gen_budget=12)}
    workload = workloads.WORKLOADS[name](seed, tmp_path / name, inputs)
    workload.setup()
    return workload


def pinned_for(workload, digest):
    return {workload.name: {str(workload.seed): digest}}


def test_unperturbed_cycles_match_their_pin(tmp_path):
    workload = small("ngram-zone", 3, tmp_path)
    first = workload.cycle()
    attempted, failed, _ = run.judge(workload, [first, workload.cycle()],
                                     pinned_for(workload, first.digest))
    assert (attempted, failed) == (2 * first.attempted, 0)


def test_perturbed_decode_output_trips_the_digest(tmp_path, monkeypatch):
    workload = small("ngram-zone", 3, tmp_path)
    pin = workload.cycle().digest
    decoder = importlib.import_module("semiar.decoder")
    original = decoder.decode

    def perturbed(predictor, config, prompt):
        result = original(predictor, config, prompt)
        tokens = list(result.final_tokens)
        tokens[-1] = (tokens[-1] + 1) % predictor.vocabulary.size
        return dataclasses.replace(result, final_tokens=tuple(tokens))

    monkeypatch.setattr(decoder, "decode", perturbed)
    cycle = workload.cycle()
    attempted, failed, notes = run.judge(workload, [cycle], pinned_for(workload, pin))
    assert failed == attempted > 0
    assert any("MISMATCH" in note for note in notes)


def test_perturbed_trace_file_trips_the_digest(tmp_path, monkeypatch):
    workload = small("sweep", 3, tmp_path)
    pin = workload.cycle().digest
    tracefile = importlib.import_module("semiar.tracefile")
    original = tracefile.write_trace

    def perturbed(path, *args, **kwargs):
        original(path, *args, **kwargs)
        text = Path(path).read_text(encoding="utf-8")
        Path(path).write_text(text[:-1] + " \n", encoding="utf-8")

    monkeypatch.setattr(tracefile, "write_trace", perturbed)
    cycle = workload.cycle()
    attempted, failed, _ = run.judge(workload, [cycle], pinned_for(workload, pin))
    assert failed == attempted > 0


def _patched_objects():
    objects = {}
    for module, attr, _ in tracer_mod._FUNCTIONS:
        objects[(module, attr)] = vars(importlib.import_module(module))[attr]
    for module, cls, attr, _ in tracer_mod._METHODS + [h for h in tracer_mod._HOT if h[1]]:
        objects[(module, cls, attr)] = vars(getattr(importlib.import_module(module), cls))[attr]
    for module, _, attr, _ in (h for h in tracer_mod._HOT if not h[1]):
        objects[(module, attr)] = vars(importlib.import_module(module))[attr]
    return objects


@pytest.mark.parametrize("name", ["ngram-zone", "synth-long", "sweep"])
def test_traced_cycle_matches_untraced_and_unwraps(name, tmp_path):
    workload = small(name, 5, tmp_path)
    before = _patched_objects()
    untraced = workload.cycle()
    with tracer_mod.Tracer() as tracer:
        assert _patched_objects() != before
        traced = workload.cycle()
    assert _patched_objects() == before
    assert traced.digest == untraced.digest
    assert traced.failed == untraced.failed == 0
    values = run.layers.per_layer(tracer, cycles=1, runs=traced.runs, analyzed=traced.analyzed,
                                  runs_failed=traced.runs_failed, jobs=1, overhead_s=0.0)
    assert {n for n, _ in run.declared("per_layer") + run.layers.WORKLOAD_SPECIFIC} == set(values)
    assert values["decoder.steps"] > 0 and values["predictors.denoise_ms"] > 0


def _spec_without_seed(text):
    return [line for line in text.splitlines() if not line.startswith("seed = ")]


@pytest.mark.parametrize("name", ["ngram-zone", "synth-long", "sweep"])
def test_seed_changes_inputs_not_shape(name):
    make = workloads.WORKLOADS[name].make_inputs
    a, b = make(1), make(2)
    assert a != b
    assert a == make(1)
    assert a.keys() == b.keys()
    for key in a:
        if isinstance(a[key], list):
            assert len(a[key]) == len(b[key])
        elif key == "spec":
            assert _spec_without_seed(a[key]) == _spec_without_seed(b[key])
        else:
            assert a[key] == b[key]


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    with pytest.raises(json.JSONDecodeError):
        json.loads(last)
