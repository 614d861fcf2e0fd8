"""Acceptance gate: the release criteria this engine must clear, with pinned
tolerances and runtime budgets. Each test prints one pass/fail line (run with
``pytest tests/test_acceptance.py -v -s`` to see them inline).
"""

import itertools
import math
import random
import time

from semiar.core import DecodeConfig, PredictionFrame
from semiar.decoder import decode
from semiar.metrics import Regime, failure_rates, segment_regimes
from semiar.predictors import (
    SyntheticFieldParams,
    build_ngram,
    build_synthetic,
    load_trace_predictor,
)
from semiar.sampling import threshold_sample
from semiar.scheduler import DELIMITER, FALLBACK, compute_block_length, fixed_block_length
from semiar.seeding import unit_draw
from semiar.tracefile import write_trace

NL = 500  # delimiter id for randomized scheduler inputs


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


# -- 1. scheduler oracle equivalence -----------------------------------------

def oracle_block_length(pred, conf, L, b0, delims, tau_d, g, wf):
    start, remaining = g, L - g
    w = min(max(1, math.floor(wf * g)), remaining)
    candidates = [i for i in range(start, start + w) if pred[i] in delims]
    if candidates:
        pos = max(candidates, key=lambda i: (conf[i], -i))
        c_max = conf[pos]
    else:
        pos, c_max = None, -math.inf
    if c_max >= tau_d:
        return pos - start + 1, DELIMITER, pos, w
    return min(b0, remaining), FALLBACK, None, w


def test_criterion_1_scheduler_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(0xC0FFEE)
    mismatches = 0
    for _ in range(1000):
        L = rng.randint(1, 128)
        pred = [NL if rng.random() < 0.25 else rng.randint(0, 9) for _ in range(L)]
        conf = [rng.random() for _ in range(L)]
        if rng.random() < 0.3:
            tie = rng.random()
            for i in range(L):
                if rng.random() < 0.5:
                    conf[i] = tie
        cfg = DecodeConfig(
            gen_budget=L, max_steps=L, b0=rng.randint(1, 96),
            tau_d=rng.choice([0.05, 0.3, 0.5, 0.9, 1.0]),
            window_fraction=rng.choice([0.1, 0.25, 0.5, 1.0]),
            delimiters=frozenset({NL}), scheduler="adaptive",
        )
        g = rng.randrange(L)
        d = compute_block_length(pred, conf, cfg, g)
        b, src, pos, w = oracle_block_length(
            pred, conf, L, cfg.b0, cfg.delimiters, cfg.tau_d, g, cfg.window_fraction
        )
        if (d.block_size, d.source, d.delimiter_pos, d.window_len) != (b, src, pos, w):
            mismatches += 1
        empty = DecodeConfig(
            gen_budget=L, max_steps=L, b0=cfg.b0, delimiters=frozenset(),
            scheduler="adaptive", window_fraction=cfg.window_fraction,
        )
        if (
            compute_block_length(pred, conf, empty, g).block_size
            != fixed_block_length(empty, g).block_size
        ):
            mismatches += 1
    elapsed = time.perf_counter() - start
    report(
        "criterion 1 scheduler oracle equivalence",
        mismatches == 0 and elapsed < 1.0,
        f"1000 randomized inputs, {mismatches} mismatches, {elapsed:.2f}s (< 1s)",
    )


# -- 2. decode-loop invariant suite -------------------------------------------

def assert_decode_invariants(result, config):
    trace = result.trace
    unmasked = set()
    for rec in trace.steps:
        masked = set(rec.masked_before)
        sampled = set(rec.sampled)
        assert sampled <= masked
        assert masked.isdisjoint(unmasked)
        unmasked |= sampled
    assert result.completed
    opens = [r for r in trace.steps if r.block_size is not None]
    starts = [r.block_start for r in opens]
    sizes = [r.block_size for r in opens]
    assert starts == list(itertools.accumulate(sizes, initial=0))[:-1]
    assert sum(sizes) == config.gen_budget
    for rec in opens:
        assert all(m >= rec.block_start for m in rec.masked_before)
    assert result.final_tokens[: trace.prompt_len] == result.final_tokens[: trace.prompt_len]


def test_criterion_2_decode_loop_invariants():
    start = time.perf_counter()
    corpus = " . ".join(["a b c d e", "f g h i j", "k l m n o"] * 6)
    ngram = build_ngram(corpus, order=3, smoothing_k=0.01)
    dot = ngram.vocabulary.id_of(".")

    count = 0
    failures = []
    for seed in range(6):
        synth = build_synthetic(SyntheticFieldParams(
            noise_seed=seed, delimiter_period=4, vb_width_mean=2, vb_high=0.92))
        seq = ngram.model.corpus_ids
        off = (7 * seed) % (len(seq) - 4)
        setups = [
            (synth, frozenset({synth.delimiter_id}), (0, 1)),
            (ngram, frozenset({dot}), tuple(seq[off : off + 3])),
        ]
        for (pred, delims, prompt), (sampler, scheduler, cache) in itertools.product(
            setups,
            itertools.product(
                ("vanilla", "linear", "dynamic"),
                ("fixed", "adaptive"),
                ("none", "prefix", "dual"),
            ),
        ):
            cfg = DecodeConfig(
                gen_budget=12, max_steps=12, b0=5, sampler=sampler,
                scheduler=scheduler, cache=cache, delimiters=delims,
                linear_steps=6, seed=seed,
            )
            result = decode(pred, cfg, prompt)
            try:
                assert_decode_invariants(result, cfg)
                assert decode(pred, cfg, prompt) == result, "re-run not identical"
            except AssertionError as exc:
                failures.append((sampler, scheduler, cache, seed, str(exc)))
            count += 1
    elapsed = time.perf_counter() - start
    report(
        "criterion 2 decode-loop invariant suite",
        not failures and count >= 200 and elapsed < 30.0,
        f"{count} decodes across 18 combos x 2 predictors, "
        f"{len(failures)} violations, {elapsed:.1f}s (< 30s)",
    )


# -- 3. directional failure-rate shape over fixed block sizes -----------------

def zone_corpus(zone_len=30, run_len=3, reps=8):
    parts = []
    for _ in range(reps):
        parts.append(" ".join(["the"] * zone_len))
        parts.append("mm")
        parts.append(" ".join(f"r{j}" for j in range(run_len)))
    return " ".join(parts)


def test_criterion_3_failure_rate_directions():
    start = time.perf_counter()
    pred = build_ngram(zone_corpus(), order=31, smoothing_k=0.01)
    seq = pred.model.corpus_ids
    rates = {}
    for b0 in (16, 32, 64):
        cfg = DecodeConfig(gen_budget=392, max_steps=392 * 3, b0=b0, tau=0.9,
                           cache="none")
        late = prem = steps = 0
        for s in range(50):
            off = int(unit_draw(s, "p") * (len(seq) - 9))
            result = decode(pred, cfg, tuple(seq[off : off + 8]))
            rep = failure_rates(result.trace, 0.9)
            late += rep.late_overhead_steps
            prem += rep.premature_steps
            steps += rep.total_steps
        rates[b0] = (late / steps, prem / steps)
    elapsed = time.perf_counter() - start

    late16, late32, late64 = (rates[b][0] for b in (16, 32, 64))
    prem16, prem32, prem64 = (rates[b][1] for b in (16, 32, 64))
    positive = all(r > 0 for pair in rates.values() for r in pair)
    late_down = late16 > late32 > late64
    prem_up = prem16 < prem32 < prem64
    report(
        "criterion 3 directional failure-rate shape",
        positive and late_down and prem_up and elapsed < 120.0,
        f"late {late16:.3f}>{late32:.3f}>{late64:.3f} ({'ok' if late_down else 'violated'}); "
        f"premature {prem16:.3f}<{prem32:.3f}<{prem64:.3f} ({'ok' if prem_up else 'violated'}); "
        f"50 decodes/cell, {elapsed:.0f}s (< 120s)",
    )


# -- 4. adaptive scheduling beats fixed when block size mismatches spans ------

def test_criterion_4_adaptive_benefit_controlled():
    start = time.perf_counter()
    pairs = fewer = nfe_ok = 0
    agg_fixed = agg_adaptive = 0
    for seed in range(50):
        pred = build_synthetic(SyntheticFieldParams(
            noise_seed=seed, delimiter_period=6, vb_width_mean=1,
            vb_low=0.4, vb_high=0.92, plateau_level=0.95, floor_level=0.05))
        base = dict(gen_budget=288, max_steps=288, b0=32, tau=0.9, tau_d=0.3,
                    delimiters=frozenset({pred.delimiter_id}))
        r_fixed = decode(pred, DecodeConfig(scheduler="fixed", **base), (0, 1))
        r_adapt = decode(pred, DecodeConfig(scheduler="adaptive", **base), (0, 1))
        f_fixed = failure_rates(r_fixed.trace, 0.9)
        f_adapt = failure_rates(r_adapt.trace, 0.9)
        pairs += 1
        fewer += f_adapt.premature_steps < f_fixed.premature_steps
        nfe_ok += r_adapt.denoise_calls <= r_fixed.denoise_calls
        agg_fixed += f_fixed.premature_steps
        agg_adaptive += f_adapt.premature_steps
    elapsed = time.perf_counter() - start
    report(
        "criterion 4 adaptive benefit under span mismatch",
        fewer >= 0.9 * pairs
        and agg_adaptive < agg_fixed
        and nfe_ok >= 0.9 * pairs
        and elapsed < 60.0,
        f"premature fewer in {fewer}/{pairs} pairs (aggregate {agg_adaptive} vs "
        f"{agg_fixed}), NFE<= in {nfe_ok}/{pairs}, {elapsed:.0f}s (< 60s)",
    )


# -- 5. threshold-sampler law --------------------------------------------------

def test_criterion_5_threshold_sampler_law():
    start = time.perf_counter()
    rng = random.Random(5150)
    violations = 0
    for _ in range(10_000):
        L = rng.randint(1, 24)
        committed = [g for g in range(L) if rng.random() < 0.3]
        frame = PredictionFrame(
            predicted=tuple(5 for _ in range(L)),
            confidence=tuple(rng.random() for _ in range(L)),
        )
        t1, t2 = sorted((rng.uniform(0.01, 1.0), rng.uniform(0.01, 1.0)))
        masked = tuple(g for g in range(L) if g not in committed)
        s_hi = set(threshold_sample(frame, t2, masked))
        s_lo = set(threshold_sample(frame, t1, masked))
        masked_scope = set(masked)
        if not s_hi <= s_lo:
            violations += 1
        if masked_scope and (not s_hi or not s_lo):
            violations += 1
        if not (s_lo <= masked_scope):
            violations += 1
    elapsed = time.perf_counter() - start
    report(
        "criterion 5 threshold-sampler law",
        violations == 0 and elapsed < 1.0,
        f"10000 cases, {violations} violations, {elapsed:.2f}s (< 1s)",
    )


# -- 6. regime segmentation fidelity ------------------------------------------

def test_criterion_6_regime_segmentation_fidelity():
    start = time.perf_counter()
    total = hits = 0
    for seed, width in ((0, 4), (1, 3), (2, 6)):
        pred = build_synthetic(SyntheticFieldParams(
            noise_seed=seed, vb_width_mean=width, vb_low=0.4, vb_high=0.85,
            plateau_level=0.95, floor_level=0.05))
        cfg = DecodeConfig(gen_budget=32, max_steps=32, b0=32, cache="none")
        result = decode(pred, cfg, (0, 1))
        labels = segment_regimes(result.trace, tau_hi=0.95, tau_lo=0.05,
                                 persistence_k=1)
        truth_map = {"plateau": Regime.PLATEAU, "band": Regime.VOLATILITY_BAND,
                     "floor": Regime.FLOOR}
        for rec, row in zip(result.trace.steps, labels):
            masked = set(rec.masked_before)
            frontier = pred.frontier(32 - len(masked), 32)
            for i in range(32):
                truth = (
                    Regime.DECODED if i not in masked
                    else truth_map[pred.regime_of(i, frontier)]
                )
                total += 1
                hits += truth is row[i]
    accuracy = hits / total
    elapsed = time.perf_counter() - start
    report(
        "criterion 6 regime segmentation fidelity",
        accuracy >= 0.99 and elapsed < 10.0,
        f"{accuracy:.4f} agreement over {total} (step, position) pairs "
        f"(>= 0.99), {elapsed:.1f}s (< 10s)",
    )


# -- 7. trace round-trip --------------------------------------------------------

def test_criterion_7_trace_round_trip(tmp_path):
    start = time.perf_counter()
    ok = True
    details = []
    corpus = " . ".join(["a b c d e", "f g h i j"] * 5)
    ngram = build_ngram(corpus, order=3, smoothing_k=0.01)
    synth = build_synthetic(SyntheticFieldParams(noise_seed=8, delimiter_period=4,
                                                 vb_high=0.92))
    cases = [
        (synth, DecodeConfig(gen_budget=16, max_steps=16, b0=8, sampler="dynamic",
                             scheduler="adaptive", cache="dual",
                             delimiters=frozenset({synth.delimiter_id})), (0, 1)),
        (synth, DecodeConfig(gen_budget=12, max_steps=12, b0=4, sampler="vanilla"),
         (0,)),
        (ngram, DecodeConfig(gen_budget=12, max_steps=12, b0=6, cache="prefix"),
         tuple(ngram.model.corpus_ids[:3])),
    ]
    for i, (pred, cfg, prompt) in enumerate(cases):
        result = decode(pred, cfg, prompt)
        path = tmp_path / f"case{i}.trace.jsonl"
        write_trace(path, result.trace, pred.vocabulary, prompt=prompt, config=cfg)
        replay = decode(load_trace_predictor(path), cfg, prompt)
        same = replay.trace == result.trace and replay.final_tokens == result.final_tokens
        ok &= same
        details.append(f"case{i}:{'ok' if same else 'DIFF'}")
    elapsed = time.perf_counter() - start
    report(
        "criterion 7 trace round-trip",
        ok and elapsed < 5.0,
        f"{', '.join(details)}, {elapsed:.1f}s (< 5s)",
    )


# -- 8. cache-scope semantics ----------------------------------------------------

def value_view(result):
    """Everything a cache policy must preserve: values and sampling, not cost."""
    return [
        (r.block_start, r.block_end, r.block_size, tuple(conf), tuple(pred),
         r.sampled, r.masked_before)
        for r, pred, conf in result.trace.rows()
    ], result.final_tokens


def test_criterion_8_cache_scope_semantics():
    start = time.perf_counter()
    corpus = " . ".join(["a b c d e", "f g h i j", "k l m n o"] * 6)
    ngram = build_ngram(corpus, order=3, smoothing_k=0.01)
    seq = ngram.model.corpus_ids

    # (a) out-of-block values frozen across a block's inner cycles
    frozen_ok = True
    cfg = DecodeConfig(gen_budget=24, max_steps=24, b0=8, cache="dual")
    result = decode(ngram, cfg, tuple(seq[:3]))
    by_block = {}
    for rec, _, conf in result.trace.rows():
        by_block.setdefault((rec.block_start, rec.block_end), []).append(tuple(conf))
    for (g, end), rows in by_block.items():
        outside = [i for i in range(24) if not g <= i < end]
        for later in rows[1:]:
            frozen_ok &= all(later[i] == rows[0][i] for i in outside)

    # (b) with context-sensitive predictions, staleness must be observable
    differing = 0
    base = dict(gen_budget=24, max_steps=24, b0=8)
    for s in range(50):
        off = (5 * s) % (len(seq) - 4)
        prompt = tuple(seq[off : off + 3])
        none_run = decode(ngram, DecodeConfig(cache="none", **base), prompt)
        dual_run = decode(ngram, DecodeConfig(cache="dual", **base), prompt)
        if [tuple(conf) for _, _, conf in none_run.trace.rows()] != [
            tuple(conf) for _, _, conf in dual_run.trace.rows()
        ]:
            differing += 1

    # (c) with a context-free field the policies coincide exactly
    synth = build_synthetic(SyntheticFieldParams(
        noise_seed=21, vb_width_mean=1, plateau_rate=1.0))
    cfg16 = dict(gen_budget=16, max_steps=16, b0=4)
    none_s = decode(synth, DecodeConfig(cache="none", **cfg16), (0, 1))
    dual_s = decode(synth, DecodeConfig(cache="dual", **cfg16), (0, 1))
    identical = value_view(none_s) == value_view(dual_s)

    elapsed = time.perf_counter() - start
    report(
        "criterion 8 cache-scope semantics",
        frozen_ok and differing >= 1 and identical and elapsed < 60.0,
        f"dual-cache frozen: {frozen_ok}; none-vs-dual differs in {differing}/50 "
        f"seeds; context-free identity: {identical}; {elapsed:.0f}s (< 60s)",
    )
