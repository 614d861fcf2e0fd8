"""Decode-loop behaviour: scopes, invariants, counters, cache semantics."""

import dataclasses
import gc
import itertools
import tempfile
import weakref
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from semiar import decoder as decoder_module
from semiar.core import (
    CACHES,
    SAMPLERS,
    SCHEDULERS,
    DecodeConfig,
    DecodeTrace,
    PredictionFrame,
    StepRecord,
    apply_sample,
    init_state,
)
from semiar.decoder import (
    DecodeError,
    DecodeResult,
    decode,
    evaluation_scope,
    result_summary,
)
from semiar.metrics import failure_rates
from semiar.predictors import (
    MaskPredictor,
    NGramPredictor,
    SyntheticFieldParams,
    SyntheticPredictor,
    TraceReplayPredictor,
    build_ngram,
    build_synthetic,
)
from semiar.sampling import sample_step, top1
from semiar.scheduler import DELIMITER, decide_block
from semiar.tracefile import read_trace_file, write_trace

CORPUS = " . ".join(["a b c d e", "f g h i j", "k l m n o"] * 6)


def synthetic(**kw):
    base = dict(noise_seed=7, vb_width_mean=3, vb_low=0.4, vb_high=0.85)
    base.update(kw)
    return build_synthetic(SyntheticFieldParams(**base))


def check_invariants(result, config):
    """Structural invariants every decode must satisfy."""
    trace = result.trace
    L = config.gen_budget
    unmasked = set()
    prev_start = 0
    for rec in trace.steps:
        masked = set(rec.masked_before)
        sampled = set(rec.sampled)
        assert sampled <= masked, "sampled set escapes the masked set"
        assert masked.isdisjoint(unmasked), "a committed position re-masked"
        assert rec.block_start >= prev_start
        prev_start = rec.block_start
        unmasked |= sampled
    if result.completed:
        starts = [r.block_start for r in trace.steps if r.is_block_open]
        sizes = [r.block_size for r in trace.steps if r.is_block_open]
        assert starts == sorted(starts)
        tiled = list(itertools.accumulate(sizes, initial=0))
        assert starts == tiled[:-1], "blocks must tile the region in order"
        assert tiled[-1] == L, "block sizes must sum to the budget"
        # in-block closure: when a later block opens, everything before is done
        for rec in trace.steps:
            if rec.is_block_open:
                assert all(m >= rec.block_start for m in rec.masked_before)
    assert result.denoise_calls == len(trace.steps)
    assert result.position_evaluations == sum(len(r.evaluated) for r in trace.steps)
    assert result.steps_used <= config.max_steps


class TestEvaluationScope:
    """Scopes are ascending tuples, taken from the masked tuple or the region."""

    def test_none_open_is_full_region(self):
        assert evaluation_scope("none", 4, None, (5, 9), 16) == tuple(range(16))

    def test_none_in_block_is_every_masked_position(self):
        masked = (5, 6, 9)
        assert evaluation_scope("none", 4, 4, masked, 16) is masked

    def test_prefix_is_suffix_from_block_start(self):
        assert evaluation_scope("prefix", 32, None, (), 64) == tuple(range(32, 64))
        assert evaluation_scope("prefix", 32, 8, (33,), 64) == tuple(range(32, 64))

    def test_dual_freezes_out_of_block(self):
        scope = evaluation_scope("dual", 4, 4, (5, 6, 9), 16)
        assert scope == (5, 6)

    def test_dual_open_is_full_region(self):
        assert evaluation_scope("dual", 4, None, (5,), 16) == tuple(range(16))

    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown cache policy"):
            evaluation_scope("block", 0, None, (), 4)
        with pytest.raises(ValueError, match="unknown cache policy"):
            evaluation_scope("block", 0, 1, (), 4)


class TestDecodeLoop:
    def test_single_block_completes_with_invariants(self):
        cfg = DecodeConfig(gen_budget=8, max_steps=8, b0=8, sampler="dynamic")
        result = decode(synthetic(), cfg, (0, 1))
        assert result.completed
        assert sum(d.block_size for d in result.blocks) == 8
        check_invariants(result, cfg)

    def test_vanilla_takes_exactly_one_step_per_token(self):
        L = 12
        cfg = DecodeConfig(gen_budget=L, max_steps=L, b0=4, sampler="vanilla")
        result = decode(synthetic(), cfg, (0,))
        assert result.completed
        assert result.steps_used == L
        assert result.denoise_calls == L
        check_invariants(result, cfg)

    def test_adaptive_with_empty_delimiters_matches_fixed(self):
        fixed = DecodeConfig(gen_budget=16, max_steps=16, b0=4, scheduler="fixed")
        adaptive = DecodeConfig(
            gen_budget=16, max_steps=16, b0=4, scheduler="adaptive",
            delimiters=frozenset(),
        )
        r_fixed = decode(synthetic(), fixed, (0, 1))
        r_adaptive = decode(synthetic(), adaptive, (0, 1))
        assert r_fixed.trace == r_adaptive.trace
        assert r_fixed.final_tokens == r_adaptive.final_tokens

    def test_partial_result_when_budget_exhausted(self):
        cfg = DecodeConfig(gen_budget=16, max_steps=3, b0=8, sampler="vanilla")
        result = decode(synthetic(), cfg, (0,))
        assert result.status == "partial"
        assert result.remaining_masks == 13
        assert result.steps_used == 3

    @pytest.mark.parametrize(
        "prompt, match",
        [((0, 99), r"prompt id 99 at index 1 outside the vocabulary \[0, 11\)"),
         ((-1,), r"prompt id -1 at index 0 outside the vocabulary \[0, 11\)")],
        ids=["beyond-vocab", "negative"],
    )
    def test_out_of_vocabulary_prompt_rejected(self, prompt, match):
        cfg = DecodeConfig(gen_budget=4, max_steps=4)
        with pytest.raises(ValueError, match=match):
            decode(synthetic(), cfg, prompt)

    def test_determinism(self):
        cfg = DecodeConfig(gen_budget=16, max_steps=16, b0=4, cache="dual")
        a = decode(synthetic(), cfg, (0, 1))
        b = decode(synthetic(), cfg, (0, 1))
        assert a == b

    # vanilla commits one token per step, so with b0=4 call 2 is inside the
    # first block and call 4 opens the second
    @pytest.mark.parametrize("failing_call", [2, 4])
    def test_predictor_failure_carries_step_context(self, failing_call):
        class Exploding(MaskPredictor):
            def __init__(self, inner):
                self.inner = inner
                self.calls = 0

            @property
            def vocabulary(self):
                return self.inner.vocabulary

            def predict(self, state, positions):
                self.calls += 1
                if self.calls > failing_call:
                    raise RuntimeError("backend gone")
                return self.inner.predict(state, positions)

        cfg = DecodeConfig(gen_budget=8, max_steps=8, b0=4, sampler="vanilla")
        with pytest.raises(DecodeError, match=f"denoise call {failing_call}:"):
            decode(Exploding(synthetic()), cfg, (0,))

    def test_all_policy_sampler_scheduler_combinations(self):
        pred_s = synthetic(delimiter_period=4)
        pred_n = build_ngram(CORPUS, order=3, smoothing_k=0.01)
        for predictor, delim in ((pred_s, pred_s.delimiter_id), (pred_n, None)):
            delims = frozenset({delim}) if delim is not None else frozenset()
            prompt = (0, 1)
            for sampler, scheduler, cache in itertools.product(
                ("vanilla", "linear", "dynamic"),
                ("fixed", "adaptive"),
                ("none", "prefix", "dual"),
            ):
                cfg = DecodeConfig(
                    gen_budget=12, max_steps=12, b0=5, sampler=sampler,
                    scheduler=scheduler, cache=cache, delimiters=delims,
                    linear_steps=6,
                )
                result = decode(predictor, cfg, prompt)
                assert result.completed, (sampler, scheduler, cache)
                check_invariants(result, cfg)


class TestCacheSemantics:
    def test_dual_cache_out_of_block_constant_within_block(self):
        cfg = DecodeConfig(gen_budget=16, max_steps=16, b0=8, cache="dual")
        result = decode(synthetic(), cfg, (0, 1))
        by_block = {}
        for rec, _, conf in result.trace.rows():
            by_block.setdefault(rec.block_start, []).append((rec, tuple(conf)))
        checked = 0
        for start, recs in by_block.items():
            end = recs[0][0].block_end
            outside = [i for i in range(16) if not start <= i < end]
            for _, later in recs[1:]:
                for i in outside:
                    assert later[i] == recs[0][1][i]
                    checked += 1
        assert checked > 0

    def test_nocache_keeps_out_of_block_fresh_for_context_predictors(self):
        pred = build_ngram(CORPUS, order=3, smoothing_k=0.01)
        base = dict(gen_budget=12, max_steps=12, b0=6, tau=0.9)
        prompt = tuple(pred.model.corpus_ids[:3])
        r_none = decode(pred, DecodeConfig(cache="none", **base), prompt)
        r_dual = decode(pred, DecodeConfig(cache="dual", **base), prompt)
        snaps_none = [tuple(conf) for _, _, conf in r_none.trace.rows()]
        snaps_dual = [tuple(conf) for _, _, conf in r_dual.trace.rows()]
        assert snaps_none != snaps_dual

    def test_nocache_equals_dualcache_for_narrow_progress_field(self):
        # width-1 band advancing one position per commit: nothing outside the
        # block ever changes value mid-block, so the policies coincide exactly
        pred = synthetic(vb_width_mean=1, plateau_rate=1.0)
        cfg = dict(gen_budget=16, max_steps=16, b0=4)
        r_none = decode(pred, DecodeConfig(cache="none", **cfg), (0, 1))
        r_dual = decode(pred, DecodeConfig(cache="dual", **cfg), (0, 1))
        assert r_none.final_tokens == r_dual.final_tokens
        assert len(r_none.trace) == len(r_dual.trace)
        for (a, a_pred, a_conf), (b, b_pred, b_conf) in zip(r_none.trace.rows(),
                                                            r_dual.trace.rows()):
            assert a_conf == b_conf
            assert a_pred == b_pred
            assert a.sampled == b.sampled
            assert a.masked_before == b.masked_before
            assert (a.block_start, a.block_end, a.block_size) == (
                b.block_start, b.block_end, b.block_size,
            )

    def test_policies_never_change_sampling(self):
        # scopes always cover the block's masked set, so committed text is
        # cache-invariant; only freshness and evaluation cost differ
        cfg = dict(gen_budget=16, max_steps=16, b0=4)
        results = {
            cache: decode(synthetic(), DecodeConfig(cache=cache, **cfg), (0, 1))
            for cache in ("none", "prefix", "dual")
        }
        tokens = {r.final_tokens for r in results.values()}
        assert len(tokens) == 1
        evals = {c: r.position_evaluations for c, r in results.items()}
        assert evals["none"] >= evals["dual"]


class TestSummary:
    def test_summary_shape(self):
        pred = synthetic()
        cfg = DecodeConfig(gen_budget=8, max_steps=8, b0=4)
        result = decode(pred, cfg, (0, 1))
        summary = result_summary(result, pred.vocabulary)
        assert summary["status"] == "completed"
        assert summary["nfe"] == result.denoise_calls
        assert [b["B"] for b in summary["blocks"]] == [d.block_size for d in result.blocks]
        assert isinstance(summary["text"], str) and summary["text"]


def _scan(state):
    """Masked generation positions, by a fresh scan of the token vector."""
    return {g for g in range(state.gen_budget)
            if state.tokens[state.prompt_len + g] == state.mask_id}


class TestCarriedMaskedSet:
    """``apply_sample`` carries the masked set forward; it must equal a rescan."""

    PREDICTORS = {
        "synthetic": lambda: synthetic(delimiter_period=4),
        "ngram": lambda: build_ngram(CORPUS, order=3, smoothing_k=0.01),
    }

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(sorted(PREDICTORS)),
        sampler=st.sampled_from(SAMPLERS),
        scheduler=st.sampled_from(SCHEDULERS),
        cache=st.sampled_from(CACHES),
        L=st.integers(1, 16),
        b0=st.integers(1, 8),
        tau=st.floats(0.3, 1.0),
        slack=st.integers(0, 4),
        prompt=st.lists(st.integers(0, 7), min_size=1, max_size=3),
    )
    def test_carried_set_matches_scan_at_every_step(
        self, kind, sampler, scheduler, cache, L, b0, tau, slack, prompt
    ):
        pred = self.PREDICTORS[kind]()
        delims = frozenset({pred.delimiter_id}) if kind == "synthetic" else frozenset()
        config = DecodeConfig(gen_budget=L, max_steps=max(1, L - slack), b0=b0, tau=tau,
                              sampler=sampler, scheduler=scheduler, cache=cache,
                              delimiters=delims, linear_steps=max(1, L // 2))
        steps = []

        def checked_apply_sample(state, frame, selected):
            successor = apply_sample(state, frame, selected)
            for s in (state, successor):
                assert s.gen_masked() == _scan(s)
                assert s.unmasked_gen_count() == L - len(_scan(s))
                flipped = list(s.tokens)
                last = s.prompt_len + L - 1
                flipped[last] = 0 if flipped[last] == s.mask_id else s.mask_id
                rebuilt = dataclasses.replace(s, tokens=tuple(flipped))
                assert rebuilt.gen_masked() == _scan(rebuilt) != s.gen_masked()
                assert rebuilt.unmasked_gen_count() == L - len(_scan(rebuilt))
            steps.append(successor)
            return successor

        with mock.patch.object(decoder_module, "apply_sample", checked_apply_sample):
            result = decode(pred, config, tuple(prompt))
        assert len(steps) == result.steps_used
        assert result.remaining_masks == len(_scan(steps[-1]))


class _StripedSynthetic(SyntheticPredictor):
    """The synthetic field's tokens under confidences that climb in stripes of
    four positions, so tied in-block maxima meet better positions outside."""

    def predict(self, state, positions):
        return [(tok, 0.1 + 0.2 * (g // 4 % 5))
                for (tok, _), g in zip(super().predict(state, positions), positions)]


class TestRetention:
    """A record keeps only what its step changed, and a decode's records are
    freed by reference counting alone."""

    @pytest.mark.parametrize("cache", CACHES)
    @pytest.mark.parametrize("kind", ["synthetic", "ngram"])
    def test_records_hold_values_only_at_changed_positions(self, kind, cache, tmp_path):
        pred = synthetic() if kind == "synthetic" else build_ngram(CORPUS, order=3,
                                                                   smoothing_k=0.01)
        config = DecodeConfig(gen_budget=48, max_steps=48, b0=8, cache=cache)
        trace = decode(pred, config, (0, 1)).trace
        path = tmp_path / "t.trace.jsonl"
        write_trace(path, trace, pred.vocabulary)
        with mock.patch("semiar.tracefile._text_records", return_value=None):
            by_json = read_trace_file(path).trace
        for held in (trace, read_trace_file(path).trace, by_json):
            changed = sum(len(rec.changed) for rec in held.steps)
            assert sum(len(rec.predicted) for rec in held.steps) == changed
            assert sum(len(rec.confidence) for rec in held.steps) == changed
            assert changed < sum(len(rec.evaluated) for rec in held.steps)
        assert by_json == trace

    def test_dropped_result_frees_its_trace_without_the_cycle_collector(self):
        config = DecodeConfig(gen_budget=32, max_steps=32, b0=8)
        enabled = gc.isenabled()
        gc.disable()
        try:
            result = decode(synthetic(), config, (0, 1))
            trace = weakref.ref(result.trace)
            record = weakref.ref(result.trace.steps[-1])
            del result
            assert trace() is None and record() is None
        finally:
            if enabled:
                gc.enable()


class TestOneTop1Rule:
    """The sampler, the scheduler and the premature detector pick the same top-1."""

    PREDICTORS = {
        "synthetic": lambda rate: synthetic(delimiter_period=4, plateau_rate=rate),
        "striped": lambda rate: _StripedSynthetic(SyntheticFieldParams(
            noise_seed=7, delimiter_period=3, plateau_rate=rate)),
        "ngram": lambda rate: build_ngram(CORPUS, order=2, smoothing_k=0.5),
        # no context at all: every masked position ties with every other
        "unigram": lambda rate: build_ngram(CORPUS, order=1, smoothing_k=0.5),
    }

    @staticmethod
    def checked_top1(confidence, positions):
        """``top1``, checked against a lowest-index-of-the-maxima oracle."""
        pos = top1(confidence, positions)
        best = max(confidence[p] for p in positions)
        assert pos == min(p for p in positions if confidence[p] == best)
        return pos

    @settings(max_examples=80, deadline=None)
    @given(
        kind=st.sampled_from(sorted(PREDICTORS)),
        sampler=st.sampled_from(SAMPLERS),
        scheduler=st.sampled_from(SCHEDULERS),
        cache=st.sampled_from(CACHES),
        L=st.integers(1, 24),
        b0=st.integers(1, 8),
        tau=st.floats(0.3, 1.0),
        tau_d=st.floats(0.05, 1.0),
        rate=st.sampled_from([0.5, 1.0, 1.5]),
        prompt=st.lists(st.integers(0, 7), min_size=1, max_size=3),
    )
    # every window position predicts "." at one confidence, about 0.15
    @example(kind="unigram", sampler="vanilla", scheduler="adaptive", cache="none", L=16,
             b0=4, tau=0.9, tau_d=0.1, rate=1.0, prompt=[0])
    def test_sampler_scheduler_and_detector_agree(
        self, kind, sampler, scheduler, cache, L, b0, tau, tau_d, rate, prompt
    ):
        pred = self.PREDICTORS[kind](rate)
        delims = frozenset({pred.vocabulary.id_of(".") if "gram" in kind
                            else pred.delimiter_id})
        config = DecodeConfig(gen_budget=L, max_steps=2 * L, b0=b0, tau=tau, tau_d=tau_d,
                              window_fraction=0.5, sampler=sampler, scheduler=scheduler,
                              cache=cache, delimiters=delims, linear_steps=max(1, L // 2))
        result = decode(pred, config, tuple(prompt))
        forced = {}
        openers = []
        for rec, predicted, confidence in result.trace.rows():
            inside = [m for m in rec.masked_before if rec.block_start <= m < rec.block_end]
            forced[rec.step] = self.checked_top1(confidence, inside)
            assert forced[rec.step] in rec.sampled
            if rec.is_block_open:
                openers.append((tuple(predicted), tuple(confidence)))

        assert len(openers) == len(result.blocks)
        for (predicted, confidence), decision in zip(openers, result.blocks):
            window = range(decision.window_start, decision.window_start + decision.window_len)
            candidates = [i for i in window if predicted[i] in delims]
            if decision.source == DELIMITER:
                pos = self.checked_top1(confidence, candidates)
                assert (decision.delimiter_pos, decision.delimiter_conf) == (
                    pos, confidence[pos])
            elif scheduler == "adaptive" and candidates:
                assert confidence[top1(confidence, candidates)] < tau_d

        for event in failure_rates(result.trace, tau).premature:
            assert event.forced_pos == forced[event.step]


class _AlwaysRecompute:
    """Mixed in before a predictor: every commit invalidates every position."""

    def invalidated(self, before, after, committed):
        return None


class _RecomputingNGram(_AlwaysRecompute, NGramPredictor):
    pass


class _RecomputingSynthetic(_AlwaysRecompute, SyntheticPredictor):
    pass


def _synthetic_interval_mutant(lo_shift, hi_shift):
    """The synthetic predictor with its frontier interval shifted at either end."""

    class Mutant(SyntheticPredictor):
        def invalidated(self, before, after, committed):
            out = [range(c, c + 1) for c in committed]
            L = before.gen_budget
            old = self.frontier(before.unmasked_gen_count(), L)
            new = self.frontier(after.unmasked_gen_count(), L)
            if new != old:
                end = max(old + self.band_width(old), new + self.band_width(new))
                out.append(range(old + lo_shift, min(L, end) + hi_shift))
            return out

    return Mutant


class TestExactReuse:
    """Reusing predictions a commit did not invalidate must equal recomputing them."""

    @staticmethod
    def draw_predictors(kind, data):
        """A predictor and the same one with every position always invalidated."""
        if kind == "ngram":
            corpus = data.draw(st.lists(st.sampled_from("abcde"), min_size=1, max_size=40))
            pred = build_ngram(" ".join(corpus), order=data.draw(st.integers(1, 5)),
                               smoothing_k=0.01)
            return pred, _RecomputingNGram(pred.model)
        params = SyntheticFieldParams(
            plateau_rate=data.draw(st.floats(0.3, 2.5)),
            vb_width_mean=data.draw(st.integers(1, 5)),
            vb_width_jitter=data.draw(st.integers(0, 3)),
            delimiter_period=data.draw(st.sampled_from([0, 3, 6])),
            noise_seed=data.draw(st.integers(0, 2**16)),
        )
        return SyntheticPredictor(params), _RecomputingSynthetic(params)

    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(["ngram", "synthetic"]),
        sampler=st.sampled_from(SAMPLERS),
        scheduler=st.sampled_from(SCHEDULERS),
        cache=st.sampled_from(CACHES),
        L=st.integers(1, 24),
        b0=st.integers(1, 10),
        tau=st.floats(0.05, 1.0),
        slack=st.integers(0, 12),
        prompt_len=st.integers(1, 7),
        data=st.data(),
    )
    def test_reuse_equals_recompute(
        self, kind, sampler, scheduler, cache, L, b0, tau, slack, prompt_len, data
    ):
        pred, full = self.draw_predictors(kind, data)
        vocab = pred.vocabulary
        words = [t for t in range(vocab.size) if t != vocab.mask_id]
        prompt = tuple(data.draw(st.lists(st.sampled_from(words), min_size=prompt_len,
                                          max_size=prompt_len)))
        delims = frozenset(data.draw(st.sets(st.sampled_from(words), max_size=2)))
        config = DecodeConfig(gen_budget=L, max_steps=max(1, L - slack), b0=b0, tau=tau,
                              sampler=sampler, scheduler=scheduler, cache=cache,
                              delimiters=delims, linear_steps=max(1, L // 3))
        reused, recomputed = decode(pred, config, prompt), decode(full, config, prompt)
        for a, b in zip(reused.trace.steps, recomputed.trace.steps):
            assert a == b
        assert reused == recomputed
        with tempfile.TemporaryDirectory() as tmp:
            paths = [Path(tmp) / name for name in ("reused.jsonl", "recomputed.jsonl")]
            for path, result in zip(paths, (reused, recomputed)):
                write_trace(path, result.trace, vocab, prompt=prompt, config=config)
            assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("lo_shift, hi_shift", [(1, 0), (0, -1)],
                             ids=["starts-one-late", "ends-one-early"])
    @pytest.mark.parametrize("sampler", SAMPLERS)
    def test_a_short_frontier_interval_changes_the_decode(self, lo_shift, hi_shift, sampler):
        # frontier behind the commits: every move turns a band position into
        # plateau at the old frontier and a floor position into band at the end
        params = SyntheticFieldParams(plateau_rate=0.5, vb_width_mean=4)
        cfg = DecodeConfig(gen_budget=16, max_steps=16, b0=4, sampler=sampler, tau=0.9,
                           linear_steps=8)
        mutant = _synthetic_interval_mutant(lo_shift, hi_shift)(params)
        assert decode(mutant, cfg, (0,)) != decode(_RecomputingSynthetic(params), cfg, (0,))
        assert decode(SyntheticPredictor(params), cfg, (0,)) == decode(
            _RecomputingSynthetic(params), cfg, (0,))

    def test_reuse_skips_untouched_positions(self):
        # one step's commits can touch at most (2 * (order - 1) + 1) positions each,
        # so a long region computes far fewer values than it charges
        pred = build_ngram(CORPUS, order=2, smoothing_k=0.01)
        calls = []
        original = NGramPredictor.predict

        def counting_predict(self, state, positions):
            calls.append(len(positions))
            return original(self, state, positions)

        cfg = DecodeConfig(gen_budget=40, max_steps=40, b0=40, sampler="vanilla")
        with mock.patch.object(NGramPredictor, "predict", counting_predict):
            result = decode(pred, cfg, tuple(pred.model.corpus_ids[:2]))
        assert len(calls) == result.steps_used
        assert calls[0] == 40
        assert all(n <= 3 for n in calls[1:])
        assert sum(calls) < result.position_evaluations / 4


def _scope_set(policy, g, block_size, masked, gen_budget):
    """The scope rule as a set, the form the sorted-scope loop below takes."""
    if policy == "none":
        return frozenset(range(gen_budget) if block_size is None else masked)
    if policy == "prefix":
        return frozenset(range(g, gen_budget))
    if block_size is None:
        return frozenset(range(gen_budget))
    return frozenset(masked).intersection(range(g, g + block_size))


def _sorted_scope_decode(predictor, config, prompt):
    """The decode loop that sorts the scope and the masked set every step,
    kept as the oracle the incremental loop must reproduce."""
    vocab = predictor.vocabulary
    state = init_state(prompt, config.gen_budget, config.max_steps, vocab.mask_id)
    L = config.gen_budget
    frame = PredictionFrame.sentinel(L, vocab.mask_id)
    records, blocks = [], []
    g, B = 0, None
    everywhere = frozenset(range(L))
    stale = set(everywhere)
    while g < L and state.step >= 1:
        masked = state.gen_masked()
        scope = _scope_set(config.cache, g, B, masked, L)
        evaluated = tuple(sorted(scope))
        computed = evaluated if len(stale) == L else tuple(sorted(stale & scope))
        try:
            frame = predictor.denoise(state, computed, prior=frame)
        except Exception as exc:
            raise DecodeError(
                f"predictor failed at denoise call {len(records)}: {exc}"
            ) from exc
        opens = B is None
        if opens:
            decision = decide_block(frame, config, g)
            blocks.append(decision)
            B = decision.block_size
        block = range(g, g + B)
        sampled = sample_step(state, frame, config, block)
        records.append(StepRecord(
            step=len(records), block_start=g, block_end=g + B,
            block_size=B if opens else None, evaluated=evaluated,
            predicted=tuple(frame.predicted[p] for p in computed),
            confidence=tuple(frame.confidence[p] for p in computed),
            sampled=tuple(sorted(sampled)), masked_before=tuple(sorted(masked)),
            cache=config.cache, computed=computed,
        ))
        before, state = state, apply_sample(state, frame, sampled)
        changed = predictor.invalidated(before, state, sampled)
        if changed is None:
            stale = set(everywhere)
        else:
            stale.difference_update(computed)
            stale.update(*changed)
        if state.gen_masked().isdisjoint(block):
            g, B = g + B, None
    return DecodeResult(
        final_tokens=state.tokens,
        trace=DecodeTrace(prompt_len=state.prompt_len, gen_budget=L, mask_id=vocab.mask_id,
                          steps=tuple(records)),
        blocks=tuple(blocks),
        remaining_masks=len(state.gen_masked()),
    )


def _outcome(run, predictor, config, prompt):
    try:
        return run(predictor, config, prompt)
    except DecodeError as exc:
        return str(exc)


class TestIncrementalLoop:
    """The loop that keeps one sorted masked list equals the sorted-scope loop."""

    @staticmethod
    def _config(L, slack, sampler, scheduler, cache, b0, tau, delims):
        return DecodeConfig(gen_budget=L, max_steps=max(1, L - slack), b0=b0, tau=tau,
                            sampler=sampler, scheduler=scheduler, cache=cache,
                            delimiters=delims, linear_steps=max(1, L // 2))

    @settings(max_examples=120, deadline=None)
    @given(
        kind=st.sampled_from(["synthetic", "ngram", "replay"]),
        sampler=st.sampled_from(SAMPLERS),
        scheduler=st.sampled_from(SCHEDULERS),
        cache=st.sampled_from(CACHES),
        recorded_sampler=st.sampled_from(SAMPLERS),
        recorded_cache=st.sampled_from(CACHES),
        L=st.integers(1, 24),
        b0=st.integers(1, 8),
        tau=st.floats(0.3, 1.0),
        slack=st.integers(0, 12),
    )
    def test_equals_sorted_scope_loop(self, kind, sampler, scheduler, cache,
                                      recorded_sampler, recorded_cache, L, b0, tau, slack):
        source = build_ngram(CORPUS, order=3, smoothing_k=0.01) if kind == "ngram" else (
            synthetic(delimiter_period=4, vb_width_jitter=1))
        vocab = source.vocabulary
        delims = frozenset({vocab.id_of("." if kind == "ngram" else "\n")})
        config = self._config(L, slack, sampler, scheduler, cache, b0, tau, delims)
        prompt = (0, 1)
        if kind == "replay":
            recorded = self._config(L, slack, recorded_sampler, scheduler, recorded_cache,
                                    b0, tau, delims)
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "recorded.jsonl"
                write_trace(path, decode(source, recorded, prompt).trace, vocab)
                data = read_trace_file(path)
            new, old = TraceReplayPredictor(data), TraceReplayPredictor(data)
        else:
            new = old = source

        result = _outcome(decode, new, config, prompt)
        expected = _outcome(_sorted_scope_decode, old, config, prompt)
        if isinstance(expected, str):
            assert result == expected
            return
        assert result == expected
        for rec, want in zip(result.trace.steps, expected.trace.steps, strict=True):
            assert rec == want
            assert rec.computed == want.computed
            assert (rec.predicted, rec.confidence) == (want.predicted, want.confidence)
            for seq in (rec.evaluated, rec.masked_before, rec.computed, rec.sampled):
                assert list(seq) == sorted(set(seq))
            assert set(rec.computed) <= set(rec.evaluated)
            if cache == "none" and not rec.is_block_open:
                assert rec.evaluated is rec.masked_before
        with tempfile.TemporaryDirectory() as tmp:
            texts = []
            for name, res in (("new", result), ("old", expected)):
                path = Path(tmp) / f"{name}.jsonl"
                write_trace(path, res.trace, vocab, prompt=prompt, config=config)
                texts.append(path.read_bytes())
        assert texts[0] == texts[1]
