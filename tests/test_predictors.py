"""Predictor backends: synthetic field geometry, n-gram scoring, trace replay."""

import json
import time
import tracemalloc
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiar.core import (
    DecodeConfig,
    PredictionFrame,
    Regime,
    SequenceState,
    Vocabulary,
    apply_sample,
    init_state,
)
from semiar.decoder import decode
from semiar.predictors import (
    MaskPredictor,
    NGramModel,
    NGramPredictor,
    PredictorError,
    ReplayExhausted,
    SyntheticFieldParams,
    build_ngram,
    build_synthetic,
    load_trace_predictor,
)
from semiar.tracefile import TraceFormatError, write_trace


def gen_state(predictor, L, committed=0, prompt=(0,)):
    """State with the first ``committed`` generation slots already filled."""
    vocab = predictor.vocabulary
    state = init_state(prompt, L, vocab.mask_id)
    tokens = list(state.tokens)
    for g in range(committed):
        tokens[len(prompt) + g] = 0
    return state.__class__(
        tokens=tuple(tokens),
        prompt_len=len(prompt),
        gen_budget=L,
        mask_id=vocab.mask_id,
    )


def window_value(model, tokens, pos):
    """(token, confidence) at sequence slot ``pos`` from its committed
    neighbours within reach, computed by the model with no memo."""
    reach, mask = model.order - 1, model.vocab.mask_id
    left = tuple(t for t in tokens[max(0, pos - reach) : pos] if t != mask)
    right = tuple(t for t in tokens[pos + 1 : pos + 1 + reach] if t != mask)
    if tokens[pos] == mask:
        return model.best_token(left, right)
    return tokens[pos], model.blended(left, right, tokens[pos])


def changed_positions(trace, r):
    """Positions whose value, as printed, differs between the dense rows after
    records r - 1 and r."""
    rows = [tuple(zip(pred, map(repr, conf))) for _, pred, conf in trace.rows()]
    old, new = rows[r - 1], rows[r]
    return tuple(p for p in range(trace.gen_budget) if old[p] != new[p])


def distribution(model, left_ctx, right_ctx):
    """The blended probability of every token but the mask next to two contexts."""
    mask = model.vocab.mask_id
    return {tok: model.blended(left_ctx, right_ctx, tok)
            for tok in range(model.vocab.size) if tok != mask}


class TestSyntheticField:
    def params(self, **kw):
        base = dict(plateau_rate=1.0, vb_width_mean=4, floor_level=0.05,
                    vb_low=0.4, vb_high=0.85, plateau_level=0.95, noise_seed=11)
        base.update(kw)
        return SyntheticFieldParams(**base)

    def test_param_ordering_enforced(self):
        with pytest.raises(ValueError):
            self.params(vb_low=0.96)
        with pytest.raises(ValueError):
            self.params(plateau_rate=0.0)

    def test_regime_bands_around_frontier(self):
        pred = build_synthetic(self.params())
        state = gen_state(pred, 24, committed=8)
        frame = pred.denoise(state, range(24))
        for i in range(8):  # plateau behind the frontier
            assert frame.confidence[i] >= 0.95
        for i in range(8, 12):  # band of width 4 at the frontier
            assert 0.4 <= frame.confidence[i] <= 0.85
        for i in range(12, 24):  # floor beyond
            assert frame.confidence[i] <= 0.05

    def test_regime_of_returns_regime_members(self):
        # plateau behind the frontier, a band of width 4 at it, floor beyond
        pred = build_synthetic(self.params())
        assert pred.regime_of(7, 8) is Regime.PLATEAU
        assert pred.regime_of(8, 8) is Regime.VOLATILITY_BAND
        assert pred.regime_of(11, 8) is Regime.VOLATILITY_BAND
        assert pred.regime_of(12, 8) is Regime.FLOOR

    def test_plateau_positions_all_high(self):
        pred = build_synthetic(self.params())
        state = gen_state(pred, 20, committed=10)
        frame = pred.denoise(state, range(20))
        assert all(frame.confidence[i] >= 0.95 for i in range(10))

    def test_floor_never_reaches_the_unmask_threshold(self):
        pred = build_synthetic(self.params())
        state = gen_state(pred, 32, committed=4)
        frame = pred.denoise(state, range(32))
        floor = [frame.confidence[i] for i in range(8 + 4, 32)]
        assert max(floor) < 0.9

    def test_regime_separation(self):
        pred = build_synthetic(self.params())
        for committed in range(1, 16):
            state = gen_state(pred, 16, committed=committed)
            frame = pred.denoise(state, range(16))
            frontier = pred.frontier(committed, 16)
            width = pred.band_width(frontier)
            plateau = [frame.confidence[i] for i in range(frontier)]
            floor = [frame.confidence[i] for i in range(frontier + width, 16)]
            if plateau and floor:
                assert min(plateau) > max(floor)

    def test_determinism_across_instances(self):
        a = build_synthetic(self.params())
        b = build_synthetic(self.params())
        state = gen_state(a, 16, committed=5)
        assert a.denoise(state, range(16)) == b.denoise(state, range(16))

    def test_seed_changes_band_values(self):
        a = build_synthetic(self.params(noise_seed=1))
        b = build_synthetic(self.params(noise_seed=2))
        state = gen_state(a, 16, committed=4)
        fa = a.denoise(state, range(16))
        fb = b.denoise(state, range(16))
        band = range(4, 8)
        assert any(fa.confidence[i] != fb.confidence[i] for i in band)

    def test_band_fluctuates_over_steps(self):
        pred = build_synthetic(self.params(vb_width_mean=6))
        conf_at_pos9 = set()
        for committed in (4, 5, 6, 7, 8):
            state = gen_state(pred, 24, committed=committed)
            frame = pred.denoise(state, range(24))
            conf_at_pos9.add(frame.confidence[9])
        assert len(conf_at_pos9) > 1

    def test_delimiter_planting(self):
        pred = build_synthetic(self.params(delimiter_period=6))
        state = gen_state(pred, 24)
        frame = pred.denoise(state, range(24))
        for i in range(24):
            expected = pred.delimiter_id if i % 6 == 5 else frame.predicted[i]
            assert frame.predicted[i] == expected
        assert frame.predicted[5] == pred.delimiter_id
        assert frame.predicted[11] == pred.delimiter_id

    def test_delimiter_period_drives_band_width(self):
        pred = build_synthetic(self.params(delimiter_period=6))
        # frontier 0 starts a span ending at 5: width 6; frontier 4 -> width 2
        assert pred.band_width(0) == 6
        assert pred.band_width(4) == 2
        assert pred.band_width(6) == 6

    def test_empty_scope_carries_prior(self):
        pred = build_synthetic(self.params())
        state = gen_state(pred, 8)
        prior = pred.denoise(state, range(8))
        rows = list(prior.predicted), list(prior.confidence)
        frame = pred.denoise(state, [], prior=prior)
        assert frame is prior
        assert (frame.predicted, frame.confidence) == rows

    @pytest.mark.parametrize("rate, L, committed, expected", [
        # frontier 8 -> 9: band [8, 12) becomes [9, 13)
        (1.0, 24, [8], {8, 9, 10, 11, 12}),
        # the interval is clipped at the end of the region
        (1.0, 10, [8], {8, 9}),
        # 9 commits keep the frontier at 4 (floor of 4.5): only the commit moves
        (0.5, 24, [20], {20}),
        # 10 commits move it to 5: band [4, 8) becomes [5, 9)
        (0.5, 24, [20, 21], {4, 5, 6, 7, 8, 20, 21}),
    ])
    def test_invalidated_is_the_commits_and_the_frontier_interval(
        self, rate, L, committed, expected
    ):
        pred = build_synthetic(self.params(plateau_rate=rate))
        state = gen_state(pred, L, committed=8)
        old = pred.predict(state, range(L))
        apply_sample(state, pred.denoise(state, range(L)), committed)
        assert set().union(*pred.invalidated(state, committed)) == expected
        # every other position predicts the same before and after the commit
        new = pred.predict(state, range(L))
        assert {g for g in range(L) if old[g] != new[g]} <= expected

    def test_invalidated_takes_the_wider_band_when_jitter_shrinks_it(self):
        pred = build_synthetic(self.params(vb_width_jitter=3, noise_seed=0))
        widths = [pred.band_width(f) for f in range(24)]
        f = next(f for f in range(23) if widths[f + 1] + 1 < widths[f])
        state = gen_state(pred, 24, committed=f)
        apply_sample(state, pred.denoise(state, range(24)), [f])
        assert set().union(*pred.invalidated(state, [f])) == set(range(f, f + widths[f]))


def brute_force_ngram_prob(corpus, order, k, left_ctx, right_ctx, target):
    """Recompute the blended probability straight from corpus counts."""
    toks = corpus.split()
    vocab = sorted(set(toks)) + ["[MASK]", "<EOS>"]
    candidates = len(vocab) - 1

    def table_prob(ctx, following):
        counts = Counter()
        n = len(ctx)
        for p in range(len(toks)):
            window = toks[p + 1 : p + 1 + n] if following else toks[p - n : p]
            if following and p + n < len(toks) and tuple(window) == ctx:
                counts[toks[p]] += 1
            if not following and p - n >= 0 and tuple(window) == ctx:
                counts[toks[p]] += 1
        total = sum(counts.values())
        denom = total + k * candidates
        if denom == 0:
            return 1.0 / candidates
        return (counts.get(target, 0) + k) / denom

    return 0.5 * table_prob(left_ctx, False) + 0.5 * table_prob(right_ctx, True)


def brute_force_tables(ids, order, k, candidates):
    """Every context shorter than ``order`` right before (left) or after
    (right) a slot of ``ids``, with the counts of the slot's token and the
    add-k denominator."""
    tables = ({}, {})
    for length in range(order):
        for p, tok in enumerate(ids):
            for table, lo, hi in ((tables[0], p - length, p),
                                  (tables[1], p + 1, p + 1 + length)):
                if 0 <= lo and hi <= len(ids):
                    table.setdefault(tuple(ids[lo:hi]), Counter())[tok] += 1
    return [{ctx: (counts, sum(counts.values()) + k * candidates)
             for ctx, counts in table.items()} for table in tables]


ZONE_CORPUS = Path(__file__).resolve().parent.parent / "specs" / "zone_corpus.txt"


class TestNGram:
    @settings(max_examples=150, deadline=None)
    @given(tokens=st.lists(st.sampled_from("abcde"), min_size=1, max_size=40),
           order=st.integers(1, 6), k=st.sampled_from([0, 0.01, 1]), char_mode=st.booleans())
    def test_tables_hold_every_context_shorter_than_order(self, tokens, order, k, char_mode):
        text = ("" if char_mode else " ").join(tokens)
        model = build_ngram(text, order, k, char_mode=char_mode).model
        ids = [model.vocab.id_of(t) for t in tokens]
        assert model.corpus_ids == tuple(ids)
        left, right = brute_force_tables(ids, order, k, model.vocab.size - 1)
        assert model.left == left and model.right == right
        huge = build_ngram(text, 10**9, k, char_mode=char_mode).model
        whole = build_ngram(text, len(tokens), k, char_mode=char_mode).model
        assert (huge.left, huge.right) == (whole.left, whole.right)

    def test_huge_order_builds_in_time_bounded_by_the_corpus(self):
        corpus = ZONE_CORPUS.read_text(encoding="utf-8")
        start = time.process_time()
        build_ngram(corpus, 10**9, 0.01)
        assert time.process_time() - start < 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            build_ngram("", order=2, smoothing_k=0.01)
        with pytest.raises(ValueError):
            build_ngram("a b", order=0, smoothing_k=0.01)

    @pytest.mark.parametrize("order", [1, 2, 5])
    @pytest.mark.parametrize("committed", [[3, 10], [10, 3, 5], [4, 7], [11, 4], [6]])
    def test_invalidated_is_order_minus_one_around_each_commit(self, order, committed):
        pred = build_ngram("a b c", order=order, smoothing_k=0.01)
        state = gen_state(pred, 12, committed=3)
        apply_sample(state, pred.denoise(state, range(12)), sorted(committed))
        ranges = pred.invalidated(state, committed)
        near = {g for g in range(12) for c in committed if abs(g - c) <= order - 1}
        assert set().union(*ranges) == near
        # ascending, and no two overlap or touch
        assert all(r.start < r.stop for r in ranges)
        assert all(a.stop < b.start for a, b in zip(ranges, ranges[1:]))

    def test_raw_window_memo_hit_equals_best_token_on_the_committed_contexts(self):
        pred = build_ngram(" ".join(["a b c d e"] * 6), order=3, smoothing_k=0.01)
        model, m = pred.model, pred.vocabulary.mask_id
        a, c, d = (pred.vocabulary.id_of(t) for t in "acd")
        tokens = (a, m, c, d, m, m, a, m, c, d)  # prompt a, then 9 generation slots
        state = SequenceState(tokens=tokens, prompt_len=1, gen_budget=9, mask_id=m)
        masked = sorted(state.gen_masked())
        first = pred.predict(state, masked)
        # every raw window is now memoised, so the model is not asked again
        with mock.patch.object(NGramModel, "best_token", side_effect=AssertionError):
            assert pred.predict(state, masked) == first
        assert first == [window_value(model, tokens, 1 + g) for g in masked]

    def test_committed_memo_hit_equals_blended_on_the_committed_contexts(self):
        pred = build_ngram(" ".join(["a b c d e"] * 6), order=3, smoothing_k=0.01)
        model, m = pred.model, pred.vocabulary.mask_id
        a, b, c, d = (pred.vocabulary.id_of(t) for t in "abcd")
        tokens = (a, b, m, d, c, m, a, d, m, b)
        state = SequenceState(tokens=tokens, prompt_len=1, gen_budget=9, mask_id=m)
        committed = [g for g in range(9) if tokens[1 + g] != m]
        first = pred.predict(state, committed)
        with mock.patch.object(NGramModel, "blended", side_effect=AssertionError), \
                mock.patch.object(NGramModel, "best_token", side_effect=AssertionError):
            assert pred.predict(state, committed) == first
        assert first == [window_value(model, tokens, 1 + g) for g in committed]

    @pytest.mark.parametrize("tokens", [
        "a m b",  # every window is the whole sequence, clipped at both ends
        "b a m",
        "a m a m a m",  # slots 1 and 4 both read the bytes of "a m a m"
        "a b a b a b",
    ])
    def test_equal_window_bytes_at_different_offsets_do_not_collide(self, tokens):
        pred = build_ngram(" ".join(["a b a b c"] * 4), order=3, smoothing_k=0.01)
        model, vocab = pred.model, pred.vocabulary
        ids = tuple(vocab.mask_id if t == "m" else vocab.id_of(t) for t in tokens.split())
        state = SequenceState(tokens=ids, prompt_len=1, gen_budget=len(ids) - 1,
                              mask_id=vocab.mask_id)
        positions = range(state.gen_budget)
        expected = [window_value(model, ids, 1 + g) for g in positions]
        assert pred.predict(state, positions) == expected
        assert pred.predict(state, positions[::-1]) == expected[::-1]
        keys = {}  # the one key each slot fills in a fresh predictor
        for g in positions:
            fresh = NGramPredictor(model)
            fresh.predict(state, [g])
            (keys[g],) = fresh._windows
        assert set(pred._windows) == set(keys.values())
        reach = model.order - 1
        slots = 2 * min(reach, len(ids)) + 1
        assert {len(key) for key in keys.values()} == {slots * pred._width}
        clipped = {g: (ids[max(0, 1 + g - reach) : 2 + g + reach], min(1 + g, reach))
                   for g in positions}
        pairs = [(g, h) for g in positions for h in positions
                 if clipped[g][0] == clipped[h][0] and clipped[g][1] != clipped[h][1]]
        assert pairs  # equal clipped bytes at different offsets
        assert all(keys[g] != keys[h] for g, h in pairs)

    @pytest.mark.parametrize("regular, code", [(253, "B"), (254, "H")])
    def test_vocabulary_at_the_one_byte_edge_keeps_a_free_pad_id(self, regular, code):
        # with the mask and end tokens the vocabulary holds 255 or 256 ids;
        # the pad id is the size, so only 255 ids leave it one byte
        words = [f"w{i}" for i in range(regular)]
        pred = build_ngram(" ".join(words * 2), order=3, smoothing_k=0.01)
        model, vocab = pred.model, pred.vocabulary
        assert vocab.size == regular + 2 and pred._code == code
        m, top = vocab.mask_id, vocab.size - 1
        seqs = [
            (top, m, 0, top, m, m, regular - 1, m, top),
            (m, top, 0, m, 1, top, m, top, 0),
            (0, m, m, m, m, m, m, m, top),
        ]
        for tokens in seqs:
            state = SequenceState(tokens=tokens, prompt_len=1, gen_budget=8, mask_id=m)
            expected = [window_value(model, tokens, 1 + g) for g in range(8)]
            assert pred.predict(state, range(8)) == expected
            assert pred.predict(state, range(8)) == expected
            assert NGramPredictor(model).predict(state, range(8)) == expected

    @pytest.mark.parametrize("char_mode", [False, True])
    def test_huge_order_predicts_like_the_whole_corpus_order(self, char_mode):
        tokens = list("abcabdcab") if char_mode else "a b c a b d c a b".split()
        text = ("" if char_mode else " ").join(tokens)
        huge = build_ngram(text, 10**9, 0.01, char_mode=char_mode)
        whole = build_ngram(text, len(tokens), 0.01, char_mode=char_mode)
        vocab = huge.vocabulary
        a, b, c = (vocab.id_of(t) for t in "abc")
        m = vocab.mask_id
        for ids in [(a, m, c, m, b), (a, b, m, m, m, c, a, m, b), (m,)]:
            state = SequenceState(tokens=ids, prompt_len=0, gen_budget=len(ids), mask_id=m)
            positions = range(len(ids))
            tracemalloc.start()
            try:
                got = huge.predict(state, positions)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20  # nothing sized by the order
            assert got == whole.predict(state, positions)
            assert got == [window_value(whole.model, ids, pos) for pos in positions]

    def test_order_one_reads_only_the_own_token(self):
        pred = build_ngram("a b b c c c", order=1, smoothing_k=0.5)
        model, vocab = pred.model, pred.vocabulary
        m = vocab.mask_id
        a, b, c = (vocab.id_of(t) for t in "abc")
        tokens = (a, m, b, m, c, a, m)
        state = SequenceState(tokens=tokens, prompt_len=1, gen_budget=6, mask_id=m)
        got = pred.predict(state, range(6))
        assert got == [window_value(model, tokens, 1 + g) for g in range(6)]
        assert got[0] == got[2] == got[5] == model.best_token((), ())
        assert len(pred._windows) == 4  # one window per distinct own token

    def test_vocabulary_over_256_tokens_packs_two_bytes_per_id(self):
        words = [f"w{i}" for i in range(300)]
        pred = build_ngram(" ".join(words * 2), order=3, smoothing_k=0.01)
        model, vocab = pred.model, pred.vocabulary
        assert vocab.size > 256 and pred._code == "H"
        m = vocab.mask_id  # 300, after the regular tokens
        # ids 1 and 257 share their low byte, and neither 257 nor the mask fits one
        tokens = (vocab.id_of("w0"), 1, m, 257, m, 1, 257, m, vocab.id_of("w299"))
        state = SequenceState(tokens=tokens, prompt_len=1, gen_budget=8, mask_id=m)
        expected = [window_value(model, tokens, 1 + g) for g in range(8)]
        assert pred.predict(state, range(8)) == expected
        assert pred.predict(state, range(8)) == expected

    def test_corpus_containing_the_mask_string_is_rejected(self):
        with pytest.raises(ValueError, match=r"'\[MASK\]' at token index 2"):
            build_ngram("a b [MASK] c [MASK] d", order=2, smoothing_k=0.01)

    def test_repeated_sentence_recovers_the_gap(self):
        corpus = " ".join(["a b c d"] * 10)
        pred = build_ngram(corpus, order=3, smoothing_k=0.01)
        vocab = pred.vocabulary
        state = init_state((vocab.id_of("a"),), 3, vocab.mask_id)
        tokens = (vocab.id_of("a"), vocab.mask_id, vocab.id_of("c"), vocab.id_of("d"))
        state = state.__class__(tokens=tokens, prompt_len=1, gen_budget=3,
                                mask_id=vocab.mask_id)
        frame = pred.denoise(state, [0])
        assert vocab.token_of(frame.predicted[0]) == "b"
        assert frame.confidence[0] > 0.9
        expected = brute_force_ngram_prob(corpus, 3, 0.01, ("a",), ("c", "d"), "b")
        assert frame.confidence[0] == pytest.approx(expected, abs=1e-12)

    def test_bigram_right_of_committed_token(self):
        corpus = "a b . a b ."
        pred = build_ngram(corpus, order=2, smoothing_k=0.01)
        vocab = pred.vocabulary
        tokens = (vocab.id_of("a"), vocab.mask_id, vocab.mask_id)
        state = init_state((0,), 2, vocab.mask_id).__class__(
            tokens=tokens, prompt_len=1, gen_budget=2, mask_id=vocab.mask_id
        )
        frame = pred.denoise(state, [0])
        assert vocab.token_of(frame.predicted[0]) == "b"

    def test_unseen_context_without_smoothing_is_uniform(self):
        pred = build_ngram("a b a b", order=2, smoothing_k=0.0)
        vocab = pred.vocabulary
        # both neighbours masked: zero-length contexts exist (unigram), so
        # isolate with an impossible context instead
        dist = distribution(pred.model, (vocab.eos_id,), (vocab.eos_id,))
        values = set(dist.values())
        assert values == {1.0 / (vocab.size - 1)}

    def test_single_symbol_corpus(self):
        pred = build_ngram("x x x x", order=2, smoothing_k=0.001)
        vocab = pred.vocabulary
        state = init_state((vocab.id_of("x"),), 2, vocab.mask_id)
        frame = pred.denoise(state, [0, 1])
        assert vocab.token_of(frame.predicted[0]) == "x"
        assert frame.confidence[0] > 0.99

    def test_distributions_sum_to_one(self):
        pred = build_ngram("a b c a b d a", order=3, smoothing_k=0.05)
        vocab = pred.vocabulary
        a = vocab.id_of("a")
        for ctx in ((), (a,), (a, vocab.id_of("b"))):
            dist = distribution(pred.model, ctx, ())
            assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)

    def test_confidence_locality_statistic(self):
        # structured corpus: deterministic runs separated by a frequent filler
        runs = ["r1 r2 r3 r4 r5", "s1 s2 s3 s4 s5", "t1 t2 t3 t4 t5"]
        corpus = " . ".join(runs * 8)
        pred = build_ngram(corpus, order=3, smoothing_k=0.01)
        cfg = DecodeConfig(gen_budget=16, max_steps=16, b0=8, tau=0.9)
        adjacent, isolated = [], []
        seq = pred.model.corpus_ids
        for s in range(100):
            prompt = seq[(s * 3) % (len(seq) - 4) : (s * 3) % (len(seq) - 4) + 3]
            result = decode(pred, cfg, prompt)
            n = pred.model.order
            for rec, _, conf in result.trace.rows():
                masked = set(rec.masked_before)
                for i in masked:
                    near = any(
                        0 <= j < cfg.gen_budget and j not in masked
                        for j in (i - 1, i + 1)
                    ) or i == 0  # position 0 borders the committed prompt
                    far = all(
                        (j in masked) or not 0 <= j < cfg.gen_budget
                        for j in range(i - n, i + n + 1)
                        if j != i
                    ) and i >= n
                    if near:
                        adjacent.append(conf[i])
                    elif far:
                        isolated.append(conf[i])
        assert len(adjacent) > 500 and len(isolated) > 500
        margin = 0.15
        assert (sum(adjacent) / len(adjacent)) > (sum(isolated) / len(isolated)) + margin


class TestTraceReplay:
    def small_decode(self, tau=0.9):
        pred = build_synthetic(SyntheticFieldParams(noise_seed=5, vb_width_mean=3))
        cfg = DecodeConfig(gen_budget=8, max_steps=8, b0=4, tau=tau)
        prompt = (0, 1)
        return pred, cfg, prompt, decode(pred, cfg, prompt)

    def test_round_trip_identity(self, tmp_path):
        pred, cfg, prompt, result = self.small_decode()
        path = tmp_path / "run.trace.jsonl"
        write_trace(path, result.trace, pred.vocabulary, prompt=prompt, config=cfg)
        replayer = load_trace_predictor(path)
        again = decode(replayer, cfg, prompt)
        assert again.trace == result.trace
        assert again.final_tokens == result.final_tokens

    def test_exhausted_replay_reports(self, tmp_path):
        pred, cfg, prompt, result = self.small_decode()
        path = tmp_path / "run.trace.jsonl"
        write_trace(path, result.trace, pred.vocabulary, prompt=prompt, config=cfg)
        replayer = load_trace_predictor(path)
        state = init_state(prompt, cfg.gen_budget, pred.vocabulary.mask_id)
        recorded = len(result.trace)
        for _ in range(recorded):
            assert len(replayer.invalidated(state, ())) == 1
            replayer.predict(state, [0])
        # past the last record nothing is invalidated: the next call cannot be served
        assert replayer.invalidated(state, ()) == []
        with pytest.raises(ReplayExhausted) as info:
            replayer.denoise(state, [0])
        assert str(info.value) == (f"trace has {recorded} recorded steps; "
                                   f"denoise call {recorded + 1} has nothing to replay")
        with pytest.raises(ReplayExhausted):
            replayer.predict(state, [0])

    def test_absent_position_reports(self, tmp_path):
        pred, cfg, prompt, result = self.small_decode()
        path = tmp_path / "run.trace.jsonl"
        write_trace(path, result.trace, pred.vocabulary, prompt=prompt, config=cfg)
        replayer = load_trace_predictor(path)
        state = init_state(prompt, cfg.gen_budget, pred.vocabulary.mask_id)
        with pytest.raises(PredictorError, match="absent"):
            replayer.predict(state, [cfg.gen_budget + 5])

    def test_unevaluated_position_reports(self, tmp_path):
        pred, cfg, prompt, result = self.small_decode()
        path = tmp_path / "run.trace.jsonl"
        write_trace(path, result.trace, pred.vocabulary, prompt=prompt, config=cfg)
        lines = path.read_text().splitlines()
        first = json.loads(lines[1])
        drop = first["positions"].index(3)
        for key in ("positions", "pred", "conf"):
            del first[key][drop]
        lines[1] = json.dumps(first)
        path.write_text("\n".join(lines) + "\n")
        replayer = load_trace_predictor(path)
        state = init_state(prompt, cfg.gen_budget, pred.vocabulary.mask_id)
        assert len(replayer.fork().predict(state, [2])) == 1
        with pytest.raises(PredictorError, match="position 3 absent"):
            replayer.predict(state, [3])

    def test_malformed_line_names_line_number(self, tmp_path):
        pred, cfg, prompt, result = self.small_decode()
        path = tmp_path / "run.trace.jsonl"
        write_trace(path, result.trace, pred.vocabulary, prompt=prompt, config=cfg)
        lines = path.read_text().splitlines()
        lines[2] = lines[2][: len(lines[2]) // 2]  # truncate mid-object
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceFormatError, match="line 3"):
            load_trace_predictor(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "empty.trace.jsonl"
        path.write_text("")
        with pytest.raises(TraceFormatError, match="line 1"):
            load_trace_predictor(path)

    def test_replay_with_different_sampler(self, tmp_path):
        # record a top-1 decode, replay it under dynamic sampling with a low
        # threshold: predictions come from the log, sampling is recomputed
        pred = build_synthetic(SyntheticFieldParams(noise_seed=5, vb_width_mean=3))
        cfg = DecodeConfig(gen_budget=6, max_steps=6, b0=6, sampler="vanilla")
        prompt = (0,)
        recorded = decode(pred, cfg, prompt)
        path = tmp_path / "run.trace.jsonl"
        write_trace(path, recorded.trace, pred.vocabulary, prompt=prompt, config=cfg)

        replayer = load_trace_predictor(path)
        dyn = DecodeConfig(gen_budget=6, max_steps=6, b0=6, sampler="dynamic", tau=0.5)
        replayed = decode(replayer, dyn, prompt)
        assert replayed.completed
        assert replayed.steps_used < recorded.steps_used
        # every replayed confidence matches some recorded frame value
        _, _, rec0 = next(recorded.trace.rows())
        _, _, rep0 = next(replayed.trace.rows())
        assert rep0 == rec0

    @pytest.mark.parametrize("cache", ["none", "prefix", "dual"])
    def test_ngram_trace_replays_to_its_own_bytes(self, cache, tmp_path):
        # the n-gram decode computes only what its commits touched; the replay
        # recomputes only what the next record changed, and its cursor still
        # moves once per step
        pred = build_ngram(" . ".join(["a b c d e", "f g h i j"] * 4), order=3,
                           smoothing_k=0.01)
        cfg = DecodeConfig(gen_budget=16, max_steps=16, b0=4, cache=cache, tau=0.5)
        prompt = tuple(pred.model.corpus_ids[:2])
        recorded = decode(pred, cfg, prompt)
        path = tmp_path / "run.trace.jsonl"
        write_trace(path, recorded.trace, pred.vocabulary, prompt=prompt, config=cfg)

        replayer = load_trace_predictor(path)
        start = init_state(prompt, 16, pred.vocabulary.mask_id)
        probe = replayer.fork()
        probe.predict(start, [])  # serve record 0; record 1 is next
        assert probe.invalidated(start, ()) == [changed_positions(recorded.trace, 1)]
        replayed = decode(replayer, cfg, prompt)
        again = tmp_path / "replay.trace.jsonl"
        write_trace(again, replayed.trace, replayer.vocabulary, prompt=prompt, config=cfg)
        assert replayed.steps_used == recorded.steps_used > 1
        assert again.read_bytes() == path.read_bytes()

    def test_fork_rewinds_cursor(self, tmp_path):
        pred, cfg, prompt, result = self.small_decode()
        path = tmp_path / "run.trace.jsonl"
        write_trace(path, result.trace, pred.vocabulary, prompt=prompt, config=cfg)
        replayer = load_trace_predictor(path)
        first = decode(replayer, cfg, prompt)
        second = decode(replayer.fork(), cfg, prompt)
        assert first.trace == second.trace


class _StubPredictor(MaskPredictor):
    """Serves token 0 at confidence 0.5 everywhere, except the given overrides."""

    def __init__(self, overrides=None):
        self._vocab = Vocabulary(("a", "[MASK]", "<EOS>"), mask_id=1, eos_id=2)
        self.overrides = overrides or {}

    @property
    def vocabulary(self):
        return self._vocab

    def predict(self, state, positions):
        return [self.overrides.get(pos, (0, 0.5)) for pos in positions]


class TestDenoiseValidation:
    """The exact ``PredictorError`` text for each invalid request or prediction."""

    def state(self):
        # prompt (0,), generation positions 0..5; 1 and 3 already committed
        state = init_state((0,), 6, mask_id=1)
        return apply_sample(state, PredictionFrame((0,) * 6, (0.9,) * 6), [1, 3])

    def check(self, overrides, positions, message):
        with pytest.raises(PredictorError) as info:
            _StubPredictor(overrides).denoise(self.state(), positions)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "prediction, message",
        [
            pytest.param((1, 0.9), "predicted the mask token at 2", id="mask-token"),
            pytest.param((0, 0.0), "confidence 0.0 at 2 outside (0, 1]", id="zero"),
            pytest.param((0, 1.5), "confidence 1.5 at 2 outside (0, 1]", id="above-one"),
            pytest.param((0, float("nan")), "confidence nan at 2 outside (0, 1]", id="nan"),
            pytest.param((0, float("-inf")), "confidence -inf at 2 outside (0, 1]",
                         id="minus-inf"),
            pytest.param((0, float("inf")), "confidence inf at 2 outside (0, 1]", id="inf"),
        ],
    )
    def test_invalid_prediction_at_masked_position(self, prediction, message):
        self.check({2: prediction}, range(6), message)

    def test_first_offender_in_position_order_is_named(self):
        self.check({5: (1, 0.9), 4: (0, 2.0), 2: (0, float("nan"))}, [0, 2, 4, 5],
                   "confidence nan at 2 outside (0, 1]")
        self.check({4: (1, 0.9), 5: (0, 0.0)}, [4, 5], "predicted the mask token at 4")

    @pytest.mark.parametrize(
        "positions, message",
        [
            pytest.param([2, 0, 4], "evaluation position 0 after 2: positions must ascend",
                         id="descent"),
            pytest.param([0, 4, 4, 5], "evaluation position 4 after 4: positions must ascend",
                         id="repeat"),
            pytest.param([0, 2, 9, -1], "evaluation position -1 after 9: positions must ascend",
                         id="before-range"),
        ],
    )
    def test_positions_that_do_not_strictly_ascend(self, positions, message):
        self.check({}, positions, message)

    def test_nan_hidden_among_valid_confidences(self):
        overrides = {g: (0, 0.2 * (g + 1)) for g in (0, 2, 4)}
        overrides[5] = (0, float("nan"))
        self.check(overrides, range(6), "confidence nan at 5 outside (0, 1]")

    def test_committed_positions_are_not_checked(self):
        overrides = {1: (1, float("nan")), 3: (0, 7.0), 4: (0, 1)}
        frame = _StubPredictor(overrides).denoise(self.state(), range(6))
        assert frame.predicted[:3] == [0, 1, 0]
        assert frame.confidence[3:5] == [7.0, 1]
        assert len(frame.predicted) == len(frame.confidence) == 6

    @pytest.mark.parametrize(
        "positions, message",
        [
            pytest.param([-2, -1, 2], "evaluation position -2 out of range", id="below"),
            pytest.param([2, 6, 8], "evaluation position 6 out of range", id="beyond"),
            pytest.param([-1, 2, 6, 7], "evaluation position -1 out of range", id="both"),
        ],
    )
    def test_out_of_range_positions(self, positions, message):
        self.check({}, positions, message)
