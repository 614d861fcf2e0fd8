"""Memoised predictors against loop references, and shared across threads.

The n-gram and synthetic predictors memoise per instance.  These tests check
that a long-lived instance, whose memo spans every example, answers exactly
like a fresh instance and like a reference that recomputes everything.
"""

import pickle
import sys
import threading
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from semiar import predictors
from semiar.core import DecodeConfig, SequenceState
from semiar.decoder import decode
from semiar.predictors import (
    SyntheticFieldParams,
    build_ngram,
    build_synthetic,
)
from semiar.seeding import unit_draw

from test_predictors import distribution, window_value

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

# A few fixed corpora recur across examples, so a long-lived predictor serves
# many different states; random corpora cover the rest.
FIXED_CORPORA = (
    ("a b a c a b d a b", False),
    (" ".join((["the"] * 12 + ["mm", "r0", "r1", "r2"]) * 2), False),
    ("abracadabra. abc", True),
)
word_corpus = st.lists(st.sampled_from("a b c d e".split()), min_size=1, max_size=30).map(
    lambda words: (" ".join(words), False)
)
char_corpus = st.text(alphabet="abc d.", min_size=1, max_size=30).filter(
    lambda text: text.strip()
).map(lambda text: (text, True))
corpora = st.sampled_from(FIXED_CORPORA) | word_corpus | char_corpus


@pytest.fixture(scope="module")
def long_lived():
    """Predictors that outlive single examples, keyed by their construction arguments."""
    return {}


def _shared(cache, key, build):
    if key not in cache:
        cache[key] = build()
    return cache[key]


@st.composite
def masked_states(draw, vocab_size, mask_id):
    """A random sequence of committed tokens and masks, plus sorted generation positions."""
    length = draw(st.integers(2, 40))
    prompt_len = draw(st.integers(1, length - 1))
    committed = st.integers(0, vocab_size - 1).filter(lambda t: t != mask_id)
    tokens = tuple(
        draw(committed) if i < prompt_len or draw(st.booleans()) else mask_id
        for i in range(length)
    )
    state = SequenceState(tokens=tokens, prompt_len=prompt_len,
                          gen_budget=length - prompt_len, mask_id=mask_id)
    positions = sorted(draw(st.sets(st.integers(0, state.gen_budget - 1), min_size=1)))
    return state, positions


# ---------------------------------------------------------------------------
# n-gram
# ---------------------------------------------------------------------------

def reference_prob(ids, k, candidates, ctx, following, token):
    """Add-k probability of ``token`` next to ``ctx``, counted from the corpus."""
    n = len(ctx)

    def fits(p):
        if following:
            return p + n < len(ids) and tuple(ids[p + 1 : p + 1 + n]) == ctx
        return p - n >= 0 and tuple(ids[p - n : p]) == ctx

    counts = Counter(ids[p] for p in range(len(ids)) if fits(p))
    denom = sum(counts.values()) + k * candidates
    if denom == 0.0:
        return 1.0 / candidates
    return (counts.get(token, 0) + k) / denom


def reference_ngram_predict(model, state, positions):
    """Window rescan per position, argmax over every token, lowest id on ties."""
    ids, k, vocab = model.corpus_ids, model.smoothing_k, model.vocab
    tokens, mask = state.tokens, state.mask_id
    candidates = vocab.size - 1

    def blended(left, right, tok):
        return (0.5 * reference_prob(ids, k, candidates, left, False, tok)
                + 0.5 * reference_prob(ids, k, candidates, right, True, tok))

    out = []
    for g in positions:
        pos = state.prompt_len + g
        window_l = range(max(0, pos - (model.order - 1)), pos)
        window_r = range(pos + 1, min(len(tokens), pos + model.order))
        left = tuple(tokens[i] for i in window_l if tokens[i] != mask)
        right = tuple(tokens[i] for i in window_r if tokens[i] != mask)
        if tokens[pos] != mask:
            tok = tokens[pos]
            assert model.blended(left, right, tok) == blended(left, right, tok)
            out.append((tok, blended(left, right, tok)))
        else:
            dist = distribution(model, left, right)
            assert dist == {t: blended(left, right, t) for t in dist}
            best = max(dist.values())
            out.append((min(t for t, p in dist.items() if p == best), best))
    return out


@SETTINGS
@given(
    corpus=corpora,
    order=st.sampled_from([1, 2, 3, 4, 5, 31]),
    k=st.sampled_from([0, 0.01, 1]),
    data=st.data(),
)
def test_ngram_predict_matches_the_loop_reference(long_lived, corpus, order, k, data):
    text, char_mode = corpus
    shared = _shared(long_lived, ("ngram", text, char_mode, order, k),
                     lambda: build_ngram(text, order, k, char_mode=char_mode))
    fresh = build_ngram(text, order, k, char_mode=char_mode)
    vocab = fresh.vocabulary
    for _ in range(data.draw(st.integers(1, 3))):
        state, positions = data.draw(masked_states(vocab.size, vocab.mask_id))
        expected = reference_ngram_predict(fresh.model, state, positions)
        assert fresh.predict(state, positions) == expected
        assert shared.predict(state, positions) == expected


def test_ngram_memo_is_emptied_at_its_cap(monkeypatch):
    """A miss that finds the memo full empties it first, so the memo never
    outgrows the cap, nor does the model's count memo, and decodes across the
    clears equal decodes by fresh predictors that never clear."""
    corpus = " . ".join(["a b c d e", "f g h i j", "k l m n o"] * 6)
    cfg = DecodeConfig(gen_budget=24, max_steps=24, b0=8)
    ids = build_ngram(corpus, order=3, smoothing_k=0.01).model.corpus_ids
    prompts = [tuple(ids[s : s + 3]) for s in range(0, 60, 3)]
    expected = [decode(build_ngram(corpus, order=3, smoothing_k=0.01), cfg, prompt)
                for prompt in prompts]

    cap = 16
    monkeypatch.setattr(predictors, "WINDOW_MEMO_CAP", cap)
    shared = build_ngram(corpus, order=3, smoothing_k=0.01)
    sizes, counted = [], []
    predict = shared.predict

    def watched(state, positions):
        out = predict(state, positions)
        sizes.append(len(shared._windows))
        counted.append(shared.model._counts.cache_info().currsize)
        return out

    shared.predict = watched
    for prompt, want in zip(prompts, expected):
        got = decode(shared, cfg, prompt)
        assert got.final_tokens == want.final_tokens
        assert got.trace == want.trace
    assert max(sizes) <= cap
    assert any(after < before for before, after in zip(sizes, sizes[1:]))
    assert max(counted) == cap  # the context counts fill up to the cap, no further


# ---------------------------------------------------------------------------
# synthetic field
# ---------------------------------------------------------------------------

FIXED_FIELDS = (
    SyntheticFieldParams(plateau_rate=0.5, vb_width_mean=3, vb_width_jitter=2, noise_seed=3),
    SyntheticFieldParams(plateau_rate=1.7, delimiter_period=5, noise_seed=4),
)
random_fields = st.builds(
    SyntheticFieldParams,
    plateau_rate=st.sampled_from([0.4, 1.0, 1.5, 2.0]),
    vb_width_mean=st.integers(1, 6),
    vb_width_jitter=st.integers(0, 3),
    delimiter_period=st.sampled_from([0, 0, 1, 3, 6]),
    noise_seed=st.integers(0, 2**31),
)


def field_value(pred, gen, frontier):
    """The synthetic field's (token, confidence) at a masked slot, from its definition."""
    p, vocab = pred.params, pred.vocabulary
    regime = pred.regime_of(gen, frontier)
    if regime == "plateau":
        u = unit_draw(p.noise_seed, "plateau", gen)
        conf = p.plateau_level + u * (1.0 - p.plateau_level)
    elif regime == "band":
        u = unit_draw(p.noise_seed, "band", gen, frontier)
        conf = p.vb_low + u * (p.vb_high - p.vb_low)
    else:
        conf = p.floor_level * (0.5 + 0.5 * unit_draw(p.noise_seed, "floor", gen))
    if p.delimiter_period > 0 and gen % p.delimiter_period == p.delimiter_period - 1:
        return pred.delimiter_id, conf
    if regime == "floor":
        return vocab.eos_id, conf
    return vocab.id_of(f"w{gen % 8}"), conf


def reference_synthetic_predict(pred, state, positions):
    """The field's definition for masked slots, a direct draw for committed ones."""
    p = pred.params
    lp = state.prompt_len
    committed = sum(1 for t in state.tokens[lp:] if t != state.mask_id)
    frontier = pred.frontier(committed, state.gen_budget)
    out = []
    for gen in positions:
        pos = lp + gen
        if state.tokens[pos] != state.mask_id:
            u = unit_draw(p.noise_seed, "plateau", gen)
            out.append((state.tokens[pos], p.plateau_level + u * (1.0 - p.plateau_level)))
        else:
            out.append(field_value(pred, gen, frontier))
    return out


@SETTINGS
@given(params=st.sampled_from(FIXED_FIELDS) | random_fields, data=st.data())
def test_synthetic_predict_matches_the_per_position_methods(long_lived, params, data):
    shared = _shared(long_lived, ("synthetic", params), lambda: build_synthetic(params))
    fresh = build_synthetic(params)
    vocab = fresh.vocabulary
    for _ in range(data.draw(st.integers(1, 3))):
        state, positions = data.draw(masked_states(vocab.size, vocab.mask_id))
        expected = reference_synthetic_predict(build_synthetic(params), state, positions)
        assert fresh.predict(state, positions) == expected
        assert shared.predict(state, positions) == expected


@SETTINGS
@given(params=st.sampled_from(FIXED_FIELDS) | random_fields, data=st.data())
def test_pickled_synthetic_predicts_like_the_original(params, data):
    fresh = build_synthetic(params)
    used = build_synthetic(params)
    vocab = fresh.vocabulary
    for _ in range(data.draw(st.integers(1, 3))):
        state, positions = data.draw(masked_states(vocab.size, vocab.mask_id))
        expected = used.predict(state, positions)
        for pred in (fresh, used):
            copy = pickle.loads(pickle.dumps(pred))
            assert type(copy) is type(pred) and copy.params == params
            assert copy.predict(state, positions) == expected


# ---------------------------------------------------------------------------
# sharing across threads
# ---------------------------------------------------------------------------

THREADS = 8  # more than the cores of a small machine


def _sharing_jobs():
    corpus = " . ".join(["r1 r2 r3 r4 r5", "s1 s2 s3", "t1 t2 t3 t4"] * 6)

    def ngram():
        return build_ngram(corpus, order=5, smoothing_k=0.01)

    def synthetic():
        return build_synthetic(SyntheticFieldParams(
            vb_width_mean=3, vb_width_jitter=2, plateau_rate=0.8, noise_seed=9))

    seq = ngram().model.corpus_ids
    jobs = []
    for b0 in (4, 8, 16):
        for off in (0, 7, 19):
            jobs.append((ngram, DecodeConfig(gen_budget=48, max_steps=96, b0=b0, tau=0.9),
                         seq[off : off + 3]))
        jobs.append((synthetic, DecodeConfig(gen_budget=64, max_steps=64, b0=b0,
                                             sampler="dynamic"), (0, 1)))
    return jobs


def _decode_concurrently(jobs):
    """Every job on every thread, over predictors shared by all threads."""
    shared = {make: make() for make, _, _ in jobs}
    results = [[None] * len(jobs) for _ in range(THREADS)]
    errors = []
    start = threading.Barrier(THREADS)

    def worker(slot):
        try:
            start.wait(timeout=60)
            # threads walk the jobs in pairs from different starts, so two
            # threads race to fill the same cold memo entries
            for i in range(len(jobs)):
                j = (i + slot // 2) % len(jobs)
                make, cfg, prompt = jobs[j]
                results[slot][j] = decode(shared[make], cfg, prompt)
        except Exception as exc:  # surfaced by the caller's assertion
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    return results


@pytest.mark.parametrize("budgets", [(4, 40, 4), (40, 4, 40)])
def test_one_ngram_predictor_serves_sequences_either_side_of_its_reach(budgets):
    # order - 1 = 9 lies between the two sequence lengths, so the short
    # sequence's windows are clipped to it and the long one's are not
    corpus = " ".join(["a b c d e f g", "b c a"] * 4)
    shared = build_ngram(corpus, order=10, smoothing_k=0.01)
    prompt = shared.model.corpus_ids[:1]
    for L in budgets:
        cfg = DecodeConfig(gen_budget=L, max_steps=2 * L, b0=4, tau=0.9)
        got = decode(shared, cfg, prompt)
        want = decode(build_ngram(corpus, order=10, smoothing_k=0.01), cfg, prompt)
        assert got.final_tokens == want.final_tokens
        assert got.trace == want.trace
        # every value computed equals the one the step's tokens give unmemoised
        m, lp = shared.vocabulary.mask_id, len(prompt)
        for rec in got.trace.steps:
            tokens = list(got.final_tokens)
            for g in rec.masked_before:
                tokens[lp + g] = m
            assert list(zip(rec.predicted, rec.confidence)) == [
                window_value(shared.model, tokens, lp + g) for g in rec.computed]


def test_shared_predictors_decode_like_sequential_ones():
    jobs = _sharing_jobs()
    expected = [decode(make(), cfg, prompt) for make, cfg, prompt in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        rounds = [_decode_concurrently(jobs) for _ in range(3)]
    finally:
        sys.setswitchinterval(interval)
    for results in rounds:
        for per_thread in results:
            for got, want in zip(per_thread, expected):
                assert got.final_tokens == want.final_tokens
                assert got.trace == want.trace
