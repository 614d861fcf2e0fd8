"""Block-size determination: hand-worked cases, window laws, oracle agreement."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from semiar.core import CACHES, SAMPLERS, SCHEDULERS, DecodeConfig
from semiar.decoder import decode
from semiar.predictors import (
    SyntheticFieldParams,
    build_ngram,
    build_synthetic,
    load_trace_predictor,
)
from semiar.scheduler import (
    DELIMITER,
    FALLBACK,
    compute_block_length,
    fixed_block_length,
)
from semiar.tracefile import write_trace

NL = 100  # delimiter token id used throughout
MODES = list(itertools.product(SAMPLERS, SCHEDULERS, CACHES))


def cfg(**kw):
    base = dict(
        gen_budget=512, max_steps=512, b0=32, tau_d=0.3,
        delimiters=frozenset({NL}), scheduler="adaptive",
    )
    base.update(kw)
    return DecodeConfig(**base)


def arrays(L, delim_at=(), delim_conf=0.5, base_conf=0.1):
    pred = [1] * L
    conf = [base_conf] * L
    for pos in delim_at:
        pred[pos] = NL
        conf[pos] = delim_conf
    return pred, conf


class TestComputeBlockLength:
    def test_delimiter_inside_window(self):
        # g=16 gives w = min(max(1, floor(0.25*16)), 496) = 4, so the window
        # is {16..19}; a delimiter at 18 with conf 0.45 >= 0.3 wins.
        pred, conf = arrays(512, delim_at=(18,), delim_conf=0.45)
        d = compute_block_length(pred, conf, cfg(), 16)
        assert (d.block_size, d.source) == (3, DELIMITER)
        assert (d.delimiter_pos, d.delimiter_conf) == (18, 0.45)
        assert (d.window_start, d.window_len) == (16, 4)

    def test_no_delimiter_falls_back(self):
        pred, conf = arrays(512)
        d = compute_block_length(pred, conf, cfg(), 16)
        assert (d.block_size, d.source) == (32, FALLBACK)

    def test_low_confidence_delimiter_falls_back(self):
        pred, conf = arrays(512, delim_at=(18,), delim_conf=0.2)
        d = compute_block_length(pred, conf, cfg(tau_d=0.3), 16)
        assert d.source == FALLBACK

    def test_degenerate_window_at_start(self):
        # g=0 -> w = max(1, 0) = 1, window {0}
        pred, conf = arrays(512, delim_at=(5,), delim_conf=0.99)
        d = compute_block_length(pred, conf, cfg(), 0)
        assert (d.block_size, d.source) == (32, FALLBACK)
        assert d.window_len == 1

    def test_highest_confidence_delimiter_wins(self):
        pred, conf = arrays(512, delim_at=(65, 67), delim_conf=0.4)
        conf[67] = 0.8
        d = compute_block_length(pred, conf, cfg(), 64)
        assert d.delimiter_pos == 67
        assert d.block_size == 67 - 64 + 1

    def test_delimiter_tie_takes_lowest_position(self):
        pred, conf = arrays(512, delim_at=(65, 70), delim_conf=0.6)
        d = compute_block_length(pred, conf, cfg(), 64)
        assert d.delimiter_pos == 65

    def test_out_of_range_g_rejected(self):
        pred, conf = arrays(8)
        with pytest.raises(ValueError):
            compute_block_length(pred, conf, cfg(gen_budget=8, max_steps=8), 8)

    def test_window_capped_by_remaining(self):
        pred, conf = arrays(512)
        d = compute_block_length(pred, conf, cfg(), 508)
        assert d.window_len == 4
        assert d.block_size == 4  # fallback capped by remaining


class TestFixedBlockLength:
    def test_default_block(self):
        assert fixed_block_length(cfg(), 0).block_size == 32

    def test_remaining_cap(self):
        assert fixed_block_length(cfg(), 500).block_size == 12

    def test_unit_block(self):
        assert fixed_block_length(cfg(b0=1), 100).block_size == 1


def _opening_predictor(kind):
    """A predictor with its prompt, budget and delimiter set, for ``kind``."""
    if kind == "synthetic":
        pred = build_synthetic(SyntheticFieldParams(
            noise_seed=5, vb_width_mean=2, vb_width_jitter=1, delimiter_period=5))
        return pred, (0, 1), 30, frozenset({pred.delimiter_id})
    pred = build_ngram(" . ".join(["a b c", "d e f g", "h i"] * 6), order=3,
                       smoothing_k=0.1)
    vocab = pred.vocabulary
    return pred, (vocab.id_of("a"), vocab.id_of("b")), 30, frozenset({vocab.id_of(".")})


class TestBlockOpeningInvariant:
    """The scheduler reads the block-opening frame as it is, with no committed
    token standing in for a prediction.  That is sound because nothing at or
    after a block's start is committed when the block opens."""

    @pytest.mark.parametrize("b0", [3, 8])
    @pytest.mark.parametrize("sampler, scheduler, cache", MODES)
    @pytest.mark.parametrize("kind", ["synthetic", "ngram"])
    def test_window_is_masked_when_a_block_opens(
        self, kind, sampler, scheduler, cache, b0, tmp_path
    ):
        pred, prompt, L, delimiters = _opening_predictor(kind)
        config = DecodeConfig(gen_budget=L, max_steps=2 * L, b0=b0, tau=0.6, tau_d=0.2,
                              window_fraction=0.5, delimiters=delimiters, sampler=sampler,
                              scheduler=scheduler, cache=cache)
        live = decode(pred, config, prompt)
        path = tmp_path / "run.trace.jsonl"
        write_trace(path, live.trace, pred.vocabulary, prompt=prompt, config=config)
        replayer = load_trace_predictor(path)
        replayed = decode(replayer, replayer.recorded_config, replayer.recorded_prompt)
        for result in (live, replayed):
            openings = [rec for rec in result.trace.steps if rec.is_block_open]
            assert len(openings) == len(result.blocks) > 1
            for rec in openings:
                assert set(range(rec.block_start, L)) <= set(rec.masked_before), rec.step


# --- randomized oracle agreement -------------------------------------------

def oracle_block_length(pred, conf, L, b0, delims, tau_d, g, window_fraction):
    """Independent transcription of the windowed delimiter-search procedure."""
    start, remaining = g, L - g
    w = min(max(1, math.floor(window_fraction * g)), remaining)
    window = range(start, start + w)
    candidates = [i for i in window if pred[i] in delims]
    if candidates:
        pos = max(candidates, key=lambda i: (conf[i], -i))
        c_max = conf[pos]
    else:
        pos, c_max = None, -math.inf
    if c_max >= tau_d:
        return pos - start + 1, DELIMITER, pos
    return min(b0, remaining), FALLBACK, None


def random_case(rng):
    L = rng.randint(1, 96)
    pred = [rng.randint(0, 6) for _ in range(L)]
    for i in range(L):
        if rng.random() < 0.2:
            pred[i] = NL
    conf = [rng.random() for _ in range(L)]
    if rng.random() < 0.3:  # force exact ties sometimes
        v = rng.random()
        for i in range(L):
            if rng.random() < 0.5:
                conf[i] = v
    config = cfg(
        gen_budget=L,
        max_steps=L,
        b0=rng.randint(1, 64),
        tau_d=rng.choice([0.1, 0.3, 0.5, 0.9]),
        window_fraction=rng.choice([0.1, 0.25, 0.5, 1.0]),
        delimiters=frozenset({NL}) if rng.random() < 0.8 else frozenset(),
    )
    return pred, conf, config, rng.randrange(L)


def test_oracle_agreement_on_randomized_inputs():
    rng = random.Random(20240917)
    for _ in range(1000):
        pred, conf, config, g = random_case(rng)
        d = compute_block_length(pred, conf, config, g)
        b, source, pos = oracle_block_length(
            pred, conf, config.gen_budget, config.b0, config.delimiters,
            config.tau_d, g, config.window_fraction,
        )
        assert (d.block_size, d.source, d.delimiter_pos) == (b, source, pos)


@given(st.data())
@settings(max_examples=200)
def test_disabled_delimiters_reduce_to_fixed(data):
    L = data.draw(st.integers(1, 64))
    g = data.draw(st.integers(0, L - 1))
    pred = data.draw(st.lists(st.integers(0, 5) | st.just(NL), min_size=L, max_size=L))
    conf = data.draw(
        st.lists(st.floats(0, 1, allow_nan=False), min_size=L, max_size=L)
    )
    config = cfg(gen_budget=L, max_steps=L, delimiters=frozenset(),
                 b0=data.draw(st.integers(1, 48)))
    assert (
        compute_block_length(pred, conf, config, g).block_size
        == fixed_block_length(config, g).block_size
    )


@given(st.data())
@settings(max_examples=200)
def test_window_containment_and_monotone_growth(data):
    L = data.draw(st.integers(2, 96))
    config = cfg(gen_budget=L, max_steps=L)
    pred = [NL] * L
    conf = [0.95] * L
    prev_w = None
    for g in range(L):
        d = compute_block_length(pred, conf, config, g)
        assert d.window_start == g
        assert g + d.window_len <= L
        if d.source == DELIMITER:
            assert g <= d.delimiter_pos < g + d.window_len
        # w is non-decreasing in g until the remaining-budget cap binds
        if prev_w is not None and g + d.window_len < L:
            assert d.window_len >= prev_w
        prev_w = d.window_len if g + d.window_len < L else None
