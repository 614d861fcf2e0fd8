"""Keyed draws: a stream equals the one-off draws it replaces, bit for bit."""

import enum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiar.seeding import stream, unit_draw

seeds = st.integers(-(2**63), 2**63 - 1)
keys = st.integers(-(2**70), 2**70) | st.sampled_from([0, -1, 2**63, -(2**63) - 1])
tags = st.sampled_from(["band", "plateau", "floor", "width"])


@settings(max_examples=400, deadline=None)
@given(seed=seeds, tag=tags, key_list=st.lists(keys, min_size=1, max_size=2))
def test_stream_draw_equals_unit_draw(seed, tag, key_list):
    draw = stream(seed, tag, len(key_list))
    assert draw(*key_list) == unit_draw(seed, tag, *key_list)
    # a draw leaves the stream's state as it was
    assert draw(*key_list) == unit_draw(seed, tag, *key_list)


@settings(max_examples=50, deadline=None)
@given(seed=seeds, tag=tags, first=st.lists(keys, min_size=1, max_size=20))
def test_one_stream_serves_many_draws(seed, tag, first):
    draw = stream(seed, tag)
    assert [draw(k) for k in first] == [unit_draw(seed, tag, k) for k in first]


class _Level(enum.IntEnum):
    ONE = 1


class _MyInt(int):
    def __str__(self):
        return "mine"


@pytest.mark.parametrize("key", [True, 1.0, "1", _Level.ONE, _MyInt(1), None])
def test_stream_rejects_non_int_keys(key):
    with pytest.raises(TypeError, match="stream keys must be int"):
        stream(3, "band")(key)
    with pytest.raises(TypeError, match="stream keys must be int"):
        stream(3, "band", 2)(1, key)


@pytest.mark.parametrize("key_list", [(), (1, 2)])
def test_stream_rejects_a_key_count_other_than_its_arity(key_list):
    with pytest.raises(TypeError):
        stream(3, "plateau")(*key_list)
