"""Deterministic, platform-independent randomness helpers.

Everything random in this package flows through keyed hashing so that any
value can be recomputed from (seed, key) alone: no generator state, no
ordering sensitivity, identical results across processes and platforms.

A draw hashes the packed seed, then ``"\\x1f" + str(part)`` for each key part,
with blake2b.  :func:`stream` serves many draws under one ``(seed, tag)``
prefix: it feeds the prefix to one blake2b state once, and each draw hashes
only its own keys into a copy of that state.  blake2b is a streaming hash, so
feeding the same bytes in two pieces gives the same digest as in one, and for
an ``int`` key the text a stream formats equals ``str(key)``: a stream draw
equals :func:`unit_draw` over the same seed, tag and keys, bit for bit.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Callable


def _digest(seed: int, *key: object) -> bytes:
    h = hashlib.blake2b(digest_size=8)
    h.update(struct.pack("<q", seed))
    for part in key:
        h.update(b"\x1f")
        h.update(str(part).encode("utf-8"))
    return h.digest()


def unit_draw(seed: int, *key: object) -> float:
    """Uniform draw in [0, 1) determined entirely by (seed, key)."""
    return int.from_bytes(_digest(seed, *key), "little") / 2.0**64


def int_draw(seed: int, *key: object) -> int:
    """Unsigned 64-bit draw determined entirely by (seed, key)."""
    return int.from_bytes(_digest(seed, *key), "little")


def stream(seed: int, tag: str, arity: int = 1) -> Callable[..., float]:
    """The draws ``unit_draw(seed, tag, *keys)`` over ``arity`` int keys, as
    one function that hashes ``(seed, tag)`` once.

    Keys must be exactly ``int``: ``%d`` and ``str()`` format an int subclass
    differently (``True`` reads ``1`` and ``True``), so anything else raises
    ``TypeError``, as does a key count other than ``arity``.
    """
    state = hashlib.blake2b(digest_size=8)
    state.update(struct.pack("<q", seed) + b"\x1f" + str(tag).encode("utf-8"))
    copy, text = state.copy, b"\x1f%d" * arity

    def draw(*keys: int) -> float:
        for key in keys:
            if type(key) is not int:
                raise TypeError(f"stream keys must be int, got {type(key).__name__}")
        h = copy()
        h.update(text % keys)
        return int.from_bytes(h.digest(), "little") / 2.0**64

    return draw


def mix_seed(base: int, *indices: int) -> int:
    """Derive a run seed from a base seed and structural indices.

    Collision-resistant in the indices (unlike plain XOR), so cell 1 rep 0
    and cell 0 rep 1 get unrelated streams.
    """
    return int_draw(base, "mix", *indices) % 2**63
