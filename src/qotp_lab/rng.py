"""Seeded randomness with named streams.

A single 64-bit root seed is split into independent named substreams so that
adding a new randomness consumer never perturbs the draws seen by existing
ones.  Stream identity is derived from a stable hash of the stream name.

Uniform bit masks have one rule, ``random_masks``.  ``gen.bytes(nb)`` takes
ceil(nb/4) 32-bit words, so ``count`` n-bit masks are one ``gen.bytes`` call,
mask i its bytes [w i, w i + nb) with nb = ceil(n/8) and w = 4 ceil(nb/4):
the bits and the generator position of ``count`` one-mask draws
(``random_bits``), so a caller draws all its keys at once.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _stream_key(name: str) -> int:
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def stream(root_seed: int, name: str) -> np.random.Generator:
    """Return the generator for the named substream of ``root_seed``."""
    seq = np.random.SeedSequence(entropy=int(root_seed) & (2**64 - 1),
                                 spawn_key=(_stream_key(name),))
    return np.random.Generator(np.random.Philox(seq))


def random_masks(gen: np.random.Generator, n: int, count: int) -> list[int]:
    """``count`` ``random_bits(gen, n)`` draws from one ``gen.bytes`` call."""
    nb, w = (n + 7) // 8, -(-n // 32) * 4  # a mask's bytes, and its words'
    raw = gen.bytes(w * (count - 1) + nb) if count else b""
    return [int.from_bytes(raw[w * i:w * i + nb], "little") & ((1 << n) - 1)
            for i in range(count)]


def random_bits(gen: np.random.Generator, n: int) -> int:
    """``n`` uniform bits as an int, from one ``gen.bytes`` draw."""
    return random_masks(gen, n, 1)[0]
