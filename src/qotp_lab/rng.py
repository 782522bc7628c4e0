"""Seeded randomness with named streams.

A single 64-bit root seed is split into independent named substreams so that
adding a new randomness consumer never perturbs the draws seen by existing
ones.  Stream identity is derived from a stable hash of the stream name.
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


def random_bits(gen: np.random.Generator, n: int) -> int:
    """``n`` uniform bits as an int, from one ``gen.bytes`` draw."""
    return int.from_bytes(gen.bytes((n + 7) // 8), "little") & ((1 << n) - 1)
