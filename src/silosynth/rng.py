"""Deterministic counter-based randomness for parties and the clear oracle.

Every random word in a run is derived from the public master seed through
labeled blake2b key derivation feeding Philox counter streams. The three
pairwise seeds k1, k2, k3 drive zero sharings, XOR zero sharings and shared
random bits; seed k_i is held by parties i and i-1, matching the replicated
component layout. Streams advance in lockstep because the protocol code is
the same straight-line program at every party.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .fixedpoint import MASK


def derive_key(master_seed: int, label: str, *indices: int) -> int:
    """128-bit subkey for (label, indices) under the master seed."""
    h = hashlib.blake2b(digest_size=16)
    h.update(str(int(master_seed)).encode())
    h.update(b"\x00" + label.encode())
    for idx in indices:
        h.update(b"\x01" + str(int(idx)).encode())
    return int.from_bytes(h.digest(), "little")


class CounterStream:
    """Philox-backed stream of uint64 ring words.

    Word consumption is strictly sequential from a persistent generator, so
    two holders of the same key stay synchronized exactly when they issue
    the same sequence of draw sizes - which the straight-line protocol code
    guarantees.
    """

    def __init__(self, key128: int):
        self._key = [key128 & MASK, (key128 >> 64) & MASK]
        self._bitgen = np.random.Philox(counter=[0, 0, 0, 0], key=self._key)

    def next_words(self, n: int) -> np.ndarray:
        return self._bitgen.random_raw(int(n)) if n else np.empty(0, dtype=np.uint64)

    def generator_at(self) -> np.random.Generator:
        """Independent float-capable generator anchored at the stream's first block."""
        return np.random.Generator(np.random.Philox(counter=[0, 0, 0, 0], key=self._key))


def zero_share_seeds(master_seed: int) -> list[int]:
    """The three pairwise seeds; seed i (1-based) is held by parties i and i-1."""
    return [derive_key(master_seed, "pairwise-seed", i) for i in (1, 2, 3)]


class SeedStreams:
    """All purpose-separated streams one holder (party or oracle) derives from a seed."""

    PURPOSES = ("zero-add", "zero-xor", "shared-bits")

    def __init__(self, key128: int):
        self.streams = {p: CounterStream(derive_key(key128, p)) for p in self.PURPOSES}

    def words(self, purpose: str, n: int) -> np.ndarray:
        return self.streams[purpose].next_words(n)
