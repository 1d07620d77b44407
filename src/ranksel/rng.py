"""Keyed random streams on top of the counter-based Philox generator.

Every random quantity in the package is a pure function of the master seed
and an integer key path, so results are bit-identical across runs, process
counts, and evaluation orders. Streams are derived two ways:

* ``keyed_stream(seed, *key)`` mixes the key path through a SeedSequence;
  used for data generation, splits, and tie-breaking (cold paths).
* ``multiplier_matrix(seed, B, n)`` feeds a 64-bit subseed straight into a
  Philox key and draws the whole B x n Gaussian multiplier block in one
  call; entry (b, k) is the (b*n + k)-th normal of that counter-based
  stream, hence a pure function of (seed, b, k) (hot path).

Models enter a key path by name, never by position: ``model_key`` digests a
model id's UTF-8 bytes, so a pair's tie coins do not move when the panel's
columns are reordered or another candidate drops out.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def _key_ints(seed: int, key: tuple[int, ...]) -> list[int]:
    return [int(seed) & _MASK64] + [int(k) & _MASK64 for k in key]


def keyed_stream(seed: int, *key: int) -> np.random.Generator:
    """Independent Generator fully determined by (seed, key...)."""
    ss = np.random.SeedSequence(_key_ints(seed, key))
    return np.random.Generator(np.random.Philox(ss))


def subseed(seed: int, *key: int) -> int:
    """Fold (seed, key...) into a single well-mixed 64-bit seed."""
    ss = np.random.SeedSequence(_key_ints(seed, key))
    return int(ss.generate_state(1, np.uint64)[0])


def model_key(model_id: str) -> int:
    """Stable 64-bit key of a model id (a digest, not the salted ``hash``)."""
    # Imported on first use: hashlib loads OpenSSL (about 10 ms at start-up),
    # and only panels with tied losses ever need a model key.
    import hashlib

    digest = hashlib.blake2b(str(model_id).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def multiplier_matrix(seed: int, b_draws: int, n: int) -> np.ndarray:
    """B x n standard-normal multipliers from one Philox stream."""
    key = np.array([int(seed) & _MASK64, 0], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    return gen.standard_normal((b_draws, n))


class TieStreams:
    """Per-pair tie-breaking streams derived from one seed.

    ``pair(id_m, id_j)`` returns a fresh Generator keyed by (seed, tag,
    model_key(id_m), model_key(id_j)), so the coin sequence consumed while
    comparing models m and j depends neither on which other pairs were
    evaluated, in what order, nor on the models' column positions.
    """

    def __init__(self, seed: int, tag: int = 0):
        self.seed = int(seed)
        self.tag = int(tag)

    def pair(self, id_m: str, id_j: str) -> np.random.Generator:
        return keyed_stream(self.seed, self.tag, model_key(id_m), model_key(id_j))
