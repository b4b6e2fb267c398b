"""Deterministic seed derivation and RNG construction.

Every randomized routine in this library takes an explicit seed or
``numpy.random.Generator``; nothing touches global RNG state.  Substreams
are derived from a master seed and a text label so that, e.g., the radius
draw and the sample draw of a learning run are statistically independent
streams that reproduce bit-identically across runs.

Derivation rule (fixed for reproducibility): the 64-bit substream seed is
the big-endian BLAKE2b-64 digest of ``"{master:016x}:{label}"``.  Streams
are realized with the counter-based Philox generator keyed by that seed:
its 128-bit key is ``[seed, 0]`` and its counter starts at 0, the state
``Philox(key=seed)`` sets.  The key reaches Philox through a seed sequence
that returns those two words, so no OS entropy is drawn.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

__all__ = ["seed_derive", "rng_for", "as_generator", "uniform_sphere"]

_MASK64 = (1 << 64) - 1


def seed_derive(master: int, label: str) -> int:
    """Derive a 64-bit substream seed from a master seed and a label.

    Deterministic and collision-resistant: distinct (master, label) pairs
    map to independent-looking 64-bit keys via BLAKE2b.
    """
    payload = f"{master & _MASK64:016x}:{label}".encode()
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "big")


@functools.cache
def _philox_key_type() -> type:
    """The seed sequence of the Philox key ``[key, 0]``, made on first use so the import loads no ``numpy.random``."""

    class PhiloxKey(np.random.bit_generator.ISeedSequence):
        def __init__(self, key: int):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
            if n_words != 2 or np.dtype(dtype) != np.uint64:
                raise ValueError(f"a Philox key is 2 uint64 words, not {n_words} of {dtype}")
            return np.array([self.key, 0], dtype=np.uint64)

    return PhiloxKey


def rng_for(master: int, *labels: str) -> np.random.Generator:
    """Build a Philox generator for the substream named by ``labels``.

    With no labels the master seed keys the stream directly.  The generator
    is the one ``Philox(key=seed)`` gives, built without drawing OS entropy.
    """
    seed = master & _MASK64
    for label in labels:
        seed = seed_derive(seed, label)
    return np.random.Generator(np.random.Philox(_philox_key_type()(seed)))


def as_generator(seed_or_rng: int | np.random.Generator) -> np.random.Generator:
    """Accept either a seed or a ready generator and return a generator."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return rng_for(int(seed_or_rng))


def uniform_sphere(n: int, d: int, radius: float, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` points uniformly from the radius-``radius`` sphere in R^d.

    Rotation-invariant construction: normalize Gaussian vectors.  Zero
    vectors (probability ~0) are resampled.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    out = np.empty((n, d))
    need = np.ones(n, dtype=bool)
    while need.any():
        g = rng.standard_normal((int(need.sum()), d))
        norms = np.linalg.norm(g, axis=1)
        ok = norms > 0
        idx = np.flatnonzero(need)[ok]
        out[idx] = g[ok] * (radius / norms[ok])[:, None]
        need[idx] = False
    return out
