"""Labeled substreams of a single master seed.

Every random quantity in the package draws from a generator obtained via
``rng_for(master_seed, *labels)``.  The labels (component name, replica
index, ...) are hashed into extra SeedSequence entropy, so stream r never
depends on whether streams 0..r-1 were generated first.  This is what makes
replica results independent of chunking and of the order of calls.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK63 = (1 << 63) - 1


def seed_sequence(master_seed: int, *labels: object) -> np.random.SeedSequence:
    """SeedSequence for (master_seed, labels); depends on label order, not call order."""
    tag = "\x1f".join(str(lab) for lab in labels).encode()
    digest = hashlib.blake2b(tag, digest_size=16).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    return np.random.SeedSequence([int(master_seed) & _MASK63, *words])


def rng_for(master_seed: int, *labels: object) -> np.random.Generator:
    """Generator on the substream identified by (master_seed, labels)."""
    return np.random.default_rng(seed_sequence(master_seed, *labels))


def derive_seed(master_seed: int, *labels: object) -> int:
    """A 63-bit child seed for (master_seed, labels), usable as a new master."""
    return int(seed_sequence(master_seed, *labels).generate_state(1, np.uint64)[0]) & _MASK63
