"""Counter-based random number streams.

All randomness in the library flows through Philox4x64 generators keyed
by ``(seed, stream)``. Philox is counter-based, so a (seed, stream) pair
names the same sequence on every platform and the streams for different
replications are independent by construction. Monte Carlo drivers give
replication ``i`` the stream ``(seed, 1 + i)`` through
``replication_generator``; stream 0 is reserved for single-shot use such
as ``simulate``.
"""

from __future__ import annotations

import numpy as np


def philox_generator(seed: int, stream: int = 0) -> np.random.Generator:
    """Return the Generator for a (seed, stream) pair."""
    if seed < 0 or stream < 0:
        raise ValueError("seed and stream must be non-negative integers")
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def replication_generator(seed: int, replication: int) -> np.random.Generator:
    """Stream for one Monte Carlo replication: Philox key (seed, 1 + replication)."""
    return philox_generator(seed, 1 + replication)
