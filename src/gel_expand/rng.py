"""Counter-based random number streams.

All randomness in the library flows through Philox4x64 generators keyed
by ``(seed, stream)``. Philox is counter-based, so a (seed, stream) pair
names the same sequence on every platform and the streams for different
replications are independent by construction. Monte Carlo drivers give
replication ``i`` the stream ``(seed, 1 + i)``: ``replication_streams``
walks a range of replications by re-keying one generator in place,
``replication_generator`` builds one replication's generator on its own.
Stream 0 is reserved for single-shot use such as ``simulate``.
"""

from __future__ import annotations

from typing import Iterator

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


def replication_streams(seed: int, start: int, stop: int) -> Iterator[np.random.Generator]:
    """The streams of replications start, ..., stop - 1, in order.

    One Generator is yielded again and again, its Philox state set in
    place to key (seed, 1 + i), counter 0 and an empty buffer: the state
    of a fresh ``replication_generator(seed, i)``, so the draws are the
    same, without building a bit generator per replication. Each yielded
    generator is valid until the next one is drawn.
    """
    gen = philox_generator(seed, 1 + start)
    bit_generator = gen.bit_generator
    fresh = bit_generator.state
    # as Python lists the state setter reads them in half the time of uint64 arrays
    fresh["state"] = {name: words.tolist() for name, words in fresh["state"].items()}
    fresh["buffer"] = fresh["buffer"].tolist()
    key = fresh["state"]["key"]
    for i in range(start, stop):
        key[1] = 1 + i
        bit_generator.state = fresh
        yield gen
