"""Random-number-generator management.

Monte Carlo experiments in this library follow one discipline: a single
root seed fully determines every trial, regardless of how trials are
distributed over processes.  This module wraps numpy's ``SeedSequence``
spawning so that

* each trial gets an independent, high-quality stream;
* re-running trial *i* alone reproduces exactly the graph sampled for
  trial *i* in a full run;
* user code can pass ``seed=None`` (non-reproducible), an ``int``, a
  ``SeedSequence``, or an existing ``Generator`` anywhere a source of
  randomness is accepted.
"""

from __future__ import annotations

from typing import List, Optional, Union

import numpy as np

__all__ = [
    "RandomState",
    "as_generator",
    "spawn_generators",
    "spawn_seed_sequences",
    "grid_seed_sequence",
    "sample_distinct_integers",
    "STREAM_VERSION",
]

RandomState = Union[None, int, np.random.SeedSequence, np.random.Generator]


def as_generator(seed: RandomState = None) -> np.random.Generator:
    """Coerce *seed* into a ``numpy.random.Generator``.

    ``None`` produces OS-entropy seeding; an ``int`` or ``SeedSequence``
    produces a deterministic generator; a ``Generator`` is returned
    unchanged (shared, not copied — callers that need isolation should
    spawn).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)


def spawn_seed_sequences(seed: RandomState, count: int) -> List[np.random.SeedSequence]:
    """Derive *count* independent ``SeedSequence`` children from *seed*.

    When *seed* is already a ``Generator`` we spawn from its internal
    bit-generator seed sequence, so parallel fan-out from a shared
    generator remains deterministic.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if isinstance(seed, np.random.Generator):
        ss = seed.bit_generator.seed_seq  # type: ignore[attr-defined]
        if not isinstance(ss, np.random.SeedSequence):  # pragma: no cover
            ss = np.random.SeedSequence()
    elif isinstance(seed, np.random.SeedSequence):
        ss = seed
    else:
        ss = np.random.SeedSequence(seed)
    return list(ss.spawn(count))


def spawn_generators(seed: RandomState, count: int) -> List[np.random.Generator]:
    """Derive *count* independent generators from *seed*."""
    return [np.random.default_rng(s) for s in spawn_seed_sequences(seed, count)]


def trial_seed_sequence(
    root: Optional[int], trial_index: int
) -> np.random.SeedSequence:
    """Deterministic per-trial seed: ``SeedSequence(root, spawn_key=(trial,))``.

    This addressing scheme means trial *i* of experiment seeded with
    *root* can be reproduced in isolation without generating the first
    ``i - 1`` streams.
    """
    if trial_index < 0:
        raise ValueError(f"trial_index must be >= 0, got {trial_index}")
    entropy = 0 if root is None else root
    return np.random.SeedSequence(entropy, spawn_key=(trial_index,))


#: Version of the study sampling stream.  Bump it in the same change
#: as anything that alters the values a fixed scenario produces: the
#: ``(size, ring, trial)`` seed addressing below, the draw order of
#: deployment sampling, or a metric's arithmetic — the changes that
#: fail the golden digest corpus.  Stored results carry it, and the
#: result cache treats a different version as a miss, so an old-stream
#: prefix is never merged with a new-stream extension.
STREAM_VERSION = 1


def grid_seed_sequence(root: Optional[int], *key: int) -> np.random.SeedSequence:
    """Deterministic seed for a multi-index grid cell.

    Generalizes :func:`trial_seed_sequence` to higher-dimensional
    addressing: cell ``(i, j, ...)`` of a sweep rooted at *root* gets
    ``SeedSequence(root, spawn_key=(i, j, ...))``.  The study compiler
    keys deployments by ``(ring_index, trial_index)`` (size grids
    prepend the size index), so any cell can
    be reproduced in isolation and results are independent of how cells
    are distributed over workers.
    """
    if not key:
        raise ValueError("grid_seed_sequence requires at least one index")
    if any(k < 0 for k in key):
        raise ValueError(f"grid indices must be >= 0, got {key}")
    entropy = 0 if root is None else root
    return np.random.SeedSequence(entropy, spawn_key=tuple(int(k) for k in key))


def sample_distinct_integers(
    high: int, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Uniform random ``size``-subset of ``{0, ..., high-1}``, sorted.

    Vectorized replacement for per-element Floyd sampling: draw i.i.d.
    uniforms in batches and keep the first *size* distinct values in
    draw order.  By exchangeability of i.i.d. draws, the first ``m``
    distinct values of the stream are exactly a uniform ``m``-subset,
    so the sampler is unbiased for any ``size <= high``.  Expected cost
    is ``O(size)`` draws while ``size / high`` stays modest (the sparse
    regime it is used in); the batch size self-adjusts otherwise.
    """
    if size < 0:
        raise ValueError(f"size must be >= 0, got {size}")
    if high < size:
        raise ValueError(f"cannot draw {size} distinct values from range({high})")
    if size == 0:
        return np.empty(0, dtype=np.int64)
    if size == high:
        return np.arange(high, dtype=np.int64)
    drawn = np.empty(0, dtype=np.int64)
    have = 0
    while True:
        deficit = size - have
        # Small multiplicative + additive slack keeps the expected number
        # of passes at ~1 without overdrawing in the common sparse case.
        batch = rng.integers(0, high, size=deficit + deficit // 8 + 16, dtype=np.int64)
        drawn = np.concatenate([drawn, batch])
        uniq, first_pos = np.unique(drawn, return_index=True)
        if uniq.size >= size:
            keep = np.sort(first_pos)[:size]
            out = drawn[keep]
            out.sort()
            return out
        have = uniq.size
