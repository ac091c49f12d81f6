"""Monte Carlo execution engine.

One discipline everywhere: a trial is a picklable callable
``trial(rng) -> outcome`` and trial *i* of a run rooted at seed ``s``
always receives the generator derived from
``SeedSequence(s, spawn_key=(i,))`` — regardless of worker count or
scheduling.  Serial and process-parallel execution therefore produce
bit-identical outcome sequences, which the test suite asserts.
"""

from __future__ import annotations

import functools
import os
from typing import Callable, List, Optional, Sequence, TypeVar

import numpy as np

from repro.exceptions import SimulationError
from repro.simulation.pool import submit_batches
from repro.utils.rng import trial_seed_sequence

__all__ = ["run_trials", "run_batches", "default_workers", "trials_from_env"]

T = TypeVar("T")
TrialFn = Callable[[np.random.Generator], T]


def _positive_env_int(name: str) -> Optional[int]:
    """The positive int in env var *name*, or ``None`` when unset/empty."""
    env = os.environ.get(name)
    if not env:
        return None
    try:
        value = int(env)
    except ValueError:
        raise SimulationError(f"{name} must be an integer, got {env!r}") from None
    if value < 1:
        raise SimulationError(f"{name} must be >= 1, got {value}")
    return value


def default_workers() -> int:
    """Worker count: ``REPRO_WORKERS`` env var, else ``min(cpu, 8)``.

    Eight processes saturate the Figure 1 workload on typical hosts
    while keeping fork/IPC overhead negligible for smaller runs.
    """
    value = _positive_env_int("REPRO_WORKERS")
    if value is not None:
        return value
    return max(1, min(os.cpu_count() or 1, 8))


def _resolve_workers(workers: Optional[int]) -> int:
    """*workers*, or :func:`default_workers` for ``None``; must be >= 1."""
    workers = default_workers() if workers is None else int(workers)
    if workers < 1:
        raise SimulationError(f"workers must be >= 1, got {workers}")
    return workers


def trials_from_env(default: int, *, full: Optional[int] = None) -> int:
    """Trial count for benchmarks: env-overridable quick defaults.

    ``REPRO_TRIALS`` overrides everything; ``REPRO_FULL=1`` selects the
    paper-fidelity count *full* (e.g. 500 for Figure 1) when provided.
    """
    value = _positive_env_int("REPRO_TRIALS")
    if value is not None:
        return value
    if full is not None and os.environ.get("REPRO_FULL") == "1":
        return full
    return default


def _run_indices(trial: TrialFn, root: Optional[int], indices: Sequence[int]) -> List:
    out = []
    for index in indices:
        rng = np.random.default_rng(trial_seed_sequence(root, index))
        out.append(trial(rng))
    return out


def run_trials(
    trial: TrialFn,
    num_trials: int,
    seed: Optional[int] = None,
    workers: Optional[int] = None,
) -> List[T]:
    """Run *num_trials* independent trials; return outcomes in trial order.

    Parameters
    ----------
    trial:
        Picklable callable receiving a dedicated ``numpy`` generator.
        (Module-level functions and ``functools.partial`` over picklable
        arguments qualify; lambdas only work with ``workers=1``.)
    num_trials:
        Number of independent repetitions.
    seed:
        Root seed; ``None`` fixes the root entropy to 0 so that runs
        remain reproducible by default (pass a varying seed explicitly
        for independent replications).
    workers:
        Process count; ``1`` runs inline (no pool), ``None`` uses
        :func:`default_workers`.
    """
    if num_trials < 1:
        raise SimulationError(f"num_trials must be >= 1, got {num_trials}")
    workers = _resolve_workers(workers)
    # Interleaved index blocks keep chunk runtimes balanced even when
    # difficulty drifts with the trial index.
    chunks = [range(w, num_trials, workers) for w in range(min(workers, num_trials))]
    results: List = [None] * num_trials
    outcomes = run_batches(functools.partial(_run_indices, trial, seed), chunks, workers)
    for chunk, chunk_outcomes in zip(chunks, outcomes):
        for index, outcome in zip(chunk, chunk_outcomes):
            results[index] = outcome
    return results


def run_batches(
    fn: Callable[[T], object],
    batches: Sequence[T],
    workers: Optional[int] = None,
) -> List:
    """Run ``fn(batch)`` for every work unit; return results in order.

    The coarse-grained sibling of :func:`run_trials`: each batch is a
    self-contained column of work (e.g. one trial block of a study
    column), so process fan-out and IPC are amortized over
    the whole column instead of paid per trial.  *fn* must be picklable
    for ``workers > 1``; batches carry their own deterministic seeds, so
    results do not depend on worker count.
    """
    batches = list(batches)
    if not batches:
        return []
    workers = min(_resolve_workers(workers), len(batches))
    if workers == 1:
        return [fn(batch) for batch in batches]
    return submit_batches(fn, batches, workers)
