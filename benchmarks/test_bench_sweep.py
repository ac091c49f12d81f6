"""Shared-deployment sweep micro-bench: one ``K`` column of Figure 1.

One sampled deployment per ``(K, trial)`` serves all six ``(q, p)``
curves (nested thinning + vectorized min-label connectivity); this
times one such column end to end through the study compiler.
"""

from __future__ import annotations

from benchmarks.conftest import run_once
from repro.experiments.figure1 import FIGURE1_CURVES, build_figure1_study
from repro.simulation.engine import trials_from_env


def test_bench_sweep_single_column(benchmark):
    """Micro-bench: one K column (all trials, all six curves)."""
    study = build_figure1_study(
        trials=trials_from_env(10), ring_sizes=(60,), curves=FIGURE1_CURVES, seed=1
    )
    result = run_once(benchmark, study.run, workers=1)
    assert result["figure1"].values.shape[-2:] == (6, 1)
