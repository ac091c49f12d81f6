"""Headline chaos proof: faulted runs converge to the fault-free answer.

Under every injection strategy — crash, delay, drop, partial result,
broken pool — with a bounded retry budget, a supervised study run must
produce a ``ScenarioResult`` bit-identical to the fault-free one-shot
run, on one worker (the in-process executor) and on the warm pool.
This is the determinism contract the fault-tolerant scheduler is built
on: work units carry their own absolute-trial seeds, so a retried or
speculatively re-executed unit recomputes exactly the same values.

Every chaos strategy here caps injection at ``max_attempt=2`` while the
scheduler budgets ``max_retries=4``: convergence within the budget is
*guaranteed*, not merely probable, so these tests are deterministic.
The degradation test drops the cap to prove the other half of the
contract: exhausted units dead-letter into a partial (NaN-bearing)
result plus a fault report, never discarding completed shards.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.simulation.faults import STRATEGY_KINDS, ChaosSpec, FaultStrategy
from repro.simulation.scheduler import SchedulerPolicy
from repro.study.adaptive import run_adaptive_study
from repro.study.compiler import Study
from repro.study.scenario import ClassMix, MetricSpec, Scenario

WORKERS = 2


def _zero_one_scenario(trials=6):
    return Scenario(
        name="zero_one",
        num_nodes=40,
        pool_size=300,
        ring_sizes=(12, 15),
        curves=((2, 0.6), (2, 1.0)),
        trials=trials,
        seed=11,
        metrics=(MetricSpec("connectivity"),),
    )


def _chaos_policy(kind, probability=0.95, max_retries=4):
    spec = ChaosSpec(
        seed=5,
        strategies=(
            FaultStrategy(kind=kind, probability=probability, delay=0.05, max_attempt=2),
        ),
    )
    return SchedulerPolicy(max_retries=max_retries, backoff_base=0.01, chaos=spec)


@pytest.fixture(scope="module")
def baseline():
    return Study((_zero_one_scenario(),)).run(workers=WORKERS)


@pytest.mark.parametrize("kind", STRATEGY_KINDS)
@pytest.mark.parametrize("workers", [1, 2])
def test_faulted_run_is_bit_identical(kind, workers, baseline):
    faulted = Study((_zero_one_scenario(),)).run(
        workers=workers, scheduler=_chaos_policy(kind)
    )
    assert np.array_equal(
        baseline["zero_one"].values, faulted["zero_one"].values
    )
    assert not np.isnan(faulted["zero_one"].values).any()
    report = faulted.provenance["faults"]
    assert report["completed"] == report["units"]
    assert not report["dead_units"]
    # The chaos campaign actually fired: every strategy leaves its own
    # signature counter (delay completes on the first attempt, the rest
    # force retries).
    fired = (
        report["crashes"] + report["drops"] + report["corrupt"]
        + report["pool_breaks"] + report["delays"]
    )
    assert fired > 0


def _het_scenario(trials=6):
    return Scenario(
        name="het",
        num_nodes_grid=(30, 40),
        pool_size=300,
        ring_sizes=((10, 16),),
        curves=((1, 0.5), (1, 1.0)),
        trials=trials,
        seed=11,
        metrics=(MetricSpec("connectivity"),),
        classes=ClassMix(mu=(0.5, 0.5), channel_probs=((0.9, 0.6), (0.6, 0.4))),
    )


@pytest.mark.parametrize("workers", [1, 2])
def test_class_mix_scenario_converges_under_chaos(workers):
    # The heterogeneous axis adds draws (labels, per-class rings) to
    # every work unit; retried units must still recompute identically.
    clean = Study((_het_scenario(),)).run(workers=WORKERS)
    faulted = Study((_het_scenario(),)).run(
        workers=workers, scheduler=_chaos_policy("crash")
    )
    assert np.array_equal(clean["het"].values, faulted["het"].values)
    report = faulted.provenance["faults"]
    assert report["crashes"] > 0
    assert report["completed"] == report["units"]


@pytest.mark.parametrize("workers", [1, 2])
def test_adaptive_study_converges_under_chaos(workers):
    clean = run_adaptive_study(
        Study((_zero_one_scenario(),)),
        max_trials=24,
        ci_target=0.15,
        workers=WORKERS,
    )
    spec = ChaosSpec(
        seed=5,
        strategies=(FaultStrategy(kind="crash", probability=0.7, max_attempt=2),),
    )
    faulted = run_adaptive_study(
        Study((_zero_one_scenario(),)),
        max_trials=24,
        ci_target=0.15,
        workers=workers,
        scheduler=SchedulerPolicy(max_retries=4, backoff_base=0.01, chaos=spec),
    )
    # NaN-aware equality: adaptive results hold NaN beyond each cell's
    # stopping point, and both runs must stop at identical points.
    assert np.array_equal(
        clean["zero_one"].values, faulted["zero_one"].values, equal_nan=True
    )
    report = faulted.provenance["faults"]
    assert report["crashes"] > 0
    assert report["completed"] == report["units"]


def test_exhausted_retries_degrade_to_partial_result(baseline):
    # Unbounded injection (no max_attempt) with drop probability 0.7 and
    # chaos seed 3: unit 1's coin flips fail every attempt in the budget
    # while unit 0 recovers — deterministic, seeded, worker-independent.
    spec = ChaosSpec(
        seed=3, strategies=(FaultStrategy(kind="drop", probability=0.7),)
    )
    faulted = Study((_zero_one_scenario(),)).run(
        workers=WORKERS,
        scheduler=SchedulerPolicy(max_retries=2, backoff_base=0.01, chaos=spec),
    )
    report = faulted.provenance["faults"]
    assert report["dead_units"], "expected at least one dead-lettered unit"
    assert report["completed"] >= 1, "expected at least one surviving unit"
    values = faulted["zero_one"].values
    base = baseline["zero_one"].values
    evaluated = ~np.isnan(values)
    assert evaluated.any() and not evaluated.all()
    # Completed shards are kept and bit-identical; dead units degrade to
    # NaN (unevaluated) cells rather than failing the run.
    assert np.array_equal(values[evaluated], base[evaluated])
    assert report["drops"] > 0


def test_fault_report_lands_in_provenance_with_policy():
    policy = _chaos_policy("crash")
    result = Study((_zero_one_scenario(trials=4),)).run(
        workers=WORKERS, scheduler=policy
    )
    assert result.provenance["scheduler"] == policy.to_dict()
    report = result.provenance["faults"]
    assert report["units"] > 0 and report["completed"] == report["units"]
