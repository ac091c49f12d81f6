"""Declarative Scenario/Study experiment layer.

Every experiment in this repository is, at bottom, a *post-filter* over
one sampled deployment family: rings are drawn, key-overlap counts are
computed, and then each ``(q, p)`` curve and each metric (connectivity,
k-connectivity, min-degree law, degree counts, attack exposure, ...) is
a deterministic function of those shared candidate-pair arrays plus a
few extra channel draws.  This package makes that structure the API:

* :class:`~repro.study.scenario.Scenario` — a frozen, JSON-round-
  trippable description of one experiment: node count (or a
  ``num_nodes_grid`` size axis for growth sweeps, with per-size pool,
  ``K`` grid, and curves), key scheme parameters, channel model, a
  grid over ``K`` and ``(q, p)`` curves, a metric set, trial count,
  and seed.
* :class:`~repro.study.compiler.Study` — one or more scenarios compiled
  into a shared-deployment sweep plan.  Scenarios that share a
  deployment family (same ``n``, pool, ``K`` grid, trials, and seed)
  are grouped so rings, overlap counts, and channel variables are
  sampled *once* per ``(K, trial)`` cell and every requested metric is
  derived from the same candidate-pair arrays — common random numbers
  across every curve and metric in the group.
* :class:`~repro.study.result.StudyResult` — typed results holding the
  full per-trial value arrays, with per-metric Bernoulli estimates,
  means, agreement rates, and provenance.

Execution is deterministic: deployment ``(ring_index, trial)`` of a
group seeded with ``s`` always uses ``SeedSequence(s, spawn_key=
(ring_index, trial))`` — size-grid groups prepend the size index,
``spawn_key=(size_index, ring_index, trial)`` — so results are
bit-identical for any worker count and any trial-block layout.  Work
runs on the warm worker pool
(:mod:`repro.simulation.pool`).

New workloads need zero new Python: write a scenario (or list of
scenarios) as JSON and run ``repro study FILE.json``.

Results are *mergeable*: a :class:`ScenarioResult` may cover a window
of the trial axis (``trial_offset``), :meth:`Study.run_extension`
emits those windows from arbitrary starting trial indices, and
:mod:`repro.study.adaptive` drives extension rounds until every
``(size, K, curve)`` cell meets a CI target — ``repro study FILE.json
--target-ci 0.02`` spends trials where the estimates are still loose
instead of everywhere.
"""

from repro.study.adaptive import (
    AdaptivePolicy,
    run_adaptive_study,
    trial_allocation,
)
from repro.study.compiler import Study, run_scenario
from repro.study.result import ScenarioResult, StudyResult, render_study_result
from repro.study.scenario import (
    CHANNEL_KINDS,
    METRIC_KINDS,
    ClassMix,
    MetricSpec,
    Scenario,
)

__all__ = [
    "AdaptivePolicy",
    "CHANNEL_KINDS",
    "METRIC_KINDS",
    "ClassMix",
    "MetricSpec",
    "Scenario",
    "Study",
    "run_adaptive_study",
    "run_scenario",
    "trial_allocation",
    "ScenarioResult",
    "StudyResult",
    "render_study_result",
]
