"""Adaptive trial allocation: CI-targeted extension of compiled studies.

A fixed trial count is the wrong resource allocation for threshold
phenomena like the zero-one law (Theorem 1): cells in the flat 0/1
tails resolve to a tight Wilson interval within tens of trials, while
cells in the transition band need thousands — and a fixed count must
be sized for the worst cell, overpaying everywhere else.  This driver
runs a compiled :class:`~repro.study.compiler.Study` in trial-block
rounds and, after each round, keeps extending only the ``(size, K,
curve)`` cells whose stopping statistic still exceeds their CI target:

* indicator metrics (per their
  :class:`~repro.study.scenario.MetricSpec`) stop when the Wilson
  half-width of the cell's estimate drops to ``ci_target``;
* value metrics stop when the standard error of the mean does.

Each round executes
:meth:`~repro.study.compiler.Study.run_extension` over the absolute
trial window ``[t, t + block)`` with the established ``(size_index,
ring_index, trial)`` SeedSequence addressing and merges the shard into
the accumulating result
(:meth:`~repro.study.result.ScenarioResult.merge`), so a converged
adaptive run is bit-for-bit identical to a one-shot run at the same
per-cell trial counts — determinism is never traded for adaptivity.
Converged cells hold ``NaN`` beyond their stopping point; estimator
accessors skip those slots, so every cell's estimate uses exactly the
trials it was allocated.

Because curves of one ``(size, K)`` column share sampled deployments
(the common-random-numbers engine), a column's worlds keep being
sampled while *any* of its cells is unconverged; converged cells are
merely no longer evaluated on them.  The per-cell accounting is still
the honest cost model for estimate production — a fixed design must
buy ``max_cell_trials`` samples for *every* cell, an adaptive one only
for the cells that need them — and skipping evaluation avoids the
per-curve connectivity/flow decisions, the dominant post-sampling
cost.

The ``indicator_band`` policy knob implements "sharpen only the
transition band": indicator cells whose running estimate sits outside
``(band_low, band_high)`` — the saturated 0/1 tails — are held to the
looser ``tail_ci_target`` instead of ``ci_target``, concentrating
trials where Theorem 1's claim actually lives.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.exceptions import ParameterError
from repro.simulation.estimators import wilson_half_width
from repro.simulation.scheduler import SchedulerPolicy, combine_fault_reports
from repro.study.compiler import ActiveMap, Study
from repro.study.result import ScenarioResult, StudyResult
from repro.study.scenario import Scenario

__all__ = [
    "AdaptivePolicy",
    "run_adaptive_study",
    "stopping_half_width",
    "mean_standard_error",
    "trial_allocation",
]

_events_mod = None


def _emit(kind: str, **fields: object) -> None:
    """Publish a progress event on the service bus, if anyone listens.

    Lazy import for the same reason as the scheduler's hook: the
    service layer imports the study layer, not the other way around.
    """
    global _events_mod
    if _events_mod is None:
        from repro.service import events as _events

        _events_mod = _events
    _events_mod.emit(kind, **fields)


def _open_cells(active: ActiveMap, plans) -> set:
    """The ``(group, size, ring, scenario, curve)`` cells still open."""
    cells = set()
    for (gi, si, ri), sel in active.items():
        for scenario, chosen in zip(plans[gi].scenarios, sel):
            for ci in chosen:
                cells.add((gi, si, ri, scenario.name, ci))
    return cells


def mean_standard_error(series: np.ndarray) -> float:
    """Standard error of the mean, ``s / sqrt(n)`` (sample std, ddof=1).

    Returns ``inf`` below two samples — a mean metric can never stop
    before its spread is measurable.
    """
    series = np.asarray(series, dtype=np.float64)
    n = series.size
    if n < 2:
        return math.inf
    return float(series.std(ddof=1)) / math.sqrt(n)


def stopping_half_width(
    series: np.ndarray, *, is_indicator: bool, z: float = 1.96
) -> float:
    """The statistic a cell's CI target is compared against.

    Indicators use the Wilson half-width of the cell's success count
    (well-behaved at the degenerate all-0/all-1 cells that dominate
    the zero-one tails); value metrics use the standard error of the
    mean.  An empty cell is infinitely unresolved.
    """
    series = np.asarray(series, dtype=np.float64)
    if series.size == 0:
        return math.inf
    if is_indicator:
        return wilson_half_width(int(series.sum()), int(series.size), z)
    return mean_standard_error(series)


@dataclasses.dataclass(frozen=True)
class AdaptivePolicy:
    """Stopping rule of one adaptive run.

    Attributes
    ----------
    ci_target:
        Default per-cell target: extension stops when the cell's
        stopping statistic (Wilson half-width for indicators, standard
        error for means) is at or below it.
    max_trials:
        Hard per-cell cap; cells still unconverged there stop anyway.
    block_trials:
        Trials added per round; defaults to each scenario's declared
        ``trials`` (the first round's size).
    ci_targets:
        Per-metric-label overrides, e.g. ``{"connectivity": 0.01}``.
    indicator_band:
        Optional ``(low, high)``: indicator cells whose running
        estimate falls outside it (the saturated tails) are held to
        ``tail_ci_target`` instead — the "sharpen only the transition
        band" mode.
    tail_ci_target:
        Target for out-of-band indicator cells (defaults to
        ``ci_target``; never tighter than it).
    z:
        Normal quantile of the interval (1.96 = 95%).
    """

    ci_target: float = 0.02
    max_trials: int = 4000
    block_trials: Optional[int] = None
    ci_targets: Union[Mapping[str, float], Tuple[Tuple[str, float], ...]] = ()
    indicator_band: Optional[Tuple[float, float]] = None
    tail_ci_target: Optional[float] = None
    z: float = 1.96

    def __post_init__(self) -> None:
        # Positive, not (0, 1): Wilson half-widths live in (0, 0.5],
        # but the standard-error rule applies to value metrics on any
        # scale (degree counts, attack exposure), where targets >= 1
        # are perfectly sensible.
        if not self.ci_target > 0.0:
            raise ParameterError(
                f"ci_target must be positive, got {self.ci_target}"
            )
        if not isinstance(self.max_trials, int) or self.max_trials < 1:
            raise ParameterError(
                f"max_trials must be a positive int, got {self.max_trials!r}"
            )
        if self.block_trials is not None and (
            not isinstance(self.block_trials, int) or self.block_trials < 1
        ):
            raise ParameterError(
                f"block_trials must be a positive int, got {self.block_trials!r}"
            )
        if isinstance(self.ci_targets, Mapping):
            object.__setattr__(
                self, "ci_targets", tuple(sorted(self.ci_targets.items()))
            )
        else:
            object.__setattr__(
                self,
                "ci_targets",
                tuple((str(k), float(v)) for k, v in self.ci_targets),
            )
        for label, target in self.ci_targets:
            if not target > 0.0:
                raise ParameterError(
                    f"ci_targets[{label!r}] must be positive, got {target}"
                )
        if self.indicator_band is not None:
            low, high = self.indicator_band
            if not 0.0 <= low < high <= 1.0:
                raise ParameterError(
                    f"indicator_band must satisfy 0 <= low < high <= 1, "
                    f"got {self.indicator_band}"
                )
            object.__setattr__(self, "indicator_band", (float(low), float(high)))
        if self.tail_ci_target is not None and not self.tail_ci_target > 0.0:
            raise ParameterError(
                f"tail_ci_target must be positive, got {self.tail_ci_target}"
            )
        if self.z <= 0:
            raise ParameterError(f"z must be positive, got {self.z}")

    def target_for(
        self, label: str, *, is_indicator: bool, estimate: Optional[float] = None
    ) -> float:
        """The CI target one cell is held to right now.

        Band membership is decided by the *running* estimate, so a
        cell that drifts into the transition band re-tightens on the
        next round — the band assignment is re-checked every round,
        never latched.
        """
        base = dict(self.ci_targets).get(label, self.ci_target)
        if (
            is_indicator
            and self.indicator_band is not None
            and estimate is not None
        ):
            low, high = self.indicator_band
            if estimate <= low or estimate >= high:
                tail = self.tail_ci_target if self.tail_ci_target is not None else base
                return max(base, tail)
        return base

    def to_dict(self) -> Dict[str, object]:
        return {
            "ci_target": self.ci_target,
            "max_trials": self.max_trials,
            "block_trials": self.block_trials,
            "ci_targets": dict(self.ci_targets),
            "indicator_band": (
                list(self.indicator_band) if self.indicator_band else None
            ),
            "tail_ci_target": self.tail_ci_target,
            "z": self.z,
        }


def _cell_converged(
    res: ScenarioResult,
    scenario: Scenario,
    si: int,
    ri: int,
    ci: int,
    policy: AdaptivePolicy,
) -> bool:
    """Whether every metric of one ``(size, K, curve)`` cell has stopped."""
    for mi, metric in enumerate(scenario.metrics):
        series = res.series_at(si, ri, ci, mi)
        if series.size >= policy.max_trials:
            continue
        half_width = stopping_half_width(
            series, is_indicator=metric.is_indicator, z=policy.z
        )
        estimate = float(series.mean()) if series.size else None
        target = policy.target_for(
            metric.label, is_indicator=metric.is_indicator, estimate=estimate
        )
        if half_width > target:
            return False
    return True


def _active_columns(
    plans, acc: Dict[str, ScenarioResult], policy: AdaptivePolicy
) -> ActiveMap:
    """Unconverged ``(size, K, curve)`` cells, keyed per schedulable column."""
    active: ActiveMap = {}
    for gi, plan in enumerate(plans):
        for si in range(plan.num_sizes):
            for ri in range(plan.num_rings):
                sel: List[Tuple[int, ...]] = []
                any_open = False
                for scenario in plan.scenarios:
                    res = acc[scenario.name]
                    open_curves = tuple(
                        ci
                        for ci in range(len(scenario.curves_at(si)))
                        if not _cell_converged(res, scenario, si, ri, ci, policy)
                    )
                    sel.append(open_curves)
                    any_open = any_open or bool(open_curves)
                if any_open:
                    active[(gi, si, ri)] = tuple(sel)
    return active


def run_adaptive_study(
    study: Study,
    policy: Optional[AdaptivePolicy] = None,
    workers: Optional[int] = None,
    scheduler: Optional[SchedulerPolicy] = None,
    **policy_kwargs: object,
) -> StudyResult:
    """Run *study* adaptively until every cell meets its CI target.

    The scenarios' declared ``trials`` is the first round (every cell
    needs a minimum sample before its half-width means anything); each
    subsequent round extends the still-open cells by ``block_trials``
    more trials, capped at ``max_trials`` per cell.  Deployment
    families extend independently — a family whose cells all converge
    stops paying for the others.  Protocol scenarios run once at their
    declared trials (their bespoke loops have no post-filter structure
    to extend cheaply) and pass through unchanged.

    *scheduler* opts every round into fault-tolerant per-unit
    supervision (see :meth:`Study.run`); per-round fault reports are
    folded into one combined ``"faults"`` provenance entry.

    Returns a :class:`StudyResult` whose provenance carries the
    policy, the per-round windows, and the final allocation summary
    (see :func:`trial_allocation`).
    """
    if policy is None:
        policy = AdaptivePolicy(**policy_kwargs)  # type: ignore[arg-type]
    elif policy_kwargs:
        raise ParameterError(
            "pass either a policy object or policy keywords, not both"
        )
    known_labels = {
        label
        for scenario in study.scenarios
        if scenario.kind == "sweep"
        for label in scenario.metric_labels()
    }
    unknown = [label for label, _ in policy.ci_targets if label not in known_labels]
    if unknown:
        raise ParameterError(
            f"ci_targets name metrics this study never measures: {unknown}; "
            f"measured metric labels: {sorted(known_labels)}"
        )

    first = study.run(workers=workers, scheduler=scheduler)
    acc: Dict[str, ScenarioResult] = {
        res.scenario.name: res for res in first.results
    }
    deployments = int(first.provenance.get("deployments", 0))  # type: ignore[arg-type]
    rounds: List[Dict[str, object]] = []
    fault_reports: List[Optional[Dict[str, object]]] = [
        first.provenance.get("faults")  # type: ignore[list-item]
    ]

    for family in study.compile():
        members = family.scenarios
        group = Study(members)
        plans = [family]  # round-invariant: the family's one group plan
        total = members[0].trials
        block = policy.block_trials or members[0].trials
        prev_open: Optional[set] = None
        while True:
            active = _active_columns(plans, acc, policy)
            open_now = _open_cells(active, plans)
            if prev_open is not None and prev_open - open_now:
                converged = sorted(prev_open - open_now)
                _emit(
                    "cell_converged",
                    count=len(converged),
                    cells=[list(c) for c in converged[:20]],
                    trials=total,
                )
            prev_open = open_now
            if not active or total >= policy.max_trials:
                break
            stop = min(total + block, policy.max_trials)
            shard = group.run_extension(
                total, stop, active=active, workers=workers, scheduler=scheduler
            )
            for member in members:
                acc[member.name] = acc[member.name].merge(shard[member.name])
            deployments += int(shard.provenance.get("deployments", 0))  # type: ignore[arg-type]
            fault_reports.append(shard.provenance.get("faults"))  # type: ignore[arg-type]
            rounds.append(
                {
                    "scenarios": [m.name for m in members],
                    "trial_window": [total, stop],
                    "columns": len(active),
                    "open_cells": int(
                        sum(len(c) for sel in active.values() for c in sel)
                    ),
                }
            )
            _emit(
                "adaptive_round",
                scenarios=[m.name for m in members],
                window=[total, stop],
                open_cells=len(open_now),
            )
            total = stop
        if prev_open:
            # Cells still open at the cap: the cap, not convergence,
            # stopped them; downstream consumers can tell the difference.
            _emit(
                "adaptive_capped",
                count=len(prev_open),
                max_trials=policy.max_trials,
            )

    result = StudyResult(
        results=tuple(acc[s.name] for s in study.scenarios),
        provenance=dict(first.provenance),
    )
    allocation = trial_allocation(result)
    provenance = dict(first.provenance)
    provenance["deployments"] = deployments
    provenance["adaptive"] = {
        "policy": policy.to_dict(),
        "rounds": rounds,
        **allocation,
    }
    combined_faults = combine_fault_reports(fault_reports)
    if combined_faults is not None:
        provenance["faults"] = combined_faults
    return StudyResult(results=result.results, provenance=provenance)


def trial_allocation(result: StudyResult) -> Dict[str, object]:
    """Per-cell trial accounting of a (possibly adaptive) study result.

    ``trials_spent`` sums each sweep ``(size, K, curve, metric)``
    cell's actual sample size; ``fixed_trial_cost`` is what a uniform
    design needs for the same per-cell precision everywhere — every
    cell at ``max_cell_trials``, the count the slowest cell required.
    ``savings_vs_fixed`` is their ratio: 1.0 for a fixed-trial run,
    and the adaptive headline otherwise.
    """
    cells = 0
    trials_spent = 0
    max_cell = 0
    min_cell: Optional[int] = None
    for res in result.results:
        scenario = res.scenario
        if scenario.kind != "sweep":
            continue
        for si in range(scenario.num_sizes):
            for ri in range(len(scenario.ring_sizes_at(si))):
                for ci in range(len(scenario.curves_at(si))):
                    for mi in range(len(scenario.metrics)):
                        n = int(res.series_at(si, ri, ci, mi).size)
                        cells += 1
                        trials_spent += n
                        max_cell = max(max_cell, n)
                        min_cell = n if min_cell is None else min(min_cell, n)
    fixed = cells * max_cell
    return {
        "cells": cells,
        "trials_spent": trials_spent,
        "max_cell_trials": max_cell,
        "min_cell_trials": int(min_cell or 0),
        "fixed_trial_cost": fixed,
        "savings_vs_fixed": round(fixed / trials_spent, 3) if trials_spent else 1.0,
    }
