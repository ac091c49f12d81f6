"""The :class:`Study` compiler: scenarios → shared-deployment sweep plan.

Compilation groups sweep scenarios by deployment family — equal
``(num_nodes, pool_size, ring_sizes, trials, seed)``, with sized
scenarios keyed on their canonical per-size expansion — and emits one
plan per group.  Executing a plan samples each ``(size, K, trial)``
world exactly once (rings, overlap counts, channel variables) and
evaluates *every* curve and metric of *every* member scenario on it:
common random numbers across arbitrary metric sets, both channel
models, capture attacks, and whole growth sweeps in ``n``.

Work units are ``(group, size, K-column, trial-block)`` tuples.
Columns split into contiguous trial blocks whenever there are fewer
``(size, K)`` columns than workers (:func:`split_trial_blocks`), so a
single-``K`` study still saturates the pool.  Because each deployment
seed is addressed by ``(size_index, ring_index, trial)`` for sized
groups and ``(ring_index, trial)`` for plain ones, and per-trial values
are *assigned* (never reduced across blocks), results are bit-identical
for any worker count and any block layout.

One executor runs every study: :meth:`Study.run` is its full-window
case, trials ``[0, trials)`` of each group, and
:meth:`Study.run_extension` runs it over an arbitrary window — the
incremental rounds of adaptive trial allocation
(:mod:`repro.study.adaptive`) and the shard unit of multi-host
execution.  Extension shards merge into accumulated results via
:meth:`~repro.study.result.ScenarioResult.merge`, bit-for-bit equal to
a one-shot run at the total trial count.

Protocol scenarios run through the ordinary per-trial engine with the
same determinism contract.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import ParameterError
from repro.kernels import resolve_backend_name
from repro.simulation.engine import default_workers, run_batches, run_trials
from repro.simulation.scheduler import (
    SchedulerPolicy,
    resolve_scheduler_policy,
    run_units,
)
from repro.study.metrics import (
    DeploymentEvaluator,
    evaluate_scenario,
    sample_deployment,
)
from repro.study.result import ScenarioResult, StudyResult
from repro.study.scenario import ClassMix, Scenario
from repro.utils.rng import grid_seed_sequence

__all__ = ["Study", "GroupPlan", "ActiveMap", "run_scenario", "split_trial_blocks"]


def split_trial_blocks(
    num_columns: int,
    trials: int,
    workers: int,
    total_columns: Optional[int] = None,
    start: int = 0,
) -> List[Tuple[int, int, int]]:
    """Work units ``(column, start, stop)`` for a columns-by-trials grid.

    Whole columns are the natural work unit (fan-out and IPC amortize
    over all their trials), but when there are fewer columns than
    workers each column splits into ``ceil(workers / columns)``
    contiguous trial blocks so the pool stays busy.  A "column" is one
    ``(size, K)`` cell of a group; ``total_columns`` overrides the
    divisor when several groups share one pool.

    ``start`` restricts the blocks to the trial window ``[start,
    trials)`` — the incremental unit of adaptive trial extension.  An
    empty window (``start >= trials``) yields no blocks, and a window
    smaller than the would-be block count degrades to single-trial
    blocks.  Block boundaries are a pure function of ``(num_columns,
    trials, workers, start)``; they never affect results, only
    parallelism, because every ``(column, trial)`` cell is seeded
    independently by its absolute trial index.
    """
    if start < 0:
        raise ParameterError(f"start must be >= 0, got {start}")
    if start >= trials:
        return []
    divisor = total_columns if total_columns is not None else num_columns
    splits = min(trials - start, max(1, -(-workers // max(divisor, 1))))
    bounds = np.linspace(start, trials, splits + 1, dtype=np.int64)
    return [
        (column, int(bounds[b]), int(bounds[b + 1]))
        for column in range(num_columns)
        for b in range(splits)
    ]


@dataclasses.dataclass(frozen=True)
class GroupPlan:
    """One deployment family and every scenario riding it.

    Internally every plan is a size grid: plain scenarios compile to a
    one-entry size axis.  ``sized`` records which seed addressing the
    family uses — ``(size_index, ring_index, trial)`` for declared size
    grids, the established ``(ring_index, trial)`` otherwise — so plain
    scenarios keep reproducing their historical streams bit-for-bit.
    """

    sizes: Tuple[int, ...]  # num_nodes per size-axis entry
    pool_sizes: Tuple[int, ...]  # pool size per size-axis entry
    # Per-size K grids, equal lengths; entries are ints, or per-class
    # int tuples when the family carries a class mix.
    ring_grid: Tuple[Tuple, ...]
    trials: int
    seed: int
    sized: bool
    q_mins: Tuple[int, ...]  # per-size min q over member curves
    needs_onoff: bool
    needs_disk: bool
    needs_capture: bool
    scenarios: Tuple[Scenario, ...]
    # Heterogeneous class mix shared by every member scenario (part of
    # the deployment key, so it is uniform within a group), or None.
    class_mix: Optional[ClassMix] = None

    @property
    def num_sizes(self) -> int:
        return len(self.sizes)

    @property
    def num_rings(self) -> int:
        """Ring-axis length (uniform across sizes by scenario validation)."""
        return len(self.ring_grid[0])

    @property
    def num_nodes(self) -> int:
        """Node count of a plain (single-size) plan."""
        return self.sizes[0]

    @property
    def pool_size(self) -> int:
        return self.pool_sizes[0]

    @property
    def ring_sizes(self) -> Tuple[int, ...]:
        return self.ring_grid[0]

    @property
    def q_min(self) -> int:
        return min(self.q_mins)

    @property
    def num_columns(self) -> int:
        """Value columns per deployment (scenario x curve x metric)."""
        return sum(s.num_curves * len(s.metrics) for s in self.scenarios)

    def column_offsets(self) -> List[int]:
        """Starting column of each member scenario."""
        offsets, col = [], 0
        for s in self.scenarios:
            offsets.append(col)
            col += s.num_curves * len(s.metrics)
        return offsets


def _plan_group(scenarios: Sequence[Scenario]) -> GroupPlan:
    head = scenarios[0]
    num_sizes = head.num_sizes
    return GroupPlan(
        sizes=head.sizes,
        pool_sizes=tuple(head.pool_size_at(si) for si in range(num_sizes)),
        ring_grid=tuple(head.ring_sizes_at(si) for si in range(num_sizes)),
        trials=head.trials,
        seed=head.seed,
        sized=head.sized,
        q_mins=tuple(
            min(q for s in scenarios for q, _ in s.curves_at(si))
            for si in range(num_sizes)
        ),
        needs_onoff=any(s.channel == "onoff" for s in scenarios),
        needs_disk=any(s.channel == "disk" for s in scenarios),
        needs_capture=any(s.needs_capture for s in scenarios),
        scenarios=tuple(scenarios),
        class_mix=head.classes,
    )


#: Per-column curve activity: ``(group, size, ring) -> `` one tuple of
#: active curve indices per member scenario (in plan order).  ``None``
#: means every curve of every scenario.
ActiveMap = Dict[Tuple[int, int, int], Tuple[Tuple[int, ...], ...]]


def _group_block(
    plans: Tuple[GroupPlan, ...],
    active: Optional[ActiveMap],
    block: Tuple[int, int, int, int, int],
) -> np.ndarray:
    """Trials ``[start, stop)`` of one (group, size, K-column); all columns.

    ``trial`` indices are absolute — the deployment seed is always
    ``(size_index, ring_index, trial)`` (or ``(ring_index, trial)`` for
    plain groups) no matter which window the block belongs to, so an
    extension round samples exactly the worlds a one-shot run at the
    larger trial count would have.  With an *active* map, only the
    listed curves of each scenario are evaluated; the other cells hold
    ``NaN``.  Skipping cells never changes evaluated values: the
    deployment is sampled identically (one rng draw order, fixed by the
    plan's channel/capture needs and ``q_min``), and the monotone
    lattice deduction is exact, so each cell's value is independent of
    which other cells were computed.
    """
    group_index, size_index, ring_index, start, stop = block
    plan = plans[group_index]
    ring = plan.ring_grid[size_index][ring_index]
    out = np.empty((stop - start, plan.num_columns), dtype=np.float64)
    curve_sel = None if active is None else active[(group_index, size_index, ring_index)]
    for row, trial in enumerate(range(start, stop)):
        if plan.sized:
            seed_seq = grid_seed_sequence(plan.seed, size_index, ring_index, trial)
        else:
            seed_seq = grid_seed_sequence(plan.seed, ring_index, trial)
        rng = np.random.default_rng(seed_seq)
        dep = sample_deployment(
            plan.sizes[size_index],
            plan.pool_sizes[size_index],
            ring,
            plan.q_mins[size_index],
            rng,
            needs_onoff=plan.needs_onoff,
            needs_disk=plan.needs_disk,
            needs_capture=plan.needs_capture,
            class_mix=plan.class_mix,
        )
        evaluator = DeploymentEvaluator(dep)
        ledgers: Dict = {}  # shared deduction state across member scenarios
        col = 0
        for sc_index, scenario in enumerate(plan.scenarios):
            curves = scenario.curves_at(size_index)
            width = len(curves) * len(scenario.metrics)
            if curve_sel is None:
                values = evaluate_scenario(evaluator, scenario, ledgers, curves=curves)
            else:
                chosen = curve_sel[sc_index]
                values = np.full((len(curves), len(scenario.metrics)), np.nan)
                if chosen:
                    values[list(chosen), :] = evaluate_scenario(
                        evaluator,
                        scenario,
                        ledgers,
                        curves=tuple(curves[ci] for ci in chosen),
                    )
            out[row, col : col + width] = values.reshape(-1)
            col += width
    return out


def _slice_scenario_results(
    plans: Tuple[GroupPlan, ...],
    tensors: Sequence[np.ndarray],
    windows: Sequence[Tuple[int, int]],
) -> Dict[str, ScenarioResult]:
    """Slice each scenario's columns out of its group tensor.

    ``windows[g]`` is the trial window of group ``g``'s tensor.  Only
    a window other than ``[0, trials)`` re-embeds the scenario with
    the window's trial count.
    """
    by_name: Dict[str, ScenarioResult] = {}
    for plan, tensor, (start, stop) in zip(plans, tensors, windows):
        for scenario, offset in zip(plan.scenarios, plan.column_offsets()):
            width = scenario.num_curves * len(scenario.metrics)
            values = tensor[:, :, :, offset : offset + width].reshape(
                plan.num_sizes,
                plan.num_rings,
                stop - start,
                scenario.num_curves,
                len(scenario.metrics),
            )
            if not scenario.sized:
                values = values[0]
            full = (start, stop) == (0, scenario.trials)
            by_name[scenario.name] = ScenarioResult(
                scenario=scenario if full else scenario.with_trials(stop - start),
                values=np.ascontiguousarray(values),
                metric_labels=scenario.metric_labels(),
                trial_offset=start,
            )
    return by_name


def _execute(
    plans: Tuple[GroupPlan, ...],
    windows: Sequence[Tuple[int, int]],
    active: Optional[ActiveMap],
    workers: int,
    scheduler: Optional[SchedulerPolicy],
) -> Tuple[Dict[str, ScenarioResult], Dict[str, object]]:
    """Run trials ``windows[g]`` of every scheduled column of group ``g``.

    The one executor behind :meth:`Study.run` and
    :meth:`Study.run_extension`; returns the per-scenario results and
    the shared provenance.  Tensors start as ``NaN``, so skipped
    columns and dead-lettered units leave unevaluated cells.
    """
    scheduled = [
        (gi, si, ri)
        for gi, plan in enumerate(plans)
        for si in range(plan.num_sizes)
        for ri in range(plan.num_rings)
    ]
    if active is not None:
        stray = sorted(set(active).difference(scheduled), key=repr)
        if stray:
            raise ParameterError(f"active keys {stray} name no column of the study")
        scheduled = [key for key in scheduled if any(active.get(key, ()))]
        for gi, si, ri in scheduled:
            sel, plan = active[(gi, si, ri)], plans[gi]
            if len(sel) != len(plan.scenarios):
                raise ParameterError(
                    f"active[{(gi, si, ri)}] must list curve indices for all "
                    f"{len(plan.scenarios)} member scenarios, got {len(sel)}"
                )
            for scenario, chosen in zip(plan.scenarios, sel):
                bad = [c for c in chosen if c not in range(len(scenario.curves_at(si)))]
                if bad:
                    raise ParameterError(
                        f"active[{(gi, si, ri)}] curve indices {bad} out of "
                        f"range for scenario {scenario.name!r}"
                    )

    blocks: List[Tuple[int, int, int, int, int]] = [
        (gi, si, ri, start, stop)
        for gi, si, ri in scheduled
        for _, start, stop in split_trial_blocks(
            1, windows[gi][1], workers, max(len(scheduled), 1), start=windows[gi][0]
        )
    ]
    block_fn = functools.partial(_group_block, plans, active)
    policy = resolve_scheduler_policy(scheduler)
    if policy is None:
        block_values = run_batches(block_fn, blocks, workers)
        report = None
    else:
        block_values, report = run_units(
            block_fn, blocks, workers=workers, policy=policy
        )

    tensors = [
        np.full((p.num_sizes, p.num_rings, stop - start, p.num_columns), np.nan)
        for p, (start, stop) in zip(plans, windows)
    ]
    for (gi, si, ri, start, stop), values in zip(blocks, block_values):
        if values is not None:  # a dead-lettered unit's cells stay NaN
            base = windows[gi][0]
            tensors[gi][si, ri, start - base : stop - base, :] = values

    provenance: Dict[str, object] = {
        "engine": "study/v1",
        "workers": workers,
        "kernel_backends": [resolve_backend_name()] if plans else [],
        "units": len(blocks),
        "deployments": sum(stop - start for *_, start, stop in blocks),
    }
    if policy is not None and report is not None:
        provenance["scheduler"] = policy.to_dict()
        # The window stamp qualifies per-round positional unit
        # indices when reports from several rounds/shards are folded
        # (see combine_fault_reports).
        faults = report.to_dict()
        faults["window"] = [
            min((start for start, _ in windows), default=0),
            max((stop for _, stop in windows), default=0),
        ]
        provenance["faults"] = faults
    return _slice_scenario_results(plans, tensors, windows), provenance


def _run_protocol(scenario: Scenario, workers: Optional[int]) -> ScenarioResult:
    from repro.study.protocols import get_protocol

    spec = get_protocol(scenario.protocol)
    trial_fn = spec.build(scenario)
    outcomes = run_trials(trial_fn, scenario.trials, seed=scenario.seed, workers=workers)
    values = np.asarray(outcomes, dtype=np.float64).reshape(
        1, scenario.trials, 1, len(spec.value_names)
    )
    return ScenarioResult(
        scenario=scenario, values=values, metric_labels=tuple(spec.value_names)
    )


@dataclasses.dataclass(frozen=True)
class Study:
    """One or more scenarios compiled into a shared-deployment plan."""

    scenarios: Tuple[Scenario, ...]

    def __post_init__(self) -> None:
        scenarios = tuple(
            s if isinstance(s, Scenario) else Scenario.from_dict(s)
            for s in self.scenarios
        )
        object.__setattr__(self, "scenarios", scenarios)
        if not scenarios:
            raise ParameterError("a study needs at least one scenario")
        names = [s.name for s in scenarios]
        if len(set(names)) != len(names):
            raise ParameterError(f"duplicate scenario names in study: {names}")

    # -- compilation ---------------------------------------------------

    def compile(self) -> List[GroupPlan]:
        """Group sweep scenarios by deployment family (order-preserving)."""
        groups: Dict[Tuple, List[Scenario]] = {}
        for scenario in self.scenarios:
            if scenario.kind != "sweep":
                continue
            groups.setdefault(scenario.deployment_key(), []).append(scenario)
        return [_plan_group(members) for members in groups.values()]

    # -- execution -----------------------------------------------------

    def run(
        self,
        workers: Optional[int] = None,
        scheduler: Optional[SchedulerPolicy] = None,
    ) -> StudyResult:
        """Run every scenario; *scheduler* opts into per-unit supervision.

        With a :class:`~repro.simulation.scheduler.SchedulerPolicy`
        (explicit, or implied by ``REPRO_CHAOS``), work units run under
        the fault-tolerant supervisor: failed units retry with backoff,
        stragglers may be speculatively re-executed, and units dead
        after exhausting retries degrade to ``NaN`` cells plus a
        ``"faults"`` provenance entry instead of failing the run.
        Determinism makes the supervised result bit-identical to the
        plain path whenever every unit completes.  Protocol scenarios
        run through the ordinary per-trial engine either way.
        """
        effective = default_workers() if workers is None else max(1, int(workers))
        plans = tuple(self.compile())
        by_name, provenance = _execute(
            plans, [(0, p.trials) for p in plans], None, effective, scheduler
        )
        for scenario in self.scenarios:
            if scenario.kind == "protocol":
                by_name[scenario.name] = _run_protocol(scenario, effective)
        provenance["groups"] = [self._group_provenance(plan) for plan in plans]
        return StudyResult(
            results=tuple(by_name[s.name] for s in self.scenarios),
            provenance=provenance,
        )

    def run_extension(
        self,
        trial_start: int,
        trial_stop: int,
        active: Optional[ActiveMap] = None,
        workers: Optional[int] = None,
        scheduler: Optional[SchedulerPolicy] = None,
    ) -> StudyResult:
        """Run only trials ``[trial_start, trial_stop)`` of every group.

        The incremental work-unit emitter behind adaptive allocation
        and sharded execution: blocks carry *absolute* trial indices
        into the established ``(size_index, ring_index, trial)``
        SeedSequence addressing, so extending a result from ``t`` to
        ``t'`` trials and merging
        (:meth:`~repro.study.result.ScenarioResult.merge`) is
        bit-for-bit identical to a one-shot run at ``t'`` trials.

        *active* optionally restricts work per ``(group, size,
        K-column)``: a missing key (or all-empty curve tuples) skips
        the column's deployments entirely, and listed-but-partial
        curve tuples evaluate only those curves (the rest of the
        column's cells hold ``NaN``).  A key naming no column of the
        compiled plan raises :class:`ParameterError`.  The returned
        shard's scenarios
        carry ``trials == trial_stop - trial_start`` and its results
        ``trial_offset == trial_start``.
        """
        for scenario in self.scenarios:
            if scenario.kind == "protocol":
                raise ParameterError(
                    f"trial extension supports sweep scenarios only; "
                    f"{scenario.name!r} is a protocol scenario"
                )
        if trial_start < 0:
            raise ParameterError(f"trial_start must be >= 0, got {trial_start}")
        if trial_stop <= trial_start:
            raise ParameterError(
                f"empty extension window [{trial_start}, {trial_stop}); "
                "trial_stop must exceed trial_start"
            )
        effective = default_workers() if workers is None else max(1, int(workers))
        plans = tuple(self.compile())
        windows = [(trial_start, trial_stop)] * len(plans)
        by_name, provenance = _execute(plans, windows, active, effective, scheduler)
        provenance["trial_window"] = [trial_start, trial_stop]
        return StudyResult(
            results=tuple(by_name[s.name] for s in self.scenarios),
            provenance=provenance,
        )

    @staticmethod
    def _group_provenance(plan: GroupPlan) -> Dict[str, object]:
        out: Dict[str, object] = {
            "scenarios": [s.name for s in plan.scenarios],
            "trials": plan.trials,
            "seed": plan.seed,
            "kernel_backend": resolve_backend_name(),
        }
        if plan.class_mix is not None:
            out["classes"] = plan.class_mix.to_dict()
        if plan.sized:
            out.update(
                {
                    "num_nodes_grid": list(plan.sizes),
                    "pool_sizes": list(plan.pool_sizes),
                    "ring_sizes": [list(rings) for rings in plan.ring_grid],
                    "q_mins": list(plan.q_mins),
                }
            )
        else:
            out.update(
                {
                    "num_nodes": plan.num_nodes,
                    "pool_size": plan.pool_size,
                    "ring_sizes": list(plan.ring_sizes),
                    "q_min": plan.q_min,
                }
            )
        return out

    # -- JSON round-trip ----------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {"scenarios": [s.to_dict() for s in self.scenarios]}

    @classmethod
    def from_dict(cls, data: Union[Dict[str, object], Sequence, None]) -> "Study":
        """Accept ``{"scenarios": [...]}``, a bare list, or one scenario."""
        if isinstance(data, dict) and "scenarios" in data:
            unknown = set(data) - {"scenarios"}
            if unknown:
                raise ParameterError(
                    f"unknown study fields {sorted(unknown)}; expected 'scenarios'"
                )
            raw = data["scenarios"]
        elif isinstance(data, dict):
            raw = [data]
        elif isinstance(data, Sequence) and not isinstance(data, str):
            raw = list(data)
        else:
            raise ParameterError(
                "study JSON must be a scenario object, a list of scenarios, "
                f"or {{'scenarios': [...]}}; got {type(data).__name__}"
            )
        if not raw:
            raise ParameterError("a study needs at least one scenario")
        return cls(scenarios=tuple(Scenario.from_dict(s) for s in raw))

    def to_json(self, **dumps_kwargs: object) -> str:
        dumps_kwargs.setdefault("indent", 2)
        dumps_kwargs.setdefault("sort_keys", True)
        return json.dumps(self.to_dict(), **dumps_kwargs)  # type: ignore[arg-type]

    @classmethod
    def from_json(cls, text: str) -> "Study":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParameterError(f"study JSON does not parse: {exc}") from exc
        return cls.from_dict(data)


def run_scenario(
    scenario: Scenario,
    workers: Optional[int] = None,
    scheduler: Optional[SchedulerPolicy] = None,
) -> ScenarioResult:
    """Run a single scenario and return its result directly."""
    return Study((scenario,)).run(workers=workers, scheduler=scheduler)[
        scenario.name
    ]
