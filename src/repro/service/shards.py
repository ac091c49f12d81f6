"""Self-describing shard JSONs and the transports that execute them.

A *shard* is one serializable slice of a compiled study: the full
study declaration (so any worker anywhere can recompile the identical
plan), the per-scenario content hashes (integrity — a worker refuses a
shard whose study does not hash to what the coordinator promised), the
deployment family it targets, an absolute trial window, and optionally
a subset of the family's size axis.  Executing a shard is
:meth:`~repro.study.compiler.Study.run_extension` over that window
with an active-map restriction, under the PR 6 per-unit supervisor
when a scheduler policy is in force — so every shard internally gets
retries, timeouts, speculation, and checksummed results for free.

Sharding axes
-------------
``axis="trial"`` splits each family's trial range into contiguous
windows (the classic throughput axis); ``axis="size"`` splits a
growth sweep's size grid, every shard covering the full window of its
size indices (the natural axis when single-``n`` columns are the
expensive unit).  Trial-axis shards fold with
:meth:`~repro.study.result.ScenarioResult.merge` in trial order;
size-axis shards share one window and fold with
:meth:`~repro.study.result.ScenarioResult.overlay` (NaN-disjoint cell
fill).  Both folds are bit-identical to the one-shot run: deployments
are seeded by absolute ``(size_index, ring_index, trial)`` addresses,
so where the work ran never changes what it computed.

Transports
----------
:class:`InProcessTransport` executes shards in the calling process —
the zero-dependency default and the reference the others are held to.
:class:`SubprocessTransport` invokes ``repro worker SHARD.json`` in a
fresh interpreter per shard — the "remote" stand-in proving shards
fully round-trip through JSON and process boundaries; a socket/ssh
transport is a drop-in (implement :meth:`ShardTransport.run`).
Results carry per-scenario payload checksums (PR 6's
:func:`~repro.simulation.scheduler.payload_checksum`) recomputed and
verified at the coordinator before folding.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ParameterError, TransportError
from repro.kernels import resolve_backend_name
from repro.simulation.scheduler import (
    SchedulerPolicy,
    combine_fault_reports,
    payload_checksum,
)
from repro.service import events
from repro.study.compiler import ActiveMap, Study
from repro.study.result import ScenarioResult, StudyResult

__all__ = [
    "SHARD_FORMAT",
    "SHARD_RESULT_FORMAT",
    "make_shards",
    "execute_shard",
    "fold_shard_results",
    "run_sharded",
    "ShardTransport",
    "InProcessTransport",
    "SubprocessTransport",
    "get_transport",
]

SHARD_FORMAT = "repro-shard/v1"
SHARD_RESULT_FORMAT = "repro-shard-result/v1"


def _scenario_hashes(study: Study) -> Dict[str, str]:
    return {sc.name: sc.content_hash() for sc in study.scenarios}


def make_shards(
    study: Study,
    *,
    axis: str = "trial",
    shards: Optional[int] = None,
    window: Optional[Tuple[int, int]] = None,
) -> List[Dict[str, object]]:
    """Slice *study* into self-describing shard dicts.

    Every shard targets one deployment family (trial windows are
    per-family quantities, so a shard mixing families could not carry
    one well-defined window).  *shards* caps the split count per
    family; *window* restricts all shards to the absolute trial range
    ``[start, stop)`` instead of each family's full ``[0, trials)`` —
    the cache uses this to shard delta (extension) work.
    """
    for scenario in study.scenarios:
        if scenario.kind == "protocol":
            raise ParameterError(
                f"sharded execution supports sweep scenarios only; "
                f"{scenario.name!r} is a protocol scenario"
            )
    if axis not in ("trial", "size"):
        raise ParameterError(f"shard axis must be 'trial' or 'size', got {axis!r}")
    if shards is not None and (not isinstance(shards, int) or shards < 1):
        raise ParameterError(f"shards must be a positive int, got {shards!r}")
    plans = study.compile()
    study_dict = study.to_dict()
    hashes = _scenario_hashes(study)
    out: List[Dict[str, object]] = []

    def shard(gi: int, trial_window: Tuple[int, int], sizes=None) -> Dict[str, object]:
        entry: Dict[str, object] = {
            "format": SHARD_FORMAT,
            "study": study_dict,
            "scenario_hashes": hashes,
            "group": gi,
            "trial_window": [int(trial_window[0]), int(trial_window[1])],
        }
        if sizes is not None:
            entry["sizes"] = [int(si) for si in sizes]
        return entry

    for gi, plan in enumerate(plans):
        start, stop = (0, plan.trials) if window is None else window
        if not 0 <= start < stop:
            raise ParameterError(
                f"invalid shard trial window [{start}, {stop})"
            )
        if axis == "size":
            count = plan.num_sizes if shards is None else min(shards, plan.num_sizes)
            for chunk in np.array_split(np.arange(plan.num_sizes), count):
                if chunk.size:
                    out.append(shard(gi, (start, stop), sizes=chunk.tolist()))
        else:
            span = stop - start
            count = min(span, 4 if shards is None else shards)
            edges = np.linspace(start, stop, count + 1).astype(int)
            for a, b in zip(edges[:-1], edges[1:]):
                if b > a:
                    out.append(shard(gi, (int(a), int(b))))
    return out


def _validate_shard(shard: Dict[str, object]) -> None:
    if not isinstance(shard, dict) or shard.get("format") != SHARD_FORMAT:
        raise TransportError(
            f"not a {SHARD_FORMAT} shard: format="
            f"{shard.get('format') if isinstance(shard, dict) else type(shard).__name__!r}"
        )
    for field in ("study", "scenario_hashes", "group", "trial_window"):
        if field not in shard:
            raise TransportError(f"shard is missing required field {field!r}")


def execute_shard(
    shard: Dict[str, object],
    workers: Optional[int] = None,
    scheduler: Optional[SchedulerPolicy] = None,
) -> Dict[str, object]:
    """Execute one shard dict and return its result payload.

    The single execution path shared by every transport: the in-process
    transport calls it directly, ``repro worker`` calls it in a child
    interpreter.  The embedded study is recompiled locally and verified
    against the coordinator's content hashes before any work runs.
    """
    _validate_shard(shard)
    study = Study.from_dict(shard["study"])  # type: ignore[arg-type]
    promised = shard["scenario_hashes"]
    local = _scenario_hashes(study)
    if promised != local:
        stale = sorted(
            name
            for name in set(promised) | set(local)  # type: ignore[arg-type]
            if promised.get(name) != local.get(name)  # type: ignore[union-attr]
        )
        from repro.exceptions import ShardMismatchError

        raise ShardMismatchError(
            f"shard scenario hashes do not match its embedded study for "
            f"{stale}; the shard was edited or mixed up in transport"
        )
    plans = study.compile()
    gi = shard["group"]
    if not isinstance(gi, int) or not 0 <= gi < len(plans):
        raise TransportError(
            f"shard group index {gi!r} out of range for {len(plans)} plan(s)"
        )
    plan = plans[gi]
    sizes = shard.get("sizes")
    size_indices = range(plan.num_sizes) if sizes is None else sizes
    active: ActiveMap = {}
    for si in size_indices:  # type: ignore[assignment]
        if not isinstance(si, int) or not 0 <= si < plan.num_sizes:
            raise TransportError(
                f"shard size index {si!r} out of range for "
                f"{plan.num_sizes} size(s)"
            )
        for ri in range(plan.num_rings):
            active[(gi, si, ri)] = tuple(
                tuple(range(len(sc.curves_at(si)))) for sc in plan.scenarios
            )
    start, stop = shard["trial_window"]  # type: ignore[misc]
    sub = study.run_extension(
        int(start), int(stop), active=active, workers=workers, scheduler=scheduler
    )
    members = {sc.name for sc in plan.scenarios}
    results = {}
    checksums = {}
    for scenario in study.scenarios:
        if scenario.name not in members:
            continue  # other families' tensors are all-NaN here
        res = sub[scenario.name]
        results[scenario.name] = res.to_dict()
        checksums[scenario.name] = payload_checksum(res.values)
    payload: Dict[str, object] = {
        "format": SHARD_RESULT_FORMAT,
        "group": gi,
        "trial_window": [int(start), int(stop)],
        "results": results,
        "checksums": checksums,
        "units": int(sub.provenance.get("units", 0)),  # type: ignore[arg-type]
        "deployments": int(sub.provenance.get("deployments", 0)),  # type: ignore[arg-type]
    }
    faults = sub.provenance.get("faults")
    if faults is not None:
        payload["faults"] = faults
    return payload


def fold_shard_results(
    study: Study,
    payloads: Sequence[Dict[str, object]],
    *,
    window: Optional[Tuple[int, int]] = None,
) -> Tuple[Dict[str, ScenarioResult], Dict[str, object]]:
    """Verify and fold shard result payloads back into one result set.

    Per scenario: payload checksums are recomputed and verified, shards
    of one window :meth:`~repro.study.result.ScenarioResult.overlay`
    (size-axis), then windows :meth:`~repro.study.result.ScenarioResult.merge`
    in trial order (trial-axis).  The folded result must exactly cover
    the expected window — missing shards are an error, not silent NaN.
    Returns ``(results_by_name, aggregate)`` where *aggregate* carries
    summed units/deployments and the combined fault report.
    """
    per_scenario: Dict[str, List[ScenarioResult]] = {}
    units = 0
    deployments = 0
    fault_dicts: List[Optional[Dict[str, object]]] = []
    for payload in payloads:
        if not isinstance(payload, dict) or payload.get("format") != SHARD_RESULT_FORMAT:
            raise TransportError(
                f"not a {SHARD_RESULT_FORMAT} payload: "
                f"format={payload.get('format') if isinstance(payload, dict) else type(payload).__name__!r}"
            )
        units += int(payload.get("units", 0))  # type: ignore[arg-type]
        deployments += int(payload.get("deployments", 0))  # type: ignore[arg-type]
        fault_dicts.append(payload.get("faults"))  # type: ignore[arg-type]
        checksums = payload.get("checksums", {})
        for name, raw in payload["results"].items():  # type: ignore[union-attr]
            res = ScenarioResult.from_dict(raw)
            expected = checksums.get(name)  # type: ignore[union-attr]
            if expected is not None and payload_checksum(res.values) != expected:
                raise TransportError(
                    f"shard result for scenario {name!r} failed its payload "
                    f"checksum; the values were corrupted in transport"
                )
            per_scenario.setdefault(name, []).append(res)
    results: Dict[str, ScenarioResult] = {}
    for scenario in study.scenarios:
        shards = per_scenario.get(scenario.name)
        if not shards:
            raise TransportError(
                f"no shard produced results for scenario {scenario.name!r}"
            )
        # Bucket by window, overlay within, merge across in trial order.
        buckets: Dict[Tuple[int, int], ScenarioResult] = {}
        for res in shards:
            key = res.trial_range
            buckets[key] = buckets[key].overlay(res) if key in buckets else res
        folded: Optional[ScenarioResult] = None
        for _, res in sorted(buckets.items()):
            folded = res if folded is None else folded.merge(res)
        assert folded is not None
        start, stop = (0, scenario.trials) if window is None else window
        if folded.trial_range != (start, stop):
            raise TransportError(
                f"folded shards cover trial window {folded.trial_range} of "
                f"scenario {scenario.name!r}, expected [{start}, {stop})"
            )
        results[scenario.name] = folded
    aggregate: Dict[str, object] = {
        "units": units,
        "deployments": deployments,
    }
    combined = combine_fault_reports(fault_dicts)
    if combined is not None:
        aggregate["faults"] = combined
    return results, aggregate


# -- transports --------------------------------------------------------


class ShardTransport:
    """Executes shard dicts somewhere; subclass per medium."""

    name = "base"

    def run(self, shard: Dict[str, object]) -> Dict[str, object]:
        raise NotImplementedError

    def run_many(
        self, shards: Sequence[Dict[str, object]]
    ) -> List[Dict[str, object]]:
        """Execute shards, results in submission order."""
        return [self.run(shard) for shard in shards]


class InProcessTransport(ShardTransport):
    """Execute shards in the calling process — the reference transport."""

    name = "inprocess"

    def __init__(
        self,
        workers: Optional[int] = None,
        scheduler: Optional[SchedulerPolicy] = None,
    ) -> None:
        self.workers = workers
        self.scheduler = scheduler

    def run(self, shard: Dict[str, object]) -> Dict[str, object]:
        return execute_shard(shard, workers=self.workers, scheduler=self.scheduler)


class SubprocessTransport(ShardTransport):
    """Execute each shard as ``repro worker SHARD.json`` in a child python.

    The "remote worker" stand-in: the shard crosses a process boundary
    as JSON on disk, the worker recompiles the study from scratch, and
    the result comes back the same way — everything a socket transport
    would do minus the socket.  Scheduler policy is not forwarded as an
    argument; workers inherit the environment, so ``REPRO_CHAOS``
    applies inside them exactly as it would locally.
    """

    name = "subprocess"

    def __init__(
        self,
        workers: Optional[int] = None,
        max_inflight: int = 2,
        timeout: Optional[float] = None,
        python: Optional[str] = None,
    ) -> None:
        if not isinstance(max_inflight, int) or max_inflight < 1:
            raise ParameterError(
                f"max_inflight must be a positive int, got {max_inflight!r}"
            )
        self.workers = workers
        self.max_inflight = max_inflight
        self.timeout = timeout
        self.python = python or sys.executable

    def _env(self) -> Dict[str, str]:
        # The child must import repro even when the parent runs from a
        # source checkout: prepend this package's parent directory.
        env = dict(os.environ)
        import repro

        src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src if not existing else os.pathsep.join((src, existing))
        return env

    def run(self, shard: Dict[str, object]) -> Dict[str, object]:
        _validate_shard(shard)
        with tempfile.TemporaryDirectory(prefix="repro-shard-") as tmp:
            shard_path = pathlib.Path(tmp) / "shard.json"
            out_path = pathlib.Path(tmp) / "result.json"
            shard_path.write_text(json.dumps(shard))
            cmd = [
                self.python,
                "-m",
                "repro",
                "worker",
                str(shard_path),
                "--output",
                str(out_path),
            ]
            if self.workers is not None:
                cmd.extend(["--workers", str(self.workers)])
            try:
                proc = subprocess.run(
                    cmd,
                    env=self._env(),
                    capture_output=True,
                    text=True,
                    timeout=self.timeout,
                )
            except subprocess.TimeoutExpired as exc:
                raise TransportError(
                    f"shard worker timed out after {self.timeout}s: {exc}"
                )
            if proc.returncode != 0:
                tail = (proc.stderr or proc.stdout or "").strip().splitlines()[-8:]
                raise TransportError(
                    f"shard worker exited with code {proc.returncode}: "
                    + " | ".join(tail)
                )
            try:
                return json.loads(out_path.read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise TransportError(
                    f"shard worker produced no readable result payload: {exc}"
                )

    def run_many(
        self, shards: Sequence[Dict[str, object]]
    ) -> List[Dict[str, object]]:
        if len(shards) <= 1 or self.max_inflight == 1:
            return [self.run(shard) for shard in shards]
        with ThreadPoolExecutor(
            max_workers=min(self.max_inflight, len(shards))
        ) as pool:
            return list(pool.map(self.run, shards))


_TRANSPORTS = ("inprocess", "subprocess")


def get_transport(
    name: str,
    *,
    workers: Optional[int] = None,
    scheduler: Optional[SchedulerPolicy] = None,
    max_inflight: int = 2,
    timeout: Optional[float] = None,
) -> ShardTransport:
    """Build a transport by name (the CLI's ``--transport`` values)."""
    if name == "inprocess":
        return InProcessTransport(workers=workers, scheduler=scheduler)
    if name == "subprocess":
        if scheduler is not None:
            raise ParameterError(
                "the subprocess transport cannot forward a scheduler policy "
                "object; set REPRO_CHAOS (workers inherit the environment) "
                "or use the inprocess transport"
            )
        return SubprocessTransport(
            workers=workers, max_inflight=max_inflight, timeout=timeout
        )
    raise ParameterError(
        f"unknown transport {name!r}; available: {', '.join(_TRANSPORTS)}"
    )


def run_sharded(
    study: Study,
    transport: Optional[ShardTransport] = None,
    *,
    axis: str = "trial",
    shards: Optional[int] = None,
    workers: Optional[int] = None,
    scheduler: Optional[SchedulerPolicy] = None,
    window: Optional[Tuple[int, int]] = None,
) -> StudyResult:
    """Run *study* as shards over *transport*, folded bit-identically.

    The sharded sibling of :meth:`Study.run` (sweep scenarios only):
    slice per *axis*, execute every shard via *transport* (default
    in-process), verify checksums, fold in trial order.  With *window*
    the result is an extension shard covering ``[start, stop)`` like
    :meth:`Study.run_extension` — the cache's delta path.  Provenance
    records the transport, shard axis/count, per-scenario content
    hashes, executed units, and the combined fault report.
    """
    if transport is None:
        transport = InProcessTransport(workers=workers, scheduler=scheduler)
    shard_dicts = make_shards(study, axis=axis, shards=shards, window=window)
    for index, shard in enumerate(shard_dicts):
        events.emit(
            "shard_dispatched",
            shard=index,
            shards=len(shard_dicts),
            group=shard["group"],
            trial_window=shard["trial_window"],
            sizes=shard.get("sizes"),
            transport=transport.name,
        )
    payloads = transport.run_many(shard_dicts)
    results, aggregate = fold_shard_results(study, payloads, window=window)
    events.emit(
        "shard_folded",
        shards=len(shard_dicts),
        units=aggregate["units"],
        transport=transport.name,
    )
    has_sweeps = any(s.kind == "sweep" for s in study.scenarios)
    provenance: Dict[str, object] = {
        "engine": "study/v1",
        "transport": transport.name,
        "shard_axis": axis,
        "shards": len(shard_dicts),
        "kernel_backends": [resolve_backend_name()] if has_sweeps else [],
        "scenario_hashes": _scenario_hashes(study),
        "units": aggregate["units"],
        "deployments": aggregate["deployments"],
    }
    if window is not None:
        provenance["trial_window"] = [int(window[0]), int(window[1])]
    if "faults" in aggregate:
        provenance["faults"] = aggregate["faults"]
    return StudyResult(
        results=tuple(results[s.name] for s in study.scenarios),
        provenance=provenance,
    )
