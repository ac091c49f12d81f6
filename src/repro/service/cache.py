"""Content-addressed result cache with trial-window overlap resolution.

The cache key is :meth:`Scenario.content_hash` — sha256 over the
scenario's canonical JSON normal form *minus* ``trials``.  Excluding
the trial count is the whole point: trials is the one axis results may
legally differ on while describing the same experiment, so a stored
60-trial result *is* the answer to a 40-trial query (truncate — trial
slots are addressed by absolute index) and *most* of the answer to a
100-trial query (extend — run only ``[60, 100)`` and merge).  Every
other field difference (seed, curves, grid, metrics, channel) changes
the hash and misses.

Dispositions of :func:`run_cached`, per study:

* ``hit`` — every scenario's stored window covers its request; zero
  work units execute.
* ``extension`` — stored windows cover a proper prefix;
  :meth:`Study.run_extension` (optionally sharded over a transport)
  computes only the missing ``[covered, requested)`` delta, merged and
  stored back.
* ``miss`` — no usable stored prefix; full run, stored.
* ``bypass`` — the study is uncacheable (protocol scenarios, mixed
  per-scenario trial counts); it runs plainly, nothing is stored.

Entries carry :data:`~repro.utils.rng.STREAM_VERSION` and the numpy
``major.minor`` series outside the content hash; a lookup under another
stamp is a miss, so no prefix from another stream is ever extended.

Only complete (NaN-free) results are stored: a partial result (dead
units, adaptive raggedness) is not a valid prefix to extend, because a
one-shot run at the larger count would have evaluated the skipped
cells.  Fault reports ride along with stored results and are folded —
deduplicated by :func:`~repro.simulation.scheduler.combine_fault_reports`
— into the final provenance of any run that executes new work, so a
cached-then-extended study reports each historical fault exactly once.
A pure *hit* executes nothing: its ``provenance["faults"]`` never
resurrects stored reports (the run itself was fault-free); the folded
history stays inspectable under ``provenance["cache"]["stored_faults"]``.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import pathlib
import tempfile
from typing import Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.exceptions import ParameterError
from repro.simulation.scheduler import SchedulerPolicy, combine_fault_reports
from repro.service import events
from repro.service.shards import ShardTransport, run_sharded
from repro.study.compiler import Study
from repro.study.result import ScenarioResult, StudyResult
from repro.study.scenario import Scenario
from repro.utils import rng

__all__ = ["CACHE_FORMAT", "CacheEntry", "ResultCache", "run_cached", "run_study"]

CACHE_FORMAT = "repro-cache/v1"


def _stream_stamp() -> Dict[str, object]:
    """The sampling stream version and numpy series stored values came from."""
    series = ".".join(np.__version__.split(".")[:2])
    return {"stream_version": rng.STREAM_VERSION, "numpy": series}


@dataclasses.dataclass(frozen=True)
class CacheEntry:
    """One stored scenario result and the faults it survived."""

    result: ScenarioResult
    faults: Optional[Dict[str, object]]

    @property
    def trials(self) -> int:
        return self.result.num_trials


class ResultCache:
    """File-backed store mapping scenario content hash → result JSON.

    Layout: ``root/<hash[:2]>/<hash>.json`` (fan-out keeps directories
    small at scale).  Writes go through a same-directory temp file +
    ``rename`` so concurrent readers never observe a torn entry.
    """

    def __init__(self, root: Union[str, pathlib.Path]) -> None:
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, key: str) -> pathlib.Path:
        return self.root / key[:2] / f"{key}.json"

    def lookup(self, scenario: Scenario) -> Optional[CacheEntry]:
        """The stored entry for *scenario*'s family, or ``None``.

        Unreadable or mismatched entries (hand-edited, interrupted
        writes from pre-atomic-write versions, hash collisions, another
        sampling stream or numpy series) are treated as misses, never
        as errors — the cache must only ever make runs cheaper.
        """
        key = scenario.content_hash()
        path = self.path_for(key)
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(data, dict) or data.get("format") != CACHE_FORMAT:
            return None
        if data.get("scenario_hash") != key:
            return None
        if any(data.get(name) != value for name, value in _stream_stamp().items()):
            return None  # another sampling stream or numpy series
        try:
            result = ScenarioResult.from_dict(data["result"])  # type: ignore[arg-type]
        except Exception:
            return None
        if result.scenario.content_hash() != key or result.trial_offset != 0:
            return None
        faults = data.get("faults")
        return CacheEntry(
            result=result,
            faults=faults if isinstance(faults, dict) else None,
        )

    def store(
        self,
        result: ScenarioResult,
        faults: Optional[Dict[str, object]] = None,
    ) -> bool:
        """Store *result* if it improves on what is held; report whether.

        Skipped (returns ``False``) when the result is partial
        (NaN-bearing — not a valid extension prefix), is itself a
        window shard (nonzero offset), or does not extend the stored
        trial coverage.
        """
        if result.trial_offset != 0:
            return False
        if np.isnan(result.values).any():
            return False
        key = result.scenario.content_hash()
        existing = self.lookup(result.scenario)
        if existing is not None and existing.trials >= result.num_trials:
            return False
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload: Dict[str, object] = {
            "format": CACHE_FORMAT,
            "scenario_hash": key,
            "result": result.to_dict(),
            **_stream_stamp(),
        }
        if faults is not None:
            payload["faults"] = faults
        # One temp file per writer: concurrent stores of the same entry
        # (overlapping jobs of `repro serve`) must not share a rename source.
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=f"{path.name}.", suffix=".tmp"
        )
        tmp = pathlib.Path(tmp_name)
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(json.dumps(payload))
            tmp.replace(path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        return True


def _fault_report(provenance: Mapping[str, object]) -> Optional[Dict[str, object]]:
    """The run's structured fault report, typed; ``None`` when absent."""
    faults = provenance.get("faults")
    return faults if isinstance(faults, dict) else None


def _unit_count(provenance: Mapping[str, object]) -> int:
    """The run's executed-unit count, typed; 0 when absent/malformed."""
    units = provenance.get("units", 0)
    return int(units) if isinstance(units, int) else 0


def run_study(
    study: Study,
    *,
    cache: Optional[ResultCache] = None,
    transport: Optional[ShardTransport] = None,
    axis: str = "trial",
    shards: Optional[int] = None,
    workers: Optional[int] = None,
    scheduler: Optional[SchedulerPolicy] = None,
    window: Optional[Tuple[int, int]] = None,
) -> StudyResult:
    """Run *study* through *cache*, else over *transport*, else directly.

    The one place the service layer picks an execution path.  *window*
    runs only that trial window (:meth:`Study.run_extension`); the
    cache resolves windows itself, so it takes none.
    """
    if cache is not None:
        if window is not None:
            raise ParameterError("a cached run resolves its own trial window")
        return run_cached(
            study,
            cache,
            workers=workers,
            scheduler=scheduler,
            transport=transport,
            axis=axis,
            shards=shards,
        )
    if transport is not None:
        return run_sharded(
            study,
            transport,
            axis=axis,
            shards=shards,
            workers=workers,
            scheduler=scheduler,
            window=window,
        )
    if window is not None:
        return study.run_extension(*window, workers=workers, scheduler=scheduler)
    return study.run(workers=workers, scheduler=scheduler)


def run_cached(
    study: Study,
    cache: ResultCache,
    *,
    workers: Optional[int] = None,
    scheduler: Optional[SchedulerPolicy] = None,
    transport: Optional[ShardTransport] = None,
    axis: str = "trial",
    shards: Optional[int] = None,
) -> StudyResult:
    """Answer *study* from *cache*, computing only what is missing.

    Bit-identity contract: whatever the disposition, the returned
    per-scenario values equal a cold one-shot run of *study* exactly —
    truncation slices absolute-indexed trial slots, extension reruns
    the identical seeded windows, and merge concatenates them in order.
    Provenance gains a ``"cache"`` entry recording the disposition,
    per-scenario content hashes, covered/requested trials, the delta
    window, and the executed-unit count.
    """
    if not isinstance(cache, ResultCache):
        raise ParameterError(
            f"cache must be a ResultCache, got {type(cache).__name__}"
        )
    execute = functools.partial(
        run_study,
        study,
        transport=transport,
        axis=axis,
        shards=shards,
        workers=workers,
        scheduler=scheduler,
    )
    hashes = {sc.name: sc.content_hash() for sc in study.scenarios}
    requested_counts = {sc.trials for sc in study.scenarios}
    cacheable = (
        all(sc.kind == "sweep" for sc in study.scenarios)
        and len(requested_counts) == 1
    )
    if not cacheable:
        # Protocol scenarios have no extension path, and mixed trial
        # counts have no single family window to resolve overlap on.
        result = execute()
        events.emit("cache_bypass", scenarios=sorted(hashes))
        provenance = dict(result.provenance)
        provenance["cache"] = {
            "disposition": "bypass",
            "scenario_hashes": hashes,
            "executed_units": _unit_count(provenance),
        }
        return StudyResult(results=result.results, provenance=provenance)

    requested = requested_counts.pop()
    entries = {sc.name: cache.lookup(sc) for sc in study.scenarios}
    covered = min(
        (entry.trials if entry is not None else 0 for entry in entries.values()),
        default=0,
    )
    # Fault history rides the cache entries; ``run_faults`` is what the
    # work executed by THIS call reported.  The two are folded together
    # for the store-back (each historical fault stored exactly once),
    # but only runs that executed new work surface the fold as their
    # own ``provenance["faults"]`` — a pure hit executed nothing, so
    # resurrecting stored crash reports there would claim faults that
    # never happened in this invocation.
    stored_faults: List[Optional[Dict[str, object]]] = []
    run_faults: Optional[Dict[str, object]] = None

    if covered >= requested:
        disposition = "hit"
        results = {}
        for sc in study.scenarios:
            entry = entries[sc.name]
            assert entry is not None
            results[sc.name] = entry.result.truncated(requested)
            stored_faults.append(entry.faults)
        executed_units = 0
        delta_window = None
        base_provenance: Dict[str, object] = {
            "engine": "study/v1",
            "kernel_backends": [],
            "units": 0,
            "deployments": 0,
        }
        events.emit(
            "cache_hit",
            scenarios=sorted(hashes),
            covered_trials=covered,
            requested_trials=requested,
        )
    elif covered > 0:
        disposition = "extension"
        delta_window = (covered, requested)
        events.emit(
            "cache_extension",
            scenarios=sorted(hashes),
            covered_trials=covered,
            requested_trials=requested,
            delta_window=list(delta_window),
        )
        delta = execute(window=delta_window)
        results = {}
        for sc in study.scenarios:
            entry = entries[sc.name]
            assert entry is not None
            base = entry.result.truncated(covered)
            results[sc.name] = base.merge(delta[sc.name])
            stored_faults.append(entry.faults)
        run_faults = _fault_report(delta.provenance)
        executed_units = _unit_count(delta.provenance)
        base_provenance = dict(delta.provenance)
    else:
        disposition = "miss"
        delta_window = None
        events.emit(
            "cache_miss",
            scenarios=sorted(hashes),
            requested_trials=requested,
        )
        full = execute()
        results = {sc.name: full[sc.name] for sc in study.scenarios}
        run_faults = _fault_report(full.provenance)
        executed_units = _unit_count(full.provenance)
        base_provenance = dict(full.provenance)

    combined_faults = combine_fault_reports([*stored_faults, run_faults])
    if disposition != "hit":
        # A hit's stored coverage already spans the request, so store()
        # could only re-read each entry and decline.  Miss and extension
        # keep store()'s guard against a concurrent larger write.
        for sc in study.scenarios:
            cache.store(results[sc.name], faults=combined_faults)

    provenance = dict(base_provenance)
    provenance.pop("trial_window", None)  # the merged result is full-window
    provenance["units"] = executed_units
    if transport is not None:
        provenance.setdefault("transport", transport.name)
    cache_info: Dict[str, object] = {
        "disposition": disposition,
        "store": str(cache.root),
        "scenario_hashes": hashes,
        "covered_trials": covered,
        "requested_trials": requested,
        "delta_window": list(delta_window) if delta_window else None,
        "executed_units": executed_units,
    }
    if disposition == "hit":
        # Zero work units ran: the answer's fault history stays visible
        # under the cache record, but provenance["faults"] — what THIS
        # run's execution reported — must not resurrect it.
        if combined_faults is not None:
            cache_info["stored_faults"] = combined_faults
    elif combined_faults is not None:
        # New work merged with (possibly faulted) stored results: fold
        # history + this run's report, each historical fault exactly
        # once (see combine_fault_reports dedup).
        provenance["faults"] = combined_faults
    elif "faults" in provenance:
        del provenance["faults"]
    provenance["cache"] = cache_info
    return StudyResult(
        results=tuple(results[sc.name] for sc in study.scenarios),
        provenance=provenance,
    )
