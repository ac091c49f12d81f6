"""The long-running study service: a file-spool async job queue.

``repro serve --spool DIR`` watches ``DIR/jobs/`` for study JSONs,
claims each atomically (rename into ``DIR/active/`` — safe against a
second server on the same spool), and executes up to
``max_concurrent`` jobs in worker threads.  Every job runs through the
cached execution path (:func:`repro.service.cache.run_cached`) when
the server has a cache, so repeated and overlapping submissions are
answered as hits/extensions, and through the PR 6 scheduler for
per-unit supervision.  Concurrent jobs share the warm process pool:
:mod:`repro.simulation.pool` hands each run the same executor under a
lease, so two jobs interleave work units instead of spawning rival
pools.

The spool is also the API.  For each job the server writes

* ``DIR/status/<job>.json`` — lifecycle state (``queued`` → ``running``
  → ``done``/``failed``), timestamps, and the cache disposition;
* ``DIR/events/<job>.jsonl`` — the job's progress events, one JSON per
  line, streamed as they happen (unit completed, cell converged, cache
  hit/miss, fault quarantined — see :mod:`repro.service.events`);
* ``DIR/results/<job>.json`` — the full ``StudyResult`` on success.

``repro submit`` drops a job file and (with ``--wait``) tails the
status + event files; ``repro status`` renders them.  File-based
transport keeps the service dependency-free and transparently
debuggable; swapping the spool for a socket changes none of the job
semantics.

Job files are either a bare study JSON (scenario object / list /
``{"scenarios": [...]}``) or a wrapper ``{"study": ..., "options":
{"target_ci": ..., "max_trials": ..., "block_trials": ...}}`` for
adaptive runs.  Events emitted while a job runs are tagged with its
``job_id`` via :func:`repro.service.events.event_context`, so one
process-wide bus serves any number of concurrent jobs.
"""

from __future__ import annotations

import json
import pathlib
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Union

from repro.exceptions import ParameterError
from repro.service import events
from repro.service.cache import ResultCache, run_study
from repro.service.shards import ShardTransport
from repro.simulation.scheduler import SchedulerPolicy
from repro.study.compiler import Study

__all__ = ["JOB_FORMAT", "StudyService"]

JOB_FORMAT = "repro-job/v1"

_SPOOL_DIRS = ("jobs", "active", "status", "events", "results")


def _now() -> float:
    return time.time()


class StudyService:
    """Watches a spool directory and executes submitted studies."""

    def __init__(
        self,
        spool: Union[str, pathlib.Path],
        *,
        cache: Optional[ResultCache] = None,
        workers: Optional[int] = None,
        max_concurrent: int = 2,
        scheduler: Optional[SchedulerPolicy] = None,
        transport: Optional[ShardTransport] = None,
        poll_interval: float = 0.2,
    ) -> None:
        if not isinstance(max_concurrent, int) or max_concurrent < 1:
            raise ParameterError(
                f"max_concurrent must be a positive int, got {max_concurrent!r}"
            )
        self.spool = pathlib.Path(spool)
        for sub in _SPOOL_DIRS:
            (self.spool / sub).mkdir(parents=True, exist_ok=True)
        self.cache = cache
        self.workers = workers
        self.max_concurrent = max_concurrent
        # Jobs always run supervised: the scheduler is what quarantines
        # faulty units instead of failing the job, and its per-unit
        # accounting is what feeds the ``unit_completed`` event stream.
        # Supervised runs are bit-identical to plain ones when every
        # unit completes, so defaulting costs nothing but bookkeeping.
        self.scheduler = scheduler if scheduler is not None else SchedulerPolicy()
        self.transport = transport
        self.poll_interval = poll_interval
        self._status_lock = threading.Lock()

    # -- spool paths ---------------------------------------------------

    def _path(self, kind: str, job_id: str, suffix: str = ".json") -> pathlib.Path:
        return self.spool / kind / f"{job_id}{suffix}"

    # -- status/event plumbing -----------------------------------------

    def _write_status(self, job_id: str, status: Dict[str, object]) -> None:
        path = self._path("status", job_id)
        tmp = path.with_name(path.name + ".tmp")
        with self._status_lock:
            tmp.write_text(json.dumps(status, sort_keys=True))
            tmp.replace(path)

    def read_status(self, job_id: str) -> Optional[Dict[str, object]]:
        try:
            data = json.loads(self._path("status", job_id).read_text())
        except (OSError, json.JSONDecodeError):
            return None
        return data if isinstance(data, dict) else None

    def _event_sink(self, job_id: str):
        path = self._path("events", job_id, suffix=".jsonl")

        def sink(event: events.Event) -> None:
            if event.fields.get("job_id") != job_id:
                return
            with open(path, "a") as stream:
                stream.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")

        return sink

    # -- job execution -------------------------------------------------

    def _parse_job(self, data: object) -> tuple:
        """``(study, options)`` from a job file's payload."""
        options: Dict[str, object] = {}
        if isinstance(data, dict) and data.get("format") == JOB_FORMAT:
            raw_options = data.get("options", {})
            if not isinstance(raw_options, dict):
                raise ParameterError(
                    f"job options must be a mapping, got {type(raw_options).__name__}"
                )
            options = raw_options
            data = data.get("study")
        return Study.from_dict(data), options  # type: ignore[arg-type]

    def _execute(self, study: Study, options: Dict[str, object]):
        target_ci = options.get("target_ci")
        if target_ci is not None:
            from repro.study.adaptive import AdaptivePolicy, run_adaptive_study

            policy = AdaptivePolicy(
                ci_target=float(target_ci),  # type: ignore[arg-type]
                max_trials=int(options.get("max_trials", 4000)),  # type: ignore[arg-type]
                block_trials=options.get("block_trials"),  # type: ignore[arg-type]
            )
            return run_adaptive_study(
                study, policy, workers=self.workers, scheduler=self.scheduler
            )
        return run_study(
            study,
            cache=self.cache,
            transport=self.transport,
            workers=self.workers,
            scheduler=self.scheduler,
        )

    def _run_job(self, job_id: str, path: pathlib.Path) -> None:
        status: Dict[str, object] = {
            "job_id": job_id,
            "state": "running",
            "started": _now(),
        }
        self._write_status(job_id, status)
        sink = self._event_sink(job_id)
        events.subscribe(sink)
        try:
            with events.event_context(job_id=job_id):
                events.emit("job_started")
                study, options = self._parse_job(json.loads(path.read_text()))
                result = self._execute(study, options)
                result_path = self._path("results", job_id)
                result.save(result_path)
                status.update(
                    state="done",
                    finished=_now(),
                    result=str(result_path),
                    scenarios=result.names(),
                    units=result.provenance.get("units"),
                    cache=result.provenance.get("cache"),
                )
                faults = result.provenance.get("faults")
                if isinstance(faults, dict):
                    status["faults"] = {
                        "completed": faults.get("completed"),
                        "units": faults.get("units"),
                        "dead_units": len(faults.get("dead_units", ())),  # type: ignore[arg-type]
                    }
                events.emit(
                    "job_completed",
                    scenarios=result.names(),
                    units=result.provenance.get("units"),
                )
        except Exception as exc:
            status.update(
                state="failed",
                finished=_now(),
                error=f"{type(exc).__name__}: {exc}",
                traceback=traceback.format_exc(limit=8),
            )
            with events.event_context(job_id=job_id):
                events.emit("job_failed", error=status["error"])
        finally:
            events.unsubscribe(sink)
            self._write_status(job_id, status)
            path.unlink(missing_ok=True)

    # -- the serve loop ------------------------------------------------

    def _claim_jobs(self) -> List[tuple]:
        """Atomically move pending job files into ``active/``."""
        claimed = []
        pending = sorted((self.spool / "jobs").glob("*.json"))
        for path in pending:
            job_id = path.stem
            target = self._path("active", job_id)
            try:
                path.rename(target)
            except OSError:
                continue  # another server claimed it first
            self._write_status(
                job_id, {"job_id": job_id, "state": "queued", "submitted": _now()}
            )
            events.emit("job_queued", job_id=job_id)
            claimed.append((job_id, target))
        return claimed

    def serve_forever(
        self,
        *,
        max_jobs: Optional[int] = None,
        idle_timeout: Optional[float] = None,
    ) -> int:
        """Run the service loop; returns the number of jobs executed.

        *max_jobs* stops after that many jobs complete; *idle_timeout*
        stops after that many seconds with no pending or running work.
        Both exist so CI and tests can run a bounded server; a real
        deployment passes neither and stops on SIGINT.
        """
        executed = 0
        idle_since = _now()
        with ThreadPoolExecutor(max_workers=self.max_concurrent) as pool:
            futures = {}
            try:
                while True:
                    if max_jobs is None or executed + len(futures) < max_jobs:
                        for job_id, path in self._claim_jobs():
                            futures[pool.submit(self._run_job, job_id, path)] = job_id
                    done = [f for f in futures if f.done()]
                    for future in done:
                        futures.pop(future)
                        future.result()  # _run_job never raises; assert that
                        executed += 1
                    if futures:
                        idle_since = _now()
                    else:
                        if max_jobs is not None and executed >= max_jobs:
                            break
                        if (
                            idle_timeout is not None
                            and _now() - idle_since > idle_timeout
                        ):
                            break
                    time.sleep(self.poll_interval)
            except KeyboardInterrupt:
                pass
        return executed
