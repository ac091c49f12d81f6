"""Fault-tolerant per-unit work scheduling on the warm pool.

:func:`repro.simulation.pool.submit_batches` treats a batch list as
all-or-nothing: one raising batch cancels the rest and the only
recovery is a single whole-list retry on :class:`BrokenProcessPool`.
That is the wrong unit of failure for a sharded study service — losing
one ``(group, size, K-column, trial-block)`` work unit must not throw
away every other unit's completed work.  This module supervises units
*individually*:

* **bounded retries with jittered backoff** — a failed attempt (crash,
  drop, corrupt result, timeout, pool break) is re-queued up to
  ``max_retries`` times, with deterministic exponential-backoff jitter;
* **per-unit timeout** — an attempt running past ``unit_timeout`` is
  declared lost and retried; the original may still land later, in
  which case its result is deduplicated (see below), never lost and
  never double-counted;
* **speculative re-execution** — a unit still running after
  ``speculate_after`` seconds gets a duplicate attempt when a worker
  slot is free; the first completed result wins, and when both finish
  the supervisor *asserts* they are bit-identical (the engine's
  determinism contract makes re-execution safe) and counts the dedup;
* **result integrity** — workers ship results in an envelope carrying
  a checksum computed at the source; the supervisor re-validates on
  receipt, so truncated/corrupted shards are retried instead of folded
  into the tensor;
* **quarantine + graceful degradation** — a unit exhausting its budget
  is dead-lettered into the :class:`FaultReport`; the run returns
  partial results (``None`` per dead unit → ``NaN`` cells in the merge
  substrate) instead of discarding completed shards, unless the caller
  demands completeness (``allow_partial=False`` →
  :class:`~repro.exceptions.DeadUnitError`).

Determinism is unchanged: work units carry their own absolute-trial
seeds, so any retry or speculative duplicate computes bit-identical
values, and a run that converges under injected faults
(:mod:`repro.simulation.faults`) equals the fault-free one-shot run
exactly — the chaos convergence suite in CI proves it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import heapq
import json
import pickle
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import (
    CorruptResultError,
    DeadUnitError,
    InjectedFailure,
    ParameterError,
    SchedulerError,
    UnitTimeoutError,
)
from repro.simulation import pool as pool_mod
from repro.simulation.engine import default_workers
from repro.simulation.faults import ChaosSpec, FailureInjector, chaos_from_env
from repro.utils.rng import grid_seed_sequence

__all__ = [
    "SchedulerPolicy",
    "FaultReport",
    "run_units",
    "resolve_scheduler_policy",
    "combine_fault_reports",
    "payload_checksum",
]

#: Leading spawn-key index reserving the backoff-jitter stream, so it
#: never collides with strategy-decision streams (faults.py) under the
#: same chaos seed.
_BACKOFF_KEY = 101


@dataclasses.dataclass(frozen=True)
class SchedulerPolicy:
    """Knobs of one supervised run.

    Attributes
    ----------
    max_retries:
        Failed attempts a unit may accumulate beyond its first try
        before it is quarantined.
    unit_timeout:
        Seconds an attempt may run before being declared lost and
        retried (``None`` disables; supervision cannot preempt the
        worker, so a hung attempt keeps its process busy until it
        returns — pair with CI-level test timeouts for true hangs).
    speculate_after:
        Age in seconds after which a still-running unit earns a
        duplicate attempt when a worker slot is idle (``None``
        disables speculation).
    backoff_base / backoff_cap / backoff_jitter:
        Retry *k* of a unit sleeps ``min(cap, base * 2**(k-1)) * (1 +
        jitter * u)`` where ``u`` is a deterministic per-``(unit, k)``
        uniform — jittered so retry storms decorrelate, deterministic
        so runs reproduce.
    chaos:
        Optional :class:`~repro.simulation.faults.ChaosSpec` injected
        around every unit execution (the CI fault harness).
    allow_partial:
        When ``False``, dead units raise
        :class:`~repro.exceptions.DeadUnitError` instead of degrading
        to a partial result.
    """

    max_retries: int = 3
    unit_timeout: Optional[float] = None
    speculate_after: Optional[float] = None
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    backoff_jitter: float = 0.5
    chaos: Optional[ChaosSpec] = None
    allow_partial: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.max_retries, int) or self.max_retries < 0:
            raise ParameterError(
                f"max_retries must be a non-negative int, got {self.max_retries!r}"
            )
        if self.unit_timeout is not None and not self.unit_timeout > 0:
            raise ParameterError(
                f"unit_timeout must be positive, got {self.unit_timeout}"
            )
        if self.speculate_after is not None and not self.speculate_after >= 0:
            raise ParameterError(
                f"speculate_after must be >= 0, got {self.speculate_after}"
            )
        if self.backoff_base < 0 or self.backoff_cap < 0 or self.backoff_jitter < 0:
            raise ParameterError("backoff parameters must be >= 0")
        if self.chaos is not None and not isinstance(self.chaos, ChaosSpec):
            object.__setattr__(self, "chaos", ChaosSpec.from_dict(self.chaos))

    def to_dict(self) -> Dict[str, object]:
        return {
            "max_retries": self.max_retries,
            "unit_timeout": self.unit_timeout,
            "speculate_after": self.speculate_after,
            "backoff_base": self.backoff_base,
            "backoff_cap": self.backoff_cap,
            "backoff_jitter": self.backoff_jitter,
            "chaos": self.chaos.to_dict() if self.chaos else None,
            "allow_partial": self.allow_partial,
        }


def resolve_scheduler_policy(
    policy: Optional[SchedulerPolicy],
) -> Optional[SchedulerPolicy]:
    """An explicit policy wins; else ``REPRO_CHAOS`` implies a default one.

    The study executor resolves this once per run, one-shot or
    extension window alike.  ``None`` keeps its work units on the plain
    ``run_batches`` path — the zero-overhead default.
    """
    if policy is not None:
        return policy
    chaos = chaos_from_env()
    if chaos is not None:
        return SchedulerPolicy(chaos=chaos)
    return None


# -- fault accounting --------------------------------------------------


_EVENT_CAP = 200

_events_mod = None


def _emit(kind: str, **fields: object) -> None:
    """Publish a progress event on the service bus, if anyone listens.

    Imported lazily: the scheduler must not import the service layer at
    module load (service → study → scheduler is the forward direction).
    A bus with no subscribers makes this a near-free no-op.
    """
    global _events_mod
    if _events_mod is None:
        from repro.service import events as _events

        _events_mod = _events
    _events_mod.emit(kind, **fields)


@dataclasses.dataclass
class FaultReport:
    """Structured record of everything that went wrong (and was survived).

    Attached to study provenance under ``"faults"``; the dead-letter
    list is the degradation contract — every unit there corresponds to
    ``NaN`` (unevaluated) cells in the returned partial result.
    """

    units: int = 0
    completed: int = 0
    attempts: int = 0
    retries: int = 0
    speculative: int = 0
    dedup_identical: int = 0
    crashes: int = 0
    errors: int = 0
    timeouts: int = 0
    drops: int = 0
    corrupt: int = 0
    delays: int = 0
    pool_breaks: int = 0
    dead_units: List[Dict[str, object]] = dataclasses.field(default_factory=list)
    events: List[Dict[str, object]] = dataclasses.field(default_factory=list)

    _COUNTERS = (
        "units", "completed", "attempts", "retries", "speculative",
        "dedup_identical", "crashes", "errors", "timeouts", "drops",
        "corrupt", "delays", "pool_breaks",
    )

    @property
    def faulted(self) -> bool:
        """Whether anything at all deviated from the happy path."""
        return bool(
            self.retries or self.speculative or self.dedup_identical
            or self.crashes or self.errors or self.timeouts or self.drops
            or self.corrupt or self.delays or self.pool_breaks
            or self.dead_units
        )

    def record(self, unit: int, attempt: int, kind: str, detail: str = "") -> None:
        if len(self.events) < _EVENT_CAP:
            event: Dict[str, object] = {"unit": unit, "attempt": attempt, "kind": kind}
            if detail:
                event["detail"] = detail
            self.events.append(event)
        if kind == "quarantine":
            _emit("fault_quarantined", unit=unit, attempt=attempt, detail=detail)

    def summary(self) -> str:
        parts = [f"{self.completed}/{self.units} units"]
        for name in (
            "retries", "speculative", "dedup_identical", "crashes", "errors",
            "timeouts", "drops", "corrupt", "delays", "pool_breaks",
        ):
            value = getattr(self, name)
            if value:
                parts.append(f"{name}={value}")
        if self.dead_units:
            parts.append(f"dead={[d['unit_index'] for d in self.dead_units]}")
        return ", ".join(parts)

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {name: getattr(self, name) for name in self._COUNTERS}
        out["dead_units"] = list(self.dead_units)
        out["events"] = list(self.events)
        return out


def combine_fault_reports(reports: Sequence[Optional[Dict[str, object]]]) -> Optional[Dict[str, object]]:
    """Fold fault-report dicts from rounds / shards / resubmissions.

    Counters sum; dead-letter and event lists concatenate (events stay
    capped).  ``None`` entries (rounds that ran unsupervised) are
    skipped; all-``None`` input folds to ``None``.

    Folding is idempotent against service-level resubmission: a report
    that appears twice (the cache folds a stored report back in next to
    a delta run that already included it) is counted once, keyed on its
    canonical JSON form.  Within distinct reports, events and dead
    units are deduplicated on ``(trial window, unit, attempt, kind)`` —
    unit indices are positional per round, so the ``"window"`` stamp
    the compiler writes into each report is what keeps genuinely
    different rounds from colliding.
    """
    live: List[Dict[str, object]] = []
    seen_reports = set()
    for report in reports:
        if not report:
            continue
        key = json.dumps(report, sort_keys=True, default=str)
        if key in seen_reports:
            continue
        seen_reports.add(key)
        live.append(report)
    if not live:
        return None
    total = FaultReport()
    seen_dead = set()
    seen_events = set()
    for report in live:
        for name in FaultReport._COUNTERS:
            setattr(total, name, getattr(total, name) + int(report.get(name, 0)))  # type: ignore[arg-type]
        window = tuple(report.get("window", ()))  # type: ignore[arg-type]
        for dead in report.get("dead_units", ()):  # type: ignore[union-attr]
            dead_window = tuple(dead.get("window", window))
            key = (dead_window, dead.get("unit_index"), str(dead.get("last_error")))
            if key in seen_dead:
                continue
            seen_dead.add(key)
            if dead_window and "window" not in dead:
                # Stamp the source window onto the entry itself, so a
                # combined report folded again later (cache extension
                # upon cache extension) still distinguishes rounds.
                dead = dict(dead)
                dead["window"] = list(dead_window)
            total.dead_units.append(dead)
        for event in report.get("events", ()):  # type: ignore[union-attr]
            event_window = tuple(event.get("window", window))
            key = (
                event_window,
                event.get("unit"),
                event.get("attempt"),
                event.get("kind"),
            )
            if key in seen_events:
                continue
            seen_events.add(key)
            if event_window and "window" not in event:
                event = dict(event)
                event["window"] = list(event_window)
            if len(total.events) < _EVENT_CAP:
                total.events.append(event)
    return total.to_dict()


# -- worker-side execution envelope ------------------------------------


@dataclasses.dataclass
class _Envelope:
    """What a worker ships back for one attempt."""

    unit_index: int
    attempt: int
    payload: object
    checksum: str
    dropped: bool = False
    injected: Tuple[str, ...] = ()


def payload_checksum(payload: object) -> str:
    """Deterministic content hash used for integrity and dedup checks.

    Arrays hash their raw bytes (bit-identical semantics, NaN-safe);
    anything else falls back to pickled bytes.
    """
    digest = hashlib.sha256()
    if isinstance(payload, np.ndarray):
        arr = np.ascontiguousarray(payload)
        digest.update(str(arr.dtype).encode())
        digest.update(str(arr.shape).encode())
        digest.update(arr.tobytes())
    else:
        digest.update(pickle.dumps(payload, protocol=4))
    return digest.hexdigest()


def _execute_unit(
    fn: Callable,
    chaos: Optional[Dict[str, object]],
    task: Tuple[int, int, object, bool],
) -> _Envelope:
    """Run one attempt worker-side, threading the chaos middleware.

    The checksum is computed *before* post-execution injection, so a
    ``partial``-strategy corruption is detectable at the supervisor —
    exactly like a transport-layer checksum on a real shard service.
    """
    unit_index, attempt, unit, inline = task
    injection = None
    injector = None
    if chaos is not None:
        injector = FailureInjector(ChaosSpec.from_dict(chaos))
        injection = injector.plan(unit_index, attempt)
        injector.apply_before(injection, unit_index, attempt, inline)
    payload = fn(unit)
    checksum = payload_checksum(payload)
    dropped = False
    if injection is not None and injector is not None:
        payload, dropped = injector.apply_after(injection, unit_index, attempt, payload)
    return _Envelope(
        unit_index=unit_index,
        attempt=attempt,
        payload=payload,
        checksum=checksum,
        dropped=dropped,
        injected=injection.fired if injection is not None else (),
    )


def _backoff_delay(policy: SchedulerPolicy, unit: int, failure_count: int) -> float:
    base = policy.backoff_base * (2.0 ** max(0, failure_count - 1))
    delay = min(policy.backoff_cap, base)
    seed = policy.chaos.seed if policy.chaos is not None else 0
    u = float(
        np.random.default_rng(
            grid_seed_sequence(seed, _BACKOFF_KEY, unit, failure_count)
        ).random()
    )
    return delay * (1.0 + policy.backoff_jitter * u)


# -- the supervisor ----------------------------------------------------


class _Supervisor:
    """Event loop driving one supervised run over a process pool."""

    def __init__(
        self,
        fn: Callable,
        units: List,
        workers: int,
        policy: SchedulerPolicy,
        report: FaultReport,
    ) -> None:
        self.fn = fn
        self.units = units
        self.workers = workers
        self.policy = policy
        self.report = report
        self.chaos_dict = policy.chaos.to_dict() if policy.chaos else None

        n = len(units)
        self.results: List[Optional[object]] = [None] * n
        self.checksums: List[Optional[str]] = [None] * n
        self.done = [False] * n
        self.num_done = 0
        self.failures = [0] * n
        self.launches = [0] * n
        self.last_error: List[Optional[str]] = [None] * n
        self.ready: List[Tuple[float, int]] = [(0.0, i) for i in range(n)]
        heapq.heapify(self.ready)
        self.inflight: Dict[Future, Tuple[int, int, float]] = {}
        self.zombies: Dict[Future, Tuple[int, int, float]] = {}
        self.inflight_per_unit: Dict[int, int] = {}

        self.warm = pool_mod.persistent_pools_enabled()
        if self.warm:
            self.executor = pool_mod.get_executor(workers)
            pool_mod.acquire_lease(self.executor)
        else:
            self.executor = ProcessPoolExecutor(max_workers=workers)

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        if self.warm:
            pool_mod.release_lease(self.executor)
        else:
            # Zombie attempts (timed out, still running) must not block
            # the caller; the executor reaps them asynchronously.
            self.executor.shutdown(wait=not self.zombies)

    def _fresh_executor(self) -> None:
        if self.warm:
            pool_mod.release_lease(self.executor)
            pool_mod.discard_executor()
            self.executor = pool_mod.get_executor(self.workers)
            pool_mod.acquire_lease(self.executor)
        else:
            self.executor.shutdown(wait=False, cancel_futures=True)
            self.executor = ProcessPoolExecutor(max_workers=self.workers)

    # -- submission ----------------------------------------------------

    def _submit(self, unit: int) -> bool:
        attempt = self.launches[unit]
        self.launches[unit] += 1
        task = (unit, attempt, self.units[unit], False)
        try:
            future = self.executor.submit(_execute_unit, self.fn, self.chaos_dict, task)
        except BrokenProcessPool:
            # A worker died an instant ago and submit itself noticed
            # before wait() could: treat it like any other pool break
            # (the attempted unit is a victim alongside everything in
            # flight) and let the caller stop touching stale state.
            self._handle_pool_break([(unit, attempt, time.monotonic())])
            return False
        self.inflight[future] = (unit, attempt, time.monotonic())
        self.inflight_per_unit[unit] = self.inflight_per_unit.get(unit, 0) + 1
        self.report.attempts += 1
        return True

    def _drain_ready(self, now: float) -> None:
        while self.ready and self.ready[0][0] <= now and len(self.inflight) < self.workers:
            _, unit = heapq.heappop(self.ready)
            if self.done[unit]:
                continue
            self._submit(unit)

    def _speculate(self, now: float) -> None:
        after = self.policy.speculate_after
        if after is None or len(self.inflight) >= self.workers:
            return
        candidates = sorted(self.inflight.values(), key=lambda entry: entry[2])
        for unit, _, submitted in candidates:
            if len(self.inflight) >= self.workers:
                break
            if self.done[unit] or self.inflight_per_unit.get(unit, 0) >= 2:
                continue
            if now - submitted < after:
                break  # sorted by age: younger entries cannot qualify either
            self.report.speculative += 1
            self.report.record(unit, self.launches[unit], "speculate")
            if not self._submit(unit):
                break  # pool broke; the candidate snapshot is stale

    # -- outcomes ------------------------------------------------------

    def _schedule_retry_or_quarantine(self, unit: int, attempt: int, error: str) -> None:
        self.failures[unit] += 1
        self.last_error[unit] = error
        if self.done[unit]:
            return  # a failed duplicate of an already-completed unit
        if self.failures[unit] > self.policy.max_retries:
            # Quarantined: nothing further is scheduled; the unit is
            # dead unless an attempt still in flight lands a result.
            self.report.record(unit, attempt, "quarantine", error)
            return
        self.report.retries += 1
        ready_at = time.monotonic() + _backoff_delay(
            self.policy, unit, self.failures[unit]
        )
        heapq.heappush(self.ready, (ready_at, unit))

    def _record_exception(self, unit: int, attempt: int, exc: BaseException) -> None:
        if isinstance(exc, InjectedFailure):
            self.report.crashes += 1
            kind = "crash"
        elif isinstance(exc, UnitTimeoutError):
            self.report.timeouts += 1
            kind = "timeout"
        else:
            self.report.errors += 1
            kind = "error"
        detail = f"{type(exc).__name__}: {exc}"
        self.report.record(unit, attempt, kind, detail)
        self._schedule_retry_or_quarantine(unit, attempt, detail)

    def _accept(self, unit: int, attempt: int, envelope: _Envelope) -> None:
        if envelope.dropped:
            self.report.drops += 1
            self.report.record(unit, attempt, "drop")
            self._schedule_retry_or_quarantine(unit, attempt, "result dropped")
            return
        checksum = payload_checksum(envelope.payload)
        if checksum != envelope.checksum:
            self.report.corrupt += 1
            exc = CorruptResultError(
                f"unit {unit} attempt {attempt} returned a corrupt result "
                f"(checksum mismatch)",
                unit,
                attempt,
            )
            self.report.record(unit, attempt, "corrupt", str(exc))
            self._schedule_retry_or_quarantine(unit, attempt, str(exc))
            return
        if "delay" in envelope.injected:
            self.report.delays += 1
        if self.done[unit]:
            # Duplicate completion (speculation or a late zombie):
            # determinism makes re-execution bit-identical, and we hold
            # the scheduler to that contract rather than assuming it.
            if checksum != self.checksums[unit]:
                raise SchedulerError(
                    f"speculative re-execution of unit {unit} produced a "
                    f"different result — the determinism contract is broken"
                )
            self.report.dedup_identical += 1
            self.report.record(unit, attempt, "dedup")
            return
        self.results[unit] = envelope.payload
        self.checksums[unit] = checksum
        self.done[unit] = True
        self.num_done += 1
        self.report.completed += 1
        _emit(
            "unit_completed",
            unit=unit,
            attempt=attempt,
            completed=self.num_done,
            units=len(self.units),
        )

    def _handle_pool_break(self, broken: Sequence[Tuple[int, int, float]]) -> None:
        # ``broken`` carries the entries whose futures already raised
        # BrokenProcessPool (popped in the completion loop); everything
        # still tracked in flight died with the same pool.
        self.report.pool_breaks += 1
        victims = sorted(
            {
                unit
                for unit, _, _ in list(broken)
                + list(self.inflight.values())
                + list(self.zombies.values())
                if not self.done[unit]
            }
        )
        self.inflight.clear()
        self.zombies.clear()
        self.inflight_per_unit.clear()
        self._fresh_executor()
        for unit in victims:
            self.report.record(unit, self.launches[unit] - 1, "pool_break")
            self._schedule_retry_or_quarantine(
                unit, self.launches[unit] - 1, "worker pool broke"
            )

    def _expire_timeouts(self, now: float) -> None:
        timeout = self.policy.unit_timeout
        if timeout is None:
            return
        for future, (unit, attempt, submitted) in list(self.inflight.items()):
            if now - submitted < timeout:
                continue
            del self.inflight[future]
            self.inflight_per_unit[unit] = max(0, self.inflight_per_unit.get(unit, 1) - 1)
            was_queued = future.cancel()
            if not was_queued:
                # Still executing: keep listening so a late result is
                # deduplicated (or rescues the unit) instead of leaking.
                self.zombies[future] = (unit, attempt, submitted)
            if self.done[unit]:
                continue
            self._record_exception(
                unit,
                attempt,
                UnitTimeoutError(
                    f"unit {unit} attempt {attempt} exceeded "
                    f"unit_timeout={timeout}s",
                    unit,
                    attempt,
                ),
            )

    # -- the loop ------------------------------------------------------

    def _next_wakeup(self, now: float) -> Optional[float]:
        candidates: List[float] = []
        if self.ready:
            candidates.append(self.ready[0][0])
        if self.policy.unit_timeout is not None:
            candidates.extend(
                submitted + self.policy.unit_timeout
                for _, _, submitted in self.inflight.values()
            )
        if self.policy.speculate_after is not None:
            candidates.extend(
                submitted + self.policy.speculate_after
                for unit, _, submitted in self.inflight.values()
                if not self.done[unit] and self.inflight_per_unit.get(unit, 0) < 2
            )
        if not candidates:
            return None
        return max(0.005, min(candidates) - now)

    def run(self) -> None:
        while self.num_done < len(self.units):
            now = time.monotonic()
            self._drain_ready(now)
            self._speculate(now)
            if not self.inflight:
                if self.ready:
                    time.sleep(max(0.0, min(0.5, self.ready[0][0] - time.monotonic())))
                    continue
                break  # only quarantined units (and maybe zombies) remain
            waitset = set(self.inflight) | set(self.zombies)
            completed, _ = wait(
                waitset,
                timeout=self._next_wakeup(now),
                return_when=FIRST_COMPLETED,
            )
            broken: List[Tuple[int, int, float]] = []
            for future in completed:
                entry = self.inflight.pop(future, None)
                if entry is not None:
                    unit = entry[0]
                    self.inflight_per_unit[unit] = max(
                        0, self.inflight_per_unit.get(unit, 1) - 1
                    )
                else:
                    entry = self.zombies.pop(future, None)
                if entry is None:  # pragma: no cover - defensive
                    continue
                unit, attempt, _ = entry
                try:
                    envelope = future.result()
                except BrokenProcessPool:
                    broken.append(entry)
                except CancelledError:
                    pass  # a timed-out attempt cancelled while queued
                except BaseException as exc:
                    self._record_exception(unit, attempt, exc)
                else:
                    self._accept(unit, attempt, envelope)
            if broken:
                self._handle_pool_break(broken)
                continue
            self._expire_timeouts(time.monotonic())


def _run_inline(
    fn: Callable,
    units: List,
    policy: SchedulerPolicy,
    report: FaultReport,
) -> List[Optional[object]]:
    """Single-worker path: same retry/quarantine semantics, no pool.

    Timeouts and speculation need concurrency and are inert here; the
    chaos middleware still applies (``broken_pool`` degrades to a
    crash so it cannot kill the calling process).
    """
    chaos_dict = policy.chaos.to_dict() if policy.chaos else None
    results: List[Optional[object]] = [None] * len(units)
    for index, unit in enumerate(units):
        failures = 0
        while True:
            attempt = failures  # inline launches are strictly sequential
            report.attempts += 1
            outcome: Optional[str] = None
            try:
                envelope = _execute_unit(fn, chaos_dict, (index, attempt, unit, True))
            except InjectedFailure as exc:
                report.crashes += 1
                outcome = f"{type(exc).__name__}: {exc}"
                report.record(index, attempt, "crash", outcome)
            except BaseException as exc:
                report.errors += 1
                outcome = f"{type(exc).__name__}: {exc}"
                report.record(index, attempt, "error", outcome)
            else:
                if envelope.dropped:
                    report.drops += 1
                    outcome = "result dropped"
                    report.record(index, attempt, "drop")
                elif payload_checksum(envelope.payload) != envelope.checksum:
                    report.corrupt += 1
                    outcome = "corrupt result (checksum mismatch)"
                    report.record(index, attempt, "corrupt")
                else:
                    if "delay" in envelope.injected:
                        report.delays += 1
                    results[index] = envelope.payload
                    report.completed += 1
                    _emit(
                        "unit_completed",
                        unit=index,
                        attempt=attempt,
                        completed=report.completed,
                        units=len(units),
                    )
                    break
            failures += 1
            if failures > policy.max_retries:
                report.record(index, attempt, "quarantine", outcome or "")
                report.dead_units.append(
                    {
                        "unit_index": index,
                        "failures": failures,
                        "last_error": outcome,
                    }
                )
                break
            report.retries += 1
            time.sleep(_backoff_delay(policy, index, failures))
    return results


def run_units(
    fn: Callable,
    units: Sequence,
    workers: Optional[int] = None,
    policy: Optional[SchedulerPolicy] = None,
) -> Tuple[List[Optional[object]], FaultReport]:
    """Run ``fn(unit)`` for every unit under per-unit supervision.

    Returns ``(results, report)`` where ``results`` holds one entry per
    unit in submission order — the unit's payload, or ``None`` for a
    quarantined (dead) unit when ``policy.allow_partial`` — and
    ``report`` is the structured :class:`FaultReport`.

    The drop-in fault-tolerant sibling of
    :func:`repro.simulation.engine.run_batches`: same call shape, same
    in-order results, but per-unit failure domains instead of
    all-or-nothing.  The study executor hands either function the same
    unit list in the same order, for :meth:`Study.run` and
    :meth:`Study.run_extension` alike, so chaos plans keyed on unit
    index address the same blocks on both paths.
    """
    policy = policy if policy is not None else SchedulerPolicy()
    units = list(units)
    report = FaultReport(units=len(units))
    if not units:
        return [], report
    workers = default_workers() if workers is None else int(workers)
    if workers < 1:
        raise ParameterError(f"workers must be >= 1, got {workers}")
    workers = min(workers, len(units))

    if workers == 1:
        results = _run_inline(fn, units, policy, report)
    else:
        supervisor = _Supervisor(fn, units, workers, policy, report)
        try:
            supervisor.run()
        finally:
            supervisor.close()
        results = supervisor.results
        for index in range(len(units)):
            if not supervisor.done[index]:
                report.dead_units.append(
                    {
                        "unit_index": index,
                        "failures": supervisor.failures[index],
                        "last_error": supervisor.last_error[index],
                    }
                )

    if report.dead_units and not policy.allow_partial:
        dead = [d["unit_index"] for d in report.dead_units]
        raise DeadUnitError(
            f"{len(dead)} work unit(s) exhausted their retry budget "
            f"(max_retries={policy.max_retries}): units {dead}"
        )
    return results, report
