"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised intentionally by this library derive from
:class:`ReproError`, so callers can catch one base class at an API
boundary.  Standard Python exceptions (``TypeError`` for wrong argument
types, ``ValueError`` raised by numpy, ...) may still propagate from
misuse that the library does not guard explicitly.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ParameterError(ReproError, ValueError):
    """A model or experiment parameter is outside its valid domain.

    Raised, for example, when a key ring size exceeds the key pool size,
    when a probability lies outside ``[0, 1]``, or when the required key
    overlap ``q`` is not a positive integer.  Inherits from ``ValueError``
    so generic callers that catch ``ValueError`` keep working.
    """


class GraphError(ReproError):
    """An operation on a graph received an invalid graph or node."""


class SimulationError(ReproError):
    """A Monte Carlo simulation could not be carried out as requested."""


class DesignError(ReproError):
    """A network-design query has no feasible solution.

    Raised by the dimensioning solvers in :mod:`repro.core.design` when no
    parameter value in the allowed range achieves the requested target
    (e.g. no key ring size ``K <= P/2`` reaches the connectivity
    threshold).
    """


class ExperimentError(ReproError):
    """An experiment was configured or invoked incorrectly."""


class SchedulerError(ReproError):
    """Fault-tolerant work-unit scheduling was misconfigured or failed.

    Base class for the typed per-unit failures below; callers of
    :func:`repro.simulation.scheduler.run_units` can catch this one
    class at the boundary.
    """


class WorkUnitError(SchedulerError):
    """One work unit's attempt failed; carries unit index and attempt.

    Instances cross process boundaries (a worker raises, the supervisor
    observes), so ``__reduce__`` keeps the identifying fields through
    pickling.
    """

    def __init__(self, message: str, unit_index=None, attempt=None) -> None:
        super().__init__(message)
        self.unit_index = unit_index
        self.attempt = attempt

    def __reduce__(self):
        return (self.__class__, (self.args[0], self.unit_index, self.attempt))


class UnitTimeoutError(WorkUnitError):
    """A work unit exceeded the scheduler's per-unit timeout.

    The attempt is declared lost and retried; the original execution may
    still complete later, in which case its (bit-identical) result is
    deduplicated, never double-counted.
    """


class CorruptResultError(WorkUnitError):
    """A work unit's result failed integrity validation.

    Raised supervisor-side when a returned payload does not match the
    checksum computed at the worker before the result was shipped —
    a dropped or corrupted (e.g. chaos ``partial``-strategy) result.
    """


class InjectedFailure(WorkUnitError):
    """A failure deliberately raised by the chaos-injection harness.

    The ``crash`` strategy of :class:`repro.simulation.faults.ChaosSpec`
    raises this inside the worker; seeing it escape a run means the
    scheduler's retry budget was exhausted (or no supervisor was active).
    """


class ShardMismatchError(ExperimentError):
    """Two result shards do not describe the same Scenario.

    Raised by :meth:`repro.study.result.ScenarioResult.merge` when the
    content hashes of the two scenarios differ, and by
    :meth:`ScenarioResult.from_dict` when a serialized shard's embedded
    ``scenario_hash`` does not match the scenario it carries.  Inherits
    from :class:`ExperimentError` so existing merge-boundary handlers
    keep working.
    """


class TransportError(ReproError):
    """A shard transport failed to execute or round-trip a shard.

    Raised by :mod:`repro.service.shards` when a worker invocation fails
    (non-zero exit, unreadable result payload), when a shard result's
    payload checksum does not match, or when folded shards do not cover
    the requested trial window.
    """


class AnalysisError(ReproError):
    """The static-analysis linter was misconfigured or could not run.

    Raised by :mod:`repro.analysis` for unknown rule ids, malformed
    baseline files, and invalid rule registrations — never for findings
    in analyzed code, which are reported, not raised.
    """


class DeadUnitError(SchedulerError):
    """Work units exhausted their retry budget and were quarantined.

    Raised only when a caller demands complete results
    (``allow_partial=False``); the default scheduling path degrades to a
    partial result plus a structured fault report instead.
    """
