"""Monte Carlo execution substrate: engine, pools, scheduler, results.

Every Monte Carlo estimate in this package comes from one execution
path, the shared-deployment study compiler in :mod:`repro.study`: one
sampled world per ``(size, K, trial)`` cell serves every ``(q, p)``
curve and every metric of its group.  Rings are sampled once,
key-overlap counts are computed once, and all channel probabilities
are realized from a single uniform draw per candidate edge by nested
thinning (``U < p``).  Marginally each curve sees exactly the model of
Section II; jointly the curves are coupled monotonically (smaller
``p`` / larger ``q`` edge sets are subsets of larger ``p`` / smaller
``q`` ones within a deployment).

The coupling is deliberate common-random-numbers design: differences
and orderings *between* curves (e.g. threshold locations in Figure 1)
are estimated with much lower variance, and the dominant sampling cost
is paid once instead of once per curve.  The flip side: estimates at
the same ``(K, trial)`` are positively correlated **across curves**, so
they must not be treated as independent when aggregating over curves.
Across trials and across ring sizes everything remains independent.

This package holds what that path runs on:

* :mod:`~repro.simulation.engine` — deterministic fan-out of work
  units (:func:`run_batches`) and of per-trial protocols
  (:func:`run_trials`, used by protocol scenarios such as
  ``coupling``);
* :mod:`~repro.simulation.pool` — *warm* worker pools kept alive
  across calls, so repeated invocations stop paying worker startup
  (``REPRO_PERSISTENT_POOL=0`` disables reuse);
* :mod:`~repro.simulation.scheduler` and
  :mod:`~repro.simulation.faults` — the per-unit supervisor (retries,
  timeouts, speculation, quarantine) and its seeded chaos injector;
* :mod:`~repro.simulation.estimators` and
  :mod:`~repro.simulation.results` — Bernoulli estimates and the
  experiment result type.
"""

from repro.simulation.engine import (
    default_workers,
    run_batches,
    run_trials,
    trials_from_env,
)
from repro.simulation.pool import (
    discard_executor,
    executor_lease,
    get_executor,
    persistent_pools_enabled,
    shutdown_pools,
    submit_batches,
)
from repro.simulation.faults import (
    ChaosSpec,
    FailureInjector,
    FaultStrategy,
    chaos_from_env,
    load_chaos,
)
from repro.simulation.scheduler import (
    FaultReport,
    SchedulerPolicy,
    combine_fault_reports,
    resolve_scheduler_policy,
    run_units,
)
from repro.simulation.estimators import BernoulliEstimate, wilson_interval
from repro.simulation.results import (
    CurvePoint,
    ExperimentResult,
    load_result,
    save_result,
)

__all__ = [
    "default_workers",
    "run_trials",
    "run_batches",
    "trials_from_env",
    "get_executor",
    "discard_executor",
    "executor_lease",
    "persistent_pools_enabled",
    "shutdown_pools",
    "submit_batches",
    "ChaosSpec",
    "FaultStrategy",
    "FailureInjector",
    "chaos_from_env",
    "load_chaos",
    "FaultReport",
    "SchedulerPolicy",
    "combine_fault_reports",
    "resolve_scheduler_policy",
    "run_units",
    "BernoulliEstimate",
    "wilson_interval",
    "CurvePoint",
    "ExperimentResult",
    "load_result",
    "save_result",
]
