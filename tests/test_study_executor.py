"""The study executor: one block layout, one provenance, any window.

``Study.run`` is the full-window case of ``Study.run_extension``: both
emit the same ``(group, size, K-column, trial-block)`` work units,
assemble the same tensors and stamp the same provenance.  These tests
pin what a one-shot run reports for a study with two deployment
families of different trial counts — the unit list handed to the
dispatcher (chaos plans are keyed on unit index, so order matters),
the unit and deployment counts, and the fault-report window — at
several worker counts, supervised and plain.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.simulation.scheduler import SchedulerPolicy
from repro.study import MetricSpec, Scenario, Study
from repro.study import compiler

PLAIN = Scenario(
    name="plain",
    num_nodes=40,
    pool_size=300,
    ring_sizes=(12,),
    curves=((2, 0.6), (2, 1.0)),
    metrics=(MetricSpec("connectivity"),),
    trials=5,
    seed=11,
)
SIZED = Scenario(
    name="sized",
    num_nodes_grid=(30,),
    pool_size=300,
    ring_sizes=((10,),),
    curves=((1, 0.8),),
    metrics=(MetricSpec("connectivity"), MetricSpec("giant_fraction")),
    trials=3,
    seed=7,
)
STUDY = Study((PLAIN, SIZED))

GROUPS = [
    {
        "scenarios": ["plain"],
        "trials": 5,
        "seed": 11,
        "kernel_backend": "reference",
        "num_nodes": 40,
        "pool_size": 300,
        "ring_sizes": [12],
        "q_min": 2,
    },
    {
        "scenarios": ["sized"],
        "trials": 3,
        "seed": 7,
        "kernel_backend": "reference",
        "num_nodes_grid": [30],
        "pool_sizes": [300],
        "ring_sizes": [[10]],
        "q_mins": [1],
    },
]

#: The ``(group, size, ring, start, stop)`` units a one-shot run hands
#: the dispatcher, in submission order, per worker count.
UNITS = {
    1: [(0, 0, 0, 0, 5), (1, 0, 0, 0, 3)],
    3: [(0, 0, 0, 0, 2), (0, 0, 0, 2, 5), (1, 0, 0, 0, 1), (1, 0, 0, 1, 3)],
}


@pytest.fixture(autouse=True)
def _no_env_chaos(monkeypatch):
    monkeypatch.delenv("REPRO_CHAOS", raising=False)


@pytest.fixture(scope="module")
def reference():
    return STUDY.run(workers=1)


@pytest.mark.parametrize("supervised", [False, True])
@pytest.mark.parametrize("workers", [1, 3])
def test_run_provenance_pinned(workers, supervised, reference, monkeypatch):
    seen = []
    dispatch = "run_units" if supervised else "run_batches"
    original = getattr(compiler, dispatch)

    def recording(fn, units, *args, **kwargs):
        seen.append(list(units))
        return original(fn, units, *args, **kwargs)

    monkeypatch.setattr(compiler, dispatch, recording)
    result = STUDY.run(
        workers=workers, scheduler=SchedulerPolicy() if supervised else None
    )
    assert seen == [UNITS[workers]]
    prov = result.provenance
    assert prov["units"] == len(UNITS[workers])
    assert prov["deployments"] == 5 + 3
    assert prov["workers"] == workers
    assert prov["kernel_backends"] == ["reference"]
    assert prov["groups"] == GROUPS
    assert "trial_window" not in prov
    if supervised:
        assert prov["faults"]["units"] == len(UNITS[workers])
        assert prov["faults"]["window"] == [0, 5]
    else:
        assert "faults" not in prov and "scheduler" not in prov
    for got, want in zip(result.results, reference.results):
        assert got.scenario == want.scenario
        assert got.trial_offset == 0
        assert np.array_equal(got.values, want.values)


@pytest.mark.parametrize("scenario", [PLAIN, SIZED], ids=lambda s: s.name)
def test_full_window_extension_equals_run(scenario):
    study = Study((scenario,))
    one_shot = study.run(workers=2)[scenario.name]
    extension = study.run_extension(0, scenario.trials, workers=2)
    assert extension.provenance["trial_window"] == [0, scenario.trials]
    got = extension[scenario.name]
    assert got.scenario == scenario
    assert got.trial_offset == 0
    assert np.array_equal(got.values, one_shot.values)
