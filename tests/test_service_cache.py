"""Content-addressed cache: cold/warm/extension bit-identity.

The contract: whatever the cache holds, ``run_cached`` returns values
bit-identical to a cold one-shot run — a hit truncates absolute-indexed
trial slots, an extension reruns only the identically-seeded missing
window, and fault reports from stored and delta runs fold without
double-counting.  Exercised on the warm pool, with and without chaos
injection, mirroring the supervisor's convergence proofs.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.service.cache import CACHE_FORMAT, CacheEntry, ResultCache, run_cached, run_study
from repro.service.shards import InProcessTransport
from repro.service import events
from repro.simulation.faults import ChaosSpec, FaultStrategy
from repro.simulation.scheduler import SchedulerPolicy, combine_fault_reports
from repro.study.compiler import Study
from repro.study.scenario import MetricSpec, Scenario
from repro.utils import rng

WORKERS = 2


def _scenario(trials=6):
    return Scenario(
        name="cached",
        num_nodes_grid=(30, 40),
        pool_size=300,
        ring_sizes=(12, 15),
        curves=((2, 0.6), (2, 1.0)),
        trials=trials,
        seed=11,
        metrics=(MetricSpec("connectivity"),),
    )


def _chaos_policy():
    spec = ChaosSpec(
        seed=5,
        strategies=(
            FaultStrategy(kind="crash", probability=0.9, max_attempt=2),
        ),
    )
    return SchedulerPolicy(max_retries=4, backoff_base=0.01, chaos=spec)


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


class TestDispositionsBitIdentical:
    """Cold → warm → extension, always exact."""

    def test_cold_warm_extension(self, cache):
        study = Study((_scenario(),))
        baseline = study.run(workers=WORKERS)

        cold = run_cached(study, cache, workers=WORKERS)
        assert cold.provenance["cache"]["disposition"] == "miss"
        assert cold.provenance["cache"]["executed_units"] > 0
        assert np.array_equal(baseline["cached"].values, cold["cached"].values)

        warm = run_cached(study, cache, workers=WORKERS)
        assert warm.provenance["cache"]["disposition"] == "hit"
        assert warm.provenance["cache"]["executed_units"] == 0
        assert warm.provenance["units"] == 0
        assert np.array_equal(baseline["cached"].values, warm["cached"].values)

        extended = Study((_scenario(trials=10),))
        base_ext = extended.run(workers=WORKERS)
        ext = run_cached(extended, cache, workers=WORKERS)
        info = ext.provenance["cache"]
        assert info["disposition"] == "extension"
        assert info["delta_window"] == [6, 10]
        # Only the delta window executed: work units still span every
        # grid column, but the deployments they computed cover only the
        # 4-trial delta, not the full 10.
        assert info["executed_units"] == ext.provenance["units"] > 0
        assert ext.provenance["deployments"] < base_ext.provenance["deployments"]
        assert np.array_equal(base_ext["cached"].values, ext["cached"].values)

        # The extension stored back: the original request now truncates.
        trunc = run_cached(study, cache, workers=WORKERS)
        assert trunc.provenance["cache"]["disposition"] == "hit"
        assert np.array_equal(baseline["cached"].values, trunc["cached"].values)

    def test_chaos_runs_hit_the_same_cache(self, cache):
        study = Study((_scenario(),))
        baseline = study.run(workers=WORKERS)

        cold = run_cached(study, cache, workers=WORKERS, scheduler=_chaos_policy())
        assert cold.provenance["cache"]["disposition"] == "miss"
        assert cold.provenance["faults"]["crashes"] > 0
        assert np.array_equal(baseline["cached"].values, cold["cached"].values)

        extended = Study((_scenario(trials=10),))
        base_ext = extended.run(workers=WORKERS)
        ext = run_cached(
            extended, cache, workers=WORKERS, scheduler=_chaos_policy()
        )
        assert ext.provenance["cache"]["disposition"] == "extension"
        assert np.array_equal(base_ext["cached"].values, ext["cached"].values)


class TestFaultDedup:
    def test_extension_does_not_double_count_stored_faults(self, cache):
        study = Study((_scenario(),))
        cold = run_cached(study, cache, workers=WORKERS, scheduler=_chaos_policy())
        cold_faults = cold.provenance["faults"]

        extended = Study((_scenario(trials=10),))
        ext = run_cached(
            extended, cache, workers=WORKERS, scheduler=_chaos_policy()
        )
        ext_faults = ext.provenance["faults"]
        # The stored report rides along exactly once; the delta round
        # adds its own on top.  A double-count would at least double
        # the cold attempt total.
        assert ext_faults["attempts"] > cold_faults["attempts"]
        assert ext_faults["attempts"] < 2 * cold_faults["attempts"] + 1

        # Re-requesting the extended study is a pure hit: this run
        # executed nothing, so it reports no faults of its own — the
        # folded history comes back unchanged from the store under the
        # cache record, not re-summed and not resurrected as "faults".
        again = run_cached(extended, cache, workers=WORKERS)
        assert again.provenance["cache"]["disposition"] == "hit"
        assert "faults" not in again.provenance
        stored = again.provenance["cache"]["stored_faults"]
        assert stored["attempts"] == ext_faults["attempts"]

    def test_hit_after_faulted_run_has_fault_free_provenance(self, cache):
        """Regression: cached-with-faults → fault-free rerun provenance.

        A chaos-supervised cold run stores its fault report with the
        result.  A later fault-free rerun answered entirely from the
        cache must not claim those crashes as its own execution: no
        top-level ``"faults"``, zero units — while the history stays
        inspectable under ``cache.stored_faults``.
        """
        study = Study((_scenario(),))
        cold = run_cached(study, cache, workers=WORKERS, scheduler=_chaos_policy())
        assert cold.provenance["faults"]["crashes"] > 0

        rerun = run_cached(study, cache, workers=WORKERS)
        info = rerun.provenance["cache"]
        assert info["disposition"] == "hit"
        assert info["executed_units"] == 0
        assert "faults" not in rerun.provenance
        assert info["stored_faults"]["crashes"] == cold.provenance["faults"]["crashes"]
        assert np.array_equal(cold["cached"].values, rerun["cached"].values)

    def test_fault_free_history_leaves_hit_provenance_clean(self, cache):
        """A hit on an entry stored without faults carries neither key."""
        study = Study((_scenario(),))
        run_cached(study, cache, workers=WORKERS)
        hit = run_cached(study, cache, workers=WORKERS)
        assert hit.provenance["cache"]["disposition"] == "hit"
        assert "faults" not in hit.provenance
        assert "stored_faults" not in hit.provenance["cache"]

    def test_combine_is_idempotent_on_duplicates(self):
        report = {
            "units": 2,
            "attempts": 3,
            "completed": 2,
            "crashes": 1,
            "window": [0, 6],
            "events": [
                {"unit": 0, "attempt": 0, "kind": "crash", "detail": "boom"}
            ],
            "dead_units": [],
        }
        twice = combine_fault_reports([report, json.loads(json.dumps(report))])
        assert twice["attempts"] == 3
        assert twice["crashes"] == 1
        assert len(twice["events"]) == 1

    def test_distinct_windows_both_survive(self):
        base = {
            "units": 1,
            "attempts": 1,
            "completed": 1,
            "events": [{"unit": 0, "attempt": 0, "kind": "crash"}],
            "dead_units": [],
        }
        first = dict(base, window=[0, 6])
        second = dict(base, window=[6, 10])
        combined = combine_fault_reports([first, second])
        # Same (unit, attempt, kind) in different trial windows are
        # genuinely different events.
        assert combined["attempts"] == 2
        assert len(combined["events"]) == 2
        # The service folds folded reports: a stored combined report
        # re-entering the fold verbatim stays fully deduplicated, and
        # even a constituent resurfacing cannot duplicate its events
        # (they carry their window stamps).
        refolded = combine_fault_reports([combined, json.loads(json.dumps(combined))])
        assert refolded["attempts"] == 2
        assert len(refolded["events"]) == 2
        with_constituent = combine_fault_reports([combined, first])
        assert len(with_constituent["events"]) == 2


class TestStorePolicy:
    def test_store_rejects_partial_results(self, cache):
        study = Study((_scenario(),))
        result = study.run(workers=WORKERS)["cached"]
        holed = result.values.copy()
        holed[0, 0, 0, 0, 0] = np.nan
        assert cache.store(dataclasses.replace(result, values=holed)) is False
        assert cache.lookup(result.scenario) is None

    def test_store_rejects_window_shards(self, cache):
        study = Study((_scenario(),))
        shard = study.run_extension(2, 4, workers=WORKERS)["cached"]
        assert shard.trial_offset == 2
        assert cache.store(shard) is False

    def test_store_keeps_the_widest_result(self, cache):
        wide = Study((_scenario(trials=10),)).run(workers=WORKERS)["cached"]
        narrow = Study((_scenario(trials=4),)).run(workers=WORKERS)["cached"]
        assert cache.store(wide) is True
        assert cache.store(narrow) is False  # does not regress coverage
        entry = cache.lookup(wide.scenario)
        assert isinstance(entry, CacheEntry) and entry.trials == 10

    def test_hit_reads_each_entry_once_and_writes_nothing(self, cache, monkeypatch):
        other = dataclasses.replace(_scenario(), name="other", seed=12)
        study = Study((_scenario(), other))
        run_cached(study, cache, workers=WORKERS)
        paths = [cache.path_for(sc.content_hash()) for sc in study.scenarios]
        before = [path.read_bytes() for path in paths]
        mtimes = [path.stat().st_mtime_ns for path in paths]

        looked_up = []
        original = ResultCache.lookup

        def counting_lookup(self, scenario):
            looked_up.append(scenario.name)
            return original(self, scenario)

        monkeypatch.setattr(ResultCache, "lookup", counting_lookup)
        hit = run_cached(Study((_scenario(trials=4), dataclasses.replace(other, trials=4))),
                         cache, workers=WORKERS)
        assert hit.provenance["cache"]["disposition"] == "hit"
        assert sorted(looked_up) == ["cached", "other"]
        assert [path.read_bytes() for path in paths] == before
        assert [path.stat().st_mtime_ns for path in paths] == mtimes

    def test_overlapping_stores_do_not_collide(self, cache, monkeypatch):
        # A second store of the same entry lands between the first
        # store's write and its rename, as two overlapping jobs of one
        # `repro serve` do.  Each writer needs its own temp file.
        wide = Study((_scenario(trials=6),)).run(workers=WORKERS)["cached"]
        narrow = Study((_scenario(trials=4),)).run(workers=WORKERS)["cached"]
        original = pathlib.Path.replace
        nested = []

        def replace_after_nested_store(self, target):
            if not nested:
                nested.append(None)  # the nested store renames too
                nested[0] = cache.store(narrow)
            return original(self, target)

        monkeypatch.setattr(pathlib.Path, "replace", replace_after_nested_store)
        assert cache.store(wide) is True
        assert nested == [True]
        entry = cache.lookup(wide.scenario)
        assert isinstance(entry, CacheEntry) and entry.trials == 6
        assert np.array_equal(entry.result.values, wide.values)
        assert not list(cache.root.rglob("*.tmp"))

    def test_failed_store_leaves_no_temp_file(self, cache, monkeypatch):
        result = Study((_scenario(),)).run(workers=WORKERS)["cached"]

        def refuse(self, target):
            raise OSError("disk full")

        monkeypatch.setattr(pathlib.Path, "replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            cache.store(result)
        monkeypatch.undo()
        assert cache.lookup(result.scenario) is None
        assert not list(cache.root.rglob("*.tmp"))

    def test_lookup_survives_corrupt_entries(self, cache):
        scenario = _scenario()
        key = scenario.content_hash()
        path = cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{ not json")
        assert cache.lookup(scenario) is None
        path.write_text(json.dumps({"format": "wrong/v9", "scenario_hash": key}))
        assert cache.lookup(scenario) is None
        path.write_text(
            json.dumps({"format": CACHE_FORMAT, "scenario_hash": "0" * 64})
        )
        assert cache.lookup(scenario) is None


class TestStreamStamp:
    """Entries from another sampling stream or numpy series miss."""

    @pytest.mark.parametrize(
        "owner, attr, value",
        [(rng, "STREAM_VERSION", rng.STREAM_VERSION + 1), (np, "__version__", "99.0.0")],
        ids=["stream_version", "numpy"],
    )
    def test_stamp_change_turns_hit_into_miss(self, cache, monkeypatch, owner, attr, value):
        study = Study((_scenario(),))
        key = study.scenarios[0].content_hash()
        cold = run_cached(study, cache, workers=1)
        assert run_cached(study, cache, workers=1).provenance["cache"]["disposition"] == "hit"
        monkeypatch.setattr(owner, attr, value)
        assert cache.lookup(study.scenarios[0]) is None
        again = run_cached(study, cache, workers=1)
        assert again.provenance["cache"]["disposition"] == "miss"
        assert again.provenance["cache"]["scenario_hashes"]["cached"] == key
        assert np.array_equal(again["cached"].values, cold["cached"].values)
        # The miss restamped the entry: the new stream now hits.
        assert run_cached(study, cache, workers=1).provenance["cache"]["disposition"] == "hit"

    def test_unstamped_entry_misses(self, cache):
        scenario = _scenario()
        run_cached(Study((scenario,)), cache, workers=1)
        path = cache.path_for(scenario.content_hash())
        payload = json.loads(path.read_text())
        assert payload["stream_version"] == rng.STREAM_VERSION
        assert payload["numpy"] == ".".join(np.__version__.split(".")[:2])
        del payload["stream_version"]
        path.write_text(json.dumps(payload))
        assert cache.lookup(scenario) is None


class TestRunStudy:
    """One selector: cache, else transport, else a direct run."""

    def test_routes_each_path_to_the_same_values(self, cache):
        study = Study((_scenario(),))
        direct = run_study(study, workers=1)
        assert "cache" not in direct.provenance
        assert "transport" not in direct.provenance
        cached = run_study(
            study, cache=cache, transport=InProcessTransport(workers=1), workers=1
        )
        assert cached.provenance["cache"]["disposition"] == "miss"
        assert cached.provenance["transport"] == "inprocess"
        sharded = run_study(study, transport=InProcessTransport(workers=1), workers=1)
        assert sharded.provenance["transport"] == "inprocess"
        assert "cache" not in sharded.provenance
        for result in (cached, sharded):
            assert np.array_equal(result["cached"].values, direct["cached"].values)

    def test_window_runs_only_that_window(self, cache):
        study = Study((_scenario(),))
        full = study.run(workers=1)["cached"]
        for transport in (None, InProcessTransport(workers=1)):
            shard = run_study(study, transport=transport, workers=1, window=(2, 6))
            assert shard.provenance["trial_window"] == [2, 6]
            assert shard["cached"].trial_offset == 2
            assert np.array_equal(shard["cached"].values, full.values[:, :, 2:6])
        with pytest.raises(ParameterError, match="trial window"):
            run_study(study, cache=cache, workers=1, window=(2, 6))


class TestBypass:
    def test_mixed_trial_counts_bypass(self, cache):
        study = Study(
            (
                _scenario(trials=4),
                dataclasses.replace(_scenario(trials=6), name="other"),
            )
        )
        result = run_cached(study, cache, workers=WORKERS)
        assert result.provenance["cache"]["disposition"] == "bypass"
        assert cache.lookup(study.scenarios[0]) is None

    def test_protocol_scenarios_bypass(self, cache):
        protocol = Scenario(
            name="proto",
            kind="protocol",
            num_nodes=30,
            pool_size=200,
            trials=2,
            seed=3,
            protocol="coupling",
            protocol_params={"key_ring_size": 12, "q": 1},
        )
        result = run_cached(Study((protocol,)), cache, workers=1)
        assert result.provenance["cache"]["disposition"] == "bypass"

    def test_rejects_non_cache(self):
        with pytest.raises(ParameterError, match="ResultCache"):
            run_cached(Study((_scenario(),)), cache="/tmp/nope", workers=1)


class TestCacheEvents:
    def test_dispositions_emit(self, cache):
        study = Study((_scenario(),))
        with events.capture_events(
            kinds=("cache_miss", "cache_hit", "cache_extension")
        ) as captured:
            run_cached(study, cache, workers=WORKERS)
            run_cached(study, cache, workers=WORKERS)
            run_cached(Study((_scenario(trials=8),)), cache, workers=WORKERS)
        kinds = [event.kind for event in captured]
        assert kinds == ["cache_miss", "cache_hit", "cache_extension"]
        assert captured[2].fields["delta_window"] == [6, 8]
