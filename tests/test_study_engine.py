"""Execution engine satellites: trial-block splitting and warm pools.

Pins the ``run_batches`` under-utilization fix (columns splitting into
trial blocks when there are fewer K columns than workers), the
persistent-pool plumbing, and the ``_windowed`` scheduling fixes: no
head-of-line blocking (completion order decoupled from result order)
and no leaked futures when a batch raises.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.simulation import pool
from repro.study import MetricSpec, Scenario, run_scenario
from repro.study.compiler import split_trial_blocks


class TestSplitTrialBlocks:
    def test_split_boundary_pinned(self):
        # 1 column, 10 trials, 4 workers: ceil(4/1) = 4 blocks with
        # linspace boundaries 0|2|5|7|10.  This layout is part of the
        # determinism story, so pin it exactly.
        assert split_trial_blocks(1, 10, 4) == [
            (0, 0, 2),
            (0, 2, 5),
            (0, 5, 7),
            (0, 7, 10),
        ]

    def test_more_columns_than_workers_no_split(self):
        blocks = split_trial_blocks(8, 10, 4)
        assert blocks == [(c, 0, 10) for c in range(8)]

    def test_splits_capped_by_trials(self):
        # 2 trials cannot split into more than 2 blocks per column.
        blocks = split_trial_blocks(1, 2, 16)
        assert blocks == [(0, 0, 1), (0, 1, 2)]

    def test_blocks_partition_trials(self):
        for columns in (1, 2, 5):
            for trials in (1, 7, 24):
                for workers in (1, 3, 8, 20):
                    blocks = split_trial_blocks(columns, trials, workers)
                    for column in range(columns):
                        spans = [
                            (start, stop)
                            for col, start, stop in blocks
                            if col == column
                        ]
                        assert spans[0][0] == 0
                        assert spans[-1][1] == trials
                        for (_, stop_a), (start_b, _) in zip(spans, spans[1:]):
                            assert stop_a == start_b
                        assert all(start < stop for start, stop in spans)

    def test_total_columns_divisor_override(self):
        # The study compiler schedules several groups into one pool:
        # with 4 total columns and 4 workers, a 1-column group does not
        # split even though 1 < 4.
        assert split_trial_blocks(1, 10, 4, total_columns=4) == [(0, 0, 10)]

    def test_nonzero_start_restricts_to_extension_window(self):
        # Adaptive rounds split only [start, trials); boundaries stay a
        # pure function of the arguments.
        assert split_trial_blocks(1, 20, 4, start=10) == [
            (0, 10, 12),
            (0, 12, 15),
            (0, 15, 17),
            (0, 17, 20),
        ]
        # start=0 is exactly the historical layout
        assert split_trial_blocks(1, 10, 4, start=0) == split_trial_blocks(1, 10, 4)

    def test_empty_extension_yields_no_blocks(self):
        assert split_trial_blocks(3, 10, 4, start=10) == []
        assert split_trial_blocks(3, 10, 4, start=15) == []

    def test_single_trial_extension_block(self):
        assert split_trial_blocks(2, 10, 8, start=9) == [(0, 9, 10), (1, 9, 10)]

    def test_block_count_larger_than_remainder_degrades_to_single_trials(self):
        # 16 workers want 16 blocks, but only 3 trials remain: the
        # window degrades to 3 single-trial blocks, never empty ones.
        blocks = split_trial_blocks(1, 10, 16, start=7)
        assert blocks == [(0, 7, 8), (0, 8, 9), (0, 9, 10)]

    def test_negative_start_rejected(self):
        from repro.exceptions import ParameterError

        with pytest.raises(ParameterError, match="start"):
            split_trial_blocks(1, 10, 4, start=-1)

    def test_offset_blocks_partition_extension_window(self):
        for start in (0, 1, 5, 23, 24):
            for workers in (1, 4, 40):
                blocks = split_trial_blocks(2, 24, workers, start=start)
                if start >= 24:
                    assert blocks == []
                    continue
                for column in range(2):
                    spans = [(a, b) for c, a, b in blocks if c == column]
                    assert spans[0][0] == start
                    assert spans[-1][1] == 24
                    for (_, stop_a), (start_b, _) in zip(spans, spans[1:]):
                        assert stop_a == start_b
                    assert all(a < b for a, b in spans)

    def test_single_column_sweep_splits_and_stays_bit_exact(self):
        scenario = Scenario(
            name="single_column",
            num_nodes=80,
            pool_size=1000,
            ring_sizes=(20,),
            curves=((2, 1.0), (2, 0.5)),
            metrics=(MetricSpec("connectivity"),),
            trials=9,
            seed=13,
        )
        serial = run_scenario(scenario, workers=1)
        split = run_scenario(scenario, workers=4)
        assert np.array_equal(serial.values, split.values)


def _double(x: int) -> int:
    return 2 * x


def _exit_once(arg):
    # Kills its worker process the first time it runs (cross-process
    # flag file), breaking the pool; reruns succeed.
    flag, x = arg
    import os

    if not os.path.exists(flag):
        with open(flag, "w"):
            pass
        os._exit(13)
    return 7 * x


def _sleep_then_return(item):
    index, delay = item
    time.sleep(delay)
    return index


def _raise_on_negative(x: int) -> int:
    if x < 0:
        raise ValueError(f"poison batch {x}")
    return 3 * x


class TestPersistentPool:
    def test_executor_is_reused(self):
        if not pool.persistent_pools_enabled():  # pragma: no cover
            return
        first = pool.get_executor(2)
        second = pool.get_executor(2)
        assert first is second

    def test_smaller_request_reuses_grown_pool(self):
        pool.shutdown_pools()  # isolate from pools grown by earlier tests
        big = pool.get_executor(3)
        assert pool.get_executor(2) is big  # no second resident pool
        grown = pool.get_executor(4)
        assert grown is not big

    def test_submit_batches_ordered(self):
        assert pool.submit_batches(_double, [3, 1, 2], workers=2) == [6, 2, 4]

    def test_submit_more_batches_than_window(self):
        assert pool.submit_batches(_double, list(range(9)), workers=2) == [
            2 * x for x in range(9)
        ]

    def test_disabled_pool_still_works(self, monkeypatch):
        monkeypatch.setenv("REPRO_PERSISTENT_POOL", "0")
        assert not pool.persistent_pools_enabled()
        assert pool.submit_batches(_double, [5, 6], workers=2) == [10, 12]

    def test_shutdown_and_recreate(self):
        pool.get_executor(2)
        pool.shutdown_pools()
        again = pool.get_executor(2)
        assert pool.submit_batches(_double, [4], workers=2) == [8]
        assert pool.get_executor(2) is again


class TestWindowScheduling:
    def test_out_of_order_completion_yields_in_order_results(self):
        # Adversarial completion order: the earliest batches are the
        # slowest, so every later batch finishes first.  The old
        # implementation blocked on the *oldest* pending future; the
        # fixed window must still hand results back in submission
        # order, bit-identical to a serial map.
        batches = [(0, 0.30), (1, 0.15)] + [(i, 0.0) for i in range(2, 10)]
        results = pool.submit_batches(_sleep_then_return, batches, workers=3)
        assert results == [_sleep_then_return(b) for b in batches]
        assert results == list(range(10))

    def test_slow_head_does_not_gate_submissions(self):
        # With the window waiting on FIRST_COMPLETED, one slow batch
        # occupies one worker while the other two drain the eight fast
        # batches: total wall clock stays near the slow batch alone.
        # The old oldest-future window serialized roughly ceil(8/2)
        # windows behind the sleeper.  Generous bound to stay un-flaky.
        pool.get_executor(3)  # warm first so spawn cost is excluded
        pool.submit_batches(_sleep_then_return, [(9, 0.0)], workers=3)
        start = time.monotonic()
        batches = [(0, 0.5)] + [(i, 0.0) for i in range(1, 9)]
        results = pool.submit_batches(_sleep_then_return, batches, workers=3)
        elapsed = time.monotonic() - start
        assert results == list(range(9))
        assert elapsed < 1.5

    def test_raising_batch_propagates_and_pool_stays_usable(self):
        if not pool.persistent_pools_enabled():  # pragma: no cover
            return
        batches = [1, 2, -1] + list(range(3, 12))
        with pytest.raises(ValueError, match="poison batch"):
            pool.submit_batches(_raise_on_negative, batches, workers=2)
        # Pending futures were cancelled, not leaked: the warm pool
        # immediately serves the next caller with correct results.
        assert pool.submit_batches(_raise_on_negative, [5, 6, 7], workers=2) == [
            15, 18, 21,
        ]

    def test_ephemeral_path_routes_through_windowed(self, monkeypatch):
        # The ephemeral path used to submit everything at once with no
        # window and no cancel-on-failure; both paths must share
        # _windowed now.
        monkeypatch.setenv("REPRO_PERSISTENT_POOL", "0")
        seen = {}
        real = pool._windowed

        def spy(executor, fn, batches, workers):
            seen["batches"], seen["workers"] = len(batches), workers
            return real(executor, fn, batches, workers)

        monkeypatch.setattr(pool, "_windowed", spy)
        assert pool.submit_batches(_double, [1, 2, 3], workers=2) == [2, 4, 6]
        assert seen == {"batches": 3, "workers": 2}

    def test_ephemeral_path_propagates_failures(self, monkeypatch):
        monkeypatch.setenv("REPRO_PERSISTENT_POOL", "0")
        with pytest.raises(ValueError, match="poison batch"):
            pool.submit_batches(_raise_on_negative, [1, -1] + list(range(2, 10)), workers=2)


class TestExecutorLeases:
    def test_lease_counting(self):
        executor = pool.get_executor(2)
        assert pool.active_leases(executor) == 0
        with pool.executor_lease(executor):
            with pool.executor_lease(executor):
                assert pool.active_leases(executor) == 2
            assert pool.active_leases(executor) == 1
        assert pool.active_leases(executor) == 0

    def test_growth_with_lease_keeps_inflight_work(self):
        # Regression: growing the warm pool used to shutdown(wait=False,
        # cancel_futures=True) the old executor even with a caller's
        # futures still queued on it — those callers saw
        # CancelledError.  With a lease held, growth must retire the old
        # executor gracefully and let its futures finish.
        pool.shutdown_pools()
        small = pool.get_executor(2)
        with pool.executor_lease(small):
            futures = [
                small.submit(_sleep_then_return, (i, 0.15)) for i in range(6)
            ]
            grown = pool.get_executor(4)
            assert grown is not small
            assert [f.result(timeout=30) for f in futures] == list(range(6))
            assert not any(f.cancelled() for f in futures)
        pool.shutdown_pools()

    def test_growth_without_lease_still_cancels(self):
        # Unleased growth keeps the old fast-teardown behavior: queued
        # work is cancelled rather than left running unsupervised.
        pool.shutdown_pools()
        small = pool.get_executor(1)
        futures = [small.submit(_sleep_then_return, (i, 0.2)) for i in range(8)]
        pool.get_executor(2)
        # Cancellation is carried out by the executor's management
        # thread, so poll briefly.  The executor had one worker: at
        # most a couple of futures ran or started; the deep queue must
        # end up cancelled.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and not any(f.cancelled() for f in futures):
            time.sleep(0.01)
        assert any(f.cancelled() for f in futures)
        pool.shutdown_pools()


class TestBrokenPoolRetry:
    def test_whole_batch_retry_after_worker_death(self, tmp_path):
        # A worker killed mid-run (the crash mode behind the chaos
        # harness's broken_pool strategy) breaks the executor;
        # submit_batches must discard it and retry the whole batch list
        # once on a fresh pool.
        if not pool.persistent_pools_enabled():  # pragma: no cover
            pytest.skip("whole-batch retry is the warm-pool path")
        pool.shutdown_pools()
        flag = str(tmp_path / "killed_once")
        batches = [(flag, x) for x in range(5)]
        assert pool.submit_batches(_exit_once, batches, workers=2) == [
            7 * x for x in range(5)
        ]
        pool.shutdown_pools()
