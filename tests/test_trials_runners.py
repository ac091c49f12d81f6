"""Trial protocols and runners.

The per-deployment trial lives in the brute-force oracle
(``tests/oracle.py``): one sampled deployment, one graph per curve, one
decision per metric.  The runner that turns trials into estimates is
the study path's :func:`repro.study.run_scenario`.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import oracle
from repro.graphs.traversal import is_connected
from repro.study import MetricSpec, Scenario, run_scenario


@pytest.fixture
def mid_scenario() -> Scenario:
    """Near-threshold point at small n: outcomes vary across trials."""
    return Scenario(
        name="mid",
        num_nodes=80,
        pool_size=600,
        ring_sizes=(14,),
        curves=((2, 0.7),),
        metrics=(MetricSpec("connectivity"),),
        trials=20,
        seed=1,
    )


def _graph(scenario: Scenario, p: float, seed: int):
    (graph,) = oracle.sample_graphs(
        scenario.num_nodes, scenario.pool_size, scenario.ring_sizes[0], None,
        ((2, p),), np.random.default_rng(seed),
    )
    return graph


def _metrics(scenario: Scenario, *metrics: MetricSpec, **changes) -> Scenario:
    return dataclasses.replace(scenario, metrics=metrics, **changes)


class TestSampleSecureEdges:
    def test_deterministic_per_generator_state(self, mid_scenario):
        a = _graph(mid_scenario, 0.7, 1)
        b = _graph(mid_scenario, 0.7, 1)
        assert a.edge_set() == b.edge_set()

    def test_channel_thins_edges(self, mid_scenario):
        assert _graph(mid_scenario, 0.3, 2).num_edges < _graph(mid_scenario, 1.0, 2).num_edges

    def test_p_one_equals_key_graph(self, mid_scenario):
        _, rings = oracle.sample_rings(80, 600, 14, None, np.random.default_rng(3))
        keys = [set(r.tolist()) for r in rings]
        expect = {
            (u, v)
            for u in range(80)
            for v in range(u + 1, 80)
            if len(keys[u] & keys[v]) >= 2
        }
        assert _graph(mid_scenario, 1.0, 3).edge_set() == expect


class TestTrialProtocols:
    def test_connectivity_trial_bool(self, mid_scenario):
        assert isinstance(oracle.is_k_connected(_graph(mid_scenario, 0.7, 1), 1), bool)

    def test_k1_trial_matches_connectivity_trial(self, mid_scenario):
        for seed in range(5):
            graph = _graph(mid_scenario, 0.7, seed)
            assert oracle.is_k_connected(graph, 1) == is_connected(graph)

    def test_kconn_implies_mindegree(self, mid_scenario):
        values = oracle.run_oracle(
            _metrics(mid_scenario, MetricSpec("min_degree", k=2),
                     MetricSpec("k_connectivity", k=2), trials=10)
        ).values
        deg_ok, conn_ok = values[..., 0], values[..., 1]
        assert (conn_ok <= deg_ok).all()

    def test_min_degree_trial_matches_joint(self, mid_scenario):
        solo = oracle.run_oracle(_metrics(mid_scenario, MetricSpec("min_degree", k=2)))
        joint = oracle.run_oracle(
            _metrics(mid_scenario, MetricSpec("min_degree", k=2),
                     MetricSpec("k_connectivity", k=2))
        )
        assert np.array_equal(solo.series(), joint.series("min_degree[k=2]"))

    def test_degree_count_consistent(self, mid_scenario):
        # Sum of counts over all h equals n for any single sample.
        hs = range(80)
        values = oracle.run_oracle(
            _metrics(mid_scenario, *(MetricSpec("degree_count", h=h) for h in hs), trials=3)
        ).values
        assert (values.sum(axis=-1) == 80).all()

    def test_degree_count_trial_nonnegative(self, mid_scenario):
        series = oracle.run_oracle(
            _metrics(mid_scenario, MetricSpec("degree_count", h=1), trials=5)
        ).series()
        assert (series >= 0).all() and np.array_equal(series, np.round(series))


class TestRunners:
    def test_connectivity_estimate_fields(self, mid_scenario):
        est = run_scenario(mid_scenario, workers=1).bernoulli()
        assert est.trials == 20
        assert est.successes == round(est.estimate * 20)

    def test_k1_dispatches_to_connectivity(self, mid_scenario):
        result = run_scenario(
            _metrics(mid_scenario, MetricSpec("connectivity"),
                     MetricSpec("k_connectivity", k=1), trials=15),
            workers=1,
        )
        assert result.bernoulli("connectivity") == result.bernoulli("k_connectivity[k=1]")

    def test_parallel_equals_serial(self, mid_scenario):
        scenario = dataclasses.replace(mid_scenario, trials=12, seed=3)
        a = run_scenario(scenario, workers=1)
        b = run_scenario(scenario, workers=4)
        assert np.array_equal(a.values, b.values)

    def test_min_degree_at_least_kconn(self, mid_scenario):
        # P[min deg >= k] >= P[k-connected] on identical deployments.
        result = run_scenario(
            _metrics(mid_scenario, MetricSpec("min_degree", k=2),
                     MetricSpec("k_connectivity", k=2), trials=30, seed=4),
            workers=1,
        )
        deg = result.bernoulli("min_degree[k=2]")
        conn = result.bernoulli("k_connectivity[k=2]")
        assert deg.estimate >= conn.estimate
        assert 0.0 <= result.agreement("min_degree[k=2]", "k_connectivity[k=2]") <= 1.0

    def test_degree_counts_array(self, mid_scenario):
        result = run_scenario(
            _metrics(mid_scenario, MetricSpec("degree_count", h=0), trials=25, seed=5),
            workers=1,
        )
        counts = result.series()
        assert counts.shape == (25,)
        assert (counts >= 0).all()

    def test_min_degree_estimate(self, mid_scenario):
        result = run_scenario(
            _metrics(mid_scenario, MetricSpec("min_degree", k=1), seed=6), workers=1
        )
        assert 0.0 <= result.bernoulli().estimate <= 1.0
