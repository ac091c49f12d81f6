"""Tests for the on/off channel on the deployment path.

Each candidate pair carries one uniform; the channel of curve ``p`` is
on when that uniform is below ``p``, independently across pairs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.study import MetricSpec, Scenario
from repro.study.metrics import DeploymentEvaluator, sample_deployment


def _onoff_scenario(p: float) -> Scenario:
    return Scenario(
        name="onoff",
        num_nodes=20,
        pool_size=100,
        ring_sizes=(10,),
        curves=((1, p),),
        metrics=(MetricSpec("connectivity"),),
        trials=1,
    )


class TestSampleOnOffMask:
    def test_shape_and_dtype(self):
        dep = sample_deployment(40, 200, 15, 1, np.random.default_rng(1))
        mask = DeploymentEvaluator(dep).curve_mask("onoff", 1, 0.5)
        assert mask.shape == dep.candidates.shape and mask.dtype == bool

    def test_p_one_all_on(self):
        dep = sample_deployment(40, 200, 15, 1, np.random.default_rng(1))
        assert DeploymentEvaluator(dep).curve_mask("onoff", 1, 1.0).all()


class TestOnOffRealization:
    def test_repeated_query_consistent(self):
        dep = sample_deployment(40, 200, 15, 1, np.random.default_rng(3))
        first = DeploymentEvaluator(dep).curve_mask("onoff", 1, 0.5)
        again = DeploymentEvaluator(dep)
        for _ in range(5):
            assert np.array_equal(again.curve_mask("onoff", 1, 0.5), first)

    def test_orientation_invariant(self):
        # Each unordered pair is one candidate key u * n + v with u < v,
        # so a pair's channel state has a single orientation.
        dep = sample_deployment(40, 200, 15, 1, np.random.default_rng(4))
        u, v = np.divmod(dep.candidates, dep.num_nodes)
        assert (u < v).all()
        assert np.unique(dep.candidates).size == dep.candidates.size

    def test_marginal_rate(self):
        dep = sample_deployment(300, 1000, 40, 1, np.random.default_rng(5))
        mask = DeploymentEvaluator(dep).curve_mask("onoff", 1, 0.4)
        assert mask.size > 10_000
        assert abs(mask.mean() - 0.4) < 0.02

    def test_channel_edges_consistent_with_mask(self):
        dep = sample_deployment(30, 100, 10, 1, np.random.default_rng(6))
        ev = DeploymentEvaluator(dep)
        mask = ev.curve_mask("onoff", 1, 0.5)
        assert np.array_equal(ev.selected_keys("onoff", 1, 0.5), dep.candidates[mask])
        u, v = np.divmod(dep.candidates[mask], dep.num_nodes)
        degrees = np.bincount(np.concatenate([u, v]), minlength=dep.num_nodes)
        assert np.array_equal(ev.degrees("onoff", 1, 0.5), degrees)

    def test_zero_prob_rejected(self):
        with pytest.raises(ParameterError):
            _onoff_scenario(0.0)

    def test_empty_edges(self):
        # Single-key rings from a huge pool: no pair shares a key.
        dep = sample_deployment(5, 1_000_000, 1, 1, np.random.default_rng(7))
        assert dep.candidates.size == 0
        assert DeploymentEvaluator(dep).curve_mask("onoff", 1, 0.5).shape == (0,)


class TestOnOffChannel:
    def test_channel_graph_edge_count(self):
        # K = P: every pair shares the whole pool, so the secure graph
        # is the on/off channel graph G(n, p) itself.
        dep = sample_deployment(200, 5, 5, 1, np.random.default_rng(2))
        assert dep.candidates.size == 200 * 199 // 2
        edges = int(DeploymentEvaluator(dep).curve_mask("onoff", 1, 0.2).sum())
        expect = 0.2 * 200 * 199 / 2
        assert abs(edges - expect) < 5 * np.sqrt(expect)

    def test_invalid_probability(self):
        with pytest.raises(ParameterError):
            _onoff_scenario(1.5)
        with pytest.raises(ParameterError):
            _onoff_scenario(-0.1)
