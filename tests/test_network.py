"""Tests for the Eq. (1) composition on the deployment path.

A secure link needs both halves of the model: at least ``q`` shared
keys (the key graph) and an on channel.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs.graph import Graph
from repro.graphs.vertex_connectivity import is_k_connected, vertex_connectivity
from repro.keygraphs.uniform_graph import edges_from_rings
from repro.study import MetricSpec
from repro.study.metrics import DeploymentEvaluator, sample_deployment
from tests.conftest import attacked_deployment, replay_deployment_stream

N, P, K, Q, CHANNEL_P = 30, 100, 10, 2, 0.6


@pytest.fixture
def net():
    dep = sample_deployment(N, P, K, Q, np.random.default_rng(77))
    return dep, DeploymentEvaluator(dep)


def _pairs(keys, n):
    return {divmod(int(k), n) for k in keys}


class TestConstruction:
    def test_rings_match_scheme(self, net):
        dep, _ = net
        assert dep.rings.shape == (N, K)
        assert (np.diff(dep.rings, axis=1) > 0).all()  # sorted, distinct
        assert dep.rings.min() >= 0 and dep.rings.max() < P

    def test_default_channel_perfect(self, net):
        dep, ev = net
        # p = 1: secure edges equal key-graph edges.
        key = {tuple(map(int, e)) for e in edges_from_rings(dep.rings, Q)}
        assert _pairs(ev.selected_keys("onoff", Q, 1.0), N) == key

    def test_deterministic_given_seed(self):
        a = sample_deployment(15, 60, 6, 1, np.random.default_rng(9))
        b = sample_deployment(15, 60, 6, 1, np.random.default_rng(9))
        assert np.array_equal(a.candidates, b.candidates)
        assert np.array_equal(a.uniforms, b.uniforms)
        assert np.array_equal(
            DeploymentEvaluator(a).curve_mask("onoff", 1, 0.5),
            DeploymentEvaluator(b).curve_mask("onoff", 1, 0.5),
        )


class TestFailures:
    """Node loss on the deployment path: captured sensors leave the graph."""

    @pytest.fixture
    def attacked(self):
        return attacked_deployment(N, P, K, Q, seed=77)

    @staticmethod
    def _links(ev, captured):
        metric = MetricSpec("attack_evaluated", captured=captured)
        return ev.evaluate("onoff", Q, CHANNEL_P, metric)

    def test_failed_node_drops_edges(self, attacked):
        dep, ev = attacked
        victim = int(dep.capture_order[0])
        degree = int(ev.degrees("onoff", Q, CHANNEL_P)[victim])
        assert degree > 0
        total = int(ev.curve_mask("onoff", Q, CHANNEL_P).sum())
        assert self._links(ev, 1) == float(total - degree)

    def test_restore_all(self, attacked):
        _, ev = attacked
        before = ev.evaluate("onoff", Q, CHANNEL_P, MetricSpec("connectivity"))
        self._links(ev, 3)
        assert self._links(ev, 0) == float(ev.curve_mask("onoff", Q, CHANNEL_P).sum())
        assert ev.evaluate("onoff", Q, CHANNEL_P, MetricSpec("connectivity")) == before

    def test_connectivity_on_live_subgraph(self):
        # Fail everything except two sensors of a complete key graph
        # (K = 9 of P = 10 forces >= 8 shared keys): connected again.
        _, ev = attacked_deployment(10, 10, 9, 1, seed=2)
        metric = MetricSpec("survivor_connectivity", captured=8)
        assert ev.evaluate("onoff", 1, 1.0, metric) == 1.0


class TestTopologySemantics:
    def test_secure_edges_subset_of_key_edges(self, net):
        dep, ev = net
        key = {tuple(map(int, e)) for e in edges_from_rings(dep.rings, Q)}
        secure = _pairs(ev.selected_keys("onoff", Q, CHANNEL_P), N)
        assert secure <= key
        assert len(secure) < len(key)

    def test_key_edges_satisfy_overlap(self, net):
        dep, _ = net
        for key, count in zip(dep.candidates, dep.counts):
            u, v = divmod(int(key), N)
            shared = np.intersect1d(dep.rings[u], dep.rings[v]).size
            assert shared == count and shared >= Q

    def test_secure_edge_iff_key_and_channel(self, net):
        # Every key edge with an on channel appears; off channels don't.
        dep, ev = net
        _, uniforms, _ = replay_deployment_stream(
            dep, P, K, 77, needs_onoff=True, needs_disk=False
        )
        expect = _pairs(dep.candidates[uniforms < CHANNEL_P], N)
        assert _pairs(ev.selected_keys("onoff", Q, CHANNEL_P), N) == expect


class TestKConnectivity:
    def test_k_connectivity_consistent_with_graph(self, net):
        _, ev = net
        g = Graph(N, _pairs(ev.selected_keys("onoff", Q, CHANNEL_P), N))
        kappa = vertex_connectivity(g)
        assert 1 <= kappa < 3  # both outcomes occur below
        for k in (1, 2, 3):
            got = ev.evaluate("onoff", Q, CHANNEL_P, MetricSpec("k_connectivity", k=k))
            assert bool(got) == is_k_connected(g, k) == (kappa >= k)

    def test_k_connectivity_after_failures(self):
        dep, ev = attacked_deployment(N, P, K, Q, seed=77)
        # Evaluate on the 28-node live subgraph, independently rebuilt.
        alive = np.ones(N, dtype=bool)
        alive[dep.capture_order[:2]] = False
        ids = np.cumsum(alive) - 1
        live = [
            (int(ids[u]), int(ids[v]))
            for u, v in _pairs(ev.selected_keys("onoff", Q, CHANNEL_P), N)
            if alive[u] and alive[v]
        ]
        metric = MetricSpec("survivor_connectivity", captured=2)
        got = ev.evaluate("onoff", Q, CHANNEL_P, metric)
        assert bool(got) == is_k_connected(Graph(N - 2, live), 1)
