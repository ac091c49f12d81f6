"""Ablation bench: connectivity-decision algorithms.

Times the per-sample cost of each k-connectivity decision path at the
scales the experiments use — union-find (k=1), Tarjan (k=2), and the
Dinic/Even decision (k=3) — on near-threshold topologies where the
decisions are hardest.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.scaling import channel_prob_for_alpha
from repro.graphs.graph import Graph
from repro.graphs.biconnectivity import is_biconnected
from repro.graphs.unionfind import is_connected_edges
from repro.graphs.vertex_connectivity import is_k_connected
from repro.keygraphs.uniform_graph import uniform_intersection_edges


def _threshold_sample(n: int, k: int, seed: int):
    """One key-ring deployment thinned at the alpha = 1 k-threshold channel."""
    p = channel_prob_for_alpha(n, 70, 10000, 2, 1.0, k)
    edges = uniform_intersection_edges(n, 70, 10000, 2, seed=seed)
    return n, edges[np.random.default_rng(seed).random(edges.shape[0]) < p]


@pytest.fixture(scope="module")
def big_sample():
    return _threshold_sample(1000, 1, 0)


@pytest.fixture(scope="module")
def mid_sample():
    return _threshold_sample(300, 3, 1)


def test_bench_unionfind_k1(benchmark, big_sample):
    n, edges = big_sample
    benchmark(is_connected_edges, n, edges)


def test_bench_tarjan_k2(benchmark, big_sample):
    n, edges = big_sample
    graph = Graph.from_edge_array(n, edges)
    benchmark(is_biconnected, graph)


def test_bench_even_dinic_k3(benchmark, mid_sample):
    n, edges = mid_sample
    graph = Graph.from_edge_array(n, edges)
    benchmark(is_k_connected, graph, 3)


def test_bench_graph_construction(benchmark, big_sample):
    n, edges = big_sample
    benchmark(Graph.from_edge_array, n, edges)


def test_decisions_consistent(mid_sample):
    """Correctness rider: the three deciders agree on nesting."""
    n, edges = mid_sample
    graph = Graph.from_edge_array(n, edges)
    k3 = is_k_connected(graph, 3)
    k2 = is_biconnected(graph)
    k1 = is_connected_edges(n, edges)
    if k3:
        assert k2
    if k2:
        assert k1
