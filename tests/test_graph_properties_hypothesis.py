"""Property-based tests (hypothesis) for graph-algorithm invariants.

These complement the networkx cross-checks with structural invariants
that must hold on *every* graph, generated adversarially by hypothesis
rather than sampled from a fixed random model.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.biconnectivity import articulation_points, is_biconnected
from repro.graphs.graph import Graph
from repro.graphs.traversal import connected_components, is_connected, shortest_path
from repro.graphs.unionfind import count_components_edges, is_connected_edges
from repro.graphs.vertex_connectivity import is_k_connected, vertex_connectivity


@st.composite
def graphs(draw, max_nodes: int = 12, max_edges: int = 30):
    """Arbitrary small graph: node count plus a set of edges."""
    n = draw(st.integers(2, max_nodes))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    raw = draw(st.lists(pairs, max_size=max_edges))
    g = Graph(n)
    for u, v in raw:
        if u != v:
            g.add_edge(u, v)
    return g


class TestConnectivityInvariants:
    @given(graphs())
    @settings(max_examples=120, deadline=None)
    def test_kappa_at_most_min_degree(self, g):
        assert vertex_connectivity(g) <= int(g.degrees().min())

    @given(graphs())
    @settings(max_examples=120, deadline=None)
    def test_is_k_connected_matches_kappa(self, g):
        kappa = vertex_connectivity(g)
        assert is_k_connected(g, kappa)
        assert not is_k_connected(g, kappa + 1)

    @given(graphs())
    @settings(max_examples=120, deadline=None)
    def test_is_k_connected_monotone_in_k(self, g):
        previous = True
        for k in range(0, g.num_nodes + 1):
            current = is_k_connected(g, k)
            if current:
                assert previous  # once False, stays False
            previous = current

    @given(graphs())
    @settings(max_examples=120, deadline=None)
    def test_component_counts_agree(self, g):
        edges = g.to_edge_array()
        assert count_components_edges(g.num_nodes, edges) == len(
            connected_components(g)
        )
        assert is_connected_edges(g.num_nodes, edges) == is_connected(g)

    @given(graphs())
    @settings(max_examples=100, deadline=None)
    def test_biconnected_iff_kappa_two(self, g):
        assert is_biconnected(g) == (vertex_connectivity(g) >= 2)

    @given(graphs())
    @settings(max_examples=100, deadline=None)
    def test_removing_articulation_point_disconnects(self, g):
        if not is_connected(g) or g.num_nodes < 3:
            return
        for ap in articulation_points(g):
            reduced = g.subgraph_without_node(ap)
            # The removed node stays as an isolated vertex, so the live
            # part must have split: total components > 2 means the
            # remainder is disconnected.
            comps = connected_components(reduced)
            assert len(comps) > 2 or (len(comps) == 2 and g.num_nodes == 2)


class TestPathInvariants:
    @given(graphs())
    @settings(max_examples=100, deadline=None)
    def test_shortest_path_is_valid_and_minimal_stepwise(self, g):
        path = shortest_path(g, 0, g.num_nodes - 1)
        if path is None:
            comps = connected_components(g)
            comp_of_0 = next(c for c in comps if 0 in c)
            assert g.num_nodes - 1 not in comp_of_0
            return
        assert path[0] == 0 and path[-1] == g.num_nodes - 1
        assert len(set(path)) == len(path)  # simple path
        for a, b in zip(path, path[1:]):
            assert g.has_edge(a, b)


class TestOperatorInvariants:
    @given(graphs(max_nodes=8), graphs(max_nodes=8))
    @settings(max_examples=80, deadline=None)
    def test_intersection_union_lattice(self, a, b):
        n = max(a.num_nodes, b.num_nodes)
        a2 = Graph(n, a.edges())
        b2 = Graph(n, b.edges())
        inter = Graph(n, a2.edge_set() & b2.edge_set())
        uni = Graph(n, a2.edge_set() | b2.edge_set())
        assert inter.edge_set() <= a2.edge_set() and inter.edge_set() <= b2.edge_set()
        assert a2.edge_set() <= uni.edge_set() and b2.edge_set() <= uni.edge_set()
        assert inter.num_edges + uni.num_edges == a2.num_edges + b2.num_edges

    @given(graphs(max_nodes=8), graphs(max_nodes=8))
    @settings(max_examples=60, deadline=None)
    def test_connectivity_monotone_under_supergraph(self, a, b):
        # Adding edges never disconnects: κ(A ∪ B) >= κ(A ∩ B).
        n = max(a.num_nodes, b.num_nodes)
        union = Graph(n, a.edge_set() | b.edge_set())
        inter = Graph(n, a.edge_set() & b.edge_set())
        assert vertex_connectivity(union) >= vertex_connectivity(inter)


class TestDegreeInvariants:
    @given(graphs())
    @settings(max_examples=100, deadline=None)
    def test_handshake_lemma(self, g):
        assert int(g.degrees().sum()) == 2 * g.num_edges

    @given(graphs())
    @settings(max_examples=100, deadline=None)
    def test_degrees_match_graph_view(self, g):
        # The study derives degrees as one bincount over edge endpoints;
        # it must agree with the adjacency-set view.
        edges = g.to_edge_array()
        assert np.array_equal(
            np.bincount(edges.ravel(), minlength=g.num_nodes), g.degrees()
        )
