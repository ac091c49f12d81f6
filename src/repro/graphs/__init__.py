"""Graph substrate: containers, algorithms, and random generators."""

from repro.graphs.biconnectivity import articulation_points, is_biconnected
from repro.graphs.generators import (
    edge_to_pair_index,
    erdos_renyi_edges,
    erdos_renyi_graph,
    pair_index_to_edge,
)
from repro.graphs.graph import Graph
from repro.graphs.traversal import (
    bfs_order,
    connected_components,
    eccentricity,
    is_connected,
    shortest_path,
)
from repro.graphs.unionfind import (
    UnionFind,
    connected_components_labels,
    count_components_edges,
    count_components_pair_keys,
    is_connected_edges,
    is_connected_pair_keys,
)
from repro.graphs.vertex_connectivity import (
    is_k_connected,
    local_node_connectivity,
    vertex_connectivity,
)
from repro.graphs.maxflow import FlowNetwork

__all__ = [
    "articulation_points",
    "is_biconnected",
    "edge_to_pair_index",
    "erdos_renyi_edges",
    "erdos_renyi_graph",
    "pair_index_to_edge",
    "Graph",
    "bfs_order",
    "connected_components",
    "eccentricity",
    "is_connected",
    "shortest_path",
    "UnionFind",
    "connected_components_labels",
    "count_components_edges",
    "count_components_pair_keys",
    "is_connected_edges",
    "is_connected_pair_keys",
    "is_k_connected",
    "local_node_connectivity",
    "vertex_connectivity",
    "FlowNetwork",
]
