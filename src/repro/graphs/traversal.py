"""Breadth/depth-first traversal, components, and shortest paths."""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional

from repro.exceptions import GraphError
from repro.graphs.graph import Graph

__all__ = [
    "bfs_order",
    "connected_components",
    "is_connected",
    "shortest_path",
    "eccentricity",
]


def bfs_order(graph: Graph, source: int) -> List[int]:
    """Return nodes reachable from *source* in BFS visitation order."""
    if not 0 <= source < graph.num_nodes:
        raise GraphError(f"source {source} outside graph")
    seen = [False] * graph.num_nodes
    seen[source] = True
    order = [source]
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in graph.adjacency(u):
            if not seen[v]:
                seen[v] = True
                order.append(v)
                queue.append(v)
    return order


def connected_components(graph: Graph) -> List[List[int]]:
    """Return components as node lists, largest first (ties by smallest node)."""
    seen = [False] * graph.num_nodes
    components: List[List[int]] = []
    for start in range(graph.num_nodes):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in graph.adjacency(u):
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
                    queue.append(v)
        components.append(comp)
    components.sort(key=lambda c: (-len(c), c[0]))
    return components


def is_connected(graph: Graph) -> bool:
    """Return whether the graph has a single connected component."""
    if graph.num_nodes == 1:
        return True
    return len(bfs_order(graph, 0)) == graph.num_nodes


def shortest_path(graph: Graph, source: int, target: int) -> Optional[List[int]]:
    """Return a shortest source→target node path, or ``None`` if disconnected.

    BFS predecessor reconstruction; the path includes both endpoints.
    """
    if not 0 <= source < graph.num_nodes:
        raise GraphError(f"source {source} outside graph")
    if not 0 <= target < graph.num_nodes:
        raise GraphError(f"target {target} outside graph")
    if source == target:
        return [source]
    prev: Dict[int, int] = {source: source}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in graph.adjacency(u):
            if v not in prev:
                prev[v] = u
                if v == target:
                    path = [v]
                    while path[-1] != source:
                        path.append(prev[path[-1]])
                    path.reverse()
                    return path
                queue.append(v)
    return None


def eccentricity(graph: Graph, source: int) -> int:
    """Return the max BFS distance from *source* to any reachable node."""
    if not 0 <= source < graph.num_nodes:
        raise GraphError(f"source {source} outside graph")
    dist = {source: 0}
    queue = deque([source])
    far = 0
    while queue:
        u = queue.popleft()
        for v in graph.adjacency(u):
            if v not in dist:
                dist[v] = dist[u] + 1
                far = max(far, dist[v])
                queue.append(v)
    return far
