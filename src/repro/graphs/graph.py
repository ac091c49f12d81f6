"""Minimal immutable-ish undirected graph container.

The simulation hot paths operate on raw numpy edge arrays, but the
algorithmic layer (connectivity, flows) wants adjacency sets.
:class:`Graph` bridges the two: it is built from an edge array or edge
iterable, stores adjacency sets plus the canonical edge list, and offers
cheap conversions back to numpy.  Nodes are always ``0 .. n-1``.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Iterator, List, Sequence, Set, Tuple

import numpy as np

from repro.exceptions import GraphError
from repro.utils.validation import check_positive_int

__all__ = ["Graph"]

EdgeLike = Iterable[Tuple[int, int]]


class Graph:
    """Simple undirected graph on nodes ``0 .. n-1`` without self-loops.

    Duplicate edges collapse; ``(i, j)`` and ``(j, i)`` are the same
    edge.  The class is append-only (``add_edge``) — algorithms in this
    package never mutate their input graphs.
    """

    __slots__ = ("_n", "_adj", "_num_edges")

    def __init__(self, num_nodes: int, edges: EdgeLike = ()) -> None:
        self._n = check_positive_int(num_nodes, "num_nodes")
        self._adj: List[Set[int]] = [set() for _ in range(self._n)]
        self._num_edges = 0
        for u, v in edges:
            self.add_edge(int(u), int(v))

    # -- construction ----------------------------------------------------

    @classmethod
    def from_edge_array(cls, num_nodes: int, edge_array: np.ndarray) -> "Graph":
        """Build from an ``(m, 2)`` integer array (as produced by generators)."""
        edge_array = np.asarray(edge_array)
        if edge_array.size == 0:
            return cls(num_nodes)
        if edge_array.ndim != 2 or edge_array.shape[1] != 2:
            raise GraphError(
                f"edge_array must have shape (m, 2), got {edge_array.shape}"
            )
        return cls(num_nodes, (map(int, row) for row in edge_array))

    @classmethod
    def complete(cls, num_nodes: int) -> "Graph":
        """Complete graph ``K_n`` (useful in tests: κ(K_n) = n - 1)."""
        g = cls(num_nodes)
        for u in range(num_nodes):
            for v in range(u + 1, num_nodes):
                g.add_edge(u, v)
        return g

    @classmethod
    def cycle(cls, num_nodes: int) -> "Graph":
        """Cycle graph ``C_n`` (κ = 2 for n >= 3)."""
        if num_nodes < 3:
            raise GraphError("cycle requires at least 3 nodes")
        return cls(num_nodes, [(i, (i + 1) % num_nodes) for i in range(num_nodes)])

    @classmethod
    def path(cls, num_nodes: int) -> "Graph":
        """Path graph ``P_n`` (κ = 1 for n >= 2)."""
        return cls(num_nodes, [(i, i + 1) for i in range(num_nodes - 1)])

    # -- mutation ---------------------------------------------------------

    def add_edge(self, u: int, v: int) -> None:
        """Insert edge ``{u, v}``; self-loops are rejected, duplicates ignored."""
        self._check_node(u)
        self._check_node(v)
        if u == v:
            raise GraphError(f"self-loop on node {u} is not allowed")
        if v not in self._adj[u]:
            self._adj[u].add(v)
            self._adj[v].add(u)
            self._num_edges += 1

    # -- queries ----------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return self._n

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def has_edge(self, u: int, v: int) -> bool:
        self._check_node(u)
        self._check_node(v)
        return v in self._adj[u]

    def neighbors(self, u: int) -> FrozenSet[int]:
        """Neighbor set of *u* (frozen: callers must not mutate adjacency)."""
        self._check_node(u)
        return frozenset(self._adj[u])

    def adjacency(self, u: int) -> Set[int]:
        """Internal adjacency set of *u* — read-only by convention.

        Exposed (underscore-free) because the flow/traversal algorithms
        in this package iterate neighbor sets in tight loops and the
        ``frozenset`` copy of :meth:`neighbors` would dominate runtime.
        """
        self._check_node(u)
        return self._adj[u]

    def degree(self, u: int) -> int:
        self._check_node(u)
        return len(self._adj[u])

    def degrees(self) -> np.ndarray:
        """Degree of every node as an ``int64`` vector."""
        return np.array([len(a) for a in self._adj], dtype=np.int64)

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate canonical edges ``(u, v)`` with ``u < v``, sorted."""
        for u in range(self._n):
            for v in sorted(self._adj[u]):
                if u < v:
                    yield (u, v)

    def edge_set(self) -> Set[Tuple[int, int]]:
        """Canonical edge set as Python set of ``(u, v)``, ``u < v``."""
        return set(self.edges())

    def to_edge_array(self) -> np.ndarray:
        """Canonical ``(m, 2)`` int64 edge array (sorted, ``u < v``)."""
        if self._num_edges == 0:
            return np.empty((0, 2), dtype=np.int64)
        return np.array(list(self.edges()), dtype=np.int64)

    def subgraph_without_node(self, removed: int) -> "Graph":
        """Copy of the graph with *removed*'s edges deleted (node kept).

        Keeping the node (as isolated) preserves node indexing, which is
        what the k-connectivity helpers need when probing ``G - v``.
        """
        self._check_node(removed)
        g = Graph(self._n)
        for u in range(self._n):
            if u == removed:
                continue
            for v in self._adj[u]:
                if v != removed and u < v:
                    g.add_edge(u, v)
        return g

    # -- dunder -------------------------------------------------------------

    def __contains__(self, edge: Sequence[int]) -> bool:
        u, v = edge
        return self.has_edge(int(u), int(v))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Graph(num_nodes={self._n}, num_edges={self._num_edges})"

    def _check_node(self, u: int) -> None:
        if not 0 <= u < self._n:
            raise GraphError(f"node {u} outside [0, {self._n})")
