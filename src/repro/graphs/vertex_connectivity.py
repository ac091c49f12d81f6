"""Vertex connectivity: local κ(s,t), the κ(G) >= k decision, exact κ(G).

k-connectivity is the property Theorem 1 is about, so the decision
procedure here is *exact*, not heuristic:

* ``k = 1`` → union-find / BFS connectivity,
* ``k = 2`` → linear-time Tarjan biconnectivity,
* general ``k`` → Even-style decision built on Menger's theorem and
  Dinic max-flow over the node-split digraph, with flows truncated at
  ``k`` augmenting paths.

Correctness of the general case rests on the minimal-separator argument:
if ``κ(G) < k`` there is an inclusion-minimal separator ``S`` with
``|S| < k``; fixing any vertex ``v`` (we use one of minimum degree),
either ``v ∉ S`` — then some vertex ``u`` in another component of
``G - S`` is non-adjacent to ``v`` and ``κ(v, u) < k`` — or ``v ∈ S`` —
then ``v`` has neighbors in two different components of ``G - S``
(minimality), and that non-adjacent neighbor pair has local connectivity
``< k``.  Hence checking ``κ(v, u)`` for all ``u`` non-adjacent to ``v``
plus ``κ(u, w)`` for all non-adjacent ``u, w ∈ N(v)`` is sufficient.

Since PR 5 the decision runs on a **Nagamochi–Ibaraki sparse
certificate** by default: a scan-first forest decomposition (computed by
the kernel backend, :mod:`repro.kernels`) reduces the edge set to
at most ``k·(n-1)`` edges while preserving the κ >= k decision exactly,
so every truncated Dinic query runs on the certificate instead of the
full graph.  ``certificate=False`` keeps the plain path (the
equivalence test corpus pins both paths bit-for-bit identical).
"""

from __future__ import annotations

import itertools
from typing import Optional

import numpy as np

from repro.exceptions import GraphError
from repro.graphs.biconnectivity import is_biconnected
from repro.graphs.graph import Graph
from repro.graphs.maxflow import FlowNetwork
from repro.graphs.traversal import is_connected

__all__ = [
    "local_node_connectivity",
    "is_k_connected",
    "is_k_connected_edges",
    "vertex_connectivity",
]


def _split_network(graph: Graph) -> FlowNetwork:
    """Build the node-split digraph: ``in(v) = v``, ``out(v) = v + n``.

    Internal arcs ``in(v) -> out(v)`` carry capacity 1; each undirected
    edge ``{u, v}`` becomes ``out(u) -> in(v)`` and ``out(v) -> in(u)``
    with capacity 1 (unit is enough because flow through any vertex is
    already capped at 1 by its internal arc).
    """
    n = graph.num_nodes
    net = FlowNetwork(2 * n)
    for v in range(n):
        net.add_arc(v, v + n, 1)
    for u, v in graph.edges():
        net.add_arc(u + n, v, 1)
        net.add_arc(v + n, u, 1)
    return net


def local_node_connectivity(
    graph: Graph, s: int, t: int, *, limit: Optional[int] = None
) -> int:
    """Return local vertex connectivity κ(s, t), optionally capped at *limit*.

    κ(s, t) is the maximum number of internally node-disjoint s–t paths
    (equivalently, by Menger, the minimum size of a vertex cut separating
    non-adjacent ``s`` and ``t``).  For adjacent pairs the direct edge
    contributes one path that no vertex cut can break, so we remove the
    edge, compute the flow, and add 1.

    When *limit* is given the computation stops once *limit* disjoint
    paths are found, returning *limit* — the decision-procedure fast path.
    """
    if s == t:
        raise GraphError("local connectivity requires s != t")
    n = graph.num_nodes
    if not (0 <= s < n and 0 <= t < n):
        raise GraphError("s or t outside graph")
    cap = n - 1 if limit is None else min(limit, n - 1)
    if cap <= 0:
        return 0

    if graph.has_edge(s, t):
        reduced = Graph(n)
        for u, v in graph.edges():
            if {u, v} != {s, t}:
                reduced.add_edge(u, v)
        return 1 + local_node_connectivity(reduced, s, t, limit=cap - 1)

    net = _split_network(graph)
    return net.max_flow(s + n, t, limit=cap)


class _ScanNetwork:
    """CSR node-split unit-capacity digraph for the pivot scan.

    The Even-style scan runs ~n truncated max-flow queries against
    *one* fixed graph, almost all of them sharing one endpoint (the
    pivot).  This class specializes for exactly that access pattern:

    * CSR arc storage (``start[u] .. start[u+1]``) instead of the
      generic :class:`FlowNetwork` linked lists — tight ``a += 1``
      inner loops, no ``next`` indirection;
    * undo-log capacity reset — unit capacities mean an augmentation
      flips a handful of arcs, so resetting replays the touched list
      instead of copying all ``2(n + 2m)`` capacities per query;
    * **ISAP with shared sink-rooted labels**: the scan fixes the
      *sink* at ``in(pivot)`` (κ is symmetric, so κ(pivot, u) is
      queried as a flow from ``out(u)`` to ``in(pivot)``) and computes
      exact distance-to-sink labels once by reverse BFS on the pristine
      residual.  Every query then augments along admissible arcs
      (``d[x] == d[y] + 1``) with local relabeling on retreat — no
      per-phase BFS at all, which is where the old Dinic scan spent
      ~90% of its time.  A relabel budget triggers a *global relabel*
      (exact reverse BFS on the current residual), so worst-case
      behavior degrades to Dinic's phase structure instead of ISAP's
      pathological label creep; exactness is unaffected (flow is
      maximal iff ``d[source]`` reaches the node count).

    Arc layout: node ``v`` (the *in*-copy) carries the internal arc
    ``in(v) -> out(v)`` first, then one residual twin per incident
    edge; node ``v + n`` (the *out*-copy) carries the reverse internal
    arc first, then one forward arc per incident edge.  ``rev[a]`` is
    the residual twin of arc ``a``.
    """

    __slots__ = ("n", "start", "to", "cap", "rev", "touched")

    def __init__(self, num_nodes: int, edge_list) -> None:
        n = self.n = num_nodes
        deg = [0] * n
        for u, v in edge_list:
            deg[u] += 1
            deg[v] += 1
        start = [0] * (2 * n + 1)
        for v in range(n):
            start[v + 1] = start[v] + 1 + deg[v]  # in(v): internal + rev arcs
        for v in range(n):
            start[n + v + 1] = start[n + v] + 1 + deg[v]  # out(v)
        total = start[2 * n]
        to = [0] * total
        cap = [0] * total
        rev = [0] * total
        fill = list(start[: 2 * n])

        def add(a: int, b: int) -> None:
            ia = fill[a]
            fill[a] = ia + 1
            ib = fill[b]
            fill[b] = ib + 1
            to[ia] = b
            cap[ia] = 1
            rev[ia] = ib
            to[ib] = a
            cap[ib] = 0
            rev[ib] = ia

        for v in range(n):
            add(v, v + n)
        for u, v in edge_list:
            add(u + n, v)
            add(v + n, u)
        self.start, self.to, self.cap, self.rev = start, to, cap, rev
        self.touched: list = []  # arcs augmented since the last reset

    def reset(self) -> None:
        """Undo every augmentation since the last reset (unit caps)."""
        cap, rev = self.cap, self.rev
        for a in self.touched:
            cap[a] += 1
            cap[rev[a]] -= 1
        del self.touched[:]

    def sink_labels(self, sink: int) -> list:
        """Exact distance-to-*sink* labels on the current residual.

        Reverse BFS: an arc ``x -> y`` with residual capacity relaxes
        ``d[x]`` from ``d[y] + 1``.  Unreachable nodes get the node
        count ``2n`` (the ISAP "done" label).  Computed once per scan
        on pristine capacities for the shared pivot sink, and by the
        global-relabel fallback on whatever residual is current.
        """
        start, to, cap, rev = self.start, self.to, self.cap, self.rev
        big = 2 * self.n
        d = [big] * big
        d[sink] = 0
        queue = [sink]
        qi = 0
        while qi < len(queue):
            y = queue[qi]
            qi += 1
            dy1 = d[y] + 1
            # Incoming residual arcs x -> y are the twins of y's arcs.
            for a in range(start[y], start[y + 1]):
                if cap[rev[a]]:
                    x = to[a]
                    if d[x] == big:
                        d[x] = dy1
                        queue.append(x)
        return d

    def at_least(self, s: int, t: int, k: int, shared_labels=None) -> bool:
        """Whether κ(s, t) >= k, as a flow ``out(s) -> in(t)``.

        Resets the residual (undo log) first.  *shared_labels* must be
        :meth:`sink_labels` of ``in(t)`` on pristine capacities; without
        it the labels are computed fresh (the neighbor-pair queries).
        """
        self.reset()
        start, to, cap, rev = self.start, self.to, self.cap, self.rev
        big = 2 * self.n
        sink = t
        source = s + self.n
        d = list(shared_labels) if shared_labels is not None else self.sink_labels(t)
        if d[source] >= big:
            return False
        cur = list(start[:big])
        touched = self.touched
        flow = 0
        relabels = 0
        budget = big  # global-relabel trigger; exactness does not depend on it
        node = source
        path: list = []
        while d[source] < big:
            if node == sink:
                for a in path:
                    cap[a] -= 1
                    cap[rev[a]] += 1
                    touched.append(a)
                flow += 1
                if flow >= k:
                    return True
                del path[:]
                node = source
                continue
            a = cur[node]
            end = start[node + 1]
            dn1 = d[node] - 1
            while a < end:
                if cap[a] and d[to[a]] == dn1:
                    break
                a += 1
            cur[node] = a
            if a < end:
                path.append(a)
                node = to[a]
            else:
                # Retreat: relabel to 1 + min residual neighbor label.
                dmin = big - 1
                for a2 in range(start[node], end):
                    if cap[a2]:
                        dv = d[to[a2]]
                        if dv < dmin:
                            dmin = dv
                d[node] = dmin + 1
                cur[node] = start[node]
                relabels += 1
                if node != source:
                    back = path.pop()
                    node = to[rev[back]]
                if relabels > budget:
                    d = self.sink_labels(sink)
                    cur = list(start[:big])
                    relabels = 0
                    del path[:]
                    node = source
        return flow >= k


def _pivot_scan_edges(num_nodes: int, edges: np.ndarray, k: int) -> bool:
    """Even-style pivot scan on an edge array (``k >= 3``, ``n > k``).

    Works straight from the canonical ``(m, 2)`` array — no ``Graph``
    construction: degrees come from one ``bincount``, adjacency queries
    from a pair-key set, and the split flow network is a
    :class:`_ScanNetwork` filled from the raw edge list.  All queried
    pairs are non-adjacent and share the pivot endpoint, so every query
    reuses the one network and the one set of sink-rooted ISAP labels
    (κ is symmetric: κ(pivot, u) runs as a flow from ``out(u)`` into
    the fixed sink ``in(pivot)``).
    """
    n = num_nodes
    eu = edges[:, 0]
    ev = edges[:, 1]
    degrees = np.bincount(eu, minlength=n) + np.bincount(ev, minlength=n)
    if int(degrees.min()) < k:
        return False
    pivot = int(degrees.argmin())

    edge_list = edges.tolist()
    net = _ScanNetwork(n, edge_list)
    pivot_labels = net.sink_labels(pivot)
    pair_set = {u * n + v for u, v in edge_list}

    neighbors = set(
        np.concatenate((ev[eu == pivot], eu[ev == pivot])).tolist()
    )
    # Scan low-degree targets first: when the decision fails, the
    # deficient pair usually involves a sparsely connected vertex, so
    # this ordering turns failures into early exits.  (Success still
    # has to scan everything — Menger gives no shortcut there.)
    non_neighbors = [u for u in range(n) if u != pivot and u not in neighbors]
    non_neighbors.sort(key=lambda u: int(degrees[u]))
    for u in non_neighbors:
        if not net.at_least(u, pivot, k, shared_labels=pivot_labels):
            return False
    for u, w in itertools.combinations(sorted(neighbors), 2):
        if u * n + w not in pair_set:
            if not net.at_least(u, w, k):
                return False
    return True


def is_k_connected_edges(
    num_nodes: int,
    edges: np.ndarray,
    k: int,
    *,
    certificate: bool = True,
    backend=None,
) -> bool:
    """Exact ``κ(G) >= k`` decision straight from an edge array.

    The kernel-layer entry point (``backend.k_connected`` delegates
    here): the study compiler's metric cascade already holds candidate
    edges as arrays, so this path never builds a full-size
    :class:`Graph`.  *certificate* applies the backend's
    Nagamochi–Ibaraki sparse certificate before any flow network is
    built; *backend* defaults to :func:`repro.kernels.get_backend`.
    Follows the standard convention that a k-connected
    graph needs at least ``k + 1`` nodes; ``k <= 0`` is vacuously true.
    """
    if k <= 0:
        return True
    if num_nodes < k + 1:
        return False
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if backend is None:
        from repro.kernels import get_backend

        backend = get_backend()
    if k == 1:
        if edges.shape[0] < num_nodes - 1:
            return False
        labels = backend.min_label_components(num_nodes, edges[:, 0], edges[:, 1])
        return bool((labels == 0).all())

    if edges.shape[0] == 0:
        return False
    degrees = np.bincount(edges[:, 0], minlength=num_nodes) + np.bincount(
        edges[:, 1], minlength=num_nodes
    )
    if int(degrees.min()) < k:
        return False

    work = edges
    if certificate:
        work = backend.sparse_certificate(num_nodes, edges, k)
    if k == 2:
        return is_biconnected(Graph.from_edge_array(num_nodes, work))
    return _pivot_scan_edges(num_nodes, work, k)


def is_k_connected(graph: Graph, k: int, *, certificate: bool = True) -> bool:
    """Exact decision: is ``κ(G) >= k``?

    Follows the standard convention that a k-connected graph needs at
    least ``k + 1`` nodes; ``k <= 0`` is vacuously true.  *certificate*
    (default on) routes ``k >= 2`` decisions through the
    Nagamochi–Ibaraki sparse-certificate pass of the kernel backend;
    both settings are decision-identical (pinned by the
    certificate-equivalence test corpus), the certificate is just
    faster on dense inputs.
    """
    if k <= 0:
        return True
    n = graph.num_nodes
    if n < k + 1:
        return False
    if k == 1:
        return is_connected(graph)
    if k == 2:
        # Tarjan runs on the Graph directly; the certificate pass only
        # pays when it actually shrinks the edge set (rebuilding an
        # identical Graph from an unshrunk certificate is pure waste).
        if not certificate or graph.num_edges <= 2 * (n - 1):
            return is_biconnected(graph)
    return is_k_connected_edges(
        n, graph.to_edge_array(), k, certificate=certificate
    )


def vertex_connectivity(graph: Graph) -> int:
    """Exact vertex connectivity ``κ(G)``.

    Conventions match networkx: a single node or a disconnected graph has
    κ = 0; the complete graph ``K_n`` has κ = n - 1.
    """
    n = graph.num_nodes
    if n == 1:
        return 0
    if graph.num_edges == n * (n - 1) // 2:
        return n - 1  # complete graph: no non-adjacent pair exists
    if not is_connected(graph):
        return 0

    degrees = graph.degrees()
    best = int(degrees.min())
    pivot = int(degrees.argmin())

    neighbors = graph.adjacency(pivot)
    for u in range(n):
        if u != pivot and u not in neighbors:
            best = min(best, local_node_connectivity(graph, pivot, u, limit=best))
            if best == 0:  # pragma: no cover - connected graphs never hit 0
                return 0
    for u, w in itertools.combinations(sorted(neighbors), 2):
        if not graph.has_edge(u, w):
            best = min(best, local_node_connectivity(graph, u, w, limit=best))
    return best
