"""The pure-numpy reference kernel backend.

Every kernel here is the battle-tested implementation the repository
ran on before the backend layer existed, moved behind the
:class:`~repro.kernels.base.KernelBackend` interface:

* :func:`min_label_components` is the PR 1 pointer-jumping min-label
  propagation (formerly ``repro.graphs.unionfind._min_label_components``);
* :func:`overlap_counts` is the group-size-batched ``np.unique``
  inverted-index counter (formerly the body of
  ``repro.keygraphs.uniform_graph.overlap_counts_from_rings``);
* :func:`scan_first_certificate` is new in PR 5: the Nagamochi–Ibaraki
  sparse certificate via k rounds of scan-first (BFS) spanning forests.

It is the only backend, so it defines the numbers.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.kernels.base import KernelBackend

__all__ = [
    "ReferenceBackend",
    "min_label_components",
    "overlap_counts",
    "scan_first_certificate",
]


def min_label_components(
    num_nodes: int, u: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """Array-based union-find: minimum-label propagation with pointer jumping.

    ``labels[i]`` converges to the smallest node id in *i*'s component.
    Each outer round hooks the larger endpoint label onto the smaller
    (``np.minimum.at``) and then compresses paths to a fixpoint by
    repeated ``labels[labels]`` jumping, so the whole computation is
    O(m + n) numpy work per round with O(log n) rounds in practice —
    no per-edge Python iteration.
    """
    labels = np.arange(num_nodes, dtype=np.int64)
    if u.size == 0:
        return labels
    while True:
        lu = labels[u]
        lv = labels[v]
        active = lu != lv
        if not active.any():
            return labels
        np.minimum.at(
            labels,
            np.maximum(lu[active], lv[active]),
            np.minimum(lu[active], lv[active]),
        )
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped


def overlap_counts(
    node_ids: np.ndarray, key_ids: np.ndarray, num_nodes: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Shared-key count per co-holding pair via the inverted key index.

    Emits one pair event per co-holding pair per key and counts pair
    multiplicities with ``np.unique``.  Keys are processed in batches of
    equal holder count, so each batch is one ``(num_keys, m)`` gather
    plus one ``triu``-index expansion — no per-key Python iteration.
    """
    order = np.argsort(key_ids, kind="stable")
    sorted_keys = key_ids[order]
    sorted_nodes = node_ids[order]

    # Group boundaries: starts[i] .. starts[i+1] hold one key's holders.
    change = np.flatnonzero(np.diff(sorted_keys)) + 1
    starts = np.concatenate(([0], change, [sorted_keys.size]))
    group_sizes = np.diff(starts)

    pair_chunks = []
    for m in np.unique(group_sizes):
        m = int(m)
        if m < 2:
            continue
        sel = np.flatnonzero(group_sizes == m)
        # (len(sel), m) matrix of holder ids for every key of this size.
        gather = starts[sel][:, None] + np.arange(m, dtype=np.int64)[None, :]
        holders = sorted_nodes[gather]
        ia, ib = np.triu_indices(m, k=1)
        a = holders[:, ia].ravel()
        b = holders[:, ib].ravel()
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        pair_chunks.append(lo * np.int64(num_nodes) + hi)

    if not pair_chunks:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    all_pairs = np.concatenate(pair_chunks)
    pair_keys, counts = np.unique(all_pairs, return_counts=True)
    return pair_keys, counts.astype(np.int64)


def scan_first_certificate(
    num_nodes: int, edges: np.ndarray, k: int
) -> np.ndarray:
    """Union of ``k`` successive scan-first-search spanning forests.

    ``F_i`` is a BFS spanning forest of ``G - (F_1 ∪ … ∪ F_{i-1})``
    (BFS is a scan-first search: scanning a vertex visits every still
    unvisited residual neighbor).  By Cheriyan–Kao–Thurimella the union
    ``F_1 ∪ … ∪ F_k`` is k-vertex-connected iff ``G`` is, and it has at
    most ``k * (num_nodes - 1)`` edges — so the Dinic pivot scan of the
    exact decision runs on O(k·n) edges no matter how dense ``G`` was.
    Inputs already within the bound are returned as-is.
    """
    m = int(edges.shape[0])
    if m == 0 or k < 1 or m <= k * (num_nodes - 1):
        return edges

    # CSR adjacency with edge ids (each undirected edge appears twice).
    u = edges[:, 0]
    v = edges[:, 1]
    endpoints = np.concatenate((u, v))
    order = np.argsort(endpoints, kind="stable")
    adj_nbr = np.concatenate((v, u))[order].tolist()
    eids = np.arange(m, dtype=np.int64)
    adj_eid = np.concatenate((eids, eids))[order].tolist()
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(endpoints, minlength=num_nodes), out=indptr[1:])
    indptr = indptr.tolist()

    used = [False] * m
    remaining = m
    for _ in range(k):
        if remaining == 0:
            break
        visited = [False] * num_nodes
        for root in range(num_nodes):
            if visited[root]:
                continue
            visited[root] = True
            queue = [root]
            qi = 0
            while qi < len(queue):
                x = queue[qi]
                qi += 1
                for idx in range(indptr[x], indptr[x + 1]):
                    w = adj_nbr[idx]
                    if visited[w]:
                        continue
                    e = adj_eid[idx]
                    if used[e]:
                        continue
                    visited[w] = True
                    used[e] = True
                    remaining -= 1
                    queue.append(w)
    return edges[np.asarray(used, dtype=bool)]


class ReferenceBackend(KernelBackend):
    """The default backend: pure numpy, no optional dependencies."""

    name = "reference"

    def min_label_components(
        self, num_nodes: int, u: np.ndarray, v: np.ndarray
    ) -> np.ndarray:
        return min_label_components(num_nodes, u, v)

    def overlap_counts(
        self, node_ids: np.ndarray, key_ids: np.ndarray, num_nodes: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        return overlap_counts(node_ids, key_ids, num_nodes)

    def sparse_certificate(
        self, num_nodes: int, edges: np.ndarray, k: int
    ) -> np.ndarray:
        return scan_first_certificate(num_nodes, edges, k)
