"""Uniform q-intersection graph ``G_q(n, K, P)`` generation.

Two exact backends compute, for every node pair, whether the rings
share at least ``q`` keys:

* ``inverted`` (default) — build the key → holders index, emit one
  pair event per co-holding pair per key, and count pair multiplicities
  with ``np.unique``.  Cost is proportional to the number of incidence
  pair events, expected ``P * C(nK/P, 2)`` — around ``4·10^5`` at the
  paper's Figure 1 scale, versus ``5·10^5`` node pairs times ``K`` for
  the naive scan.
* ``dense`` — Gram matrix of the ``(n, P)`` membership matrix.  Cost
  ``O(n^2 P)`` flops but BLAS-bound; used as an independent
  cross-check in tests and competitive for small ``n``.

Both return canonical ``(m, 2)`` int64 edge arrays (``u < v``, sorted).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import ParameterError
from repro.graphs.graph import Graph
from repro.kernels import get_backend
from repro.keygraphs.rings import rings_to_incidence, sample_uniform_rings
from repro.utils.rng import RandomState
from repro.utils.validation import check_positive_int

__all__ = [
    "edges_from_rings",
    "overlap_counts_from_rings",
    "uniform_intersection_edges",
    "uniform_intersection_graph",
]

Rings = Union[np.ndarray, Sequence[np.ndarray]]


def _flatten_rings(rings: Rings) -> Tuple[np.ndarray, np.ndarray, int]:
    """Return (node_ids, key_ids, num_nodes) incidence representation."""
    if isinstance(rings, np.ndarray):
        if rings.ndim != 2:
            raise ParameterError(
                f"uniform rings array must be 2-D, got shape {rings.shape}"
            )
        n, k = rings.shape
        node_ids = np.repeat(np.arange(n, dtype=np.int64), k)
        key_ids = rings.astype(np.int64, copy=False).ravel()
        return node_ids, key_ids, n
    rows: List[np.ndarray] = [np.asarray(r, dtype=np.int64) for r in rings]
    n = len(rows)
    if n == 0:
        raise ParameterError("rings must contain at least one node")
    node_ids = np.concatenate(
        [np.full(r.size, i, dtype=np.int64) for i, r in enumerate(rows)]
    ) if any(r.size for r in rows) else np.empty(0, dtype=np.int64)
    key_ids = (
        np.concatenate(rows) if any(r.size for r in rows) else np.empty(0, np.int64)
    )
    return node_ids, key_ids, n


def overlap_counts_from_rings(rings: Rings) -> Tuple[np.ndarray, np.ndarray]:
    """Return ``(pair_keys, counts)``: shared-key count per co-holding pair.

    ``pair_keys`` encodes each unordered node pair ``(u, v), u < v`` as
    ``u * n + v``; ``counts`` is the number of keys the pair shares.
    Pairs sharing zero keys are absent.  This is the primitive under
    both the q-composite edge rule (``counts >= q``) and the attack
    layer (which needs the actual shared-key multiplicities).

    The counting itself is a kernel dispatched through
    :mod:`repro.kernels`; the group-size-batched ``np.unique``
    implementation lives in :func:`repro.kernels.reference.overlap_counts`.
    """
    node_ids, key_ids, n = _flatten_rings(rings)
    if key_ids.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return get_backend().overlap_counts(node_ids, key_ids, n)


def edges_from_rings(rings: Rings, q: int, *, backend: str = "inverted") -> np.ndarray:
    """Edge array of the q-intersection graph induced by *rings*.

    Parameters
    ----------
    rings:
        ``(n, K)`` array (uniform model) or ragged list (binomial model).
    q:
        Minimum number of shared keys for an edge.
    backend:
        ``"inverted"`` (default) or ``"dense"`` — see module docstring.
    """
    q = check_positive_int(q, "q")
    if backend == "inverted":
        node_pairs, counts = overlap_counts_from_rings(rings)
        _, _, n = _flatten_rings(rings)
        chosen = node_pairs[counts >= q]
        out = np.empty((chosen.size, 2), dtype=np.int64)
        out[:, 0] = chosen // n
        out[:, 1] = chosen % n
        return out
    if backend == "dense":
        return _edges_dense(rings, q)
    raise ParameterError(f"unknown backend {backend!r}; use 'inverted' or 'dense'")


def _edges_dense(rings: Rings, q: int) -> np.ndarray:
    if isinstance(rings, np.ndarray):
        pool_size = int(rings.max()) + 1 if rings.size else 1
    else:
        pool_size = (
            int(max((int(r.max()) for r in rings if r.size), default=0)) + 1
        )
    incidence = rings_to_incidence(rings, pool_size).astype(np.float32)
    gram = incidence @ incidence.T  # exact: counts <= K < 2**24
    iu, ju = np.triu_indices(gram.shape[0], k=1)
    mask = gram[iu, ju] >= q
    out = np.empty((int(mask.sum()), 2), dtype=np.int64)
    out[:, 0] = iu[mask]
    out[:, 1] = ju[mask]
    return out


def uniform_intersection_edges(
    num_nodes: int,
    key_ring_size: int,
    pool_size: int,
    q: int,
    seed: RandomState = None,
    *,
    backend: str = "inverted",
) -> np.ndarray:
    """Sample ``G_q(n, K, P)`` and return its canonical edge array."""
    rings = sample_uniform_rings(num_nodes, key_ring_size, pool_size, seed)
    return edges_from_rings(rings, q, backend=backend)


def uniform_intersection_graph(
    num_nodes: int,
    key_ring_size: int,
    pool_size: int,
    q: int,
    seed: RandomState = None,
    *,
    backend: str = "inverted",
) -> Graph:
    """Sample ``G_q(n, K, P)`` as a :class:`~repro.graphs.graph.Graph`."""
    edges = uniform_intersection_edges(
        num_nodes, key_ring_size, pool_size, q, seed, backend=backend
    )
    return Graph.from_edge_array(num_nodes, edges)
