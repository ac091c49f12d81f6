"""Brute-force reference sampler for the study engine's estimates.

The study path shares one sampled world across every curve, addresses
seeds by grid cell, counts key overlaps with sort-based kernels and
decides k-connectivity through a sparse certificate and an ISAP scan.
This oracle does none of that, so an agreement between the two is
evidence about the *model*, not about shared code.  For every ``(size,
K, trial)`` cell of a :class:`~repro.study.scenario.Scenario` it:

1. draws the deployment from its own ``default_rng([seed, trial, size,
   ring])`` stream — class labels by ``rng.choice(C, n, p=mu)``, then
   each node's ring by ``rng.choice(P, K, replace=False)``;
2. counts the keys every node pair shares through a dense incidence
   Gram matrix ``A @ A.T``;
3. for each ``(q, p)`` curve, draws one fresh Bernoulli per pair sharing
   at least ``q`` keys, on at ``p * alpha[c(u)][c(v)]`` (product form,
   like the class-mix model states it);
4. builds a :class:`~repro.graphs.graph.Graph` and decides each metric
   on it: BFS connectivity, ``Graph.degrees()`` for the degree metrics,
   Tarjan for ``k = 2`` and Even's max-flow ``vertex_connectivity`` for
   ``k >= 3``.

Curves are therefore sampled independently of one another, unlike the
engine's nested thinning; each cell is still an exact sample of the
paper's model.  Only on/off sweep scenarios with the four metrics above
are modelled: anything else raises :class:`OracleUnsupported`.

The module never imports ``repro.study``, ``repro.kernels``,
``repro.keygraphs.rings``, ``grid_seed_sequence`` or the overlap
kernels (``tests/test_oracle.py`` pins this).
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

import numpy as np

from repro.exceptions import ParameterError
from repro.graphs.biconnectivity import is_biconnected
from repro.graphs.graph import Graph
from repro.graphs.traversal import is_connected
from repro.graphs.vertex_connectivity import vertex_connectivity
from repro.simulation.estimators import BernoulliEstimate

__all__ = [
    "OracleResult",
    "OracleUnsupported",
    "SUPPORTED_METRICS",
    "ci_overlap",
    "run_oracle",
    "sample_graphs",
    "sample_rings",
]

SUPPORTED_METRICS = ("connectivity", "k_connectivity", "min_degree", "degree_count")


class OracleUnsupported(ParameterError):
    """The scenario asks for a channel, metric or kind the oracle lacks."""


def _check_supported(scenario) -> None:
    if scenario.kind != "sweep":
        raise OracleUnsupported(f"oracle models sweep scenarios, not {scenario.kind!r}")
    if scenario.channel != "onoff":
        raise OracleUnsupported(f"oracle models the on/off channel, not {scenario.channel!r}")
    for metric in scenario.metrics:
        if metric.kind not in SUPPORTED_METRICS:
            raise OracleUnsupported(f"oracle does not model metric {metric.label!r}")


def sample_rings(num_nodes, pool_size, ring, classes, rng) -> Tuple[np.ndarray, list]:
    """Per-node class labels and key rings (``ring`` is per-class with a mix)."""
    if classes is None:
        labels = np.zeros(num_nodes, dtype=np.int64)
        ring_of_class: Tuple[int, ...] = (int(ring),)
    else:
        labels = rng.choice(len(classes.mu), size=num_nodes, p=classes.mu)
        ring_of_class = tuple(int(k) for k in ring)
    rings = [
        rng.choice(pool_size, ring_of_class[labels[node]], replace=False)
        for node in range(num_nodes)
    ]
    return labels, rings


def sample_graphs(num_nodes, pool_size, ring, classes, curves, rng) -> List[Graph]:
    """One deployment: the secure graph of every ``(q, p)`` curve."""
    labels, rings = sample_rings(num_nodes, pool_size, ring, classes, rng)
    incidence = np.zeros((num_nodes, pool_size))
    for node, keys in enumerate(rings):
        incidence[node, keys] = 1.0
    u, v = np.triu_indices(num_nodes, 1)
    shared = (incidence @ incidence.T)[u, v]
    alpha = np.ones((1, 1)) if classes is None else np.asarray(classes.channel_probs)
    pair_alpha = alpha[labels[u], labels[v]]
    graphs = []
    for q, p in curves:
        pairs = np.flatnonzero(shared >= q)
        on = pairs[rng.random(pairs.size) < p * pair_alpha[pairs]]
        graphs.append(Graph.from_edge_array(num_nodes, np.column_stack((u[on], v[on]))))
    return graphs


def is_k_connected(graph: Graph, k: int) -> bool:
    """Exact ``κ(G) >= k`` without the engine's certificate or ISAP scan."""
    if k == 1:
        return is_connected(graph)
    if k == 2:
        return is_biconnected(graph)
    if graph.num_nodes < k + 1 or int(graph.degrees().min()) < k:
        return False  # κ <= min degree
    return vertex_connectivity(graph) >= k


def evaluate(graph: Graph, metric) -> float:
    """One metric of one deployment's graph."""
    if metric.kind == "connectivity":
        return float(is_connected(graph))
    if metric.kind == "k_connectivity":
        return float(is_k_connected(graph, metric.k))
    degrees = graph.degrees()
    if metric.kind == "min_degree":
        return float(int(degrees.min()) >= metric.k)
    return float((degrees == metric.h).sum())  # degree_count


@dataclasses.dataclass(frozen=True)
class OracleResult:
    """Oracle values laid out ``[size, ring, trial, curve, metric]``."""

    scenario: object
    values: np.ndarray

    def series(self, metric=None, curve=None, ring=None, size=None) -> np.ndarray:
        """Per-trial values of one cell; ``None`` picks a one-entry axis."""
        sc = self.scenario
        si = 0 if size is None else sc.sizes.index(size)
        ri = 0 if ring is None else sc.ring_sizes_at(si).index(ring)
        ci = 0 if curve is None else sc.curves_at(si).index((int(curve[0]), float(curve[1])))
        labels = [m.label for m in sc.metrics]
        mi = 0 if metric is None else labels.index(metric)
        return self.values[si, ri, :, ci, mi]

    def bernoulli(self, metric=None, curve=None, ring=None, size=None) -> BernoulliEstimate:
        series = self.series(metric, curve, ring, size)
        return BernoulliEstimate.from_counts(int(series.sum()), series.size)


def run_oracle(scenario, trials: Optional[int] = None, seed: Optional[int] = None) -> OracleResult:
    """Brute-force every cell of *scenario* (its trials and seed by default)."""
    _check_supported(scenario)
    trials = scenario.trials if trials is None else trials
    seed = scenario.seed if seed is None else seed
    values = np.empty(
        (scenario.num_sizes, scenario.num_rings, trials, scenario.num_curves,
         len(scenario.metrics))
    )
    for si in range(scenario.num_sizes):
        n = scenario.num_nodes_at(si)
        for ri, ring in enumerate(scenario.ring_sizes_at(si)):
            for t in range(trials):
                rng = np.random.default_rng([seed, t, si, ri])
                graphs = sample_graphs(
                    n, scenario.pool_size_at(si), ring, scenario.classes,
                    scenario.curves_at(si), rng,
                )
                for ci, graph in enumerate(graphs):
                    for mi, metric in enumerate(scenario.metrics):
                        values[si, ri, t, ci, mi] = evaluate(graph, metric)
    return OracleResult(scenario, values)


def ci_overlap(a: BernoulliEstimate, b: BernoulliEstimate) -> bool:
    """Whether two Wilson intervals intersect."""
    return a.ci_low <= b.ci_high and b.ci_low <= a.ci_high
