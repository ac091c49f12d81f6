"""Key predistribution substrate: rings and q-intersection graphs."""

from repro.keygraphs.binomial_graph import (
    binomial_intersection_edges,
    binomial_intersection_graph,
    coupled_ring_pair,
)
from repro.keygraphs.rings import (
    rings_to_incidence,
    sample_binomial_rings,
    sample_class_labels,
    sample_class_rings,
    sample_uniform_rings,
)
from repro.keygraphs.uniform_graph import (
    edges_from_rings,
    overlap_counts_from_rings,
    uniform_intersection_edges,
    uniform_intersection_graph,
)

__all__ = [
    "binomial_intersection_edges",
    "binomial_intersection_graph",
    "coupled_ring_pair",
    "rings_to_incidence",
    "sample_binomial_rings",
    "sample_class_labels",
    "sample_class_rings",
    "sample_uniform_rings",
    "edges_from_rings",
    "overlap_counts_from_rings",
    "uniform_intersection_edges",
    "uniform_intersection_graph",
]
