"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs.graph import Graph
from repro.params import QCompositeParams


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic generator for tests that sample."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_params() -> QCompositeParams:
    """A small but non-trivial parameter tuple used across suites."""
    return QCompositeParams(
        num_nodes=50, key_ring_size=20, pool_size=500, overlap=2, channel_prob=0.7
    )


@pytest.fixture
def figure1_params() -> QCompositeParams:
    """One Figure 1 point (q=2, p=0.5 curve at K=60)."""
    return QCompositeParams(
        num_nodes=1000,
        key_ring_size=60,
        pool_size=10000,
        overlap=2,
        channel_prob=0.5,
    )


@pytest.fixture
def diamond_graph() -> Graph:
    """4-cycle plus one chord: 2-connected, not 3-connected."""
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    return g


@pytest.fixture
def bowtie_graph() -> Graph:
    """Two triangles sharing node 2: connected with articulation point 2."""
    return Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])


def random_gnp_graph(n: int, p: float, rng: np.random.Generator) -> Graph:
    """Plain-python ER sampler for cross-checks (independent of repro code)."""
    g = Graph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v)
    return g


def replay_deployment_stream(
    dep, pool_size, ring_size, seed, *, needs_onoff, needs_disk
):
    """Re-draw a homogeneous deployment's stream by hand.

    ``sample_deployment`` documents its draw order: rings, then one
    on/off uniform per candidate, then torus positions.  Replaying it
    from the same seed recovers the variables the deployment consumed
    (positions are not stored, only the per-candidate distances).
    Returns ``(rings, uniforms, positions)``.
    """
    from repro.keygraphs.rings import sample_uniform_rings

    stream = np.random.default_rng(seed)
    rings = sample_uniform_rings(dep.num_nodes, ring_size, pool_size, stream)
    uniforms = stream.random(dep.candidates.size) if needs_onoff else None
    positions = stream.random((dep.num_nodes, 2)) if needs_disk else None
    return rings, uniforms, positions


def torus_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean distance on the unit torus, written out independently."""
    d = np.abs(np.asarray(a) - np.asarray(b))
    d = np.minimum(d, 1.0 - d)
    return float(np.sqrt((d * d).sum()))


def attacked_deployment(num_nodes, pool_size, ring_size, q, seed):
    """An on/off deployment carrying a capture permutation, with its evaluator."""
    from repro.study.metrics import DeploymentEvaluator, sample_deployment

    dep = sample_deployment(
        num_nodes,
        pool_size,
        ring_size,
        q,
        np.random.default_rng(seed),
        needs_capture=True,
    )
    return dep, DeploymentEvaluator(dep)
