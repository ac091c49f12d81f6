"""Tests for the kernel layer (:mod:`repro.kernels`).

Four pillars:

1. the seam — :func:`get_backend` is the cached reference backend and
   provenance names it;
2. the Nagamochi–Ibaraki sparse certificate — structural guarantees
   (subset, <= k(n-1) edges) and the certificate-equivalence property:
   ``is_k_connected`` with the certificate agrees bit-for-bit with the
   plain Dinic decision on random ER and key-ring graphs across a k
   grid, including the k <= 2 shortcut paths and n < k + 1 edge cases;
3. pool invariance — the shared Figure-1 fixture is bit-identical
   serial and on the warm pool;
4. config — a scenario carries no backend selection: the retired
   ``kernel_backend`` field is rejected as an unknown field.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.exceptions import ParameterError
from repro.graphs.generators import erdos_renyi_edges
from repro.graphs.graph import Graph
from repro.graphs.vertex_connectivity import (
    is_k_connected,
    is_k_connected_edges,
    vertex_connectivity,
)
from repro.kernels import get_backend, resolve_backend_name
from repro.kernels.reference import ReferenceBackend, scan_first_certificate
from repro.keygraphs.uniform_graph import uniform_intersection_edges
from repro.study import MetricSpec, Scenario, Study


def _key_ring_graph(n, ring, pool, p, seed):
    """A q=2 key-ring graph with Bernoulli(p) channel thinning."""
    edges = uniform_intersection_edges(n, ring, pool, 2, seed=seed)
    if p < 1.0:
        rng = np.random.default_rng(seed + 1)
        edges = edges[rng.random(edges.shape[0]) < p]
    return edges


class TestRegistry:
    def test_reference_always_registered_and_default(self):
        backend = get_backend()
        assert isinstance(backend, ReferenceBackend)
        assert get_backend() is backend  # one cached instance
        assert resolve_backend_name() == backend.name == "reference"


class TestSparseCertificate:
    def test_subset_and_size_bound(self):
        rng = np.random.default_rng(7)
        for n, p in ((30, 0.4), (60, 0.2), (25, 0.9)):
            edges = erdos_renyi_edges(n, p, rng)
            for k in (1, 2, 3, 4):
                cert = scan_first_certificate(n, edges, k)
                assert cert.shape[0] <= k * (n - 1)
                keys = set((edges[:, 0] * n + edges[:, 1]).tolist())
                cert_keys = (cert[:, 0] * n + cert[:, 1]).tolist()
                assert set(cert_keys) <= keys
                assert len(cert_keys) == len(set(cert_keys))

    def test_sparse_input_returned_unchanged(self):
        edges = np.array([[0, 1], [1, 2], [2, 3]], dtype=np.int64)
        cert = scan_first_certificate(4, edges, 2)
        assert cert is edges

    def test_first_forest_spans_components(self):
        # k = 1 certificate of a connected graph is a spanning tree.
        rng = np.random.default_rng(3)
        edges = erdos_renyi_edges(40, 0.3, rng)
        g = Graph.from_edge_array(40, edges)
        from repro.graphs.traversal import is_connected

        if is_connected(g):
            cert = scan_first_certificate(40, edges, 1)
            assert cert.shape[0] == 39
            assert is_connected(Graph.from_edge_array(40, cert))

    def test_certificate_preserves_kappa_up_to_k(self):
        # The certificate preserves the decision for every k' <= k.
        rng = np.random.default_rng(11)
        for _ in range(5):
            edges = erdos_renyi_edges(24, 0.5, rng)
            k = 4
            cert = scan_first_certificate(24, edges, k)
            kappa_full = vertex_connectivity(Graph.from_edge_array(24, edges))
            kappa_cert = vertex_connectivity(Graph.from_edge_array(24, cert))
            assert min(kappa_cert, k) == min(kappa_full, k)


class TestCertificateEquivalence:
    """Satellite: cert and plain decisions agree bit-for-bit."""

    def test_er_graphs_across_k_grid(self):
        rng = np.random.default_rng(2017)
        for n in (8, 15, 30, 60):
            for p in (0.05, 0.15, 0.4, 0.8):
                edges = erdos_renyi_edges(n, p, rng)
                g = Graph.from_edge_array(n, edges)
                for k in range(0, 6):
                    plain = is_k_connected(g, k, certificate=False)
                    with_cert = is_k_connected(g, k, certificate=True)
                    from_edges = is_k_connected_edges(n, edges, k)
                    assert plain == with_cert == from_edges, (n, p, k)

    def test_key_ring_graphs_across_k_grid(self):
        for seed, p in ((1, 1.0), (2, 0.6), (3, 0.35)):
            n = 80
            edges = _key_ring_graph(n, 18, 600, p, seed)
            g = Graph.from_edge_array(n, edges)
            for k in (1, 2, 3, 4):
                plain = is_k_connected(g, k, certificate=False)
                with_cert = is_k_connected(g, k, certificate=True)
                assert plain == with_cert, (seed, p, k)

    def test_k_le_2_shortcut_paths(self):
        # k <= 2 goes through union-find / Tarjan; both certificate
        # settings must agree with the dedicated implementations.
        from repro.graphs.biconnectivity import is_biconnected
        from repro.graphs.traversal import is_connected

        rng = np.random.default_rng(5)
        for n, p in ((12, 0.2), (40, 0.1), (40, 0.3)):
            edges = erdos_renyi_edges(n, p, rng)
            g = Graph.from_edge_array(n, edges)
            assert is_k_connected(g, 1, certificate=True) == is_connected(g)
            assert is_k_connected(g, 1, certificate=False) == is_connected(g)
            assert is_k_connected(g, 2, certificate=True) == is_biconnected(g)
            assert is_k_connected(g, 2, certificate=False) == is_biconnected(g)

    def test_small_n_edge_cases(self):
        # n < k + 1 is False for every certificate setting; k <= 0 True.
        for cert in (True, False):
            assert is_k_connected(Graph(3), 0, certificate=cert)
            assert is_k_connected(Graph(1), 0, certificate=cert)
            assert not is_k_connected(Graph.complete(3), 3, certificate=cert)
            assert not is_k_connected(Graph.complete(4), 4, certificate=cert)
            assert is_k_connected(Graph.complete(4), 3, certificate=cert)
        assert not is_k_connected_edges(3, np.empty((0, 2), dtype=np.int64), 1)
        assert is_k_connected_edges(1, np.empty((0, 2), dtype=np.int64), 0)
        assert not is_k_connected_edges(2, np.empty((0, 2), dtype=np.int64), 2)
        # Known answer: an 8-cycle is 2- but not 3-connected.
        ring = np.arange(8, dtype=np.int64)
        cycle = np.sort(np.stack([ring, (ring + 1) % 8], axis=1), axis=1)
        for cert in (True, False):
            assert get_backend().k_connected(8, cycle, 2, certificate=cert)
            assert not get_backend().k_connected(8, cycle, 3, certificate=cert)

    def test_matches_exact_kappa(self):
        rng = np.random.default_rng(99)
        for _ in range(8):
            edges = erdos_renyi_edges(14, 0.45, rng)
            g = Graph.from_edge_array(14, edges)
            kappa = vertex_connectivity(g)
            for k in range(1, 6):
                assert is_k_connected(g, k, certificate=True) == (kappa >= k)


def _fixture_study(trials=5):
    """The shared Figure-1-style consistency fixture: every kernel on."""
    return Study(
        (
            Scenario(
                name="consistency",
                num_nodes=70,
                pool_size=600,
                ring_sizes=(14, 18),
                curves=((2, 1.0), (2, 0.6), (3, 1.0)),
                metrics=(
                    MetricSpec("connectivity"),
                    MetricSpec("k_connectivity", k=2),
                    MetricSpec("k_connectivity", k=3),
                    MetricSpec("min_degree", k=3),
                    MetricSpec("giant_fraction"),
                    MetricSpec("degree_count", h=2),
                ),
                trials=trials,
                seed=424242,
            ),
        )
    )


class TestBackendConsistency:
    def test_reference_is_available_here(self):
        assert get_backend().name == "reference"

    def test_serial_and_warm_pool_agree(self):
        serial = _fixture_study().run(workers=1)
        pooled = _fixture_study().run(workers=2)
        np.testing.assert_array_equal(
            serial["consistency"].values, pooled["consistency"].values
        )
        for result in (serial, pooled):
            assert result.provenance["kernel_backends"] == ["reference"]
            assert result.provenance["groups"][0]["kernel_backend"] == "reference"


class TestConfigThreading:
    def test_scenario_rejects_unknown_backend(self):
        # A scenario carries no backend selection: the field is neither
        # written nor accepted.
        data = _fixture_study().scenarios[0].to_dict()
        assert "kernel_backend" not in data
        data["kernel_backend"] = "reference"
        with pytest.raises(ParameterError, match="unknown scenario fields"):
            Scenario.from_dict(data)


class TestCli:
    def test_study_set_kernel_backend(self, tmp_path):
        study = _fixture_study(trials=2)
        path = tmp_path / "study.json"
        path.write_text(study.to_json())
        with pytest.raises(ParameterError, match="kernel_backend"):
            main(
                [
                    "study",
                    str(path),
                    "--workers",
                    "1",
                    "--set",
                    "kernel_backend=reference",
                ]
            )
