"""Kernel benches: the three hot-path kernels in isolation.

The k-connectivity bench also pins the PR 5 acceptance angle: the
exact decision with the Nagamochi–Ibaraki certificate must agree with
the plain Dinic decision while the sparse-certificate + ISAP scan
keeps the per-decision cost low.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import emit, kconn_fixture
from repro.graphs.generators import erdos_renyi_edges
from repro.kernels import get_backend
from repro.keygraphs.rings import sample_uniform_rings


def test_bench_min_label_kernel(benchmark):
    backend = get_backend()
    edges = erdos_renyi_edges(2000, 0.004, seed=3)
    u, v = edges[:, 0].copy(), edges[:, 1].copy()

    def run():
        for _ in range(20):
            backend.min_label_components(2000, u, v)

    benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=0)
    labels = backend.min_label_components(2000, u, v)
    assert (labels <= np.arange(2000)).all()  # the component's minimum id
    assert np.array_equal(labels[labels], labels)


def test_bench_overlap_kernel(benchmark):
    backend = get_backend()
    rings = sample_uniform_rings(2000, 45, 10000, seed=11)
    node_ids = np.repeat(np.arange(2000, dtype=np.int64), 45)
    key_ids = rings.astype(np.int64).ravel()

    def run():
        for _ in range(3):
            backend.overlap_counts(node_ids, key_ids, 2000)

    benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=0)
    keys, counts = backend.overlap_counts(node_ids, key_ids, 2000)
    assert keys.shape == counts.shape and (counts >= 1).all()
    assert (np.diff(keys) > 0).all()


def test_bench_kconn_certificate_decision(benchmark):
    backend = get_backend()
    n, edges = kconn_fixture()
    cert = backend.sparse_certificate(n, edges, 3)
    assert cert.shape[0] <= 3 * (n - 1)
    with_cert = backend.k_connected(n, edges, 3, certificate=True)

    def run():
        for _ in range(3):
            backend.k_connected(n, edges, 3, certificate=True)

    benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=0)
    plain = backend.k_connected(n, edges, 3, certificate=False)
    assert with_cert == plain
    emit(
        "kernels: exact k=3 decision",
        f"n={n} m={edges.shape[0]} cert_m={cert.shape[0]} "
        f"decision={with_cert} (certificate == plain)",
    )


def test_bench_kconn_plain_baseline(benchmark):
    """Certificate-off baseline for the decision bench above."""
    backend = get_backend()
    n, edges = kconn_fixture()

    def run():
        for _ in range(3):
            backend.k_connected(n, edges, 3, certificate=False)

    benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=0)
