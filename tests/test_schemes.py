"""Tests for the q-composite linking rule on the key-ring arrays.

A pair of sensors can establish a secure link iff their rings share at
least ``q`` keys; Eschenauer–Gligor is the ``q = 1`` case.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.keygraphs.rings import sample_uniform_rings
from repro.keygraphs.uniform_graph import edges_from_rings
from repro.probability.hypergeometric import overlap_survival
from repro.study.metrics import sample_deployment


def _linked(a, b, q):
    edges = edges_from_rings(np.array([a, b], dtype=np.int64), q)
    return edges.shape[0] == 1


class TestQCompositeScheme:
    def test_can_establish_respects_q(self):
        a = [1, 2, 3, 4]
        assert _linked(a, [3, 4, 10, 11], 2)  # 2 shared
        assert not _linked(a, [4, 10, 11, 12], 2)  # 1 shared

    def test_key_graph_edges_respect_rule(self):
        rings = sample_uniform_rings(15, 10, 60, seed=5)
        edges = edges_from_rings(rings, 3)
        assert edges.shape[0] > 0
        linked = {tuple(map(int, e)) for e in edges}
        for u in range(15):
            for v in range(u + 1, 15):
                shared = np.intersect1d(rings[u], rings[v]).size
                assert ((u, v) in linked) == (shared >= 3)

    def test_edge_probability_matches_hypergeometric(self):
        # The share of pairs that are candidates at q = 2 estimates
        # P[overlap >= 2] of Eqs. (3)-(4).
        rng = np.random.default_rng(12)
        hits = pairs = 0
        for _ in range(4):
            dep = sample_deployment(200, 300, 12, 2, rng)
            hits += dep.candidates.size
            pairs += 200 * 199 // 2
        expect = overlap_survival(12, 300, 2)
        assert hits / pairs == pytest.approx(expect, abs=4 * np.sqrt(expect / pairs))


class TestEschenauerGligor:
    def test_single_shared_key_suffices(self):
        assert _linked([1, 2, 3], [3, 10, 20], 1)
        assert not _linked([1, 2, 3], [4, 10, 20], 1)
