"""Tests for the shared-deployment sweep underneath the study compiler.

Covers the three properties the engine's exactness rests on:

1. the nested-thinning coupling invariant (smaller ``p`` / larger ``q``
   masks are subsets of larger ``p`` / smaller ``q`` masks within one
   deployment);
2. statistical consistency between the study path and the independent
   brute-force reference (``tests/oracle.py``, the "legacy" side of the
   historic test names): same model marginally, only the joint law
   differs;
3. determinism: both are bit-exact under a fixed seed, and the study
   result is invariant to the worker count.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracle import ci_overlap, run_oracle
from repro.exceptions import ParameterError
from repro.experiments.figure1 import build_figure1_study, run_figure1
from repro.experiments.zero_one import run_zero_one
from repro.graphs.generators import erdos_renyi_edges
from repro.graphs.traversal import connected_components
from repro.graphs.graph import Graph
from repro.graphs.unionfind import (
    connected_components_labels,
    count_components_pair_keys,
    is_connected_pair_keys,
)
from repro.study import MetricSpec, Scenario, run_scenario
from repro.study.metrics import DeploymentEvaluator, sample_deployment

SIX_CURVES = [(2, 1.0), (2, 0.5), (2, 0.2), (3, 1.0), (3, 0.5), (3, 0.2)]


def _subset(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether boolean mask *a* selects a subset of mask *b*."""
    return not bool((a & ~b).any())


class TestVectorizedKernel:
    def test_matches_bfs_on_random_er_graphs(self):
        rng = np.random.default_rng(42)
        for n in (2, 3, 7, 25, 120):
            for p in (0.0, 0.01, 0.05, 0.2, 0.8):
                edges = erdos_renyi_edges(n, p, rng)
                g = Graph.from_edge_array(n, edges)
                comps = len(connected_components(g))
                labels = connected_components_labels(n, edges)
                assert np.unique(labels).size == comps
                keys = (
                    edges[:, 0] * n + edges[:, 1]
                    if edges.size
                    else np.empty(0, dtype=np.int64)
                )
                assert count_components_pair_keys(n, keys) == comps
                assert is_connected_pair_keys(n, keys) == (comps == 1)

    def test_label_is_component_minimum(self):
        # Two components {0,1,2} and {3,4}: labels collapse to minima.
        edges = np.array([[1, 2], [0, 2], [3, 4]])
        labels = connected_components_labels(5, edges)
        assert labels.tolist() == [0, 0, 0, 3, 3]

    def test_pair_keys_edge_cases(self):
        assert is_connected_pair_keys(1, np.empty(0, dtype=np.int64))
        assert not is_connected_pair_keys(2, np.empty(0, dtype=np.int64))
        assert is_connected_pair_keys(2, np.array([1]))  # key 0*2+1
        assert count_components_pair_keys(4, np.empty(0, dtype=np.int64)) == 4


def _curve_masks(num_nodes, pool_size, ring, curves, rng):
    """One shared deployment's candidate keys and per-curve on/off masks."""
    dep = sample_deployment(num_nodes, pool_size, ring, min(q for q, _ in curves), rng)
    evaluator = DeploymentEvaluator(dep)
    return dep.candidates, [evaluator.curve_mask("onoff", q, p) for q, p in curves]


def _scenario(**fields) -> Scenario:
    return Scenario(name="sweep", metrics=(MetricSpec("connectivity"),), **fields)


class TestCouplingInvariant:
    def test_masks_nested_in_p_and_q(self):
        rng = np.random.default_rng(2017)
        for _ in range(5):
            cand, masks = _curve_masks(200, 2000, 40, SIX_CURVES, rng)
            by_curve = dict(zip(SIX_CURVES, masks))
            # p-nesting at fixed q (nested thinning of one uniform draw).
            for q in (2, 3):
                assert _subset(by_curve[(q, 0.2)], by_curve[(q, 0.5)])
                assert _subset(by_curve[(q, 0.5)], by_curve[(q, 1.0)])
            # q-nesting at fixed p (counts >= 3 implies counts >= 2).
            for p in (1.0, 0.5, 0.2):
                assert _subset(by_curve[(3, p)], by_curve[(2, p)])
            # p = 1 keeps every candidate with enough overlap.
            assert by_curve[(2, 1.0)].all()

    def test_channel_marginal_rate(self):
        # Thinning at p keeps ~p of the q-filtered candidates.
        rng = np.random.default_rng(5)
        cand, masks = _curve_masks(300, 1000, 30, [(2, 1.0), (2, 0.5)], rng)
        full = int(masks[0].sum())
        kept = int(masks[1].sum())
        assert full > 500  # sanity: the point is non-degenerate
        assert abs(kept / full - 0.5) < 0.05

    def test_outcomes_monotone_across_curves(self):
        # Connectivity is monotone in the edge set, so within one
        # deployment outcome(p small) implies outcome(p large).
        rng = np.random.default_rng(11)
        curves = [(2, 1.0), (2, 0.5), (2, 0.2)]
        for _ in range(10):
            cand, masks = _curve_masks(120, 2000, 30, curves, rng)
            out = [is_connected_pair_keys(120, cand[mask]) for mask in masks]
            assert (not out[1]) or out[0]
            assert (not out[2]) or out[1]


class TestDiskMarginal:
    @pytest.mark.parametrize("p", [0.05, 0.3, 0.7])
    def test_disk_mask_keeps_share_p(self, p):
        # On the unit torus a pair lies within r = sqrt(p / pi) with
        # probability exactly p, independently across pairs, so the
        # share of kept candidates is binomial around p.  A radius off
        # by 10% moves the share by > 20 standard errors.
        rng = np.random.default_rng(1206)
        kept = total = 0
        for _ in range(5):
            dep = sample_deployment(
                300, 1000, 40, 1, rng, needs_onoff=False, needs_disk=True
            )
            mask = DeploymentEvaluator(dep).curve_mask("disk", 1, p)
            kept += int(mask.sum())
            total += mask.size
        assert total > 150_000
        z = (kept / total - p) / np.sqrt(p * (1.0 - p) / total)
        assert abs(z) < 4.0


class TestSweepDeterminism:
    def test_bit_exact_repeat_and_worker_invariance(self):
        scenario = _scenario(
            num_nodes=100,
            pool_size=1500,
            ring_sizes=(25, 35),
            curves=((2, 1.0), (2, 0.5)),
            trials=8,
            seed=99,
        )
        a = run_scenario(scenario, workers=1).values
        b = run_scenario(scenario, workers=1).values
        c = run_scenario(scenario, workers=2).values
        assert np.array_equal(a, b)
        assert np.array_equal(a, c)
        assert a.shape == (2, 8, 2, 1)

    def test_estimates_shape_and_counts(self):
        result = run_scenario(
            _scenario(
                num_nodes=80,
                pool_size=1000,
                ring_sizes=(20,),
                curves=((2, 1.0), (3, 1.0)),
                trials=5,
                seed=7,
            ),
            workers=1,
        )
        for curve in ((2, 1.0), (3, 1.0)):
            assert result.bernoulli("connectivity", curve, 20).trials == 5

    def test_invalid_specs_rejected(self):
        with pytest.raises(ParameterError):
            _scenario(
                num_nodes=10, pool_size=100, ring_sizes=(), curves=((2, 1.0),),
                trials=3,
            )
        with pytest.raises(ParameterError):
            _scenario(
                num_nodes=10, pool_size=100, ring_sizes=(5,), curves=(),
                trials=3,
            )
        with pytest.raises(ParameterError):
            # q exceeds the ring size.
            _scenario(
                num_nodes=10, pool_size=100, ring_sizes=(2,),
                curves=((3, 1.0),), trials=3,
            )


class TestBackendConsistency:
    def test_legacy_backend_bit_exact(self):
        (scenario,) = build_figure1_study(
            trials=6, ring_sizes=[28, 34], curves=[(2, 0.5)],
            num_nodes=120, pool_size=2000,
        ).scenarios
        assert np.array_equal(run_oracle(scenario).values, run_oracle(scenario).values)

    def test_sweep_backend_bit_exact(self):
        kwargs = dict(
            trials=6, ring_sizes=[28, 34], curves=[(2, 0.5), (2, 1.0)],
            num_nodes=120, pool_size=2000, workers=1,
        )
        a = run_figure1(**kwargs)
        b = run_figure1(**kwargs)
        assert [p.estimate.successes for p in a.points] == [
            p.estimate.successes for p in b.points
        ]

    def test_point_layout_matches_legacy(self):
        common = dict(
            trials=4, ring_sizes=[26, 32], curves=[(2, 1.0), (2, 0.5)],
            num_nodes=100, pool_size=1500,
        )
        (scenario,) = build_figure1_study(**common).scenarios
        result = run_figure1(workers=1, **common)
        assert [p.point for p in result.points] == [
            {"q": q, "p": p, "K": ring}
            for q, p in scenario.curves
            for ring in scenario.ring_sizes
        ]

    def test_sweep_statistically_consistent_with_legacy(self):
        # Same model, matched trial counts: every study CI must overlap
        # the oracle CI at the same point (deterministic under the fixed
        # seeds; trial counts keep the CIs wide enough that a correct
        # implementation passes with large margin).
        common = dict(
            trials=120, ring_sizes=[26, 30], curves=[(2, 1.0), (2, 0.5)],
            num_nodes=150, pool_size=2000,
        )
        (scenario,) = build_figure1_study(**common).scenarios
        reference = run_oracle(scenario)
        for pt in run_figure1(workers=1, **common).points:
            curve = (pt.point["q"], pt.point["p"])
            assert ci_overlap(pt.estimate, reference.bernoulli(None, curve, pt.point["K"]))

    def test_zero_one_runs_on_sweep_engine(self):
        result = run_zero_one(
            trials=3, num_nodes_grid=(100,), alpha_offsets=(-2.0, 2.0),
            pool_size=2000, workers=1,
        )
        assert len(result.points) == 2
        # Shared deployments + monotone thinning: the higher-alpha
        # (higher-p) point can never estimate below the lower one.
        low, high = result.points
        assert low.point["alpha"] < high.point["alpha"]
        assert low.estimate.successes <= high.estimate.successes
