"""Tests for the disk (random geometric) channel on the deployment path.

Sensors sit uniformly on the unit torus; a candidate pair's channel is
on when the pair lies within ``r = disk_radius(p)``, whose marginal
``pi * r**2`` is exactly ``p`` while ``r <= 1/2``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.study import MetricSpec, Scenario
from repro.study.metrics import DeploymentEvaluator, disk_radius, sample_deployment
from tests.conftest import replay_deployment_stream, torus_distance


def _replayed(num_nodes, pool_size, ring_size, seed):
    """A disk deployment plus the node positions its stream consumed."""
    dep = sample_deployment(
        num_nodes,
        pool_size,
        ring_size,
        1,
        np.random.default_rng(seed),
        needs_onoff=False,
        needs_disk=True,
    )
    rings, _, positions = replay_deployment_stream(
        dep, pool_size, ring_size, seed, needs_onoff=False, needs_disk=True
    )
    assert np.array_equal(rings, dep.rings)
    return dep, positions


def _disk_scenario(p: float) -> Scenario:
    return Scenario(
        name="disk",
        num_nodes=20,
        pool_size=100,
        ring_sizes=(10,),
        curves=((1, p),),
        metrics=(MetricSpec("connectivity"),),
        channel="disk",
        trials=1,
    )


class TestDiskRealization:
    def test_edge_mask_matches_distances(self):
        p = 0.3
        dep, positions = _replayed(30, 40, 20, seed=2)
        mask = DeploymentEvaluator(dep).curve_mask("disk", 1, p)
        for key, on in zip(dep.candidates, mask):
            u, v = divmod(int(key), dep.num_nodes)
            dist = torus_distance(positions[u], positions[v])
            assert bool(on) == (dist <= disk_radius(p))

    def test_torus_wraps(self):
        # Pairs close only across the boundary of the unit square are
        # linked: the distance is measured on the torus.
        p = 0.3
        r = disk_radius(p)
        dep, positions = _replayed(60, 40, 20, seed=3)
        mask = DeploymentEvaluator(dep).curve_mask("disk", 1, p)
        wrapped = 0
        for key, on in zip(dep.candidates, mask):
            u, v = divmod(int(key), dep.num_nodes)
            planar = float(np.linalg.norm(positions[u] - positions[v]))
            if planar > r and torus_distance(positions[u], positions[v]) <= r:
                assert on
                wrapped += 1
        assert wrapped > 0

    def test_bad_radius(self):
        # r <= 1/2 is the exact-marginal regime: p = pi/4 is the edge.
        _disk_scenario(math.pi / 4.0)
        with pytest.raises(ParameterError, match="pi/4"):
            _disk_scenario(math.pi / 4.0 + 1e-9)


class TestEdgeProbability:
    def test_torus_closed_form(self):
        assert disk_radius(math.pi * 0.04) == pytest.approx(0.2)

    def test_torus_monte_carlo(self):
        p = math.pi * 0.15**2
        rng = np.random.default_rng(4)
        reps = 40000
        a = rng.random((reps, 2))
        b = rng.random((reps, 2))
        d = np.abs(a - b)
        d = np.minimum(d, 1 - d)
        hits = (np.sqrt((d * d).sum(axis=1)) <= disk_radius(p)).sum()
        assert hits / reps == pytest.approx(p, rel=0.05)

    def test_for_edge_probability_roundtrip_torus(self):
        r = disk_radius(0.25)
        assert math.pi * r * r == pytest.approx(0.25, rel=1e-9)

    def test_for_edge_probability_rejects_extremes(self):
        with pytest.raises(ParameterError):
            _disk_scenario(0.0)
        with pytest.raises(ParameterError):
            _disk_scenario(1.0)
