"""The disk channel on the deployment path, and the CLI `all` path."""

from __future__ import annotations

import math

import numpy as np

from repro.keygraphs.uniform_graph import edges_from_rings
from repro.study.metrics import DeploymentEvaluator, disk_radius, sample_deployment
from tests.conftest import replay_deployment_stream, torus_distance


def _disk_deployment(num_nodes, pool_size, ring_size, q, seed):
    return sample_deployment(
        num_nodes,
        pool_size,
        ring_size,
        q,
        np.random.default_rng(seed),
        needs_onoff=False,
        needs_disk=True,
    )


class TestDiskChannelWsn:
    def test_sensor_positions_populated(self):
        dep = _disk_deployment(20, 100, 8, 1, seed=1)
        # One torus distance per candidate pair, bounded by the torus
        # diameter sqrt(2)/2.
        assert dep.pair_dists.shape == dep.candidates.shape
        assert dep.candidates.size > 0
        assert dep.pair_dists.min() >= 0.0
        assert dep.pair_dists.max() <= math.sqrt(2.0) / 2.0 + 1e-12

    def test_onoff_wsn_has_no_positions(self):
        dep = sample_deployment(10, 50, 5, 1, np.random.default_rng(2))
        assert dep.pair_dists is None
        assert dep.uniforms is not None

    def test_links_respect_radius(self):
        dep = _disk_deployment(30, 40, 20, 1, seed=3)
        rings, _, positions = replay_deployment_stream(
            dep, 40, 20, 3, needs_onoff=False, needs_disk=True
        )
        assert np.array_equal(rings, dep.rings)
        p = 0.28
        links = DeploymentEvaluator(dep).selected_keys("disk", 1, p)
        assert links.size > 0
        for key in links:
            u, v = divmod(int(key), dep.num_nodes)
            dist = torus_distance(positions[u], positions[v])
            assert dist <= disk_radius(p) + 1e-12

    def test_geometry_only_thins_key_graph(self):
        dep = _disk_deployment(30, 100, 10, 2, seed=4)
        n = dep.num_nodes
        key = {tuple(map(int, e)) for e in edges_from_rings(dep.rings, 2)}
        secure = {
            divmod(int(k), n)
            for k in DeploymentEvaluator(dep).selected_keys("disk", 2, 0.2)
        }
        assert secure <= key
        assert len(secure) < len(key)


class TestCliAll:
    def test_all_runs_every_registered_experiment(self, capsys, monkeypatch):
        # Substitute a micro registry so `all` completes in milliseconds
        # while still exercising the real dispatch loop.
        from repro import cli
        from repro.experiments import registry as reg
        from repro.experiments.kstar import render_kstar, run_kstar

        micro = {
            "kstar": reg.ExperimentSpec(
                name="kstar",
                paper_anchor="Eq. (9)",
                description="thresholds",
                run=run_kstar,
                render=render_kstar,
            )
        }
        monkeypatch.setattr(reg, "REGISTRY", micro)
        assert cli.main(["all"]) == 0
        out = capsys.readouterr().out
        assert "=== kstar" in out
        assert "paper K*" in out

    def test_all_forwards_workers_flag(self, capsys, monkeypatch):
        from repro import cli
        from repro.experiments import registry as reg

        seen = {}

        def fake_run(**kwargs):
            seen.update(kwargs)
            from repro.experiments.kstar import run_kstar

            return run_kstar()

        micro = {
            "demo": reg.ExperimentSpec(
                name="demo",
                paper_anchor="-",
                description="-",
                run=fake_run,
                render=lambda result: "ok",
            )
        }
        monkeypatch.setattr(reg, "REGISTRY", micro)
        assert cli.main(["all", "--trials", "7", "--workers", "2"]) == 0
        assert seen == {"trials": 7, "workers": 2}
