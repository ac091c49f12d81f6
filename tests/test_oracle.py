"""The brute-force oracle (``tests/oracle.py``): independence and power.

Every study-vs-reference agreement test in the suite compares the study
engine against this oracle, so two properties carry all of them: the
oracle shares no sampling or decision code with the engine, and it can
tell a wrong model from the right one at the trial counts those tests
use.
"""

from __future__ import annotations

import ast
import dataclasses
import pathlib

import numpy as np
import pytest

import oracle
from oracle import OracleUnsupported, ci_overlap, run_oracle
from repro.study import ClassMix, MetricSpec, Scenario, run_scenario

FORBIDDEN_MODULES = (
    "repro.study",
    "repro.kernels",
    "repro.keygraphs.rings",
    "repro.keygraphs.uniform_graph",
    "repro.graphs.unionfind",
)
FORBIDDEN_NAMES = ("grid_seed_sequence", "overlap_counts", "overlap_counts_from_rings")

#: A Figure-1 slice whose connectivity sits mid-transition.
BAND = Scenario(
    name="band",
    num_nodes=150,
    pool_size=2000,
    ring_sizes=(30,),
    curves=((2, 0.5),),
    metrics=(MetricSpec("connectivity"),),
    trials=80,
    seed=20170605,
)


def _imports(path: pathlib.Path):
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, alias.name
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield node.module or "", alias.name


class TestIndependence:
    def test_imports_avoid_engine_code(self):
        for module, name in _imports(pathlib.Path(oracle.__file__)):
            assert not module.startswith(FORBIDDEN_MODULES), module
            assert name not in FORBIDDEN_NAMES, name

    def test_runs_without_kernel_backend(self, monkeypatch):
        import repro.kernels

        def _refuse(*args, **kwargs):
            raise AssertionError("oracle reached the kernel backend")

        monkeypatch.setattr(repro.kernels, "get_backend", _refuse)
        scenario = dataclasses.replace(
            BAND,
            ring_sizes=(40,),
            curves=((2, 1.0),),
            metrics=(
                MetricSpec("connectivity"),
                MetricSpec("k_connectivity", k=2),
                MetricSpec("k_connectivity", k=3),
                MetricSpec("min_degree", k=3),
                MetricSpec("degree_count", h=0),
            ),
            num_nodes=40,
            trials=3,
        )
        values = run_oracle(scenario).values
        assert values.shape == (1, 1, 3, 1, 5)

    @pytest.mark.parametrize(
        "change",
        [
            dict(channel="disk", curves=((2, 0.5),)),
            dict(metrics=(MetricSpec("giant_fraction"),)),
            dict(metrics=(MetricSpec("attack_compromised", captured=5),)),
            dict(metrics=(MetricSpec("resilient_connectivity", captured=5),)),
        ],
        ids=["disk", "giant", "attack", "resilience"],
    )
    def test_rejects_what_it_does_not_model(self, change):
        with pytest.raises(OracleUnsupported):
            run_oracle(dataclasses.replace(BAND, **change))

    def test_rejects_protocol_scenarios(self):
        coupling = Scenario(
            name="coupling",
            kind="protocol",
            protocol="coupling",
            protocol_params={"key_ring_size": 30, "q": 2},
            num_nodes=50,
            pool_size=2000,
            trials=2,
        )
        with pytest.raises(OracleUnsupported):
            run_oracle(coupling)


class TestSampler:
    def test_class_mix_labels_follow_mu(self):
        mix = ClassMix(mu=(0.25, 0.75), channel_probs=((1.0, 0.5), (0.5, 0.2)))
        labels, rings = oracle.sample_rings(4000, 500, (10, 20), mix, np.random.default_rng(0))
        assert abs(labels.mean() - 0.75) < 0.03
        assert [r.size for r in rings[:50]] == [(10, 20)[c] for c in labels[:50]]
        assert all(np.unique(r).size == r.size for r in rings)

    def test_channel_keeps_pairs_at_p_times_alpha(self):
        mix = ClassMix(mu=(0.5, 0.5), channel_probs=((1.0, 0.5), (0.5, 0.25)))
        args = (300, 400, (20, 20), mix)
        labels, rings = oracle.sample_rings(*args, np.random.default_rng(1))
        full, half = oracle.sample_graphs(*args, ((1, 1.0), (1, 0.5)), np.random.default_rng(1))
        keys = [set(r.tolist()) for r in rings]
        candidates = {(0, 0): 0, (0, 1): 0, (1, 1): 0}
        kept = dict.fromkeys(candidates, 0)
        for u in range(300):
            for v in range(u + 1, 300):
                if keys[u] & keys[v]:
                    pair = (min(labels[u], labels[v]), max(labels[u], labels[v]))
                    candidates[pair] += 1
                    kept[pair] += full.has_edge(u, v)
        assert kept[(0, 0)] == candidates[(0, 0)]  # alpha = 1 keeps every candidate
        assert sum(kept.values()) == full.num_edges
        assert abs(kept[(1, 1)] / candidates[(1, 1)] - 0.25) < 0.05
        assert abs(half.num_edges / full.num_edges - 0.5) < 0.05


class TestPower:
    @pytest.fixture(scope="class")
    def study_ci(self):
        est = run_scenario(BAND, workers=1).bernoulli()
        assert 0.1 < est.estimate < 0.9, "fixture must sit in the transition band"
        return est

    def test_right_model_overlaps(self, study_ci):
        assert ci_overlap(run_oracle(BAND).bernoulli(), study_ci)

    @pytest.mark.parametrize("curve", [(3, 0.5), (2, 0.25)], ids=["q+1", "p/2"])
    def test_wrong_model_does_not_overlap(self, study_ci, curve):
        wrong = dataclasses.replace(BAND, curves=(curve,))
        assert not ci_overlap(run_oracle(wrong).bernoulli(), study_ci)
