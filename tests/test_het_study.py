"""Heterogeneous (class-mix) scenarios: the Eletreby–Yağan axis.

The load-bearing contracts: a :class:`ClassMix` scenario round-trips
through JSON and hashes stably; homogeneous scenarios keep their
historical deployment keys byte-identical; class-mix sweeps stay
deterministic and bit-identical across every execution substrate
(one-shot, adaptive extension, trial/size sharding, content-addressed
cache); and the two registry experiments reproduce the heterogeneous
zero-one / min-degree laws with the brute-force oracle
(``tests/oracle.py``) agreeing within confidence intervals.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from oracle import ci_overlap, run_oracle
from repro.exceptions import ParameterError
from repro.experiments.het_mindegree import build_het_mindegree_study, run_het_mindegree
from repro.experiments.het_zero_one import (
    build_het_zero_one_study,
    render_het_zero_one,
    run_het_zero_one,
)
from repro.experiments.registry import get_experiment
from repro.service.cache import ResultCache, run_cached
from repro.service.shards import run_sharded
from repro.study import (
    AdaptivePolicy,
    ClassMix,
    MetricSpec,
    Scenario,
    Study,
    run_adaptive_study,
)
from repro.study.metrics import DeploymentEvaluator, sample_deployment

WORKERS = 2

MIX = ClassMix(mu=(0.5, 0.5), channel_probs=((0.9, 0.6), (0.6, 0.4)))


def het_scenario(trials=6, name="het", **overrides):
    kwargs = dict(
        name=name,
        num_nodes_grid=(30, 40),
        pool_size=300,
        ring_sizes=((10, 16),),
        curves=((1, 0.5), (1, 1.0)),
        metrics=(MetricSpec("connectivity"),),
        trials=trials,
        seed=11,
        classes=MIX,
    )
    kwargs.update(overrides)
    return Scenario(**kwargs)


def hom_scenario(trials=6, name="hom", **overrides):
    kwargs = dict(
        name=name,
        num_nodes_grid=(30, 40),
        pool_size=300,
        ring_sizes=(12, 15),
        curves=((2, 0.6), (2, 1.0)),
        metrics=(MetricSpec("connectivity"),),
        trials=trials,
        seed=11,
    )
    kwargs.update(overrides)
    return Scenario(**kwargs)


class TestClassMix:
    def test_mu_must_sum_to_one(self):
        with pytest.raises(ParameterError):
            ClassMix(mu=(0.5, 0.4), channel_probs=((0.5, 0.5), (0.5, 0.5)))

    def test_mu_entries_positive(self):
        with pytest.raises(ParameterError):
            ClassMix(mu=(1.0, 0.0), channel_probs=((0.5, 0.5), (0.5, 0.5)))

    def test_matrix_must_be_square(self):
        with pytest.raises(ParameterError):
            ClassMix(mu=(0.5, 0.5), channel_probs=((0.5, 0.5),))

    def test_matrix_must_be_symmetric(self):
        with pytest.raises(ParameterError):
            ClassMix(mu=(0.5, 0.5), channel_probs=((0.9, 0.3), (0.6, 0.4)))

    def test_round_trip(self):
        assert ClassMix.from_dict(MIX.to_dict()) == MIX

    def test_from_dict_rejects_junk(self):
        with pytest.raises(ParameterError):
            ClassMix.from_dict({"mu": [0.5, 0.5]})  # no matrix


class TestScenarioClasses:
    def test_json_round_trip_and_hash(self):
        scenario = het_scenario()
        payload = json.loads(json.dumps(scenario.to_dict()))
        rebuilt = Scenario.from_dict(payload)
        assert rebuilt == scenario
        assert rebuilt.content_hash() == scenario.content_hash()

    def test_hash_covers_the_mix(self):
        base = het_scenario()
        other_mu = het_scenario(
            classes=ClassMix(mu=(0.25, 0.75), channel_probs=MIX.channel_probs)
        )
        other_matrix = het_scenario(
            classes=ClassMix(mu=MIX.mu, channel_probs=((0.8, 0.6), (0.6, 0.4)))
        )
        hashes = {s.content_hash() for s in (base, other_mu, other_matrix)}
        assert len(hashes) == 3

    def test_homogeneous_deployment_key_has_no_classes_entry(self):
        # The historical grouping key must stay byte-identical so
        # pre-existing caches and shared-deployment groups survive.
        key = hom_scenario().deployment_key()
        assert "classes" not in str(key)

    def test_class_scenarios_never_share_with_homogeneous(self):
        het = het_scenario().deployment_key()
        hom = hom_scenario().deployment_key()
        assert het != hom
        assert het[-1][0] == "classes"

    def test_ring_entry_must_match_class_count(self):
        with pytest.raises(ParameterError):
            het_scenario(ring_sizes=((10, 16, 20),))

    def test_scalar_rings_rejected_with_classes(self):
        with pytest.raises(ParameterError):
            het_scenario(ring_sizes=(12, 15))

    def test_channel_scale_above_one_allowed_under_matrix_peak(self):
        # With classes, a curve's p multiplies the channel matrix; it
        # may exceed 1 as long as every p * alpha_ij stays a probability
        # (peak here is 0.9, so 1.1 * 0.9 = 0.99 is fine).
        scenario = het_scenario(curves=((1, 0.5), (1, 1.1)))
        assert scenario.curves_at(0)[-1] == (1, 1.1)

    def test_channel_scale_past_matrix_peak_rejected(self):
        with pytest.raises(ParameterError):
            het_scenario(curves=((1, 1.2),))  # 1.2 * 0.9 > 1

    def test_homogeneous_p_above_one_still_rejected(self):
        with pytest.raises(ParameterError):
            hom_scenario(curves=((2, 1.1),))

    def test_disk_channel_rejected(self):
        with pytest.raises(ParameterError):
            het_scenario(channel="disk")

    def test_capture_metric_rejected(self):
        with pytest.raises(ParameterError):
            het_scenario(
                metrics=(MetricSpec("attack_compromised", captured=5),)
            )


class TestHetDeploymentCoupling:
    """Class-mix worlds: per-pair channels and nested thinning."""

    def _deployment(self):
        rng = np.random.default_rng(3)
        return sample_deployment(50, 200, (8, 14), 1, rng, class_mix=MIX)

    def test_pair_alpha_reads_the_matrix_at_labels(self):
        dep = self._deployment()
        u = dep.candidates // dep.num_nodes
        v = dep.candidates % dep.num_nodes
        matrix = np.asarray(MIX.channel_probs)
        assert np.array_equal(dep.pair_alpha, matrix[dep.labels[u], dep.labels[v]])

    def test_ring_sizes_follow_labels(self):
        dep = self._deployment()
        sizes = np.array([r.size for r in dep.rings])
        assert np.array_equal(sizes, np.where(dep.labels == 0, 8, 14))

    def test_curve_masks_are_nested_in_p(self):
        # Nested thinning: the p=0.5 edge set must be a subset of the
        # p=1.0 edge set on the same sampled world — the property that
        # lets one deployment serve the whole curve grid.
        ev = DeploymentEvaluator(self._deployment())
        half = ev.curve_mask("onoff", 1, 0.5)
        full = ev.curve_mask("onoff", 1, 1.0)
        assert not (half & ~full).any()
        assert half.sum() < full.sum()

    def test_full_scale_mask_is_uniform_under_alpha(self):
        dep = self._deployment()
        ev = DeploymentEvaluator(dep)
        overlap_ok = dep.counts >= 1
        expected = overlap_ok & (dep.uniforms < dep.pair_alpha)
        assert np.array_equal(ev.curve_mask("onoff", 1, 1.0), expected)


class TestHetDeterminism:
    def test_worker_invariance(self):
        study = Study((het_scenario(),))
        one = study.run(workers=1)["het"]
        two = study.run(workers=WORKERS)["het"]
        assert np.array_equal(one.values, two.values)

    def test_repeat_runs_identical(self):
        study = Study((het_scenario(),))
        a = study.run(workers=WORKERS)["het"]
        b = study.run(workers=WORKERS)["het"]
        assert np.array_equal(a.values, b.values)


class TestHetBitIdentityAcrossInfra:
    """One class-mix scenario, four substrates, one value tensor."""

    def test_adaptive_equals_one_shot(self):
        # An unreachable CI target forces every cell to max_trials, so
        # the adaptive tensor must equal a one-shot run at that count.
        scenario = het_scenario(trials=5)
        policy = AdaptivePolicy(ci_target=1e-6, max_trials=15, block_trials=5)
        adaptive = run_adaptive_study(
            Study((scenario,)), policy, workers=WORKERS
        )["het"]
        one_shot = Study(
            (dataclasses.replace(scenario, trials=15),)
        ).run(workers=WORKERS)["het"]
        assert adaptive.values.shape == one_shot.values.shape
        assert np.array_equal(adaptive.values, one_shot.values)

    @pytest.mark.parametrize("axis", ["trial", "size"])
    def test_sharded_equals_one_shot(self, axis):
        study = Study((het_scenario(),))
        baseline = study.run(workers=WORKERS)["het"]
        sharded = run_sharded(study, axis=axis, shards=2, workers=WORKERS)["het"]
        assert np.array_equal(baseline.values, sharded.values)

    def test_cache_dispositions_bit_identical(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        study = Study((het_scenario(trials=6),))
        baseline = study.run(workers=WORKERS)["het"]

        cold = run_cached(study, cache, workers=WORKERS)
        assert cold.provenance["cache"]["disposition"] == "miss"
        assert np.array_equal(cold["het"].values, baseline.values)

        warm = run_cached(study, cache, workers=WORKERS)
        assert warm.provenance["cache"]["disposition"] == "hit"
        assert np.array_equal(warm["het"].values, baseline.values)

        grown = Study((het_scenario(trials=9),))
        grown_baseline = grown.run(workers=WORKERS)["het"]
        extended = run_cached(grown, cache, workers=WORKERS)
        assert extended.provenance["cache"]["disposition"] == "extension"
        assert np.array_equal(extended["het"].values, grown_baseline.values)


class TestHetExperiments:
    def test_registered(self):
        for name in ("het_zero_one", "het_mindegree"):
            spec = get_experiment(name)
            assert spec.build_study is not None
            assert "Eletreby" in spec.paper_anchor

    def test_zero_one_monotone_under_common_random_numbers(self):
        # Both offsets ride the same sampled worlds via nested
        # thinning, so the empirical curve is monotone in α by
        # construction, not just in expectation.
        result = run_het_zero_one(
            trials=30,
            num_nodes_grid=(120,),
            alpha_offsets=(-3.0, 3.0),
            workers=WORKERS,
        )
        low, high = result.points
        assert low.point["scale"] < high.point["scale"]
        assert low.estimate.estimate <= high.estimate.estimate
        assert low.prediction < high.prediction
        assert "het limit" in render_het_zero_one(result)

    @pytest.mark.slow
    def test_zero_one_legacy_backend_agrees(self):
        kwargs = dict(trials=150, num_nodes_grid=(120,), alpha_offsets=(-3.0, 3.0))
        study = run_het_zero_one(workers=WORKERS, **kwargs)
        (scenario,) = build_het_zero_one_study(**kwargs).scenarios
        reference = run_oracle(scenario)
        q = scenario.curves_at(0)[0][0]
        for pt in study.points:
            oracle_est = reference.bernoulli(None, (q, pt.point["scale"]), size=pt.point["n"])
            assert ci_overlap(pt.estimate, oracle_est), pt.point

    @pytest.mark.slow
    def test_mindegree_legacy_backend_agrees(self):
        kwargs = dict(trials=150, ks=(2,), alphas=(0.5,), num_nodes=120)
        study = run_het_mindegree(workers=WORKERS, **kwargs)
        (scenario,) = build_het_mindegree_study(**kwargs).scenarios
        (s_pt,) = study.points
        s = s_pt.estimate
        curve = (scenario.curves[0][0], s_pt.point["scale"])
        assert ci_overlap(s, run_oracle(scenario).bernoulli("min_degree[k=2]", curve))
        # Min-degree dominates k-connectivity pointwise under CRN.
        assert s_pt.point["kconn_estimate"] <= s.estimate
        assert 0.0 <= s_pt.point["agreement"] <= 1.0
