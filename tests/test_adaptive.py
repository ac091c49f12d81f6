"""Adaptive trial allocation: merge substrate, stopping rules, driver.

The load-bearing property is *determinism equivalence*: an adaptive
run that converges after k extension rounds must produce, cell by
cell, exactly the values a one-shot run at the same total trial count
produces — merging trial windows is bookkeeping, never resampling.
Everything else (merge validation, Wilson/standard-error stopping
rules, per-cell raggedness) supports that contract.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

from repro.exceptions import ExperimentError, ParameterError
from repro.simulation.estimators import wilson_half_width, wilson_interval
from repro.study import (
    AdaptivePolicy,
    MetricSpec,
    Scenario,
    Study,
    StudyResult,
    run_adaptive_study,
    trial_allocation,
)
from repro.study.adaptive import mean_standard_error, stopping_half_width
from repro.study.result import ScenarioResult


def plain_scenario(name="plain", trials=6, seed=11, **overrides):
    kwargs = dict(
        name=name,
        num_nodes=40,
        pool_size=300,
        ring_sizes=(12, 15),
        curves=((2, 0.6), (2, 1.0)),
        metrics=(MetricSpec("connectivity"),),
        trials=trials,
        seed=seed,
    )
    kwargs.update(overrides)
    return Scenario(**kwargs)


def sized_scenario(name="sized", trials=6, seed=11, **overrides):
    kwargs = dict(
        name=name,
        num_nodes_grid=(40, 60),
        pool_size=300,
        ring_sizes=((12, 15), (10, 13)),
        curves=((2, 0.6), (2, 1.0)),
        metrics=(MetricSpec("connectivity"), MetricSpec("giant_fraction")),
        trials=trials,
        seed=seed,
    )
    kwargs.update(overrides)
    return Scenario(**kwargs)


# -- determinism equivalence ------------------------------------------


class TestDeterminismEquivalence:
    """Adaptive == one-shot, bit for bit, at equal total trials."""

    def _assert_equivalent(self, scenario, policy, workers):
        adaptive = run_adaptive_study(
            Study((scenario,)), policy, workers=workers
        )[scenario.name]
        # Cells converge at different trial counts; each must equal the
        # prefix of a one-shot run at the overall maximum.
        alloc = trial_allocation(
            StudyResult(results=(adaptive,), provenance={})
        )
        total = alloc["max_cell_trials"]
        assert total > scenario.trials  # the run actually extended
        one_shot = Study(
            (dataclasses.replace(scenario, trials=total),)
        ).run(workers=workers)[scenario.name]
        for si in range(scenario.num_sizes):
            for ri in range(len(scenario.ring_sizes_at(si))):
                for ci in range(len(scenario.curves_at(si))):
                    for mi in range(len(scenario.metrics)):
                        got = adaptive.series_at(si, ri, ci, mi)
                        ref = one_shot.series_at(si, ri, ci, mi)[: got.size]
                        assert np.array_equal(got, ref), (si, ri, ci, mi)
        return adaptive, one_shot

    @pytest.mark.parametrize("workers", [1, 2])
    def test_fully_extended_tensors_bit_equal(self, workers):
        # An unreachable target forces every cell to max_trials, so the
        # whole tensor (all sizes, all K columns) must match exactly.
        scenario = sized_scenario(trials=5)
        policy = AdaptivePolicy(ci_target=1e-6, max_trials=17, block_trials=5)
        adaptive, one_shot = self._assert_equivalent(scenario, policy, workers)
        assert adaptive.values.shape == one_shot.values.shape
        assert np.array_equal(adaptive.values, one_shot.values)

    @pytest.mark.slow
    def test_partial_convergence_per_cell_prefixes(self):
        # A loose target lets some cells stop early: per-cell series
        # must be exact prefixes of the one-shot run's cells.
        scenario = sized_scenario(trials=8)
        policy = AdaptivePolicy(ci_target=0.12, max_trials=64, block_trials=8)
        adaptive, _ = self._assert_equivalent(scenario, policy, 1)
        counts = {
            adaptive.series_at(si, ri, ci, 0).size
            for si in range(2)
            for ri in range(2)
            for ci in range(2)
        }
        assert len(counts) > 1  # allocation is genuinely ragged

    @pytest.mark.slow
    def test_warm_pool_matches_one_shot(self):
        scenario = plain_scenario(trials=5)
        policy = AdaptivePolicy(ci_target=1e-6, max_trials=15, block_trials=5)
        adaptive = run_adaptive_study(
            Study((scenario,)), policy, workers=2
        )[scenario.name]
        one_shot = Study(
            (dataclasses.replace(scenario, trials=15),)
        ).run(workers=2)[scenario.name]
        assert np.array_equal(adaptive.values, one_shot.values)

    def test_extension_rounds_match_one_shot_windows(self):
        # The raw extension primitive: [0, 4) + [4, 7) + [7, 12) == [0, 12).
        scenario = plain_scenario(trials=4)
        study = Study((scenario,))
        acc = study.run(workers=1)[scenario.name]
        for start, stop in ((4, 7), (7, 12)):
            acc = acc.merge(study.run_extension(start, stop, workers=1)[scenario.name])
        one_shot = Study(
            (dataclasses.replace(scenario, trials=12),)
        ).run(workers=1)[scenario.name]
        assert np.array_equal(acc.values, one_shot.values)
        assert acc.scenario.trials == 12
        assert acc.trial_range == (0, 12)

    def test_masked_curves_do_not_change_evaluated_values(self):
        # Evaluating a subset of curves must not perturb the values of
        # the curves that are evaluated (exact lattice deduction).
        scenario = plain_scenario(trials=4)
        study = Study((scenario,))
        full = study.run_extension(4, 8, workers=1)[scenario.name]
        masked = study.run_extension(
            4, 8, active={(0, 0, 0): ((0,),), (0, 0, 1): ((0, 1),)}, workers=1
        )[scenario.name]
        assert np.array_equal(masked.values[0, :, 0, :], full.values[0, :, 0, :])
        assert np.isnan(masked.values[0, :, 1, :]).all()
        assert np.array_equal(masked.values[1], full.values[1])


# -- run_extension validation -----------------------------------------


class TestRunExtension:
    def test_rejects_empty_window(self):
        study = Study((plain_scenario(),))
        with pytest.raises(ParameterError, match="empty extension window"):
            study.run_extension(6, 6, workers=1)
        with pytest.raises(ParameterError, match="empty extension window"):
            study.run_extension(8, 6, workers=1)

    def test_rejects_negative_start(self):
        with pytest.raises(ParameterError, match="trial_start"):
            Study((plain_scenario(),)).run_extension(-1, 4, workers=1)

    def test_rejects_protocol_scenarios(self):
        protocol = Scenario(
            name="proto",
            kind="protocol",
            num_nodes=30,
            pool_size=200,
            trials=4,
            protocol="coupling",
            protocol_params={"key_ring_size": 12, "q": 1},
        )
        with pytest.raises(ParameterError, match="protocol"):
            Study((protocol,)).run_extension(4, 8, workers=1)

    def test_rejects_bad_active_maps(self):
        study = Study((plain_scenario(),))
        with pytest.raises(ParameterError, match="all 1 member scenarios"):
            study.run_extension(4, 8, active={(0, 0, 0): ((0,), (1,))}, workers=1)
        with pytest.raises(ParameterError, match="out of range"):
            study.run_extension(4, 8, active={(0, 0, 0): ((5,),)}, workers=1)
        # Keys past the group, size or ring axis name no column.
        for stray in ((3, 0, 0), (0, 1, 0), (0, 0, 2)):
            with pytest.raises(ParameterError, match="name no column"):
                study.run_extension(0, 2, active={stray: ((0,),)}, workers=1)
        empty = study.run_extension(0, 2, active={}, workers=1)
        assert empty.provenance["units"] == 0

    def test_unlisted_columns_are_skipped(self):
        study = Study((plain_scenario(),))
        shard = study.run_extension(4, 8, active={(0, 0, 1): ((0, 1),)}, workers=1)
        res = shard["plain"]
        assert np.isnan(res.values[0]).all()
        assert not np.isnan(res.values[1]).any()
        assert shard.provenance["deployments"] == 4  # only one column sampled


# -- merge validation --------------------------------------------------


def manual_result(scenario, values, offset=0):
    return ScenarioResult(
        scenario=scenario,
        values=np.asarray(values, dtype=np.float64),
        metric_labels=scenario.metric_labels(),
        trial_offset=offset,
    )


class TestMergeValidation:
    def _pair(self, trials_a=4, trials_b=3, offset_b=4, seed_b=11):
        a = plain_scenario(trials=trials_a)
        b = plain_scenario(trials=trials_b, seed=seed_b)
        va = np.zeros((2, trials_a, 2, 1))
        vb = np.ones((2, trials_b, 2, 1))
        return manual_result(a, va), manual_result(b, vb, offset=offset_b)

    def test_merges_adjacent_in_either_order(self):
        ra, rb = self._pair()
        merged = ra.merge(rb)
        flipped = rb.merge(ra)
        assert merged.scenario.trials == 7
        assert merged.trial_range == (0, 7)
        assert np.array_equal(merged.values, flipped.values)
        assert np.array_equal(merged.values[:, :4], ra.values)
        assert np.array_equal(merged.values[:, 4:], rb.values)

    def test_rejects_mismatched_scenarios(self):
        ra, _ = self._pair()
        other = manual_result(
            plain_scenario(trials=3, seed=99), np.ones((2, 3, 2, 1)), offset=4
        )
        with pytest.raises(ExperimentError, match=r"fields \['seed'\] differ"):
            ra.merge(other)

    def test_rejects_overlapping_trial_ranges(self):
        ra, rb = self._pair(offset_b=3)
        with pytest.raises(ExperimentError, match="overlapping trial ranges"):
            ra.merge(rb)
        # identical ranges are the extreme overlap
        with pytest.raises(ExperimentError, match="overlapping trial ranges"):
            ra.merge(ra)

    def test_rejects_gapped_trial_ranges(self):
        ra, rb = self._pair(offset_b=6)
        with pytest.raises(ExperimentError, match="gap of 2 trials"):
            ra.merge(rb)

    def test_rejects_axis_shape_mismatch(self):
        ra, _ = self._pair()
        bad = manual_result(
            plain_scenario(trials=3), np.ones((1, 3, 2, 1)), offset=4
        )
        with pytest.raises(ExperimentError, match="axis shapes differ"):
            ra.merge(bad)

    def test_rejects_non_result(self):
        ra, _ = self._pair()
        with pytest.raises(ExperimentError, match="can only merge"):
            ra.merge("not a result")

    def test_study_result_merge_requires_same_scenarios(self):
        ra, rb = self._pair()
        study_a = StudyResult(results=(ra,), provenance={"deployments": 8})
        study_b = StudyResult(results=(rb,), provenance={"deployments": 6})
        merged = study_a.merge(study_b)
        assert merged["plain"].scenario.trials == 7
        assert merged.provenance["deployments"] == 14
        other = StudyResult(
            results=(manual_result(
                plain_scenario(name="other", trials=3), np.ones((2, 3, 2, 1)), 4
            ),),
            provenance={},
        )
        with pytest.raises(ExperimentError, match="different scenario sets"):
            study_a.merge(other)

    def test_merged_result_roundtrips_through_json(self):
        ra, rb = self._pair()
        vb = rb.values.copy()
        vb[0, :, 0, 0] = np.nan  # ragged cell, as adaptive runs produce
        rb = manual_result(rb.scenario, vb, offset=4)
        merged = ra.merge(rb)
        # Shard JSONs are the multi-host interchange format: they must
        # be strict RFC 8259 (no bare NaN tokens), so non-Python
        # consumers can parse them.  Unevaluated slots become null.
        text = json.dumps(merged.to_dict(), allow_nan=False)
        restored = ScenarioResult.from_dict(json.loads(text))
        assert restored.scenario == merged.scenario
        assert restored.trial_offset == merged.trial_offset
        assert np.array_equal(restored.values, merged.values, equal_nan=True)
        # NaN-aware accessors agree after the round-trip
        assert restored.cell_trials(
            "connectivity", (2, 0.6), 12
        ) == merged.cell_trials("connectivity", (2, 0.6), 12) == 4

    def test_unevaluated_cells_raise_clear_errors(self):
        # A shard that skipped a curve: bernoulli()/mean()/agreement()
        # must say "no evaluated trials", not fail deep in estimators.
        scenario = sized_scenario(trials=3)
        shard = Study((scenario,)).run_extension(
            3, 6, active={(0, 0, 0): ((1,),)}, workers=1
        )["sized"]
        skipped = scenario.curves_at(0)[0]
        assert shard.cell_trials("connectivity", skipped, 12, size=40) == 0
        with pytest.raises(ExperimentError, match="no evaluated trials"):
            shard.bernoulli("connectivity", skipped, 12, size=40)
        with pytest.raises(ExperimentError, match="no evaluated trials"):
            shard.mean("giant_fraction", skipped, 12, size=40)
        with pytest.raises(ExperimentError, match="no trials evaluated both"):
            shard.agreement(
                "connectivity", "giant_fraction", skipped, 12, size=40
            )
        # the evaluated curve still estimates normally
        evaluated = scenario.curves_at(0)[1]
        assert shard.bernoulli("connectivity", evaluated, 12, size=40).trials == 3

    def test_shard_offset_survives_json(self):
        _, rb = self._pair()
        restored = ScenarioResult.from_dict(rb.to_dict())
        assert restored.trial_offset == 4
        assert restored.trial_range == (4, 7)


# -- stopping-rule estimators -----------------------------------------


class TestStoppingEstimators:
    def test_wilson_half_width_closed_form(self):
        # n=4, s=2, z=1: center (0.5 + 0.125) / 1.25, half-width
        # sqrt(0.25/4 + 1/64) / 1.25 — the textbook Wilson algebra.
        expected = math.sqrt(0.25 / 4 + 1 / 64) / 1.25
        assert wilson_half_width(2, 4, z=1.0) == pytest.approx(expected)
        low, high = wilson_interval(2, 4, z=1.0)
        assert wilson_half_width(2, 4, z=1.0) == pytest.approx((high - low) / 2)

    @pytest.mark.parametrize("n", [1, 5, 20, 100])
    def test_degenerate_all_zero_cells(self, n):
        # s=0: pinned interval [0, z^2/(n+z^2)], half-width half of that.
        z = 1.96
        expected = (z * z / (n + z * z)) / 2.0
        assert wilson_half_width(0, n, z=z) == pytest.approx(expected)

    @pytest.mark.parametrize("n", [1, 5, 20, 100])
    def test_degenerate_all_one_cells_mirror(self, n):
        assert wilson_half_width(n, n) == pytest.approx(wilson_half_width(0, n))
        series = np.ones(n)
        assert stopping_half_width(series, is_indicator=True) == pytest.approx(
            wilson_half_width(n, n)
        )

    def test_estimate_half_width_property_matches_stopping_statistic(self):
        # BernoulliEstimate.half_width and the driver's
        # wilson_half_width must be the same number — a drift between
        # them would make reported intervals disagree with the
        # stopping rule that produced them.
        from repro.simulation.estimators import BernoulliEstimate

        for successes, trials in ((0, 7), (3, 7), (7, 7), (50, 120)):
            est = BernoulliEstimate.from_counts(successes, trials)
            assert est.half_width == pytest.approx(
                wilson_half_width(successes, trials)
            )

    def test_half_width_shrinks_with_n(self):
        widths = [wilson_half_width(0, n) for n in (10, 50, 250, 1000)]
        assert widths == sorted(widths, reverse=True)
        # the degenerate tail converges to a 0.02 target around n ~ 90
        assert wilson_half_width(0, 89) > 0.02 >= wilson_half_width(0, 93)

    def test_mean_standard_error_closed_form(self):
        series = np.array([1.0, 2.0, 3.0, 4.0])
        expected = math.sqrt(5.0 / 3.0) / 2.0  # ddof=1 std over sqrt(4)
        assert mean_standard_error(series) == pytest.approx(expected)
        assert stopping_half_width(series, is_indicator=False) == pytest.approx(
            expected
        )

    def test_mean_standard_error_needs_two_samples(self):
        assert mean_standard_error(np.array([3.0])) == math.inf
        assert mean_standard_error(np.array([])) == math.inf

    def test_empty_cell_is_unresolved(self):
        assert stopping_half_width(np.array([]), is_indicator=True) == math.inf

    def test_indicator_uses_wilson_not_wald(self):
        # At p-hat = 0 a Wald interval has width 0 and would stop a
        # 1-trial cell instantly; Wilson must not.
        assert stopping_half_width(np.zeros(1), is_indicator=True) > 0.3


# -- the adaptive policy and driver -----------------------------------


class TestAdaptivePolicy:
    def test_validation(self):
        with pytest.raises(ParameterError, match="ci_target"):
            AdaptivePolicy(ci_target=0.0)
        with pytest.raises(ParameterError, match="max_trials"):
            AdaptivePolicy(max_trials=0)
        with pytest.raises(ParameterError, match="block_trials"):
            AdaptivePolicy(block_trials=-3)
        with pytest.raises(ParameterError, match="indicator_band"):
            AdaptivePolicy(indicator_band=(0.9, 0.1))
        with pytest.raises(ParameterError, match="ci_targets"):
            AdaptivePolicy(ci_targets={"connectivity": -0.5})

    def test_targets_above_one_allowed_for_value_metric_scales(self):
        # Wilson half-widths live in (0, 0.5], but standard-error
        # targets apply to value metrics on any scale (degree counts,
        # attack exposure) — a target of 2.0 counts is legitimate.
        policy = AdaptivePolicy(ci_target=2.0, ci_targets={"degree_count[h=0]": 5.0})
        assert policy.target_for("degree_count[h=0]", is_indicator=False) == 5.0

    def test_per_metric_targets(self):
        policy = AdaptivePolicy(ci_target=0.02, ci_targets={"connectivity": 0.1})
        assert policy.target_for("connectivity", is_indicator=True) == 0.1
        assert policy.target_for("giant_fraction", is_indicator=False) == 0.02

    def test_band_loosens_tails_only(self):
        policy = AdaptivePolicy(
            ci_target=0.02,
            indicator_band=(0.1, 0.9),
            tail_ci_target=0.05,
        )
        in_band = policy.target_for("connectivity", is_indicator=True, estimate=0.5)
        low_tail = policy.target_for("connectivity", is_indicator=True, estimate=0.0)
        high_tail = policy.target_for("connectivity", is_indicator=True, estimate=0.97)
        assert in_band == 0.02
        assert low_tail == high_tail == 0.05
        # value metrics never see the band
        assert policy.target_for("giant_fraction", is_indicator=False, estimate=0.0) == 0.02

    def test_tail_target_never_tighter_than_base(self):
        policy = AdaptivePolicy(
            ci_target=0.1, indicator_band=(0.1, 0.9), tail_ci_target=0.01
        )
        assert policy.target_for("connectivity", is_indicator=True, estimate=0.0) == 0.1


class TestAdaptiveDriver:
    def test_caps_at_max_trials(self):
        scenario = plain_scenario(trials=4)
        result = run_adaptive_study(
            Study((scenario,)),
            AdaptivePolicy(ci_target=1e-9, max_trials=11, block_trials=4),
            workers=1,
        )
        alloc = result.provenance["adaptive"]
        assert alloc["max_cell_trials"] == 11
        assert alloc["min_cell_trials"] == 11
        windows = [r["trial_window"] for r in alloc["rounds"]]
        assert windows == [[4, 8], [8, 11]]  # final block clamped to the cap

    def test_block_larger_than_remainder_clamps(self):
        scenario = plain_scenario(trials=4)
        result = run_adaptive_study(
            Study((scenario,)),
            AdaptivePolicy(ci_target=1e-9, max_trials=6, block_trials=100),
            workers=1,
        )
        assert [r["trial_window"] for r in result.provenance["adaptive"]["rounds"]] == [
            [4, 6]
        ]

    def test_already_satisfied_study_adds_no_rounds(self):
        scenario = plain_scenario(trials=5)
        result = run_adaptive_study(
            Study((scenario,)),
            AdaptivePolicy(ci_target=0.999, max_trials=50),
            workers=1,
        )
        adaptive = result.provenance["adaptive"]
        assert adaptive["rounds"] == []
        assert adaptive["trials_spent"] == 5 * 4  # 2 rings x 2 curves x 5 trials
        assert adaptive["savings_vs_fixed"] == 1.0

    def test_max_trials_at_or_below_initial_adds_no_rounds(self):
        scenario = plain_scenario(trials=5)
        result = run_adaptive_study(
            Study((scenario,)),
            AdaptivePolicy(ci_target=1e-9, max_trials=5),
            workers=1,
        )
        assert result.provenance["adaptive"]["rounds"] == []

    def test_unknown_ci_target_labels_rejected(self):
        # A typoed label would otherwise silently fall back to the
        # default target and "converge" at the wrong precision.
        study = Study((plain_scenario(),))
        with pytest.raises(ParameterError, match="never measures.*connectivty"):
            run_adaptive_study(
                study,
                AdaptivePolicy(ci_target=0.2, ci_targets={"connectivty": 0.005}),
                workers=1,
            )

    def test_policy_object_and_kwargs_are_exclusive(self):
        study = Study((plain_scenario(),))
        with pytest.raises(ParameterError, match="not both"):
            run_adaptive_study(
                study, AdaptivePolicy(), ci_target=0.5, workers=1
            )

    def test_protocol_scenarios_pass_through(self):
        protocol = Scenario(
            name="proto",
            kind="protocol",
            num_nodes=30,
            pool_size=200,
            trials=4,
            protocol="coupling",
            protocol_params={"key_ring_size": 12, "q": 1},
        )
        mixed = Study((plain_scenario(trials=4), protocol))
        result = run_adaptive_study(
            mixed,
            AdaptivePolicy(ci_target=0.4, max_trials=12, block_trials=4),
            workers=1,
        )
        assert result["proto"].scenario.trials == 4
        one_shot = Study((protocol,)).run(workers=1)["proto"]
        assert np.array_equal(result["proto"].values, one_shot.values)

    @pytest.mark.slow
    def test_ragged_allocation_spends_less_than_fixed(self):
        # Two curves with very different variances: the saturated
        # p = 1.0 curve converges long before p = 0.6 does.
        scenario = plain_scenario(trials=10, ring_sizes=(15,))
        result = run_adaptive_study(
            Study((scenario,)),
            AdaptivePolicy(ci_target=0.08, max_trials=200, block_trials=20),
            workers=1,
        )
        alloc = result.provenance["adaptive"]
        assert alloc["trials_spent"] < alloc["fixed_trial_cost"]
        assert alloc["savings_vs_fixed"] > 1.0

    def test_render_shows_ragged_trials(self):
        from repro.study import render_study_result

        scenario = plain_scenario(trials=4)
        result = run_adaptive_study(
            Study((scenario,)),
            AdaptivePolicy(ci_target=0.15, max_trials=40, block_trials=8),
            workers=1,
        )
        text = render_study_result(result)
        assert "trials" in text  # the per-cell allocation column


# -- zero_one adaptive mode -------------------------------------------


class TestZeroOneAdaptive:
    KW = dict(
        trials=20,
        num_nodes_grid=(80, 120),
        alpha_offsets=(-2.0, 2.0),
        pool_size=2000,
        workers=1,
    )

    def test_adaptive_backend_runs_and_reports(self):
        from repro.experiments.zero_one import render_zero_one, run_zero_one

        result = run_zero_one(
            backend="adaptive",
            ci_target=0.15,
            max_trials=60,
            tail_ci_target=0.2,
            **self.KW,
        )
        assert result.config["backend"] == "adaptive"
        adaptive = result.config["adaptive"]
        assert adaptive["trials_spent"] <= adaptive["fixed_trial_cost"]
        assert {pt.estimate.trials for pt in result.points} <= set(range(20, 61))
        assert "adaptive" in render_zero_one(result)

    def test_adaptive_estimates_match_one_shot_prefix(self):
        from repro.experiments.zero_one import run_zero_one

        adaptive = run_zero_one(
            backend="adaptive", ci_target=1e-6, max_trials=40, **self.KW
        )
        kw = dict(self.KW)
        kw["trials"] = 40
        fixed = run_zero_one(backend="study", **kw)
        for pa, pf in zip(adaptive.points, fixed.points):
            assert pa.estimate.successes == pf.estimate.successes
            assert pa.estimate.trials == pf.estimate.trials

    def test_bad_band_rejected(self):
        from repro.experiments.zero_one import run_zero_one

        with pytest.raises(ParameterError, match="transition_band"):
            run_zero_one(
                backend="adaptive", transition_band=(0.1, 0.5, 0.9), **self.KW
            )
