"""Tests for the giant-component experiment and the ER limit solver."""

from __future__ import annotations

import math

import pytest

from repro.experiments.giant_component import (
    er_giant_fraction,
    render_giant_component,
    run_giant_component,
)
from repro.study import MetricSpec, Scenario, run_scenario


def _giant_fraction(n, ring, pool, q, p, seed):
    """One deployment's largest-component fraction on the study path."""
    scenario = Scenario(
        name="giant",
        num_nodes=n,
        pool_size=pool,
        ring_sizes=(ring,),
        curves=((q, p),),
        metrics=(MetricSpec("giant_fraction"),),
        trials=1,
        seed=seed,
    )
    return float(run_scenario(scenario, workers=1).series()[0])


class TestErGiantFraction:
    def test_subcritical_zero(self):
        assert er_giant_fraction(0.5) == 0.0
        assert er_giant_fraction(1.0) == 0.0

    def test_fixed_point_property(self):
        for c in (1.2, 2.0, 4.0):
            rho = er_giant_fraction(c)
            assert rho == pytest.approx(1.0 - math.exp(-c * rho), abs=1e-9)
            assert 0.0 < rho < 1.0

    def test_monotone_in_c(self):
        vals = [er_giant_fraction(c) for c in (1.1, 1.5, 2.0, 3.0, 10.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_known_value_c2(self):
        # rho(2) ≈ 0.7968
        assert er_giant_fraction(2.0) == pytest.approx(0.7968, abs=1e-3)

    def test_large_c_approaches_one(self):
        assert er_giant_fraction(20.0) > 0.999999


class TestTrial:
    def test_fraction_in_unit_interval(self):
        frac = _giant_fraction(100, 20, 500, 2, 0.2, seed=1)
        assert 0.0 < frac <= 1.0

    def test_dense_graph_single_component(self):
        assert _giant_fraction(50, 40, 60, 1, 1.0, seed=2) == 1.0


class TestRun:
    def test_structure_and_render(self):
        result = run_giant_component(
            trials=5,
            mean_degrees=(0.5, 3.0),
            num_nodes=200,
            key_ring_size=30,
            pool_size=2000,
            workers=1,
        )
        assert len(result.points) == 2
        sub, sup = result.points
        assert sub.point["mean_fraction"] < sup.point["mean_fraction"]
        assert "ER limit" in render_giant_component(result)

    def test_infeasible_mean_degree_raises(self):
        with pytest.raises(ValueError):
            run_giant_component(
                trials=2,
                mean_degrees=(500.0,),  # would need p > 1
                num_nodes=100,
                key_ring_size=10,
                pool_size=2000,
                workers=1,
            )

    def test_registered_in_cli(self):
        from repro.experiments.registry import get_experiment

        assert get_experiment("giant").name == "giant"
