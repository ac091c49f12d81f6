"""Tests for resilient connectivity under node capture on the deployment path.

A link is *resilient* when it survives the capture of ``x`` sensors: both
endpoints are uncaptured and at least one of the keys the pair shares
stays outside the captured rings.  ``survivor_connectivity`` asks
whether the uncaptured nodes stay connected ignoring compromise;
``resilient_connectivity`` asks the same of the trusted links only.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.study import MetricSpec, Scenario
from tests.conftest import attacked_deployment


def _metric(ev, kind, captured, q=2, p=0.9):
    return ev.evaluate("onoff", q, p, MetricSpec(kind, captured=captured))


class TestResilience:
    @pytest.fixture
    def net(self):
        return attacked_deployment(60, 300, 25, 2, seed=11)

    def test_zero_captured_matches_plain_connectivity(self, net):
        _, ev = net
        assert _metric(ev, "attack_compromised", 0) == 0.0
        assert _metric(ev, "attack_evaluated", 0) == float(
            ev.curve_mask("onoff", 2, 0.9).sum()
        )
        resilient = _metric(ev, "resilient_connectivity", 0)
        assert resilient == _metric(ev, "survivor_connectivity", 0)
        assert resilient == ev.evaluate("onoff", 2, 0.9, MetricSpec("connectivity"))

    def test_resilient_implies_plain(self):
        for seed in range(8):
            _, ev = attacked_deployment(60, 300, 25, 2, seed=seed)
            if _metric(ev, "resilient_connectivity", 10):
                assert _metric(ev, "survivor_connectivity", 10)

    def test_survivor_count(self, net):
        dep, ev = net
        # Captures follow one node permutation; the first 15 entries are
        # the captured sensors and the other 45 survive.
        assert sorted(dep.capture_order.tolist()) == list(range(60))
        alive = np.ones(60, dtype=bool)
        alive[dep.capture_order[:15]] = False
        assert int(alive.sum()) == 45
        keys = ev.selected_keys("onoff", 2, 0.9)
        u, v = keys // 60, keys % 60
        assert _metric(ev, "attack_evaluated", 15) == float((alive[u] & alive[v]).sum())

    def test_compromise_fraction_bounds(self, net):
        _, ev = net
        compromised = _metric(ev, "attack_compromised", 20)
        evaluated = _metric(ev, "attack_evaluated", 20)
        assert evaluated > 0
        assert 0.0 <= compromised / evaluated <= 1.0

    def test_nondestructive(self, net):
        dep, ev = net
        candidates = dep.candidates.copy()
        mask = ev.curve_mask("onoff", 2, 0.9).copy()
        plain = ev.evaluate("onoff", 2, 0.9, MetricSpec("connectivity"))
        _metric(ev, "resilient_connectivity", 12)
        assert np.array_equal(dep.candidates, candidates)
        assert np.array_equal(ev.curve_mask("onoff", 2, 0.9), mask)
        assert ev.evaluate("onoff", 2, 0.9, MetricSpec("connectivity")) == plain
        assert _metric(ev, "attack_compromised", 0) == 0.0

    def test_capture_too_many_raises(self):
        with pytest.raises(ParameterError, match="at least two must survive"):
            Scenario(
                name="resilience",
                num_nodes=60,
                pool_size=300,
                ring_sizes=(25,),
                curves=((2, 0.9),),
                metrics=(MetricSpec("resilient_connectivity", captured=59),),
                trials=1,
            )

    def test_negative_captured_raises(self):
        with pytest.raises(ParameterError):
            MetricSpec("resilient_connectivity", captured=-1)

    def test_heavy_capture_degrades(self):
        # With a tiny pool, capturing most sensors compromises nearly
        # everything: resilient connectivity should fail far more often
        # than plain connectivity.
        resilient_hits = plain_hits = 0
        for seed in range(10):
            _, ev = attacked_deployment(40, 60, 12, 1, seed=seed)
            resilient_hits += _metric(ev, "resilient_connectivity", 25, q=1, p=1.0)
            plain_hits += _metric(ev, "survivor_connectivity", 25, q=1, p=1.0)
        assert resilient_hits < plain_hits

    def test_experiment_registered(self):
        from repro.experiments.registry import get_experiment

        assert get_experiment("resilience").name == "resilience"

    def test_experiment_quick_run(self):
        from repro.experiments.resilience import render_resilience, run_resilience

        result = run_resilience(
            trials=3,
            qs=(1,),
            captured_grid=(0, 10),
            num_nodes=80,
            design_nodes=80,
            pool_size=1000,
            workers=1,
        )
        assert len(result.points) == 2
        zero_row = result.points[0]
        assert zero_row.point["mean_compromise_fraction"] == 0.0
        assert "resiliently conn." in render_resilience(result)
