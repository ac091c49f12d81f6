"""Tests for node-capture attacks: the closed form and the deployment path."""

from __future__ import annotations

import pytest

from repro.core.capture import analytic_compromise_fraction
from repro.exceptions import ParameterError
from repro.study import MetricSpec, Scenario
from tests.conftest import attacked_deployment


def _evaluate(ev, q, p, kind, captured):
    return ev.evaluate("onoff", q, p, MetricSpec(kind, captured=captured))


class TestCaptureAttack:
    def test_zero_captured_nothing_compromised(self):
        _, ev = attacked_deployment(25, 60, 15, 2, seed=5)
        assert _evaluate(ev, 2, 0.9, "attack_compromised", 0) == 0.0
        links = int(ev.curve_mask("onoff", 2, 0.9).sum())
        assert _evaluate(ev, 2, 0.9, "attack_evaluated", 0) == float(links)

    def test_captured_links_excluded(self):
        dep, ev = attacked_deployment(25, 60, 15, 2, seed=2)
        captured = {int(x) for x in dep.capture_order[:5]}
        # Evaluated links must avoid captured endpoints entirely.
        count = 0
        for key in ev.selected_keys("onoff", 2, 0.9):
            u, v = divmod(int(key), dep.num_nodes)
            if u not in captured and v not in captured:
                count += 1
        assert _evaluate(ev, 2, 0.9, "attack_evaluated", 5) == float(count)

    def test_capture_whole_network_raises(self):
        with pytest.raises(ParameterError, match="at least two must survive"):
            Scenario(
                name="capture_all",
                num_nodes=25,
                pool_size=60,
                ring_sizes=(15,),
                curves=((2, 0.9),),
                metrics=(MetricSpec("attack_compromised", captured=25),),
                trials=1,
            )

    def test_more_captures_more_compromise(self):
        _, ev = attacked_deployment(60, 200, 20, 1, seed=9)

        def fraction(captured):
            hit = _evaluate(ev, 1, 1.0, "attack_compromised", captured)
            return hit / _evaluate(ev, 1, 1.0, "attack_evaluated", captured)

        assert fraction(40) >= fraction(3)

    def test_analytic_monotone_in_x(self):
        vals = [
            analytic_compromise_fraction(30, 1000, 2, x) for x in (0, 5, 20, 100)
        ]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        assert vals[0] == 0.0

    def test_analytic_q_resilience_at_fixed_K(self):
        # At *fixed* K, a larger shared-key requirement only hardens
        # links (more keys to capture per link).
        small = [analytic_compromise_fraction(30, 1000, q, 5) for q in (1, 2, 3)]
        assert small[0] > small[1] > small[2]

    def test_analytic_q_tradeoff_at_equal_connectivity(self):
        # The Chan et al. tradeoff: equalize connectivity by growing K
        # with q (K* from Eq. 9).  Then small attacks favour large q and
        # large attacks punish it.
        from repro.core.design import minimal_key_ring_size

        rings = {
            q: minimal_key_ring_size(1000, 10000, q, 1.0) for q in (1, 2, 3)
        }
        small = [
            analytic_compromise_fraction(rings[q], 10000, q, 5) for q in (1, 2, 3)
        ]
        assert small[0] > small[1] > small[2]
        large = [
            analytic_compromise_fraction(rings[q], 10000, q, 500) for q in (1, 2, 3)
        ]
        assert large[0] < large[2]

    def test_analytic_bounds(self):
        for x in (0, 1, 10, 1000):
            v = analytic_compromise_fraction(30, 1000, 2, x)
            assert 0.0 <= v <= 1.0
