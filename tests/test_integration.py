"""Integration tests: Monte Carlo vs theory at moderate scale.

These are end-to-end checks of the headline claims with enough trials
to be statistically meaningful but small enough networks to stay fast.
Tolerances are deliberately generous: at these ``n`` the limit law has
finite-size bias of a few percentage points (the Poisson refinement
tracks tighter, which is asserted too).
"""

from __future__ import annotations

import math

from repro.core.mindegree import min_degree_probability_poisson
from repro.core.scaling import channel_prob_for_alpha
from repro.params import QCompositeParams
from repro.study import MetricSpec, Scenario, ScenarioResult, run_scenario

N = 400
POOL = 10000
RING = 60
Q = 2
TRIALS = 150


def params_at(alpha: float, k: int = 1) -> QCompositeParams:
    p = channel_prob_for_alpha(N, RING, POOL, Q, alpha, k)
    return QCompositeParams(
        num_nodes=N, key_ring_size=RING, pool_size=POOL, overlap=Q, channel_prob=p
    )


def simulate(
    params: QCompositeParams, trials: int, seed: int, *metrics: MetricSpec
) -> ScenarioResult:
    """Run one parameter point (connectivity by default) on the study path."""
    return run_scenario(
        Scenario(
            name="integration",
            num_nodes=params.num_nodes,
            pool_size=params.pool_size,
            ring_sizes=(params.key_ring_size,),
            curves=((params.overlap, params.channel_prob),),
            metrics=metrics or (MetricSpec("connectivity"),),
            trials=trials,
            seed=seed,
        )
    )


class TestConnectivityLaw:
    def test_deep_subcritical_rarely_connected(self):
        est = simulate(params_at(-3.0), TRIALS, 101).bernoulli()
        assert est.estimate < 0.15

    def test_deep_supercritical_usually_connected(self):
        est = simulate(params_at(4.0), TRIALS, 102).bernoulli()
        assert est.estimate > 0.85

    def test_critical_point_tracks_refined_prediction(self):
        params = params_at(0.0)
        est = simulate(params, TRIALS, 103).bernoulli()
        refined = min_degree_probability_poisson(params, 1)
        # Wilson CI at 150 trials has half-width ~0.08; allow bias room.
        assert abs(est.estimate - refined) < 0.15
        # And the limit law itself is in the right neighbourhood.
        assert abs(est.estimate - math.exp(-1.0)) < 0.2

    def test_monotone_in_alpha(self):
        estimates = [
            simulate(params_at(a), 100, 104 + int(a)).bernoulli().estimate
            for a in (-2.0, 0.0, 2.0, 4.0)
        ]
        assert estimates[0] < estimates[-1]
        assert estimates == sorted(estimates)


class TestMinDegreeLaw:
    def test_min_degree_tracks_poisson_refinement(self):
        for alpha in (-1.0, 1.0):
            params = params_at(alpha)
            est = simulate(
                params, TRIALS, 110 + int(alpha), MetricSpec("min_degree", k=1)
            ).bernoulli()
            refined = min_degree_probability_poisson(params, 1)
            assert abs(est.estimate - refined) < 0.12, alpha

    def test_k2_ordering_and_agreement(self):
        params = params_at(1.0, k=2)
        result = simulate(
            params, 80, 112, MetricSpec("min_degree", k=2), MetricSpec("k_connectivity", k=2)
        )
        deg = result.bernoulli("min_degree[k=2]")
        conn = result.bernoulli("k_connectivity[k=2]")
        agreement = result.agreement("min_degree[k=2]", "k_connectivity[k=2]")
        assert conn.estimate <= deg.estimate
        # Lemma 8/Theorem 1 equivalence: disagreement is rare.
        assert agreement > 0.85


class TestDegreePoissonLaw:
    def test_isolated_count_mean_matches_lambda(self):
        from repro.core.degree_distribution import lambda_nh_exact

        params = params_at(0.0)
        counts = simulate(params, 200, 120, MetricSpec("degree_count", h=0)).series()
        lam = lambda_nh_exact(N, params.edge_probability(), 0)
        # Poisson(λ): mean λ, sd sqrt(λ); sample-mean sd = sqrt(λ/200).
        assert abs(counts.mean() - lam) < 5 * math.sqrt(lam / 200) + 0.05

    def test_degree_one_count_matches_lambda(self):
        from repro.core.degree_distribution import lambda_nh_exact

        params = params_at(0.0)
        counts = simulate(params, 200, 121, MetricSpec("degree_count", h=1)).series()
        lam = lambda_nh_exact(N, params.edge_probability(), 1)
        assert abs(counts.mean() - lam) < 5 * math.sqrt(lam / 200) + 0.1


class TestEschenauerGligorSpecialCase:
    def test_q1_threshold_behaviour(self):
        # The q = 1 (EG scheme) case: K chosen at the threshold for n.
        n, pool = 300, 5000
        from repro.core.design import minimal_key_ring_size

        kstar = minimal_key_ring_size(n, pool, 1, 1.0)
        below = QCompositeParams(
            num_nodes=n, key_ring_size=max(kstar - 4, 2), pool_size=pool, overlap=1
        )
        above = QCompositeParams(
            num_nodes=n, key_ring_size=kstar + 4, pool_size=pool, overlap=1
        )
        p_below = simulate(below, 100, 130).bernoulli().estimate
        p_above = simulate(above, 100, 131).bernoulli().estimate
        assert p_above - p_below > 0.3
