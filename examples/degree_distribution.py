#!/usr/bin/env python
"""Lemma 9 live: the degree structure of a secure WSN near threshold.

Deploys networks at the exact connectivity threshold (α = 0) and shows:

1. the empirical histogram of *degree-h node counts* against the
   Poisson(λ_{n,h}) law of Lemma 9, for the obstruction degrees
   h = 0, 1, 2;
2. why that matters: the number of isolated nodes (h = 0) is the
   binding obstruction for connectivity, and P[N_0 = 0] ≈ e^{-λ_0}
   reproduces the Theorem 1 probability.

Run:  python examples/degree_distribution.py
"""

import numpy as np

from repro.core.degree_distribution import lambda_nh_exact
from repro.core.scaling import channel_prob_for_alpha
from repro.params import QCompositeParams
from repro.probability.poisson import poisson_pmf
from repro.study import MetricSpec, Scenario, run_scenario
from repro.utils.tables import format_table


def main() -> None:
    n, K, P, q = 1000, 60, 10_000, 2
    p = channel_prob_for_alpha(n, K, P, q, alpha=0.0, k=1)
    params = QCompositeParams(
        num_nodes=n, key_ring_size=K, pool_size=P, overlap=q, channel_prob=p
    )
    trials = 200
    print(f"at the connectivity threshold: {params.describe()} (alpha = 0)\n")

    # One scenario: every degree count and connectivity are metrics of
    # the same sampled deployments.
    result = run_scenario(
        Scenario(
            name="degree_distribution",
            num_nodes=n,
            pool_size=P,
            ring_sizes=(K,),
            curves=((q, p),),
            metrics=(
                MetricSpec("connectivity"),
                *(MetricSpec("degree_count", h=h) for h in (0, 1, 2)),
            ),
            trials=trials,
            seed=31,
        )
    )

    for h in (0, 1, 2):
        counts = result.series(f"degree_count[h={h}]").astype(np.int64)
        lam = lambda_nh_exact(n, params.edge_probability(), h)
        hist = np.bincount(counts, minlength=int(counts.max()) + 1)

        rows = []
        for value in range(min(len(hist), 10)):
            emp = hist[value] / trials
            rows.append([value, emp, poisson_pmf(value, lam)])
        print(
            format_table(
                [f"N_{h} = v", "empirical freq", f"Poisson(λ={lam:.2f})"],
                rows,
                title=f"Nodes of degree {h} across {trials} deployments",
            )
        )
        print()

    # The h = 0 connection to Theorem 1.
    no_isolated = float((result.series("degree_count[h=0]") == 0).mean())
    connected = result.bernoulli("connectivity").estimate
    lam0 = lambda_nh_exact(n, params.edge_probability(), 0)
    print(
        format_table(
            ["quantity", "value"],
            [
                ["P[no isolated nodes] (empirical)", no_isolated],
                ["e^{-λ_0} (Poisson prediction)", float(np.exp(-lam0))],
                ["P[connected] (empirical)", connected],
                ["Theorem 1 limit at alpha=0 (= 1/e)", float(np.exp(-1.0))],
            ],
            title="Isolated nodes are the connectivity obstruction",
        )
    )
    print(
        "\nReading: P[connected] ≈ P[no isolated node] ≈ e^{-λ_0} — the"
        "\nlocal obstruction (degree-0 nodes) fully explains the global"
        "\nconnectivity probability, which is the structural content of"
        "\nTheorem 1's proof (Lemmas 8-9)."
    )


if __name__ == "__main__":
    main()
