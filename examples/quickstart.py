#!/usr/bin/env python
"""Quickstart: predict and measure secure connectivity in 30 lines.

Builds the paper's model for a 1000-sensor network using the
q-composite scheme (q = 2) over unreliable channels (p = 0.5), then:

1. asks Theorem 1 for the asymptotic k-connectivity probability,
2. cross-checks it with a quick Monte Carlo estimate.

Run:  python examples/quickstart.py
"""

from repro import QCompositeParams
from repro.core.theorem1 import predict_k_connectivity
from repro.study import MetricSpec, Scenario, run_scenario


def main() -> None:
    params = QCompositeParams(
        num_nodes=1000,
        key_ring_size=50,
        pool_size=10_000,
        overlap=2,  # q-composite with q = 2
        channel_prob=0.5,  # on/off channels: half the links are up
    )

    # --- Theory: Theorem 1 ------------------------------------------------
    prediction = predict_k_connectivity(params, k=1)
    print(f"network           : {params.describe()}")
    print(f"edge probability  : {params.edge_probability():.6f}")
    print(f"deviation alpha_n : {prediction.alpha:+.3f}")
    print(f"regime            : {prediction.regime.value}")
    print(f"P[connected] (Thm 1) ≈ {prediction.probability:.3f}")

    # --- Simulation: 100 random deployments -------------------------------
    scenario = Scenario(
        name="quickstart",
        num_nodes=params.num_nodes,
        pool_size=params.pool_size,
        ring_sizes=(params.key_ring_size,),
        curves=((params.overlap, params.channel_prob),),
        metrics=(MetricSpec("connectivity"),),
        trials=100,
        seed=7,
    )
    estimate = run_scenario(scenario).bernoulli("connectivity")
    print(
        f"P[connected] (Monte Carlo, {estimate.trials} trials) = "
        f"{estimate.estimate:.3f}  "
        f"[95% CI {estimate.ci_low:.3f}, {estimate.ci_high:.3f}]"
    )


if __name__ == "__main__":
    main()
