"""Heterogeneous min-degree law and its k-connectivity equivalence.

Lemma 8's two claims, transferred to the Eletreby–Yağan class mix and
checked on the *same* Monte Carlo deployments:

1. ``P[min degree >= k]`` follows the heterogeneous limit law
   ``exp(-μ_min e^{-α}/(k-1)!)`` when the bottleneck class ``λ_min``
   sits at deviation ``α`` of the k-threshold scaling;
2. the events ``{min degree >= k}`` and ``{k-connected}`` still
   coincide with probability → 1 — measured as a per-deployment
   agreement rate, exactly like the homogeneous ``mindegree``
   experiment.

One class-mix scenario per ``k`` shares the deployment family (same
labels, rings, overlap counts, and channel uniforms), so the whole
``(k, α)`` grid pays for sampling once.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.heterogeneous import (
    class_edge_probabilities,
    het_channel_scale_for_alpha,
    het_limit_probability,
)
from repro.simulation.engine import trials_from_env
from repro.simulation.results import CurvePoint, ExperimentResult
from repro.study import ClassMix, MetricSpec, Scenario, Study
from repro.utils.tables import format_table

__all__ = [
    "build_het_mindegree_study",
    "run_het_mindegree",
    "render_het_mindegree",
]

_MU = (0.5, 0.5)
_RING_SIZES = (30, 60)
_CHANNEL_PROBS = ((0.8, 0.5), (0.5, 0.3))


def build_het_mindegree_study(
    trials: Optional[int] = None,
    ks: Sequence[int] = (1, 2),
    alphas: Sequence[float] = (-1.0, 0.0, 1.5),
    num_nodes: int = 300,
    pool_size: int = 10000,
    ring_sizes: Sequence[int] = _RING_SIZES,
    mu: Sequence[float] = _MU,
    channel_probs: Sequence[Sequence[float]] = _CHANNEL_PROBS,
    q: int = 1,
    seed: int = 20190827,
) -> Study:
    """One class-mix scenario per ``k`` with both Lemma 8 metrics.

    All scenarios share ``(n, P, rings, trials, seed, classes)``, so
    they group onto one deployment family: min-degree and
    k-connectivity are measured on the same sampled worlds across the
    whole ``(k, α)`` grid.
    """
    trials = trials if trials is not None else trials_from_env(60, full=300)
    mix = ClassMix(
        mu=tuple(mu),
        channel_probs=tuple(tuple(row) for row in channel_probs),
    )
    scenarios = []
    for k in ks:
        curves = tuple(
            (
                q,
                het_channel_scale_for_alpha(
                    num_nodes, ring_sizes, pool_size, q, mu, channel_probs, alpha, k
                ),
            )
            for alpha in alphas
        )
        scenarios.append(
            Scenario(
                name=f"het_mindegree_k{k}",
                num_nodes=num_nodes,
                pool_size=pool_size,
                ring_sizes=(tuple(ring_sizes),),
                curves=curves,
                metrics=(
                    MetricSpec("min_degree", k=k),
                    MetricSpec("k_connectivity", k=k),
                ),
                trials=trials,
                seed=seed,
                classes=mix,
            )
        )
    return Study(tuple(scenarios))


def run_het_mindegree(
    trials: Optional[int] = None,
    ks: Sequence[int] = (1, 2),
    alphas: Sequence[float] = (-1.0, 0.0, 1.5),
    num_nodes: int = 300,
    pool_size: int = 10000,
    ring_sizes: Sequence[int] = _RING_SIZES,
    mu: Sequence[float] = _MU,
    channel_probs: Sequence[Sequence[float]] = _CHANNEL_PROBS,
    q: int = 1,
    seed: int = 20190827,
    workers: Optional[int] = None,
) -> ExperimentResult:
    """Joint heterogeneous min-degree / k-connectivity sweep over (k, α)."""
    trials = trials if trials is not None else trials_from_env(60, full=300)
    study = build_het_mindegree_study(
        trials,
        ks,
        alphas,
        num_nodes,
        pool_size,
        ring_sizes,
        mu,
        channel_probs,
        q,
        seed,
    )
    study_result = study.run(workers=workers)
    lambdas = class_edge_probabilities(ring_sizes, pool_size, q, mu, channel_probs)
    mu_min = float(mu[min(range(len(lambdas)), key=lambdas.__getitem__)])
    ring_entry = study.scenarios[0].ring_sizes_at(0)[0]
    points: List[CurvePoint] = []
    for k in ks:
        scenario_result = study_result[f"het_mindegree_k{k}"]
        for alpha in alphas:
            scale = het_channel_scale_for_alpha(
                num_nodes, ring_sizes, pool_size, q, mu, channel_probs, alpha, k
            )
            deg_est = scenario_result.bernoulli(
                f"min_degree[k={k}]", (q, scale), ring_entry
            )
            conn_est = scenario_result.bernoulli(
                f"k_connectivity[k={k}]", (q, scale), ring_entry
            )
            agreement = scenario_result.agreement(
                f"min_degree[k={k}]",
                f"k_connectivity[k={k}]",
                (q, scale),
                ring_entry,
            )
            points.append(
                CurvePoint(
                    point={
                        "k": k,
                        "alpha": alpha,
                        "scale": scale,
                        "kconn_estimate": conn_est.estimate,
                        "kconn_ci_low": conn_est.ci_low,
                        "kconn_ci_high": conn_est.ci_high,
                        "agreement": agreement,
                    },
                    estimate=deg_est,
                    prediction=het_limit_probability(alpha, mu_min, k),
                )
            )
    return ExperimentResult(
        name="het_mindegree",
        config={
            "trials": trials,
            "ks": list(ks),
            "alphas": list(alphas),
            "num_nodes": num_nodes,
            "pool_size": pool_size,
            "ring_sizes": list(ring_sizes),
            "mu": list(mu),
            "channel_probs": [list(row) for row in channel_probs],
            "lambdas": list(lambdas),
            "mu_min": mu_min,
            "q": q,
            "seed": seed,
        },
        points=points,
    )


def render_het_mindegree(result: ExperimentResult) -> str:
    rows = []
    for pt in result.points:
        rows.append(
            [
                int(pt.point["k"]),
                pt.point["alpha"],
                pt.estimate.estimate,
                pt.point["kconn_estimate"],
                pt.point["agreement"],
                pt.prediction,
            ]
        )
    return format_table(
        ["k", "alpha", "P[min deg>=k]", "P[k-conn]", "agreement", "het limit"],
        rows,
        title=(
            "Heterogeneous min-degree law and k-connectivity equivalence "
            f"(n={result.config['num_nodes']}, K={result.config['ring_sizes']}, "
            f"mu={result.config['mu']}, q={result.config['q']}, "
            f"trials={result.config['trials']})"
        ),
    )
