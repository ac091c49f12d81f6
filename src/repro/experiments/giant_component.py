"""Component evolution: emergence of the giant component (extension).

Section IX cites Bloznelis–Jaworski–Rybarczyk: a linear-size ("giant")
component emerges in the key graph once the edge probability exceeds
``1/n`` — far below the ``ln n / n`` connectivity threshold that is the
paper's subject.  This experiment traces the whole evolution for the
composed graph ``G_{n,q} = G_q ∩ G(n,p)``: sweeping the mean degree
``c = n·t`` across 1, it measures the largest-component fraction and
compares it against the classical branching-process limit for ER graphs
(the unique root of ``ρ = 1 − e^{−cρ}``), which the intersection graph
should track at matched edge probability.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from repro.probability.hypergeometric import overlap_survival
from repro.simulation.engine import trials_from_env
from repro.simulation.estimators import BernoulliEstimate
from repro.simulation.results import CurvePoint, ExperimentResult
from repro.study import MetricSpec, Scenario, Study
from repro.utils.tables import format_table

__all__ = [
    "build_giant_study",
    "run_giant_component",
    "render_giant_component",
    "er_giant_fraction",
]


def er_giant_fraction(mean_degree: float, *, tol: float = 1e-12) -> float:
    """Limit fraction ρ(c) of the giant component in ``G(n, c/n)``.

    The unique positive root of ``ρ = 1 − e^{−cρ}`` for ``c > 1``; zero
    for ``c <= 1``.  Solved by monotone fixed-point iteration.
    """
    if mean_degree <= 1.0:
        return 0.0
    rho = 1.0 - 1.0 / mean_degree  # warm start above the root's basin
    for _ in range(200):
        nxt = 1.0 - math.exp(-mean_degree * rho)
        if abs(nxt - rho) < tol:
            return nxt
        rho = nxt
    return rho


def _channel_probs(
    mean_degrees: Sequence[float],
    num_nodes: int,
    key_ring_size: int,
    pool_size: int,
    q: int,
) -> List[float]:
    s = overlap_survival(key_ring_size, pool_size, q)
    probs = []
    for c in mean_degrees:
        p = c / (num_nodes * s)
        if not 0.0 < p <= 1.0:
            raise ValueError(
                f"mean degree {c} needs channel prob {p:.4g} outside (0, 1]; "
                "adjust key_ring_size"
            )
        probs.append(p)
    return probs


def build_giant_study(
    trials: Optional[int] = None,
    mean_degrees: Sequence[float] = (0.5, 0.8, 1.0, 1.3, 2.0, 3.0, 5.0),
    num_nodes: int = 1000,
    key_ring_size: int = 60,
    pool_size: int = 10000,
    q: int = 2,
    seed: int = 20170613,
) -> Study:
    """The whole phase-transition sweep as curves of one deployment.

    Every mean degree ``c`` differs only in the channel probability, so
    the entire evolution is measured on *shared* sampled key graphs
    with nested thinning — the emergence curve is monotone within each
    deployment by construction.
    """
    trials = trials if trials is not None else trials_from_env(40, full=200)
    probs = _channel_probs(mean_degrees, num_nodes, key_ring_size, pool_size, q)
    return Study(
        (
            Scenario(
                name="giant",
                num_nodes=num_nodes,
                pool_size=pool_size,
                ring_sizes=(key_ring_size,),
                curves=tuple((q, p) for p in probs),
                metrics=(MetricSpec("giant_fraction"),),
                trials=trials,
                seed=seed,
            ),
        )
    )


def run_giant_component(
    trials: Optional[int] = None,
    mean_degrees: Sequence[float] = (0.5, 0.8, 1.0, 1.3, 2.0, 3.0, 5.0),
    num_nodes: int = 1000,
    key_ring_size: int = 60,
    pool_size: int = 10000,
    q: int = 2,
    seed: int = 20170613,
    workers: Optional[int] = None,
) -> ExperimentResult:
    """Sweep the mean degree ``c``; measure giant-component fractions.

    The channel probability is solved from ``c = n·p·s(K,P,q)`` so the
    key-graph structure is held fixed while the composed graph crosses
    the phase transition.
    """
    trials = trials if trials is not None else trials_from_env(40, full=200)
    probs = _channel_probs(mean_degrees, num_nodes, key_ring_size, pool_size, q)
    study = build_giant_study(
        trials, mean_degrees, num_nodes, key_ring_size, pool_size, q, seed
    )
    scenario_result = study.run(workers=workers)["giant"]
    points: List[CurvePoint] = []
    for c, p in zip(mean_degrees, probs):
        arr = scenario_result.series("giant_fraction", (q, p), key_ring_size)
        # Estimate slot: fraction of deployments with a >10% giant part.
        giant_hits = int((arr > 0.1).sum())
        points.append(
            CurvePoint(
                point={
                    "mean_degree": c,
                    "mean_fraction": float(arr.mean()),
                    "std_fraction": float(arr.std(ddof=1)) if trials > 1 else 0.0,
                },
                estimate=BernoulliEstimate.from_counts(giant_hits, trials),
                prediction=er_giant_fraction(c),
            )
        )
    return ExperimentResult(
        name="giant_component",
        config={
            "trials": trials,
            "mean_degrees": list(mean_degrees),
            "num_nodes": num_nodes,
            "key_ring_size": key_ring_size,
            "pool_size": pool_size,
            "q": q,
            "seed": seed,
        },
        points=points,
    )


def render_giant_component(result: ExperimentResult) -> str:
    rows = []
    for pt in result.points:
        rows.append(
            [
                pt.point["mean_degree"],
                pt.point["mean_fraction"],
                pt.prediction,
                pt.estimate.estimate,
            ]
        )
    return format_table(
        [
            "mean degree c",
            "largest comp. fraction (emp)",
            "ER limit ρ(c)",
            "P[giant > 10%]",
        ],
        rows,
        title=(
            "Giant component evolution in G_q ∩ G(n,p) "
            f"(n={result.config['num_nodes']}, K={result.config['key_ring_size']}, "
            f"q={result.config['q']}, trials={result.config['trials']})"
        ),
    )
