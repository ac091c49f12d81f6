"""Resilient connectivity under capture attacks (paper ref [36] extension).

Sweeps the number of captured sensors and estimates, for each q (at
its connectivity-equalized ring size), the probability that the
*surviving* network stays connected using only uncompromised links —
versus the probability ignoring link compromise.  The gap between the
two columns is the price of key reuse: topology that survives
physically but cannot be trusted cryptographically.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.simulation.engine import trials_from_env
from repro.simulation.estimators import BernoulliEstimate
from repro.simulation.results import CurvePoint, ExperimentResult
from repro.study import MetricSpec, Scenario, Study
from repro.utils.tables import format_table

__all__ = [
    "build_resilience_study",
    "run_resilience",
    "render_resilience",
]


def build_resilience_study(
    trials: Optional[int] = None,
    qs: Sequence[int] = (1, 2),
    captured_grid: Sequence[int] = (0, 20, 60, 120),
    num_nodes: int = 300,
    design_nodes: int = 300,
    pool_size: int = 5000,
    channel_prob: float = 0.9,
    seed: int = 20170614,
) -> Study:
    """One scenario per ``q``; capture levels are nested metric sets.

    Both connectivity notions and the link-compromise counts are
    derived from the same candidate-pair arrays of each deployment, so
    the "price of key reuse" gap is measured deployment-by-deployment.
    """
    from repro.core.design import minimal_key_ring_size

    trials = trials if trials is not None else trials_from_env(30, full=150)
    scenarios = []
    for q in qs:
        ring = minimal_key_ring_size(
            design_nodes, pool_size, q, channel_prob, target_probability=0.95
        )
        metrics = []
        for captured in captured_grid:
            metrics.append(MetricSpec("resilient_connectivity", captured=captured))
            metrics.append(MetricSpec("survivor_connectivity", captured=captured))
            metrics.append(MetricSpec("attack_compromised", captured=captured))
            metrics.append(MetricSpec("attack_evaluated", captured=captured))
        scenarios.append(
            Scenario(
                name=f"resilience_q{q}",
                num_nodes=num_nodes,
                pool_size=pool_size,
                ring_sizes=(ring,),
                curves=((q, channel_prob),),
                metrics=tuple(metrics),
                trials=trials,
                seed=seed,
            )
        )
    return Study(tuple(scenarios))


def run_resilience(
    trials: Optional[int] = None,
    qs: Sequence[int] = (1, 2),
    captured_grid: Sequence[int] = (0, 20, 60, 120),
    num_nodes: int = 300,
    design_nodes: int = 300,
    pool_size: int = 5000,
    channel_prob: float = 0.9,
    seed: int = 20170614,
    workers: Optional[int] = None,
) -> ExperimentResult:
    """Sweep (q, captured) and estimate both connectivity notions.

    Ring sizes are dimensioned per q for 0.95 connectivity of the
    *unattacked* network, so the captured=0 rows calibrate the columns.
    """
    from repro.core.design import minimal_key_ring_size

    trials = trials if trials is not None else trials_from_env(30, full=150)
    ring_sizes = {
        q: minimal_key_ring_size(
            design_nodes, pool_size, q, channel_prob, target_probability=0.95
        )
        for q in qs
    }
    study = build_resilience_study(
        trials, qs, captured_grid, num_nodes, design_nodes, pool_size,
        channel_prob, seed,
    )
    study_result = study.run(workers=workers)
    points: List[CurvePoint] = []
    for q in qs:
        ring = ring_sizes[q]
        scenario_result = study_result[f"resilience_q{q}"]
        curve = (q, channel_prob)
        for captured in captured_grid:
            resilient_hits = scenario_result.successes(
                f"resilient_connectivity[captured={captured}]", curve, ring
            )
            plain_hits = scenario_result.successes(
                f"survivor_connectivity[captured={captured}]", curve, ring
            )
            comp = scenario_result.series(
                f"attack_compromised[captured={captured}]", curve, ring
            )
            # attack_evaluated counts *all* surviving links between
            # alive nodes, compromised included, matching the
            # denominator of ResilienceOutcome.compromise_fraction.
            total = scenario_result.series(
                f"attack_evaluated[captured={captured}]", curve, ring
            )
            fractions = np.where(total > 0, comp / np.maximum(total, 1), 0.0)
            mean_comp = float(fractions.mean())
            points.append(
                CurvePoint(
                    point={
                        "q": q,
                        "K": ring,
                        "captured": captured,
                        "plain_connected": plain_hits / trials,
                        "mean_compromise_fraction": mean_comp,
                    },
                    estimate=BernoulliEstimate.from_counts(resilient_hits, trials),
                    prediction=None,
                )
            )
    return ExperimentResult(
        name="resilience",
        config={
            "trials": trials,
            "qs": list(qs),
            "ring_sizes": {str(q): ring_sizes[q] for q in qs},
            "captured_grid": list(captured_grid),
            "num_nodes": num_nodes,
            "pool_size": pool_size,
            "channel_prob": channel_prob,
            "seed": seed,
        },
        points=points,
    )


def render_resilience(result: ExperimentResult) -> str:
    rows = []
    for pt in result.points:
        rows.append(
            [
                int(pt.point["q"]),
                int(pt.point["K"]),
                int(pt.point["captured"]),
                pt.estimate.estimate,
                pt.point["plain_connected"],
                pt.point["mean_compromise_fraction"],
            ]
        )
    return format_table(
        [
            "q",
            "K",
            "captured",
            "P[resiliently conn.]",
            "P[conn., untrusted links ok]",
            "mean comp. frac",
        ],
        rows,
        title=(
            "Resilient connectivity under node capture "
            f"(n={result.config['num_nodes']}, P={result.config['pool_size']}, "
            f"p={result.config['channel_prob']}, trials={result.config['trials']})"
        ),
    )
