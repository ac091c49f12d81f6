"""The q-composite capture-attack tradeoff (paper Section I motivation).

Chan et al.'s original rationale, restated in this paper's
introduction: raising ``q`` strengthens the network against small
capture attacks but weakens it against large ones.  The tradeoff only
appears at *equalized connectivity*: at fixed ``K`` a larger overlap
requirement strictly hardens every link, but clearing the same
connectivity threshold with larger ``q`` forces a larger ring ``K*(q)``
(Eq. 9), and the larger rings leak more of the pool per captured node.
This experiment therefore assigns each ``q`` its own Eq. (9) ring size
and sweeps the number of captured nodes, comparing the simulated
fraction of compromised external links against the analytic
Chan–Perrig–Song estimate.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.capture import analytic_compromise_fraction
from repro.simulation.engine import trials_from_env
from repro.simulation.estimators import BernoulliEstimate
from repro.simulation.results import CurvePoint, ExperimentResult
from repro.study import MetricSpec, Scenario, Study
from repro.utils.tables import format_table

__all__ = [
    "build_attack_study",
    "run_attack_tradeoff",
    "render_attack_tradeoff",
]


def build_attack_study(
    trials: Optional[int] = None,
    qs: Sequence[int] = (1, 2, 3),
    captured_grid: Sequence[int] = (10, 50, 100, 200),
    num_nodes: int = 400,
    design_nodes: int = 1000,
    pool_size: int = 10000,
    seed: int = 20170611,
) -> Study:
    """One scenario per ``q``; the capture grid is a nested metric set.

    Within a deployment the captured sets at increasing levels are
    prefixes of one random permutation, so the tradeoff curve over
    ``#captured`` is monotone per sampled world — common random numbers
    along the attack axis, exactly as nested thinning provides them
    along the channel axis.
    """
    from repro.core.design import minimal_key_ring_size

    trials = trials if trials is not None else trials_from_env(20, full=100)
    scenarios = []
    for q in qs:
        ring = minimal_key_ring_size(design_nodes, pool_size, q, 1.0)
        metrics = []
        for captured in captured_grid:
            metrics.append(MetricSpec("attack_compromised", captured=captured))
            metrics.append(MetricSpec("attack_evaluated", captured=captured))
        scenarios.append(
            Scenario(
                name=f"attack_q{q}",
                num_nodes=num_nodes,
                pool_size=pool_size,
                ring_sizes=(ring,),
                curves=((q, 1.0),),
                metrics=tuple(metrics),
                trials=trials,
                seed=seed,
            )
        )
    return Study(tuple(scenarios))


def run_attack_tradeoff(
    trials: Optional[int] = None,
    qs: Sequence[int] = (1, 2, 3),
    captured_grid: Sequence[int] = (10, 50, 100, 200),
    num_nodes: int = 400,
    design_nodes: int = 1000,
    pool_size: int = 10000,
    seed: int = 20170611,
    workers: Optional[int] = None,
) -> ExperimentResult:
    """Sweep (q, #captured) at connectivity-equalized ring sizes.

    Each ``q`` uses its own ``K*(q)`` — the Eq. (9) minimal ring for the
    *design* network size (``design_nodes``; the attack simulation runs
    on ``num_nodes`` sensors since the per-link compromise statistics do
    not depend on ``n``).
    """
    from repro.core.design import minimal_key_ring_size

    trials = trials if trials is not None else trials_from_env(20, full=100)
    ring_sizes = {
        q: minimal_key_ring_size(design_nodes, pool_size, q, 1.0) for q in qs
    }
    study = build_attack_study(
        trials, qs, captured_grid, num_nodes, design_nodes, pool_size, seed
    )
    study_result = study.run(workers=workers)
    points: List[CurvePoint] = []
    for q in qs:
        ring = ring_sizes[q]
        scenario_result = study_result[f"attack_q{q}"]
        for captured in captured_grid:
            compromised = scenario_result.successes(
                f"attack_compromised[captured={captured}]", (q, 1.0), ring
            )
            evaluated = scenario_result.successes(
                f"attack_evaluated[captured={captured}]", (q, 1.0), ring
            )
            analytic = analytic_compromise_fraction(ring, pool_size, q, captured)
            points.append(
                CurvePoint(
                    point={
                        "q": q,
                        "K": ring,
                        "captured": captured,
                        "links_evaluated": evaluated,
                    },
                    estimate=BernoulliEstimate.from_counts(
                        compromised, max(evaluated, 1)
                    ),
                    prediction=analytic,
                )
            )
    return ExperimentResult(
        name="attack_tradeoff",
        config={
            "trials": trials,
            "qs": list(qs),
            "ring_sizes": {str(q): ring_sizes[q] for q in qs},
            "captured_grid": list(captured_grid),
            "num_nodes": num_nodes,
            "design_nodes": design_nodes,
            "pool_size": pool_size,
            "seed": seed,
        },
        points=points,
    )


def render_attack_tradeoff(result: ExperimentResult) -> str:
    rows = []
    for pt in result.points:
        rows.append(
            [
                int(pt.point["q"]),
                int(pt.point["K"]),
                int(pt.point["captured"]),
                pt.estimate.estimate,
                pt.prediction,
                int(pt.point["links_evaluated"]),
            ]
        )
    return format_table(
        ["q", "K*(q)", "captured", "compromised frac (emp)", "analytic", "links"],
        rows,
        title=(
            "q-composite capture-attack tradeoff at equalized connectivity "
            f"(n={result.config['num_nodes']}, P={result.config['pool_size']}, "
            f"trials={result.config['trials']})"
        ),
    )
