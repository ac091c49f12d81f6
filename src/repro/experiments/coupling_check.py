"""Lemmas 5–6 validation: the coupling chain is executable and succeeds.

Lemma 5 couples the uniform key graph over a binomial one,
``G_q(n,K,P) ⪰ H_q(n,x,P)`` with ``x`` from Eq. (66); the coupling
succeeds exactly when every node's binomial ring size stays ≤ K.  This
experiment measures that success probability empirically (and checks
the analytic product formula), *and* verifies on every successful
coupling that the realized ``H_q`` edge set is a subset of the realized
``G_q`` edge set — the spanning-subgraph relation the proof needs.

It also reports how much edge probability the chain gives away:
``z = y·p`` versus the true ``t = s·p`` (Lemma 3 needs only
``z = t(1 - o(1/ln n))``, so the ratio should drift toward 1 as ``n``
grows).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.keygraphs.binomial_graph import coupled_ring_pair
from repro.keygraphs.uniform_graph import edges_from_rings
from repro.probability.couplings import (
    binomial_key_probability,
    coupled_er_probability,
    coupling_success_probability,
)
from repro.probability.hypergeometric import overlap_survival
from repro.simulation.engine import trials_from_env
from repro.simulation.estimators import BernoulliEstimate
from repro.simulation.results import CurvePoint, ExperimentResult
from repro.study import Scenario, Study
from repro.utils.tables import format_table

__all__ = [
    "build_coupling_study",
    "run_coupling_check",
    "render_coupling_check",
    "coupling_trial",
]


def build_coupling_study(
    trials: Optional[int] = None,
    num_nodes_grid: Sequence[int] = (100, 300, 1000),
    key_ring_size: int = 80,
    pool_size: int = 10000,
    q: int = 2,
    seed: int = 20170610,
) -> Study:
    """One ``"coupling"`` protocol scenario per network size.

    The coupled uniform/binomial ring pair is *jointly structured*
    randomness — it cannot be expressed as a post-filter over shared
    deployments — so it rides the study layer as a registered protocol
    (:mod:`repro.study.protocols`), keeping the scenario JSON-round-
    trippable and the execution on the same deterministic trial engine.
    """
    trials = trials if trials is not None else trials_from_env(40, full=200)
    return Study(
        tuple(
            Scenario(
                name=f"coupling_n{n}",
                kind="protocol",
                protocol="coupling",
                protocol_params={"key_ring_size": key_ring_size, "q": q},
                num_nodes=n,
                pool_size=pool_size,
                trials=trials,
                seed=seed + n,
            )
            for n in num_nodes_grid
        )
    )


def coupling_trial(
    num_nodes: int,
    key_ring_size: int,
    pool_size: int,
    q: int,
    rng: np.random.Generator,
) -> Tuple[bool, bool]:
    """One joint sample → (coupling succeeded, H_q edges ⊆ G_q edges)."""
    x = binomial_key_probability(num_nodes, key_ring_size, pool_size)
    uniform, binomial, success = coupled_ring_pair(
        num_nodes, key_ring_size, x, pool_size, rng
    )
    if not success:
        return (False, False)
    g_edges = edges_from_rings(uniform, q)
    h_edges = edges_from_rings(binomial, q)
    g_set = {(int(u), int(v)) for u, v in g_edges}
    subset_ok = all((int(u), int(v)) in g_set for u, v in h_edges)
    return (True, subset_ok)


def run_coupling_check(
    trials: Optional[int] = None,
    num_nodes_grid: Sequence[int] = (100, 300, 1000),
    key_ring_size: int = 80,
    pool_size: int = 10000,
    q: int = 2,
    seed: int = 20170610,
    workers: Optional[int] = None,
) -> ExperimentResult:
    """Measure coupling success and subset validity across ``n``.

    Runs the registered ``"coupling"`` protocol through the study
    layer.
    """
    trials = trials if trials is not None else trials_from_env(40, full=200)
    study = build_coupling_study(
        trials, num_nodes_grid, key_ring_size, pool_size, q, seed
    )
    study_result = study.run(workers=workers)
    points: List[CurvePoint] = []
    for n in num_nodes_grid:
        scenario_result = study_result[f"coupling_n{n}"]
        success_vals = scenario_result.series("success")
        subset_vals = scenario_result.series("subset_ok")
        successes = int(success_vals.sum())
        violations = int(((success_vals == 1.0) & (subset_vals == 0.0)).sum())
        x = binomial_key_probability(n, key_ring_size, pool_size)
        y = coupled_er_probability(x, pool_size, q)
        s = overlap_survival(key_ring_size, pool_size, q)
        points.append(
            CurvePoint(
                point={
                    "n": n,
                    "x": x,
                    "y_over_s": y / s,
                    "subset_violations": violations,
                },
                estimate=BernoulliEstimate.from_counts(successes, trials),
                prediction=coupling_success_probability(n, key_ring_size, pool_size),
            )
        )
    return ExperimentResult(
        name="coupling_check",
        config={
            "trials": trials,
            "num_nodes_grid": list(num_nodes_grid),
            "key_ring_size": key_ring_size,
            "pool_size": pool_size,
            "q": q,
            "seed": seed,
        },
        points=points,
    )


def render_coupling_check(result: ExperimentResult) -> str:
    rows = []
    for pt in result.points:
        rows.append(
            [
                int(pt.point["n"]),
                pt.point["x"],
                pt.estimate.estimate,
                pt.prediction,
                pt.point["y_over_s"],
                int(pt.point["subset_violations"]),
            ]
        )
    return format_table(
        [
            "n",
            "x (Eq. 66)",
            "coupling success (emp)",
            "analytic",
            "y/s ratio",
            "subset violations",
        ],
        rows,
        title=(
            "Lemmas 5-6: binomial-ring coupling "
            f"(K={result.config['key_ring_size']}, P={result.config['pool_size']}, "
            f"q={result.config['q']}, trials={result.config['trials']})"
        ),
    )
