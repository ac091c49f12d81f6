"""The benchmark's four workloads and its independent output check.

Each workload maps the benchmark seed onto its scenario seeds
(``published seed + seed``, so seed 0 reproduces the experiment's
published numbers) and exposes one *session*: the requests a user
makes, in order, each answered by a :class:`StudyResult`.  Why each
workload exists is documented in ``perfbench/README.md``.

The check in :func:`oracle_cells` recomputes sampled deployments
through a path that shares only the sampler with the engine: dense
Gram-matrix overlap counting, ``Graph`` objects, BFS connectivity and
the plain (certificate-free) vertex-connectivity decision.
"""

from __future__ import annotations

import hashlib
import pathlib
import shutil
import tempfile
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.experiments.figure1 import build_figure1_study
from repro.experiments.het_zero_one import build_het_zero_one_study
from repro.experiments.mindegree_equiv import build_mindegree_study
from repro.experiments.zero_one import build_zero_one_study
from repro.graphs.graph import Graph
from repro.graphs.vertex_connectivity import is_k_connected
from repro.keygraphs.uniform_graph import edges_from_rings
from repro.service import cache as service_cache
from repro.service.shards import InProcessTransport
from repro.study import adaptive
from repro.study.compiler import GroupPlan, Study
from repro.study.metrics import sample_deployment
from repro.study.result import StudyResult
from repro.utils.rng import grid_seed_sequence

__all__ = ["WORKLOADS", "Request", "Workload", "digest", "oracle_cells"]

#: ``(kind, seconds, result)`` of one timed request.
Request = Tuple[str, float, StudyResult]


def digest(result: StudyResult) -> str:
    """sha256 over every scenario's value tensor, in study order."""
    h = hashlib.sha256()
    for res in result.results:
        h.update(np.ascontiguousarray(res.values).tobytes())
    return h.hexdigest()


def _timed(kind: str, fn: Callable[[], StudyResult]) -> Request:
    start = time.perf_counter()
    result = fn()
    return kind, time.perf_counter() - start, result


class Workload:
    """One named workload: set-up in ``__init__``, requests in ``session``."""

    name = ""
    published_seed = 0
    #: Worker processes of the untraced run (the traced run uses 1).
    workers = 1
    #: Deployments re-derived by the independent check per run.
    checks = 2
    #: Request kind whose first answer the independent check samples.
    check_kind = "study"

    def __init__(self, seed: int, tiny: bool, work_dir: pathlib.Path) -> None:
        self.scenario_seed = self.published_seed + seed
        self.work_dir = work_dir
        self.study: Study

    def session(self, workers: int) -> List[Request]:
        """One plain study run; workloads with other requests override."""
        return [_timed("study", lambda: self.study.run(workers=workers))]

    def expected(self) -> Dict[str, str]:
        """Reference digest per request kind, computed outside timing.

        Kinds not listed are held to the first session's digest.
        """
        return {}

    def checked_study(self) -> Study:
        """The study whose deployments the ``check_kind`` answer holds."""
        return self.study

    def problems(self, kind: str, result: StudyResult) -> List[str]:
        """Why one answer is wrong, beyond its digest; empty if fine."""
        if any(np.isnan(res.values).any() for res in result.results):
            return ["nan_cell"]
        return []


class Figure1(Workload):
    name = "figure1"
    published_seed = 20170605

    def __init__(self, seed: int, tiny: bool, work_dir: pathlib.Path) -> None:
        super().__init__(seed, tiny, work_dir)
        size = (
            dict(trials=1, ring_sizes=(36, 60), num_nodes=200, pool_size=2000)
            if tiny
            else dict(trials=2)
        )
        self.study = build_figure1_study(seed=self.scenario_seed, **size)
        self.study.compile()


class KConn(Workload):
    name = "kconn"
    published_seed = 20170608
    ALPHAS = tuple(-2.0 + 0.5 * i for i in range(11))

    def __init__(self, seed: int, tiny: bool, work_dir: pathlib.Path) -> None:
        super().__init__(seed, tiny, work_dir)
        size = (
            dict(trials=2, num_nodes=60, key_ring_size=40, pool_size=1000)
            if tiny
            else dict(trials=80, num_nodes=300, key_ring_size=80, pool_size=10000)
        )
        self.study = build_mindegree_study(
            ks=(1, 2, 3), alphas=self.ALPHAS, q=2, seed=self.scenario_seed, **size
        )
        self.study.compile()


class Service(Workload):
    name = "service"
    published_seed = 20190826
    workers = 2
    check_kind = "extension"
    SHARDS = 2

    def __init__(self, seed: int, tiny: bool, work_dir: pathlib.Path) -> None:
        super().__init__(seed, tiny, work_dir)
        trials = 2 if tiny else 16
        size = dict(num_nodes_grid=(200,)) if tiny else {}
        self.hits = 5 if tiny else 200
        self.study = build_het_zero_one_study(
            trials=trials, seed=self.scenario_seed, **size
        )
        self.doubled = build_het_zero_one_study(
            trials=2 * trials, seed=self.scenario_seed, **size
        )
        self.study.compile()
        self.doubled.compile()

    def session(self, workers: int) -> List[Request]:
        root = tempfile.mkdtemp(prefix="cache-", dir=self.work_dir)
        try:
            cache = service_cache.ResultCache(root)
            transport = InProcessTransport(workers=workers)

            def ask(study: Study) -> Callable[[], StudyResult]:
                return lambda: service_cache.run_cached(
                    study, cache, workers=workers, transport=transport, shards=self.SHARDS
                )

            out = [_timed("cold", ask(self.study))]
            out.extend(_timed("hit", ask(self.study)) for _ in range(self.hits))
            out.append(_timed("extension", ask(self.doubled)))
            return out
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def expected(self) -> Dict[str, str]:
        # A cold miss, a hit and an extension must each equal a plain
        # one-shot run at the same trial count, bit for bit.
        base = digest(self.study.run(workers=1))
        return {
            "cold": base,
            "hit": base,
            "extension": digest(self.doubled.run(workers=1)),
        }

    def checked_study(self) -> Study:
        return self.doubled

    def problems(self, kind: str, result: StudyResult) -> List[str]:
        want = {"cold": "miss", "hit": "hit", "extension": "extension"}[kind]
        found = result.provenance["cache"]["disposition"]  # type: ignore[index]
        wrong = [] if found == want else [f"{kind}_disposition_{found}"]
        return super().problems(kind, result) + wrong


class Adaptive(Workload):
    name = "adaptive"
    published_seed = 20170607
    check_kind = "adaptive"

    def __init__(self, seed: int, tiny: bool, work_dir: pathlib.Path) -> None:
        super().__init__(seed, tiny, work_dir)
        size = (
            dict(trials=20, num_nodes_grid=(150,), ci_target=0.2)
            if tiny
            else dict(trials=100, num_nodes_grid=(150, 300), ci_target=0.02)
        )
        self.study = build_zero_one_study(
            trials=size["trials"],
            num_nodes_grid=size["num_nodes_grid"],
            alpha_offsets=(-4.0, -3.0, -1.5, 1.5, 3.0, 4.0),
            pool_size=3000,
            seed=self.scenario_seed,
        )
        # The zero_one experiment's adaptive settings: the transition
        # band is held to the CI target, the saturated tails to 0.05.
        self.policy = adaptive.AdaptivePolicy(
            ci_target=size["ci_target"],
            max_trials=4000,
            indicator_band=(0.1, 0.9),
            tail_ci_target=max(0.05, size["ci_target"]),
        )
        self.study.compile()

    def session(self, workers: int) -> List[Request]:
        return [
            _timed(
                "adaptive",
                lambda: adaptive.run_adaptive_study(self.study, self.policy, workers=workers),
            )
        ]

    def problems(self, kind: str, result: StudyResult) -> List[str]:
        # Converged cells hold NaN beyond their stopping point by
        # design; every cell must instead have met its CI target.
        return [] if self.ci_met(result) else ["ci_target_missed"]

    def ci_met(self, result: StudyResult) -> bool:
        """Every cell stopped at its CI target or at the trial cap.

        The Wilson half-width is recomputed here from the cell's
        series, independently of the adaptive loop's own rule.
        """
        policy = self.policy
        z = policy.z
        for res in result.results:
            values = res.values
            if not res.scenario.sized:
                values = values[None]
            cells = np.moveaxis(values, 2, -1).reshape(-1, values.shape[2])
            for series in cells:
                series = series[~np.isnan(series)]
                n = series.size
                if n == 0:
                    return False
                if n >= policy.max_trials:
                    continue
                phat = float(series.mean())
                half = (z / (1 + z * z / n)) * np.sqrt(
                    phat * (1 - phat) / n + z * z / (4 * n * n)
                )
                low, high = policy.indicator_band  # type: ignore[misc]
                target = policy.ci_target
                if phat <= low or phat >= high:
                    target = max(target, policy.tail_ci_target or target)
                if half > target + 1e-12:
                    return False
        return True


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (Figure1, KConn, Service, Adaptive)
}


# -- independent check -------------------------------------------------


def oracle_cells(plan: GroupPlan, si: int, ri: int, trial: int) -> Optional[Dict[str, np.ndarray]]:
    """Recompute every member scenario's cells of one deployment.

    Re-samples the deployment with :func:`sample_deployment` at the
    engine's ``grid_seed_sequence`` address, then decides each cell on
    a separate path.  Returns ``{scenario name: (curves, metrics)}``,
    or ``None`` when the dense overlap disagrees with the sampled
    candidate set or its shared-key counts.
    """
    key = (si, ri, trial) if plan.sized else (ri, trial)
    rng = np.random.default_rng(grid_seed_sequence(plan.seed, *key))
    n = plan.sizes[si]
    dep = sample_deployment(
        n,
        plan.pool_sizes[si],
        plan.ring_grid[si][ri],
        plan.q_mins[si],
        rng,
        needs_onoff=plan.needs_onoff,
        needs_disk=plan.needs_disk,
        needs_capture=plan.needs_capture,
        class_mix=plan.class_mix,
    )
    edges_by_q: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
    out: Dict[str, np.ndarray] = {}
    for scenario in plan.scenarios:
        if scenario.channel != "onoff":
            raise ValueError(f"the check covers on/off channels, not {scenario.channel!r}")
        curves = scenario.curves_at(si)
        values = np.empty((len(curves), len(scenario.metrics)))
        for ci, (q, p) in enumerate(curves):
            if q not in edges_by_q:
                # The dense q-overlap edges must be exactly the sampled
                # candidates with at least q shared keys.
                edges = edges_from_rings(dep.rings, q, backend="dense")
                keys = edges[:, 0] * n + edges[:, 1]
                if not np.array_equal(keys, dep.candidates[dep.counts >= q]):
                    return None
                edges_by_q[q] = (edges, np.searchsorted(dep.candidates, keys))
            edges, pos = edges_by_q[q]
            threshold = np.full(edges.shape[0], p)
            if plan.class_mix is not None:
                alpha = np.asarray(plan.class_mix.channel_probs, dtype=np.float64)
                threshold = p * alpha[dep.labels[edges[:, 0]], dep.labels[edges[:, 1]]]
            graph = Graph.from_edge_array(n, edges[dep.uniforms[pos] < threshold])
            for mi, metric in enumerate(scenario.metrics):
                if metric.kind == "connectivity":
                    decided = is_k_connected(graph, 1)
                elif metric.kind == "min_degree":
                    decided = int(graph.degrees().min()) >= metric.k
                elif metric.kind == "k_connectivity":
                    decided = is_k_connected(graph, metric.k, certificate=False)
                else:
                    raise ValueError(f"the check does not cover metric {metric.kind!r}")
                values[ci, mi] = float(decided)
        out[scenario.name] = values
    return out


def check_deployments(
    study: Study, result: StudyResult, seed: int, count: int
) -> List[bool]:
    """Compare *count* seeded deployments of *result* with the oracle.

    Cells the result left unevaluated (``NaN``, adaptive stopping) are
    skipped; every evaluated cell must match exactly.
    """
    plans = study.compile()
    rng = np.random.default_rng([seed, 0xC0FFEE])
    outcomes = []
    for _ in range(count):
        gi = int(rng.integers(len(plans)))
        plan = plans[gi]
        si = int(rng.integers(plan.num_sizes))
        ri = int(rng.integers(plan.num_rings))
        # The declared trials are the first (fully evaluated) round.
        trial = int(rng.integers(plan.trials))
        recomputed = oracle_cells(plan, si, ri, trial)
        if recomputed is None:
            outcomes.append(False)
            continue
        ok = True
        for scenario in plan.scenarios:
            got = result[scenario.name].values
            got = got[si, ri, trial] if scenario.sized else got[ri, trial]
            want = recomputed[scenario.name]
            seen = ~np.isnan(got)
            ok = ok and bool(np.array_equal(got[seen], want[seen]))
        outcomes.append(ok)
    return outcomes
