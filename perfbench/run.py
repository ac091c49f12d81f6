"""Study benchmark: end-to-end metrics, or a layer-traced run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload figure1 --seed 0 --seconds 25 --trace 0

Workloads: ``figure1``, ``kconn``, ``service``, ``adaptive`` (see
``perfbench/README.md``).  ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` is the separate traced run
that reports per-layer metrics.  Informational JSON lines come first;
the last line of standard output is the result object.  Exits with a
non-zero code, printing no result, if the program's source is missing.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench_work"

#: Set-up samples per run, each in a fresh interpreter.
SETUP_PROBES = 3
#: Percentiles reported for request latencies, highest first.
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 50.0)

END_TO_END = {
    "setup_s": "s",
    "answer_s": "s",
    "deployments_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _import_program() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: program source not found under {src}")
    for path in (str(src), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    from spans import COUNTER_SPAN, LAYERS

    units: Dict[str, str] = {}
    for layer in dict.fromkeys([name for name, *_ in LAYERS] + [COUNTER_SPAN]):
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
    for name in (
        "kernels.overlap.pair_events",
        "kernels.overlap.pairs_out",
        "kernels.certificate.edges_in",
        "kernels.certificate.edges_out",
        "study.deduction.cells",
        "study.deduction.decided",
        "simulation.dispatch.units",
        "study.adaptive.rounds",
        "study.adaptive.trials_spent",
    ):
        units[name] = "count"
    units["study.deduction.hit_ratio"] = "fraction"
    units["service.cache.bytes_read"] = "B"
    units["service.cache.bytes_written"] = "B"
    units["trace.wall_s"] = "s"
    units["trace.residual_s"] = "s"
    units["trace.overhead_frac"] = "fraction"
    return units


# -- set-up ------------------------------------------------------------


def setup(name: str, seed: int, tiny: bool, work_dir: pathlib.Path):
    """Imports, study build and compile, and the worker pool."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, tiny, work_dir)
    pool = None
    if workload.workers > 1:
        from repro.simulation import pool as pool_mod

        pool = pool_mod.get_executor(workload.workers)
        for future in [pool.submit(os.getpid) for _ in range(workload.workers)]:
            future.result()
    return workload, pool


def stop_pool(pool) -> None:
    if pool is not None:
        from repro.simulation import pool as pool_mod

        pool.shutdown(wait=True)
        pool_mod.discard_executor()


def setup_probe(name: str, seed: int, tiny: bool) -> float:
    start = time.perf_counter()
    _import_program()
    _, pool = setup(name, seed, tiny, WORK_DIR)
    elapsed = time.perf_counter() - start
    stop_pool(pool)
    return elapsed


def setup_seconds(name: str, seed: int, tiny: bool) -> List[float]:
    """Set-up time of *SETUP_PROBES* fresh interpreters."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", name]
    cmd += ["--seed", str(seed)] + (["--tiny"] if tiny else [])
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


# -- environment -------------------------------------------------------


def calibration() -> Dict[str, float]:
    """A fixed micro-bench, so figures from different hosts compare.

    Median of five: a numpy sort of 10^6 doubles and a pure-Python
    loop of 2*10^5 multiply-adds.
    """
    import numpy as np

    data = np.random.default_rng(12345).random(1_000_000)

    def best(fn) -> float:
        times = []
        for _ in range(5):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    return {
        "numpy_sort_s": best(lambda: np.sort(data)),
        "python_loop_s": best(lambda: sum(i * i for i in range(200_000))),
    }


def env_stamp() -> Dict[str, object]:
    import numpy as np
    from repro.kernels import resolve_backend_name

    try:
        numba: Optional[str] = importlib.metadata.version("numba")
    except importlib.metadata.PackageNotFoundError:
        numba = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "kernel_backend": resolve_backend_name(),
        "numba": numba,
        "calibration": calibration(),
    }


# -- measurement -------------------------------------------------------


class Ledger:
    """Failure accounting: every request and every checked deployment."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.expected = workload.expected()
        self.attempted = 0
        self.failed = 0
        self.reasons: Dict[str, int] = {}
        self.first: Dict[str, object] = {}

    def fail(self, reasons: List[str]) -> None:
        """One failed operation, whatever the number of *reasons*."""
        self.failed += 1
        for reason in reasons:
            self.reasons[reason] = self.reasons.get(reason, 0) + 1

    def record(self, requests) -> None:
        """Check one session's answers against the first or the reference."""
        from workloads import digest

        for kind, _, result in requests:
            self.attempted += 1
            value = digest(result)
            self.first.setdefault(kind, result)
            reasons = self.workload.problems(kind, result)
            if value != self.expected.setdefault(kind, value):
                reasons.append(f"{kind}_not_bit_identical")
            if reasons:
                self.fail(reasons)

    def check_deployments(self, seed: int) -> None:
        from workloads import check_deployments

        workload = self.workload
        result = self.first[workload.check_kind]
        for ok in check_deployments(workload.checked_study(), result, seed, workload.checks):
            self.attempted += 1
            if not ok:
                self.fail(["independent_check_mismatch"])


def _deadline_loop(seconds: float, body) -> None:
    """Run *body* (which returns its wall time) until the next round
    would overrun *seconds*; it always runs at least once."""
    start = time.perf_counter()
    walls: List[float] = []
    while True:
        walls.append(body())
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return


def _warm_up(workload, workers: int) -> None:
    """One session of the tiny variant: lazy imports and first calls."""
    type(workload)(0, True, workload.work_dir).session(workers)


def _percentile(samples: List[float]) -> Tuple[float, float]:
    """Highest listed percentile with at least ten samples beyond it."""
    import numpy as np

    for pct in PERCENTILES:
        if len(samples) * (1 - pct / 100) >= 10 or pct == 50.0:
            return pct, float(np.percentile(samples, pct))
    raise AssertionError("unreachable")


def measure(
    name: str, seed: int, seconds: float, tiny: bool, work_dir: pathlib.Path
) -> Tuple[dict, dict]:
    workload, pool = setup(name, seed, tiny, work_dir)
    workers = workload.workers
    try:
        ledger = Ledger(workload)
        _warm_up(workload, workers)
        sessions: List[List[Tuple[str, float, int]]] = []

        def one_session() -> float:
            requests = workload.session(workers)
            ledger.record(requests)
            sessions.append(
                [(k, s, int(r.provenance.get("deployments", 0))) for k, s, r in requests]
            )
            return sum(s for _, s, _ in sessions[-1])

        _deadline_loop(seconds, one_session)
    finally:
        stop_pool(pool)
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    ledger.check_deployments(seed)

    answer = [sum(s for _, s, _ in reqs) for reqs in sessions]
    rates = [
        sum(d for _, _, d in reqs) / sum(s for _, s, d in reqs if d > 0) for reqs in sessions
    ]
    setups = setup_seconds(name, seed, tiny)
    values = {
        "setup_s": statistics.median(setups),
        "answer_s": statistics.median(answer),
        "deployments_per_s": statistics.median(rates),
        "peak_rss_mb": max(self_kb, child_kb) / 1024.0,
    }
    by_kind: Dict[str, List[float]] = {}
    for reqs in sessions:
        for kind, s, _ in reqs:
            by_kind.setdefault(kind, []).append(s)
    latencies = {}
    for kind, samples in by_kind.items():
        pct, high = _percentile(samples)
        latencies[kind] = {
            "samples": len(samples),
            "median_s": statistics.median(samples),
            f"p{pct:g}_s": high,
        }
    info = {
        "sessions": len(sessions),
        "setup_samples_s": setups,
        "requests": latencies,
        "failed_frac": ledger.failed / ledger.attempted,
        "failures": ledger.reasons,
    }
    return _result(ledger, values, END_TO_END), info


def measure_traced(
    name: str, seed: int, seconds: float, tiny: bool, work_dir: pathlib.Path
) -> Tuple[dict, dict]:
    """Alternate untraced and traced sessions, single process.

    Pool workers do not carry the parent's spans, so every workload
    runs with one worker here.  Tracing must change no value: each
    traced answer is held to the untraced digest of its kind.
    """
    from spans import Tracer, install_layers

    workload, pool = setup(name, seed, tiny, work_dir)
    stop_pool(pool)  # the traced run uses one worker
    ledger = Ledger(workload)
    _warm_up(workload, 1)
    tracer = Tracer()
    plain: List[float] = []
    traced: List[float] = []

    def one_pair() -> float:
        requests = workload.session(1)
        ledger.record(requests)
        plain.append(sum(s for _, s, _ in requests))
        install_layers(tracer)
        try:
            requests = workload.session(1)
        finally:
            tracer.restore()
        ledger.record(requests)
        traced.append(sum(s for _, s, _ in requests))
        return plain[-1] + traced[-1]

    _deadline_loop(seconds, one_pair)
    ledger.check_deployments(seed)

    sessions = len(traced)
    table = tracer.layer_table()
    counters = dict(tracer.counters)
    units = per_layer_units()
    values: Dict[str, float] = {key: 0.0 for key in units}
    for layer, row in table.items():
        values[f"{layer}.self_s"] = row["self_s"] / sessions
        values[f"{layer}.calls"] = row["calls"] / sessions
    for key, amount in counters.items():
        values[key] = amount / sessions
    cells = counters.get("study.deduction.cells", 0.0)
    decided = cells - table.get("study.evaluate", {}).get("calls", 0.0)
    values["study.deduction.decided"] = decided / sessions
    values["study.deduction.hit_ratio"] = decided / cells if cells else 0.0
    wall = sum(traced) / sessions
    covered = sum(row["self_s"] for row in table.values()) / sessions
    values["trace.wall_s"] = wall
    values["trace.residual_s"] = wall - covered
    values["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0

    shares = sorted(
        ((layer, row["self_s"] / sessions) for layer, row in table.items()),
        key=lambda item: -item[1],
    )
    info = {
        "traced_sessions": sessions,
        "untraced_median_s": statistics.median(plain),
        "traced_median_s": statistics.median(traced),
        "layers": [
            {"layer": layer, "self_s": self_s, "share": self_s / wall}
            for layer, self_s in shares
        ],
        "residual_share": values["trace.residual_s"] / wall,
        "failed_frac": ledger.failed / ledger.attempted,
        "failures": ledger.reasons,
    }
    return _result(ledger, values, units), info


def _result(ledger: Ledger, values: Dict[str, float], units: Dict[str, str]) -> dict:
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="tiny problem sizes (the harness's own tests)"
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if args.setup_probe:
        print(setup_probe(args.workload, args.seed, args.tiny))
        return 0

    _import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    WORK_DIR.mkdir(exist_ok=True)
    run_dir = pathlib.Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
    try:
        print(json.dumps({"info": "env", **env_stamp()}), flush=True)
        measure_fn = measure_traced if args.trace else measure
        result, info = measure_fn(args.workload, args.seed, args.seconds, args.tiny, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"info": "run", "workload": args.workload, **info}), flush=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
