"""Shared helpers for the benchmark harness.

Every ``benchmarks/test_bench_*.py`` regenerates one of the paper's
tables/figures (or an ablation) under ``pytest benchmarks/
--benchmark-only``.  Trial counts default to quick values; set
``REPRO_TRIALS=<n>`` or ``REPRO_FULL=1`` for paper-fidelity runs.

The rendered tables are printed inside BEGIN/END banners so the
``bench_output.txt`` artifact doubles as the regenerated evaluation
section.
"""

from __future__ import annotations

import sys


def emit(title: str, body: str) -> None:
    """Print a rendered experiment block with banners (visible via -s
    or in captured output summaries)."""
    banner = "=" * 72
    sys.stdout.write(f"\n{banner}\nBEGIN {title}\n{banner}\n{body}\n{banner}\nEND {title}\n{banner}\n")
    sys.stdout.flush()


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(
        fn, args=args, kwargs=kwargs, rounds=1, iterations=1, warmup_rounds=0
    )


def kconn_fixture(dense: bool = False):
    """The shared k-connectivity bench fixture: ``(num_nodes, edges)``.

    One key-ring deployment at the mindegree bench scale (n = 300,
    K = 80, P = 10000, q = 2).  ``dense=False`` thins the channel near
    the k = 3 threshold (the graph the mindegree grid actually
    decides); ``dense=True`` keeps the channel fully on (~7x the
    certificate bound — the regime the Nagamochi–Ibaraki pass exists
    for).  Used by ``test_bench_kernels.py``.
    """
    import numpy as np

    from repro.core.scaling import channel_prob_for_alpha
    from repro.keygraphs.uniform_graph import uniform_intersection_edges

    n, ring, pool, q = 300, 80, 10000, 2
    edges = uniform_intersection_edges(n, ring, pool, q, seed=9)
    if not dense:
        p = channel_prob_for_alpha(n, ring, pool, q, 1.5, 3)
        edges = edges[np.random.default_rng(5).random(edges.shape[0]) < p]
    return n, edges
