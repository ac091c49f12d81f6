"""In-memory span tracer and the layer map of the traced run.

A span records a name, a start, an end and its parent span.  Spans
come from wrappers the benchmark installs around the public functions
of each layer; nothing under ``src/`` is changed.

Wrap a name where its caller looks it up.  ``repro.study.compiler``
imports ``sample_deployment`` and ``evaluate_scenario`` by value, so
patching ``repro.study.metrics.sample_deployment`` would record
nothing: the compiler still holds the original.  Methods are patched
on the class their callers dispatch through (backend kernels on the
active backend's class, since ``get_backend()`` returns an instance).
:meth:`Tracer.restore` puts back every attribute exactly as it found
it, deleting the ones that were only inherited before the patch.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["COUNTER_SPAN", "LAYERS", "Tracer", "install_layers"]

#: Pseudo-layer holding the time spent computing layer counters, so
#: that instrumentation cost is neither hidden in a real layer nor lost.
COUNTER_SPAN = "trace.counters"

Add = Callable[[str, float], None]
Counter = Callable[[Add, tuple, dict, object], None]


class Tracer:
    """Record nested spans and counters; patch and restore callables."""

    def __init__(self) -> None:
        # (name, start, end, depth); depth 0 is a top-level span.
        self.spans: List[Tuple[str, float, float, int]] = []
        self.counters: Dict[str, float] = {}
        self._stack: List[Tuple[str, float]] = []
        self._patches: List[Tuple[object, str, bool, object]] = []

    # -- recording -----------------------------------------------------

    def _open(self, name: str) -> None:
        self._stack.append((name, time.perf_counter()))

    def _close(self) -> None:
        end = time.perf_counter()
        name, start = self._stack.pop()
        self.spans.append((name, start, end, len(self._stack)))

    def add(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def wrap(self, fn: Callable, layer: str, counter: Optional[Counter] = None) -> Callable:
        """*fn* inside a span named *layer*, with an optional counter."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._open(layer)
            try:
                out = fn(*args, **kwargs)
                if counter is not None:
                    tracer._open(COUNTER_SPAN)
                    try:
                        counter(tracer.add, args, kwargs, out)
                    finally:
                        tracer._close()
                return out
            finally:
                tracer._close()

        return traced

    # -- patching ------------------------------------------------------

    def patch(
        self, owner: object, attr: str, layer: str, counter: Optional[Counter] = None
    ) -> None:
        """Replace ``owner.attr`` with a traced wrapper (undo with restore)."""
        own = vars(owner)
        had_own = attr in own
        self._patches.append((owner, attr, had_own, own.get(attr)))
        setattr(owner, attr, self.wrap(getattr(owner, attr), layer, counter))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, had_own, raw = self._patches.pop()
            if had_own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    # -- aggregation ---------------------------------------------------

    def layer_table(self) -> Dict[str, Dict[str, float]]:
        """Per-layer ``self_s`` and ``calls`` from the recorded spans.

        Spans are recorded as they close, innermost first, so the
        children of a span at depth ``d`` are the depth ``d + 1`` spans
        recorded since the previous span at depth ``d`` or shallower.
        Self time is the duration minus the children's durations.  A
        span counts as a call unless its parent has the same name (the
        backend kernel inside ``overlap_counts_from_rings`` is one
        overlap call, not two).
        """
        table: Dict[str, Dict[str, float]] = {}
        child_time: Dict[int, float] = {}
        child_names: Dict[int, List[str]] = {}
        for name, start, end, depth in self.spans:
            duration = end - start
            row = table.setdefault(name, {"self_s": 0.0, "calls": 0.0})
            row["self_s"] += duration - child_time.pop(depth + 1, 0.0)
            for child in child_names.pop(depth + 1, []):
                if child != name:
                    table[child]["calls"] += 1
            child_time[depth] = child_time.get(depth, 0.0) + duration
            child_names.setdefault(depth, []).append(name)
        for child in child_names.pop(0, []):
            table[child]["calls"] += 1
        return table


def _resolve(path: str) -> object:
    """``"pkg.mod"`` or ``"pkg.mod:Class"`` → the module or class."""
    module_name, _, cls = path.partition(":")
    obj: object = importlib.import_module(module_name)
    return getattr(obj, cls) if cls else obj


# -- counters ----------------------------------------------------------


def _overlap_counter(add: Add, args: tuple, kwargs: dict, out) -> None:
    pair_keys, counts = out
    # Each (pair, shared key) incidence is one pair event of the
    # inverted index, so the events are the sum of the shared counts.
    add("kernels.overlap.pair_events", float(counts.sum()))
    add("kernels.overlap.pairs_out", float(pair_keys.size))


def _certificate_counter(add: Add, args: tuple, kwargs: dict, out) -> None:
    add("kernels.certificate.edges_in", float(args[2].shape[0]))
    add("kernels.certificate.edges_out", float(out.shape[0]))


def _cells_counter(add: Add, args: tuple, kwargs: dict, out) -> None:
    add("study.deduction.cells", float(out.size))


def _units_counter(add: Add, args: tuple, kwargs: dict, out) -> None:
    add("simulation.dispatch.units", float(len(args[1])))


def _entry_bytes(cache, scenario) -> float:
    try:
        return float(cache.path_for(scenario.content_hash()).stat().st_size)
    except OSError:
        return 0.0


def _lookup_counter(add: Add, args: tuple, kwargs: dict, out) -> None:
    if out is not None:
        add("service.cache.bytes_read", _entry_bytes(args[0], args[1]))


def _store_counter(add: Add, args: tuple, kwargs: dict, out) -> None:
    if out:
        add("service.cache.bytes_written", _entry_bytes(args[0], args[1].scenario))


def _adaptive_counter(add: Add, args: tuple, kwargs: dict, out) -> None:
    info = out.provenance["adaptive"]
    add("study.adaptive.rounds", float(len(info["rounds"])))
    add("study.adaptive.trials_spent", float(info["trials_spent"]))


#: ``(layer, owner, attribute, counter)``.  *owner* is where the caller
#: looks the name up: ``"module"``, ``"module:Class"``, or ``BACKEND``
#: for the class of the active kernel backend.
BACKEND = "<backend>"
_EVALUATOR = "repro.study.metrics:DeploymentEvaluator"
LAYERS: Sequence[Tuple[str, str, str, Optional[Counter]]] = (
    ("keygraphs.rings", "repro.study.metrics", "sample_uniform_rings", None),
    ("keygraphs.rings", "repro.study.metrics", "sample_class_labels", None),
    ("keygraphs.rings", "repro.study.metrics", "sample_class_rings", None),
    ("kernels.overlap", "repro.study.metrics", "overlap_counts_from_rings", _overlap_counter),
    ("kernels.overlap", BACKEND, "overlap_counts", None),
    ("study.sample", "repro.study.compiler", "sample_deployment", None),
    ("study.mask", _EVALUATOR, "curve_mask", None),
    ("study.mask", _EVALUATOR, "selected_keys", None),
    ("study.degrees", _EVALUATOR, "degrees", None),
    # The metric dispatch between deduction and the decision kernels.
    ("study.evaluate", _EVALUATOR, "evaluate", None),
    ("study.deduction", "repro.study.compiler", "evaluate_scenario", _cells_counter),
    ("graphs.unionfind", "repro.study.metrics", "is_connected_pair_keys", None),
    ("graphs.unionfind", "repro.study.metrics", "connected_components_labels", None),
    ("graphs.unionfind", BACKEND, "min_label_components", None),
    ("kernels.kconn", BACKEND, "k_connected", None),
    ("kernels.certificate", BACKEND, "sparse_certificate", _certificate_counter),
    ("simulation.dispatch", "repro.study.compiler", "run_batches", _units_counter),
    ("simulation.dispatch", "repro.study.compiler", "run_units", _units_counter),
    ("simulation.dispatch", "repro.simulation.engine", "submit_batches", None),
    ("study.compile", "repro.study.compiler:Study", "compile", None),
    ("study.run", "repro.study.compiler:Study", "run", None),
    ("study.run", "repro.study.compiler:Study", "run_extension", None),
    # The work unit of a study run: per-deployment seeding and output
    # assembly, called from inside the dispatch layer.
    ("study.run.unit", "repro.study.compiler", "_group_block", None),
    ("study.result.merge", "repro.study.result:ScenarioResult", "merge", None),
    ("study.result.truncate", "repro.study.result:ScenarioResult", "truncated", None),
    ("service.shards", "repro.service.cache", "run_sharded", None),
    ("service.shards", "repro.service.shards", "execute_shard", None),
    ("service.shards.fold", "repro.service.shards", "fold_shard_results", None),
    ("service.cache", "repro.service.cache", "run_cached", None),
    ("service.cache.lookup", "repro.service.cache:ResultCache", "lookup", _lookup_counter),
    ("service.cache.store", "repro.service.cache:ResultCache", "store", _store_counter),
    ("study.adaptive", "repro.study.adaptive", "run_adaptive_study", _adaptive_counter),
)


def install_layers(tracer: Tracer) -> None:
    """Patch every entry of :data:`LAYERS` into *tracer*."""
    from repro.kernels import get_backend

    backend_cls = type(get_backend())
    for layer, owner, attr, counter in LAYERS:
        target = backend_cls if owner == BACKEND else _resolve(owner)
        tracer.patch(target, attr, layer, counter)
