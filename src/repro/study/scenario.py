"""The :class:`Scenario` type: one experiment as a frozen config.

A scenario pins everything needed to reproduce an experiment: the
deployment family (``num_nodes``, ``pool_size``, the ``K`` grid,
``trials``, ``seed``), the channel model, the ``(q, p)`` curve grid,
and the metric set.  It validates eagerly at construction and
round-trips through JSON (``to_json`` / ``from_json``), so a scenario
file with no accompanying Python is a complete experiment definition.

Two scenario kinds exist:

* ``"sweep"`` (default) — runs on the shared-deployment compiler;
  every metric is derived from the same candidate-pair arrays.
* ``"protocol"`` — a named bespoke trial protocol (see
  :mod:`repro.study.protocols`) for workloads whose sampling cannot be
  expressed as a post-filter (e.g. the Lemma 5 coupled-ring pair).

Size axis
---------
Growth sweeps (the zero–one law, any asymptotics-in-``n`` check) are
declared with ``num_nodes_grid`` instead of ``num_nodes``: one scenario
then spans a whole grid of network sizes.  ``pool_size``,
``ring_sizes``, and ``curves`` may each be given once (shared by every
size) or per size (a list with one entry per grid point, e.g. the
alpha-offset ring sizes the zero-one law solves per ``n``).  Per-size
``ring_sizes``/``curves`` lists must all have the same length, so the
result tensor stays rectangular: ``values[s, r, t, c, m]``.  Each
``(size, K, trial)`` cell is sampled exactly once, with the
deterministic seed ``SeedSequence(seed, spawn_key=(size_index,
ring_index, trial))``; plain (un-sized) scenarios keep the established
``(ring_index, trial)`` addressing, so existing results are unchanged.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

from repro.exceptions import ParameterError
from repro.utils.validation import (
    check_key_parameters,
    check_nonnegative_int,
    check_positive_int,
    check_probability,
)

__all__ = ["CHANNEL_KINDS", "METRIC_KINDS", "ClassMix", "MetricSpec", "Scenario"]

Curve = Tuple[int, float]

#: Channel models a sweep scenario can realize per curve.
CHANNEL_KINDS = ("onoff", "disk")

#: Metric kinds and the extra parameter each one reads.
METRIC_KINDS: Dict[str, Optional[str]] = {
    "connectivity": None,
    "k_connectivity": "k",
    "min_degree": "k",
    "degree_count": "h",
    "giant_fraction": None,
    "attack_compromised": "captured",
    "attack_evaluated": "captured",
    "survivor_connectivity": "captured",
    "resilient_connectivity": "captured",
}

_CAPTURE_KINDS = (
    "attack_compromised",
    "attack_evaluated",
    "survivor_connectivity",
    "resilient_connectivity",
)

# Disk curves must keep the transmission radius at or below 1/2 so the
# torus marginal is exactly ``pi * r**2 = p``.
_DISK_MAX_PROB = math.pi / 4.0


@dataclasses.dataclass(frozen=True)
class MetricSpec:
    """One metric evaluated per deployment and curve.

    ``kind`` selects the statistic; ``k`` / ``h`` / ``captured``
    parameterize it (only the parameter named in :data:`METRIC_KINDS`
    is read; the others must stay at their defaults).
    """

    kind: str
    k: int = 1
    h: int = 0
    captured: int = 0

    def __post_init__(self) -> None:
        if self.kind not in METRIC_KINDS:
            known = ", ".join(sorted(METRIC_KINDS))
            raise ParameterError(
                f"unknown metric kind {self.kind!r}; known kinds: {known}"
            )
        check_positive_int(self.k, "k")
        check_nonnegative_int(self.h, "h")
        check_nonnegative_int(self.captured, "captured")
        read = METRIC_KINDS[self.kind]
        for param, default in (("k", 1), ("h", 0), ("captured", 0)):
            if param != read and getattr(self, param) != default:
                raise ParameterError(
                    f"metric kind {self.kind!r} does not read {param!r} "
                    f"(got {param}={getattr(self, param)}); it accepts "
                    + (f"only {read!r}" if read else "no parameters")
                )

    @property
    def label(self) -> str:
        """Stable human/JSON label, e.g. ``k_connectivity[k=2]``."""
        param = METRIC_KINDS[self.kind]
        if param is None:
            return self.kind
        return f"{self.kind}[{param}={getattr(self, param)}]"

    @property
    def is_indicator(self) -> bool:
        """Whether per-trial values are 0/1 (Bernoulli-estimable)."""
        return self.kind in (
            "connectivity",
            "k_connectivity",
            "min_degree",
            "survivor_connectivity",
            "resilient_connectivity",
        )

    @property
    def needs_capture(self) -> bool:
        return self.kind in _CAPTURE_KINDS

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"kind": self.kind}
        param = METRIC_KINDS[self.kind]
        if param is not None:
            out[param] = getattr(self, param)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "MetricSpec":
        if not isinstance(data, Mapping):
            raise ParameterError(
                f"metric must be a mapping with a 'kind' key, got {data!r}"
            )
        unknown = set(data) - {"kind", "k", "h", "captured"}
        if unknown:
            raise ParameterError(
                f"unknown metric fields {sorted(unknown)} in {dict(data)!r}"
            )
        if "kind" not in data:
            raise ParameterError(f"metric is missing 'kind': {dict(data)!r}")
        return cls(
            kind=str(data["kind"]),
            k=int(data.get("k", 1)),  # type: ignore[arg-type]
            h=int(data.get("h", 0)),  # type: ignore[arg-type]
            captured=int(data.get("captured", 0)),  # type: ignore[arg-type]
        )


@dataclasses.dataclass(frozen=True)
class ClassMix:
    """Heterogeneous key predistribution: node classes + channel matrix.

    The Eletreby–Yağan generalization (arXiv:1604.00460, 1908.09826)
    draws every node a class ``i`` with probability ``mu[i]`` and turns
    each candidate edge between a class-``i`` and a class-``j`` node on
    with probability ``channel_probs[i][j]``.  A scenario curve's ``p``
    acts as a scalar multiplier on the matrix (effective pair
    probability ``p * channel_probs[i][j]``), so the whole ``(q, p)``
    curve grid still rides one sampled world via nested thinning and
    the monotone lattice deduction stays exact.  Per-class ring sizes
    live in the scenario's ``ring_sizes`` entries (each entry becomes a
    per-class ``[K_1, ..., K_C]`` vector when a class mix is declared).
    """

    mu: Tuple[float, ...]
    channel_probs: Tuple[Tuple[float, ...], ...]

    def __post_init__(self) -> None:
        try:
            mu = tuple(float(m) for m in self.mu)
        except (TypeError, ValueError) as exc:
            raise ParameterError(
                f"class mix mu must be a sequence of probabilities, got {self.mu!r}"
            ) from exc
        if not mu:
            raise ParameterError("class mix needs at least one class in mu")
        for m in mu:
            check_probability(m, "mu entry", allow_zero=False)
        total = math.fsum(mu)
        if abs(total - 1.0) > 1e-9:
            raise ParameterError(
                f"class probabilities mu must sum to 1, got {total}"
            )
        object.__setattr__(self, "mu", mu)
        try:
            matrix = tuple(
                tuple(float(a) for a in row) for row in self.channel_probs
            )
        except (TypeError, ValueError) as exc:
            raise ParameterError(
                "channel_probs must be a square matrix of probabilities, "
                f"got {self.channel_probs!r}"
            ) from exc
        size = len(mu)
        if len(matrix) != size or any(len(row) != size for row in matrix):
            raise ParameterError(
                f"channel_probs must be a {size}x{size} matrix (one row per "
                f"class), got shape {[len(r) for r in matrix]}"
            )
        for i in range(size):
            for j in range(size):
                check_probability(
                    matrix[i][j], f"channel_probs[{i}][{j}]", allow_zero=False
                )
                if matrix[i][j] != matrix[j][i]:
                    raise ParameterError(
                        "channel_probs must be symmetric (an undirected "
                        f"channel): [{i}][{j}]={matrix[i][j]} != "
                        f"[{j}][{i}]={matrix[j][i]}"
                    )
        object.__setattr__(self, "channel_probs", matrix)

    @property
    def num_classes(self) -> int:
        return len(self.mu)

    def to_dict(self) -> Dict[str, object]:
        return {
            "mu": list(self.mu),
            "channel_probs": [list(row) for row in self.channel_probs],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ClassMix":
        if not isinstance(data, Mapping):
            raise ParameterError(
                f"classes must be a mapping with 'mu' and 'channel_probs', "
                f"got {data!r}"
            )
        unknown = set(data) - {"mu", "channel_probs"}
        if unknown:
            raise ParameterError(
                f"unknown class-mix fields {sorted(unknown)}; "
                "valid fields: ['channel_probs', 'mu']"
            )
        missing = {"mu", "channel_probs"} - set(data)
        if missing:
            raise ParameterError(
                f"class mix is missing required fields {sorted(missing)}"
            )
        mu = data["mu"]
        probs = data["channel_probs"]
        if not isinstance(mu, Sequence) or isinstance(mu, str):
            raise ParameterError(f"mu must be a list of probabilities, got {mu!r}")
        if not isinstance(probs, Sequence) or isinstance(probs, str):
            raise ParameterError(
                f"channel_probs must be a list of rows, got {probs!r}"
            )
        for row in probs:
            if not isinstance(row, Sequence) or isinstance(row, str):
                raise ParameterError(
                    f"channel_probs rows must be lists of probabilities, got {row!r}"
                )
        return cls(
            mu=tuple(mu),
            channel_probs=tuple(tuple(row) for row in probs),
        )


_SCENARIO_FIELDS = {
    "name",
    "num_nodes",
    "num_nodes_grid",
    "pool_size",
    "ring_sizes",
    "curves",
    "metrics",
    "trials",
    "seed",
    "channel",
    "kind",
    "protocol",
    "protocol_params",
    "classes",
}


def _is_nested(seq: Sequence) -> bool:
    """Whether *seq*'s first element is itself a sequence (per-size form)."""
    if not seq:
        return False
    head = seq[0]
    return isinstance(head, Sequence) and not isinstance(head, str)


def _deep_listify(value: object) -> object:
    """Tuples (at any depth) → lists, for JSON-normal-form serialization."""
    if isinstance(value, tuple):
        return [_deep_listify(v) for v in value]
    return value


@dataclasses.dataclass(frozen=True)
class Scenario:
    """A frozen, JSON-round-trippable experiment description.

    Attributes
    ----------
    name:
        Identifier used to look the scenario's result up in a
        :class:`~repro.study.result.StudyResult`.
    num_nodes, num_nodes_grid:
        ``n`` of the key-predistribution model.  Exactly one must be
        set for sweep scenarios: a single ``num_nodes`` pins one size;
        ``num_nodes_grid`` declares a whole growth sweep (one size axis
        entry per ``n``, distinct values).
    pool_size:
        ``P`` of the model — one int shared by every size, or (with a
        size grid) one int per size.
    ring_sizes:
        The ``K`` grid (one deployment family per ``K``) — one flat
        list shared by every size, or one equal-length list per size.
    curves:
        ``(q, p)`` post-filters evaluated on every deployment — shared,
        or one equal-length list per size (growth sweeps solve ``p``
        per ``n``).
    metrics:
        Metric set derived per deployment and curve.
    trials, seed:
        Monte Carlo repetitions and the deterministic root seed.
    channel:
        ``"onoff"`` (Bernoulli(p) per candidate edge, nested thinning)
        or ``"disk"`` (torus disk model; ``p`` is the matched marginal
        ``pi * r**2``, thresholds nested in ``r``).
    kind:
        ``"sweep"`` or ``"protocol"``.
    protocol, protocol_params:
        For ``kind="protocol"``: registered protocol name and its
        parameters (see :mod:`repro.study.protocols`).
    classes:
        Optional :class:`ClassMix` declaring the heterogeneous
        (Eletreby–Yağan) scenario family: per-class probabilities
        ``mu`` and the per-class-pair channel matrix.  With a class
        mix, every ``ring_sizes`` entry becomes a per-class ``[K_1,
        ..., K_C]`` vector (one more nesting level for sized
        scenarios), the channel must be ``"onoff"``, and each curve's
        ``p`` scales the whole matrix.  Capture/attack metrics are not
        supported on the ragged heterogeneous rings.
    """

    name: str
    num_nodes: Optional[int] = None
    pool_size: Union[int, Tuple[int, ...], None] = None
    trials: Optional[int] = None
    num_nodes_grid: Tuple[int, ...] = ()
    ring_sizes: Tuple = ()
    curves: Tuple = ()
    metrics: Tuple[MetricSpec, ...] = ()
    seed: int = 0
    channel: str = "onoff"
    kind: str = "sweep"
    protocol: Optional[str] = None
    protocol_params: Tuple[Tuple[str, object], ...] = ()
    classes: Optional[ClassMix] = None

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ParameterError(f"scenario name must be a non-empty string, got {self.name!r}")
        if self.trials is None:
            raise ParameterError("scenario is missing required field 'trials'")
        object.__setattr__(self, "trials", check_positive_int(self.trials, "trials"))
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ParameterError(f"seed must be an int, got {self.seed!r}")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
        if self.kind not in ("sweep", "protocol"):
            raise ParameterError(
                f"unknown scenario kind {self.kind!r}; use 'sweep' or 'protocol'"
            )
        if self.classes is not None and not isinstance(self.classes, ClassMix):
            if not isinstance(self.classes, Mapping):
                raise ParameterError(
                    f"classes must be a ClassMix or mapping, got {self.classes!r}"
                )
            object.__setattr__(self, "classes", ClassMix.from_dict(self.classes))
        if self.classes is not None and self.kind == "protocol":
            raise ParameterError(
                "heterogeneous classes apply to sweep scenarios; protocol "
                f"scenario {self.name!r} runs its own trial loop"
            )
        self._normalize_sizes()
        if isinstance(self.protocol_params, Mapping):
            object.__setattr__(
                self, "protocol_params", tuple(sorted(self.protocol_params.items()))
            )
        else:
            object.__setattr__(
                self,
                "protocol_params",
                tuple((str(k), v) for k, v in self.protocol_params),
            )
        if self.kind == "protocol":
            self._validate_protocol()
            return
        self._validate_sweep()

    # -- size axis normalization --------------------------------------

    def _normalize_sizes(self) -> None:
        grid = self.num_nodes_grid
        if grid is None:
            grid = ()
        if isinstance(grid, (int, str)) or not isinstance(grid, Sequence):
            raise ParameterError(
                f"num_nodes_grid must be a sequence of ints, got {grid!r}"
            )
        object.__setattr__(
            self,
            "num_nodes_grid",
            tuple(check_positive_int(n, "num_nodes_grid entry") for n in grid),
        )
        if len(set(self.num_nodes_grid)) != len(self.num_nodes_grid):
            raise ParameterError(
                f"num_nodes_grid sizes must be distinct, got {self.num_nodes_grid}"
            )
        if self.sized:
            if self.num_nodes is not None:
                raise ParameterError(
                    "set exactly one of num_nodes / num_nodes_grid "
                    f"(got num_nodes={self.num_nodes} and "
                    f"num_nodes_grid={self.num_nodes_grid})"
                )
        else:
            if self.num_nodes is None:
                raise ParameterError(
                    "scenario needs num_nodes (one size) or num_nodes_grid "
                    "(a growth sweep)"
                )
            object.__setattr__(
                self, "num_nodes", check_positive_int(self.num_nodes, "num_nodes")
            )
        # pool_size: one int shared by every size, or one per size.
        pool = self.pool_size
        if pool is None:
            raise ParameterError("scenario is missing required field 'pool_size'")
        if isinstance(pool, Sequence) and not isinstance(pool, str):
            if not self.sized:
                raise ParameterError(
                    "per-size pool_size lists require num_nodes_grid; "
                    f"got pool_size={list(pool)!r} without a size grid"
                )
            if len(pool) != self.num_sizes:
                raise ParameterError(
                    f"pool_size has {len(pool)} entries but num_nodes_grid "
                    f"has {self.num_sizes} sizes"
                )
            object.__setattr__(
                self,
                "pool_size",
                tuple(check_positive_int(p, "pool_size entry") for p in pool),
            )
        else:
            object.__setattr__(
                self, "pool_size", check_positive_int(pool, "pool_size")
            )

    # -- size accessors ------------------------------------------------

    @property
    def sized(self) -> bool:
        """Whether this scenario declares a size grid over ``n``."""
        return bool(self.num_nodes_grid)

    @property
    def sizes(self) -> Tuple[int, ...]:
        """The node-count axis (length 1 for plain scenarios)."""
        return self.num_nodes_grid if self.sized else (self.num_nodes,)

    @property
    def num_sizes(self) -> int:
        return len(self.sizes)

    def num_nodes_at(self, size_index: int) -> int:
        return self.sizes[size_index]

    def pool_size_at(self, size_index: int) -> int:
        if isinstance(self.pool_size, tuple):
            return self.pool_size[size_index]
        return self.pool_size

    def _rings_per_size(self) -> bool:
        """Whether ``ring_sizes`` is declared per size.

        With a class mix the innermost level is always the per-class
        ``[K_1, ..., K_C]`` vector, so the per-size form carries one
        extra nesting level (depth 3 instead of 2).
        """
        if self.classes is not None:
            return (
                _is_nested(self.ring_sizes)
                and bool(self.ring_sizes[0])
                and _is_nested(self.ring_sizes[0])
            )
        return _is_nested(self.ring_sizes)

    def ring_sizes_at(self, size_index: int) -> Tuple:
        """The ``K`` grid of one size (per-size or shared declaration).

        Entries are ints, or per-class int tuples when ``classes`` is
        declared.
        """
        if self._rings_per_size():
            return self.ring_sizes[size_index]
        return self.ring_sizes

    def curves_at(self, size_index: int) -> Tuple[Curve, ...]:
        """The ``(q, p)`` curves of one size."""
        if self.curves and _is_nested(self.curves[0]):
            return self.curves[size_index]
        return self.curves

    @property
    def num_rings(self) -> int:
        """Ring-axis length (uniform across sizes by validation)."""
        return len(self.ring_sizes_at(0)) if self.ring_sizes else 0

    @property
    def num_curves(self) -> int:
        """Curve-axis length (uniform across sizes by validation)."""
        return len(self.curves_at(0)) if self.curves else 0

    # -- validation ----------------------------------------------------

    def _validate_protocol(self) -> None:
        if self.sized:
            raise ParameterError(
                "protocol scenarios run one bespoke trial loop per size; "
                "num_nodes_grid is only supported for sweep scenarios"
            )
        if not self.protocol:
            raise ParameterError(
                "protocol scenarios need a 'protocol' name "
                "(see repro.study.protocols.list_protocols())"
            )
        if self.ring_sizes or self.curves or self.metrics:
            raise ParameterError(
                "protocol scenarios take parameters via 'protocol_params'; "
                "ring_sizes/curves/metrics must be empty"
            )
        from repro.study.protocols import get_protocol

        get_protocol(self.protocol)  # raises ExperimentError if unknown

    def _normalize_class_rings(self) -> None:
        """Normalize ring entries to per-class int vectors (class mix)."""
        assert self.classes is not None
        num_classes = self.classes.num_classes
        rings = self.ring_sizes

        def as_entry(entry) -> Tuple[int, ...]:
            if not isinstance(entry, Sequence) or isinstance(entry, str):
                raise ParameterError(
                    "with classes, every ring_sizes entry is a per-class "
                    f"[K_1, ..., K_{num_classes}] vector, got {entry!r}"
                )
            out = tuple(check_positive_int(k, "ring_sizes entry") for k in entry)
            if len(out) != num_classes:
                raise ParameterError(
                    f"per-class ring vector {list(entry)!r} has {len(out)} "
                    f"entries but the class mix declares {num_classes} classes"
                )
            return out

        if self._rings_per_size():
            if not self.sized:
                raise ParameterError(
                    "per-size ring_sizes lists require num_nodes_grid; "
                    f"got nested ring_sizes {rings!r} without a size grid"
                )
            if len(rings) != self.num_sizes:
                raise ParameterError(
                    f"ring_sizes has {len(rings)} per-size entries but "
                    f"num_nodes_grid has {self.num_sizes} sizes"
                )
            nested = tuple(
                tuple(as_entry(entry) for entry in per_size) for per_size in rings
            )
            lengths = {len(per_size) for per_size in nested}
            if len(lengths) != 1 or 0 in lengths:
                raise ParameterError(
                    "per-size ring_sizes entries must be non-empty and all "
                    f"the same length (rectangular K axis), got lengths "
                    f"{[len(p) for p in nested]}"
                )
            object.__setattr__(self, "ring_sizes", nested)
        else:
            object.__setattr__(
                self, "ring_sizes", tuple(as_entry(entry) for entry in rings)
            )

    def _normalize_ring_sizes(self) -> None:
        rings = self.ring_sizes
        if self.classes is not None:
            self._normalize_class_rings()
            return
        if _is_nested(rings):
            if not self.sized:
                raise ParameterError(
                    "per-size ring_sizes lists require num_nodes_grid; "
                    f"got nested ring_sizes {rings!r} without a size grid"
                )
            if len(rings) != self.num_sizes:
                raise ParameterError(
                    f"ring_sizes has {len(rings)} per-size entries but "
                    f"num_nodes_grid has {self.num_sizes} sizes"
                )
            nested = tuple(tuple(int(r) for r in per_size) for per_size in rings)
            lengths = {len(per_size) for per_size in nested}
            if len(lengths) != 1 or 0 in lengths:
                raise ParameterError(
                    "per-size ring_sizes entries must be non-empty and all "
                    f"the same length (rectangular K axis), got lengths "
                    f"{[len(p) for p in nested]}"
                )
            object.__setattr__(self, "ring_sizes", nested)
        else:
            object.__setattr__(
                self, "ring_sizes", tuple(int(r) for r in rings)
            )

    def _normalize_curves(self) -> None:
        curves = self.curves

        def as_curves(seq, where: str) -> Tuple[Curve, ...]:
            try:
                return tuple((int(q), float(p)) for q, p in seq)
            except (TypeError, ValueError) as exc:
                raise ParameterError(
                    f"curves must be (q, p) pairs, got {where!r}"
                ) from exc

        if curves and _is_nested(curves[0]):
            if not self.sized:
                raise ParameterError(
                    "per-size curves lists require num_nodes_grid; "
                    f"got nested curves {curves!r} without a size grid"
                )
            if len(curves) != self.num_sizes:
                raise ParameterError(
                    f"curves has {len(curves)} per-size entries but "
                    f"num_nodes_grid has {self.num_sizes} sizes"
                )
            nested = tuple(as_curves(per_size, per_size) for per_size in curves)
            lengths = {len(per_size) for per_size in nested}
            if len(lengths) != 1 or 0 in lengths:
                raise ParameterError(
                    "per-size curves entries must be non-empty and all the "
                    f"same length (rectangular curve axis), got lengths "
                    f"{[len(p) for p in nested]}"
                )
            object.__setattr__(self, "curves", nested)
        else:
            object.__setattr__(self, "curves", as_curves(curves, curves))

    def _validate_sweep(self) -> None:
        if self.protocol is not None or self.protocol_params:
            raise ParameterError(
                "sweep scenarios must not set 'protocol'/'protocol_params'"
            )
        if self.channel not in CHANNEL_KINDS:
            known = ", ".join(CHANNEL_KINDS)
            raise ParameterError(
                f"unknown channel {self.channel!r}; known channels: {known}"
            )
        if self.classes is not None and self.channel != "onoff":
            raise ParameterError(
                "heterogeneous classes model per-class-pair on/off "
                f"probabilities; channel must be 'onoff', got {self.channel!r}"
            )
        if not self.ring_sizes:
            raise ParameterError("ring_sizes must be non-empty")
        if not self.curves:
            raise ParameterError("curves must be non-empty")
        if not self.metrics:
            raise ParameterError("metrics must be non-empty")
        self._normalize_ring_sizes()
        self._normalize_curves()
        object.__setattr__(
            self,
            "metrics",
            tuple(
                m if isinstance(m, MetricSpec) else MetricSpec.from_dict(m)
                for m in self.metrics
            ),
        )
        labels = [m.label for m in self.metrics]
        if len(set(labels)) != len(labels):
            raise ParameterError(f"duplicate metrics in scenario: {labels}")
        if self.classes is not None:
            for metric in self.metrics:
                if metric.needs_capture:
                    raise ParameterError(
                        f"metric {metric.label} requires node capture, which "
                        "is not supported with heterogeneous classes (ragged "
                        "per-class rings)"
                    )
        peak_alpha = (
            max(max(row) for row in self.classes.channel_probs)
            if self.classes is not None
            else None
        )
        for si in range(self.num_sizes):
            pool = self.pool_size_at(si)
            for q, p in self.curves_at(si):
                if peak_alpha is not None:
                    # With classes, a curve's p is a scalar multiplier on
                    # the channel matrix, not a probability itself: only
                    # the effective pair probabilities p * alpha_ij must
                    # stay in (0, 1], so p may exceed 1 when the matrix
                    # peak is below 1.
                    if not (p > 0.0) or p * peak_alpha > 1.0:
                        raise ParameterError(
                            f"channel scale p={p} must be positive and keep "
                            f"every p * channel_probs[i][j] <= 1 (matrix "
                            f"peak {peak_alpha})"
                        )
                else:
                    check_probability(p, "channel_prob", allow_zero=False)
                if self.channel == "disk" and p > _DISK_MAX_PROB:
                    raise ParameterError(
                        f"disk channel marginal p={p} exceeds pi/4 ~ "
                        f"{_DISK_MAX_PROB:.4f} (radius would leave the exact-"
                        "marginal regime r <= 1/2)"
                    )
                for ring in self.ring_sizes_at(si):
                    if self.classes is not None:
                        for per_class in ring:
                            check_key_parameters(per_class, pool, q)
                    else:
                        check_key_parameters(ring, pool, q)
        smallest = min(self.sizes)
        for metric in self.metrics:
            if metric.needs_capture and metric.captured > smallest - 2:
                raise ParameterError(
                    f"metric {metric.label} captures {metric.captured} of "
                    f"{smallest} nodes; at least two must survive"
                )
            if metric.kind == "k_connectivity" and metric.k > 1 and smallest < metric.k + 1:
                raise ParameterError(
                    f"k-connectivity with k={metric.k} needs num_nodes > k"
                )

    # -- deployment grouping ------------------------------------------

    def deployment_key(self) -> Tuple:
        """Scenarios with equal keys share sampled deployments.

        Sized scenarios key on the canonical per-size expansion (so a
        flat shared ``ring_sizes`` groups with the equivalent nested
        declaration) and carry a marker distinguishing them from plain
        scenarios: the two use different seed addressing, so a one-size
        grid never silently shares deployments with a plain scenario.
        """
        if self.sized:
            key: Tuple = (
                "sized",
                self.sizes,
                tuple(self.pool_size_at(s) for s in range(self.num_sizes)),
                tuple(self.ring_sizes_at(s) for s in range(self.num_sizes)),
                self.trials,
                self.seed,
            )
        else:
            key = (
                self.num_nodes,
                self.pool_size,
                self.ring_sizes,
                self.trials,
                self.seed,
            )
        if self.classes is not None:
            # The class mix changes both the sampled world (labels,
            # per-class rings) and the channel thinning, so scenarios
            # only share deployments when mu AND the matrix agree;
            # homogeneous keys stay byte-identical to the historical
            # form.
            key = key + (("classes", self.classes.mu, self.classes.channel_probs),)
        return key

    def with_trials(self, trials: int) -> "Scenario":
        """This scenario with a different trial count, all else equal.

        The trial axis is the one axis results may legally differ on
        while still describing "the same experiment": extension shards
        cover a window of it, and merged results cover the union.
        Every other field participates in
        :meth:`~repro.study.result.ScenarioResult.merge` compatibility
        checking.  Revalidates on construction like any scenario.
        """
        return dataclasses.replace(self, trials=trials)

    def canonical_json(self, *, include_trials: bool = True) -> str:
        """Stable JSON normal form of this scenario.

        Sorted keys, compact separators, no whitespace variance — two
        scenarios serialize identically iff their :meth:`to_dict` forms
        are equal.  With ``include_trials=False`` the ``trials`` field is
        dropped, yielding the *family* form shared by every trial-window
        shard and extension of the same experiment (see
        :meth:`with_trials` for why trials is the one excluded axis).
        """
        data = self.to_dict()
        if not include_trials:
            data.pop("trials", None)
        return json.dumps(data, sort_keys=True, separators=(",", ":"))

    def content_hash(self) -> str:
        """sha256 hex digest of the trials-excluded canonical JSON form.

        This is the content address used by the result cache and shard
        transport: every shard, extension, and merged union of the same
        experiment shares one hash, while any other field difference
        (seed, curves, metrics, grid, ...) produces a different one.
        """
        payload = self.canonical_json(include_trials=False)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    @property
    def needs_capture(self) -> bool:
        return any(m.needs_capture for m in self.metrics)

    def metric_labels(self) -> Tuple[str, ...]:
        return tuple(m.label for m in self.metrics)

    def metric_by_label(self, label: str) -> Optional[MetricSpec]:
        """The :class:`MetricSpec` carrying *label*, or ``None``."""
        for metric in self.metrics:
            if metric.label == label:
                return metric
        return None

    # -- JSON round-trip ----------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "name": self.name,
            "kind": self.kind,
            "trials": self.trials,
            "seed": self.seed,
        }
        if self.sized:
            out["num_nodes_grid"] = list(self.num_nodes_grid)
        else:
            out["num_nodes"] = self.num_nodes
        if isinstance(self.pool_size, tuple):
            out["pool_size"] = list(self.pool_size)
        else:
            out["pool_size"] = self.pool_size
        if self.classes is not None:
            out["classes"] = self.classes.to_dict()
        if self.kind == "protocol":
            out["protocol"] = self.protocol
            out["protocol_params"] = dict(self.protocol_params)
            return out
        rings = _deep_listify(self.ring_sizes)
        if self.curves and _is_nested(self.curves[0]):
            curves: object = [
                [[q, p] for q, p in per_size] for per_size in self.curves
            ]
        else:
            curves = [[q, p] for q, p in self.curves]
        out.update(
            {
                "channel": self.channel,
                "ring_sizes": rings,
                "curves": curves,
                "metrics": [m.to_dict() for m in self.metrics],
            }
        )
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Scenario":
        if not isinstance(data, Mapping):
            raise ParameterError(
                f"scenario must be a mapping, got {type(data).__name__}"
            )
        unknown = set(data) - _SCENARIO_FIELDS
        if unknown:
            raise ParameterError(
                f"unknown scenario fields {sorted(unknown)}; "
                f"valid fields: {sorted(_SCENARIO_FIELDS)}"
            )
        missing = {"name", "pool_size", "trials"} - set(data)
        if not ({"num_nodes", "num_nodes_grid"} & set(data)):
            missing.add("num_nodes")
        if missing:
            raise ParameterError(
                f"scenario is missing required fields {sorted(missing)}"
            )
        curves = data.get("curves", ())
        if not isinstance(curves, Sequence) or isinstance(curves, str):
            raise ParameterError(f"curves must be a list of [q, p] pairs, got {curves!r}")
        metrics_raw = data.get("metrics", ())
        if not isinstance(metrics_raw, Sequence) or isinstance(metrics_raw, str):
            raise ParameterError(f"metrics must be a list of mappings, got {metrics_raw!r}")
        metrics = tuple(
            m if isinstance(m, MetricSpec) else MetricSpec.from_dict(m)
            for m in metrics_raw
        )
        protocol_params = data.get("protocol_params", {})
        if not isinstance(protocol_params, Mapping):
            raise ParameterError(
                f"protocol_params must be a mapping, got {protocol_params!r}"
            )
        classes_raw = data.get("classes")
        classes = None if classes_raw is None else ClassMix.from_dict(classes_raw)  # type: ignore[arg-type]
        num_nodes = data.get("num_nodes")
        try:
            return cls(
                name=str(data["name"]),
                num_nodes=None if num_nodes is None else int(num_nodes),  # type: ignore[arg-type]
                pool_size=data["pool_size"],  # type: ignore[arg-type]
                trials=int(data["trials"]),  # type: ignore[arg-type]
                num_nodes_grid=data.get("num_nodes_grid", ()),  # type: ignore[arg-type]
                ring_sizes=tuple(data.get("ring_sizes", ())),  # type: ignore[arg-type]
                curves=tuple(curves),
                metrics=metrics,
                seed=int(data.get("seed", 0)),  # type: ignore[arg-type]
                channel=str(data.get("channel", "onoff")),
                kind=str(data.get("kind", "sweep")),
                protocol=data.get("protocol"),  # type: ignore[arg-type]
                protocol_params=protocol_params,  # type: ignore[arg-type]
                classes=classes,
            )
        except (TypeError, ValueError) as exc:
            if isinstance(exc, ParameterError):
                raise
            raise ParameterError(f"malformed scenario config: {exc}") from exc

    def to_json(self, **dumps_kwargs: object) -> str:
        dumps_kwargs.setdefault("indent", 2)
        dumps_kwargs.setdefault("sort_keys", True)
        return json.dumps(self.to_dict(), **dumps_kwargs)  # type: ignore[arg-type]

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParameterError(f"scenario JSON does not parse: {exc}") from exc
        return cls.from_dict(data)
