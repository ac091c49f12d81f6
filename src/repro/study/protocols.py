"""Named trial protocols for scenarios shared deployments cannot express.

Most experiments are post-filters over shared deployments and compile
onto the sweep path.  A few sample *jointly structured* randomness —
e.g. the Lemma 5 coupled uniform/binomial ring pair — and keep their
bespoke per-trial protocol.  Registering the protocol by name keeps the
scenario JSON-round-trippable: ``{"kind": "protocol", "protocol":
"coupling", "protocol_params": {...}}`` is a complete description.

A protocol maps a :class:`~repro.study.scenario.Scenario` to a
picklable ``trial(rng) -> tuple`` plus the names of the returned
values; the compiler runs it through the ordinary deterministic trial
engine (per-trial seeds, warm pool, worker-invariant results).
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable, Dict, Tuple

import numpy as np

from repro.exceptions import ExperimentError, ParameterError

__all__ = ["ProtocolSpec", "get_protocol", "list_protocols", "register_protocol"]


@dataclasses.dataclass(frozen=True)
class ProtocolSpec:
    """A named bespoke trial protocol."""

    name: str
    description: str
    value_names: Tuple[str, ...]
    build: Callable  # Scenario -> trial(rng) -> tuple of floats


_REGISTRY: Dict[str, ProtocolSpec] = {}


def register_protocol(spec: ProtocolSpec) -> ProtocolSpec:
    if spec.name in _REGISTRY:
        raise ExperimentError(f"protocol {spec.name!r} already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get_protocol(name: str) -> ProtocolSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "(none)"
        raise ExperimentError(f"unknown protocol {name!r}; known: {known}")


def list_protocols() -> Tuple[ProtocolSpec, ...]:
    return tuple(_REGISTRY.values())


def _protocol_param(scenario, key: str, default=None):
    params = dict(scenario.protocol_params)
    if default is None and key not in params:
        raise ParameterError(
            f"protocol {scenario.protocol!r} needs protocol_params[{key!r}]"
        )
    return params.get(key, default)


# -- coupling (Lemmas 5-6) --------------------------------------------


def _coupling_trial(
    num_nodes: int,
    key_ring_size: int,
    pool_size: int,
    q: int,
    rng: np.random.Generator,
) -> Tuple[float, float]:
    from repro.experiments.coupling_check import coupling_trial

    success, subset_ok = coupling_trial(
        num_nodes, key_ring_size, pool_size, q, rng
    )
    return (float(success), float(subset_ok))


def _build_coupling(scenario) -> Callable:
    key_ring_size = int(_protocol_param(scenario, "key_ring_size"))
    q = int(_protocol_param(scenario, "q", 2))
    return functools.partial(
        _coupling_trial, scenario.num_nodes, key_ring_size, scenario.pool_size, q
    )


register_protocol(
    ProtocolSpec(
        name="coupling",
        description=(
            "Lemma 5 coupled uniform/binomial ring pair: coupling success "
            "and H_q-subset-of-G_q validity per joint sample."
        ),
        value_names=("success", "subset_ok"),
        build=_build_coupling,
    )
)
