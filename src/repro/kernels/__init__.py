"""The kernel seam for the three Monte Carlo hot paths.

This package separates the algorithmic layers from their compute
kernels.  :class:`~repro.kernels.base.KernelBackend` declares three
narrow, array-first contracts — the min-label connectivity union,
candidate-pair overlap counting, and the exact k-connectivity decision
with its Nagamochi–Ibaraki sparse certificate — and everything above
(``graphs/``, ``keygraphs/``, ``study/``) calls :func:`get_backend`
instead of a concrete implementation.  There is one implementation,
the pure-numpy :class:`~repro.kernels.reference.ReferenceBackend`; the
seam stays so profilers and tests can wrap or substitute its methods
in one place.
"""

from __future__ import annotations

from repro.kernels.base import KernelBackend
from repro.kernels.reference import ReferenceBackend

__all__ = [
    "KernelBackend",
    "get_backend",
    "resolve_backend_name",
]

_BACKEND = ReferenceBackend()


def get_backend() -> KernelBackend:
    """The kernel backend every hot path dispatches to."""
    return _BACKEND


def resolve_backend_name() -> str:
    """Name of the kernel backend, as stamped into result provenance."""
    return ReferenceBackend.name
