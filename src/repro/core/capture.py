"""The Chan–Perrig–Song closed form for node-capture attacks.

The paper's introduction motivates the q-composite scheme by its
"strength against small-scale network capture attacks while trading off
increased vulnerability in the face of large-scale attacks" (Chan et
al. 2003).  An adversary that captures ``x`` sensors learns every key
in their rings; a link between two non-captured sensors falls iff
**all** of its shared keys are captured (the link key hashes the whole
shared set).  A given key is captured with probability
``1 - (1 - K/P)^x``, so a link secured by ``m`` shared keys falls with
probability ``(1 - (1 - K/P)^x)^m``, averaged over the conditional
overlap distribution ``m | m >= q``.

The Monte Carlo side of the tradeoff is the study metric
``attack_compromised``; ``experiments/attack_tradeoff.py`` sets the
two side by side.
"""

from __future__ import annotations

import numpy as np

from repro.probability.hypergeometric import overlap_pmf_vector
from repro.utils.validation import (
    check_key_parameters,
    check_nonnegative_int,
    check_positive_int,
)

__all__ = ["analytic_compromise_fraction"]


def analytic_compromise_fraction(
    key_ring_size: int, pool_size: int, q: int, num_captured: int
) -> float:
    """Chan–Perrig–Song estimate of the compromised-link fraction.

    ``sum_{m >= q} P[overlap = m | overlap >= q] * (1 - (1 - K/P)^x)^m``.

    The per-key capture probability treats rings as independent samples,
    which is asymptotically exact and accurate to within Monte Carlo
    noise at the paper's scales (validated by the attack experiment).
    """
    check_key_parameters(key_ring_size, pool_size, q)
    num_captured = check_nonnegative_int(num_captured, "num_captured")
    check_positive_int(q, "q")
    if num_captured == 0:
        return 0.0

    key_captured = 1.0 - (1.0 - key_ring_size / pool_size) ** num_captured
    pmf = overlap_pmf_vector(key_ring_size, pool_size)
    tail = pmf[q:]
    tail_mass = tail.sum()
    if tail_mass <= 0.0:
        return 0.0
    powers = key_captured ** np.arange(q, key_ring_size + 1, dtype=np.float64)
    return float((tail * powers).sum() / tail_mass)
