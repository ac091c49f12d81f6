"""Key-overlap distribution: exact hypergeometric mass and tail.

When two sensors independently receive uniformly random ``K``-subsets of
a pool of ``P`` keys, the overlap ``|S_i ∩ S_j|`` follows the
hypergeometric distribution

    P[|S_i ∩ S_j| = u] = C(K, u) C(P - K, K - u) / C(P, K)        (Eq. 4)

and the q-composite edge probability is the upper tail

    s(K, P, q) = P[|S_i ∩ S_j| >= q] = sum_{u >= q} P[overlap = u] (Eq. 3)

All computations run in log space (see :mod:`repro.utils.logmath`) so
they are exact to double precision even for pool sizes in the millions.
"""

from __future__ import annotations

import math

import numpy as np

from repro.utils.logmath import log1mexp, log_binomial, logsumexp
from repro.utils.validation import check_key_parameters, check_nonnegative_int

__all__ = [
    "log_overlap_pmf",
    "overlap_pmf",
    "overlap_pmf_vector",
    "overlap_survival",
    "log_overlap_survival",
    "overlap_cdf",
    "overlap_mean",
    "no_overlap_probability",
    "cross_overlap_survival",
]


def _check(key_ring_size: int, pool_size: int) -> None:
    check_key_parameters(key_ring_size, pool_size, 1)


def log_overlap_pmf(key_ring_size: int, pool_size: int, u: int) -> float:
    """Return ``ln P[|S_i ∩ S_j| = u]`` (Eq. 4), ``-inf`` if impossible.

    The support is ``max(0, 2K - P) <= u <= K``; values outside map to
    ``-inf``.
    """
    _check(key_ring_size, pool_size)
    u = check_nonnegative_int(u, "u")
    k, p = key_ring_size, pool_size
    num = log_binomial(k, u) + log_binomial(p - k, k - u)
    if num == float("-inf"):
        return float("-inf")
    return num - log_binomial(p, k)


def overlap_pmf(key_ring_size: int, pool_size: int, u: int) -> float:
    """Return ``P[|S_i ∩ S_j| = u]`` exactly (within double precision)."""
    lp = log_overlap_pmf(key_ring_size, pool_size, u)
    return math.exp(lp) if lp > float("-inf") else 0.0


def overlap_pmf_vector(key_ring_size: int, pool_size: int) -> np.ndarray:
    """Return the full pmf vector over ``u = 0 .. K`` as a numpy array.

    The vector sums to 1 up to double-precision rounding; impossible
    overlap values carry exactly 0.
    """
    _check(key_ring_size, pool_size)
    k = key_ring_size
    seq = _pmf_recurrence(k, pool_size)
    if seq is not None:
        return np.array(seq, dtype=np.float64)
    logs = np.array(
        [log_overlap_pmf(k, pool_size, u) for u in range(k + 1)], dtype=np.float64
    )
    out = np.zeros(k + 1, dtype=np.float64)
    finite = logs > float("-inf")
    out[finite] = np.exp(logs[finite])
    return out


def _pmf_recurrence(key_ring_size: int, pool_size: int):
    """Full pmf over ``u = 0..K`` via the stable ratio recurrence.

    ``pmf(u+1)/pmf(u) = (K-u)² / ((u+1)(P-2K+u+1))`` propagates only a
    few ulps of relative error per step — far better conditioned than
    exponentiating lgamma differences of magnitude ~10⁵.  Returns
    ``None`` when the recurrence is unusable (``2K > P``, where the
    support does not start at 0, or when ``pmf(0)`` underflows); callers
    then fall back to the log-space path.
    """
    k, p = key_ring_size, pool_size
    if 2 * k > p:
        return None
    val = 1.0
    for i in range(k):
        val *= (p - k - i) / (p - i)
    if val == 0.0:
        return None  # underflow: log-space fallback handles this regime
    out = [val]
    for u in range(k):
        val = val * (k - u) * (k - u) / ((u + 1) * (p - 2 * k + u + 1))
        out.append(val)
    return out


def log_overlap_survival(key_ring_size: int, pool_size: int, q: int) -> float:
    """Return ``ln s(K, P, q) = ln P[overlap >= q]`` stably.

    Uses the ratio-recurrence pmf with a direct tail sum (relative error
    a few hundred ulps at worst); exotic parameter regimes where the
    recurrence under/overflows fall back to lgamma-based log-space
    summation.
    """
    check_key_parameters(key_ring_size, pool_size, q)
    k = key_ring_size
    if q == 0:
        return 0.0

    seq = _pmf_recurrence(k, pool_size)
    if seq is not None:
        tail = math.fsum(seq[q:])
        if tail > 0.0:
            return math.log(min(tail, 1.0))
        # Tail underflowed in linear space; fall through to log space.

    if q <= k // 2 + 1:
        # log(1 - sum_{u < q} pmf(u))
        lower_terms = [
            log_overlap_pmf(k, pool_size, u) for u in range(0, q)
        ]
        log_lower = logsumexp(lower_terms)
        if log_lower >= 0.0:
            # The lower sum rounds to >= 1: prefer the direct tail sum.
            upper = [log_overlap_pmf(k, pool_size, u) for u in range(q, k + 1)]
            return logsumexp(upper)
        return log1mexp(log_lower)

    upper_terms = [log_overlap_pmf(k, pool_size, u) for u in range(q, k + 1)]
    return logsumexp(upper_terms)


def overlap_survival(key_ring_size: int, pool_size: int, q: int) -> float:
    """Return ``s(K, P, q)`` — the paper's key-graph edge probability."""
    check_key_parameters(key_ring_size, pool_size, q)
    if q == 0:
        return 1.0
    seq = _pmf_recurrence(key_ring_size, pool_size)
    if seq is not None:
        tail = math.fsum(seq[q:])
        if tail > 0.0:
            return min(tail, 1.0)
    ls = log_overlap_survival(key_ring_size, pool_size, q)
    return math.exp(ls) if ls > float("-inf") else 0.0


def overlap_cdf(key_ring_size: int, pool_size: int, u: int) -> float:
    """Return ``P[overlap <= u]``."""
    _check(key_ring_size, pool_size)
    u = check_nonnegative_int(u, "u")
    if u >= key_ring_size:
        return 1.0
    return 1.0 - overlap_survival(key_ring_size, pool_size, u + 1)


def overlap_mean(key_ring_size: int, pool_size: int) -> float:
    """Return ``E[|S_i ∩ S_j|] = K^2 / P`` (exact hypergeometric mean)."""
    _check(key_ring_size, pool_size)
    return key_ring_size * key_ring_size / pool_size


def no_overlap_probability(key_ring_size: int, pool_size: int) -> float:
    """Return ``P[overlap = 0] = C(P-K, K) / C(P, K)``.

    This is ``1 - s(K, P, 1)``, the non-edge probability of the
    Eschenauer–Gligor (q = 1) key graph.
    """
    return overlap_pmf(key_ring_size, pool_size, 0)


def cross_overlap_survival(
    ring_size_a: int, ring_size_b: int, pool_size: int, q: int
) -> float:
    """Return ``P[|S_a ∩ S_b| >= q]`` for rings of *different* sizes.

    The heterogeneous (Eletreby–Yağan) model draws class-``i`` nodes a
    uniform ``K_i``-subset; the overlap of a ``K_a``-ring and a
    ``K_b``-ring is hypergeometric with

        P[overlap = u] = C(K_b, u) C(P - K_b, K_a - u) / C(P, K_a)

    and the class-pair edge probability is the upper tail at ``q``.
    Reduces to :func:`overlap_survival` when ``K_a == K_b``.  Computed by
    log-space tail summation — the sizes here are per-class constants, so
    the ratio-recurrence fast path is not needed.
    """
    ring_size_a, pool_size, _ = check_key_parameters(ring_size_a, pool_size, 1)
    ring_size_b, pool_size, _ = check_key_parameters(ring_size_b, pool_size, 1)
    q = check_nonnegative_int(q, "q")
    if q == 0:
        return 1.0
    a, b, p = ring_size_a, ring_size_b, pool_size
    hi = min(a, b)
    if q > hi:
        return 0.0
    log_denom = log_binomial(p, a)
    terms = []
    for u in range(q, hi + 1):
        num = log_binomial(b, u) + log_binomial(p - b, a - u)
        if num > float("-inf"):
            terms.append(num - log_denom)
    if not terms:
        return 0.0
    ls = logsumexp(terms)
    return min(math.exp(ls), 1.0) if ls > float("-inf") else 0.0
