"""Edge-case tests for the overlap distribution's dense-ring fallbacks."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.stats import hypergeom

from repro.probability.hypergeometric import (
    log_overlap_survival,
    overlap_pmf_vector,
    overlap_survival,
)
from repro.study.metrics import sample_deployment


class TestHypergeometricFallbacks:
    def test_dense_rings_2k_exceeds_pool(self):
        # 2K > P disables the recurrence; the log-space path must agree
        # with scipy (support starts at 2K - P).
        K, P = 8, 10
        for q in (1, 5, 7, 8):
            assert overlap_survival(K, P, q) == pytest.approx(
                float(hypergeom.sf(q - 1, P, K, K)), rel=1e-9
            )

    def test_dense_rings_certain_overlap(self):
        # Overlap is always >= 2K - P = 6, so q <= 6 gives probability 1.
        assert overlap_survival(8, 10, 6) == pytest.approx(1.0)

    def test_pmf_vector_dense_regime(self):
        vec = overlap_pmf_vector(8, 10)
        assert vec.sum() == pytest.approx(1.0, abs=1e-12)
        assert vec[:6].sum() == pytest.approx(0.0, abs=1e-15)

    def test_log_survival_dense_regime_finite(self):
        val = log_overlap_survival(8, 10, 8)
        expect = float(hypergeom.sf(7, 10, 8, 8))
        assert np.exp(val) == pytest.approx(expect, rel=1e-9)

    def test_extreme_underflow_regime(self):
        # K²/P >> 700 underflows the recurrence's pmf(0); the log-space
        # fallback must still return sane values.
        val = overlap_survival(2000, 4000, 1)
        assert val == pytest.approx(1.0)  # overlap >= 1 is near-certain

    def test_scheme_with_dense_rings(self):
        # End-to-end through the deployment sampler in the 2K > P regime
        # (the ring sampler's shuffle fallback).
        rng = np.random.default_rng(4)
        dep = sample_deployment(6, 10, 8, 6, rng)
        # Overlap >= 6 is certain: every pair is a candidate.
        assert dep.candidates.size == 15
        assert int(dep.counts.min()) >= 6
