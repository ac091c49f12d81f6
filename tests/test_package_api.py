"""Tests for the public package surface: exports and exceptions."""

from __future__ import annotations

import pytest

import repro
from repro.exceptions import (
    DesignError,
    ExperimentError,
    GraphError,
    ParameterError,
    ReproError,
    SimulationError,
)


class TestExceptionHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc in (
            ParameterError,
            GraphError,
            SimulationError,
            DesignError,
            ExperimentError,
        ):
            assert issubclass(exc, ReproError)

    def test_parameter_error_is_value_error(self):
        # Generic callers catching ValueError keep working.
        assert issubclass(ParameterError, ValueError)
        with pytest.raises(ValueError):
            raise ParameterError("boom")

    def test_catching_base_catches_all(self):
        with pytest.raises(ReproError):
            raise DesignError("infeasible")


class TestTopLevelExports:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_headline_api_present(self):
        assert callable(repro.predict_k_connectivity)
        assert callable(repro.design_network)
        assert callable(repro.minimal_key_ring_size)
        params = repro.QCompositeParams(
            num_nodes=100, key_ring_size=10, pool_size=100, overlap=2
        )
        assert params.edge_probability() > 0

    def test_subpackage_all_exports_resolve(self):
        import repro.core
        import repro.graphs
        import repro.keygraphs
        import repro.probability
        import repro.simulation
        import repro.utils

        for module in (
            repro.core,
            repro.graphs,
            repro.keygraphs,
            repro.probability,
            repro.simulation,
            repro.utils,
        ):
            for name in module.__all__:
                assert getattr(module, name) is not None, (module.__name__, name)
