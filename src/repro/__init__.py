"""repro — secure k-connectivity of WSNs under q-composite key predistribution
with on/off channels.

A faithful, laptop-scale reproduction of:

    Jun Zhao. "Secure connectivity of wireless sensor networks under key
    predistribution with on/off channels." ICDCS 2017.

The package layers:

* :mod:`repro.probability` — overlap distributions, limit laws, couplings;
* :mod:`repro.kernels` — the pure-numpy compute kernels behind the
  three hot paths: min-label union, overlap counting, and the exact
  k-connectivity decision with its Nagamochi–Ibaraki sparse
  certificate;
* :mod:`repro.graphs` — from-scratch graph algorithms (union-find, Tarjan,
  Dinic/Even k-connectivity) and the Erdős–Rényi generator;
* :mod:`repro.keygraphs` — key rings and the uniform/binomial
  q-intersection graphs;
* :mod:`repro.core` — Theorem 1, Lemmas 1/7/8/9, design guidelines (Eq. 9),
  the capture-attack closed form;
* :mod:`repro.simulation` — the Monte Carlo engine, worker pools and
  fault-tolerant scheduler;
* :mod:`repro.study` — the declarative Scenario/Study layer: every
  experiment as a frozen JSON config compiled onto shared-deployment
  sweeps;
* :mod:`repro.experiments` — every figure/table of the paper, declared
  as scenarios and runnable.

Quickstart::

    from repro import QCompositeParams, predict_k_connectivity
    from repro.study import MetricSpec, Scenario, run_scenario

    params = QCompositeParams(
        num_nodes=1000, key_ring_size=45, pool_size=10000,
        overlap=2, channel_prob=0.5,
    )
    print(predict_k_connectivity(params, k=1).probability)   # Theorem 1
    scenario = Scenario(
        name="quickstart", num_nodes=1000, pool_size=10000,
        ring_sizes=(45,), curves=((2, 0.5),),
        metrics=(MetricSpec("connectivity"),), trials=100,
    )
    print(run_scenario(scenario).bernoulli("connectivity").estimate)  # Monte Carlo
"""

from repro.exceptions import (
    DesignError,
    ExperimentError,
    GraphError,
    ParameterError,
    ReproError,
    SimulationError,
)
from repro.params import QCompositeParams
from repro.core.design import design_network, minimal_key_ring_size
from repro.core.theorem1 import (
    ConnectivityRegime,
    Theorem1Prediction,
    predict_k_connectivity,
)
from repro.study import MetricSpec, Scenario, Study

__version__ = "1.0.0"

__all__ = [
    "DesignError",
    "ExperimentError",
    "GraphError",
    "ParameterError",
    "ReproError",
    "SimulationError",
    "QCompositeParams",
    "design_network",
    "minimal_key_ring_size",
    "ConnectivityRegime",
    "Theorem1Prediction",
    "predict_k_connectivity",
    "MetricSpec",
    "Scenario",
    "Study",
    "__version__",
]
