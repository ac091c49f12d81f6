"""Core theory: Theorem 1, its lemmas, and the design guidelines."""

from repro.core.capture import analytic_compromise_fraction
from repro.core.conditions import ConditionReport, check_theorem1_conditions
from repro.core.confinement import (
    ConfinedDesign,
    ConfinementCase,
    confine_above,
    confine_below,
)
from repro.core.degree_distribution import (
    degree_count_distribution,
    degree_histogram_prediction,
    expected_degree_count,
    isolated_node_lambda,
    lambda_nh,
    lambda_nh_exact,
)
from repro.core.design import (
    DesignReport,
    design_network,
    maximal_pool_size,
    minimal_key_ring_size,
    minimal_network_size,
    paper_kstar_table,
    required_channel_probability,
)
from repro.core.er_laws import er_alpha, er_k_connectivity_probability
from repro.core.heterogeneous import (
    class_edge_probabilities,
    het_channel_scale_for_alpha,
    het_limit_probability,
)
from repro.core.mindegree import (
    min_degree_probability_limit,
    min_degree_probability_poisson,
)
from repro.core.scaling import (
    channel_prob_for_alpha,
    critical_scaling,
    deviation_alpha,
    scaling_report,
)
from repro.core.theorem1 import (
    ConnectivityRegime,
    Theorem1Prediction,
    classify_regime,
    predict_k_connectivity,
)

__all__ = [
    "analytic_compromise_fraction",
    "ConditionReport",
    "check_theorem1_conditions",
    "ConfinedDesign",
    "ConfinementCase",
    "confine_above",
    "confine_below",
    "degree_count_distribution",
    "degree_histogram_prediction",
    "expected_degree_count",
    "isolated_node_lambda",
    "lambda_nh",
    "lambda_nh_exact",
    "DesignReport",
    "design_network",
    "maximal_pool_size",
    "minimal_key_ring_size",
    "minimal_network_size",
    "paper_kstar_table",
    "required_channel_probability",
    "er_alpha",
    "er_k_connectivity_probability",
    "class_edge_probabilities",
    "het_channel_scale_for_alpha",
    "het_limit_probability",
    "min_degree_probability_limit",
    "min_degree_probability_poisson",
    "channel_prob_for_alpha",
    "critical_scaling",
    "deviation_alpha",
    "scaling_report",
    "ConnectivityRegime",
    "Theorem1Prediction",
    "classify_regime",
    "predict_k_connectivity",
]
