"""Reductions between constraint problems and vector knapsack, exact
oracles for both sides, and a dimension-scaled approximation algorithm."""

from .csp import (
    Csp2Instance,
    PartialAssignment,
    RcspInstance,
    SatInstance,
    count_satisfied,
    csp_opt_bruteforce,
    csp_value,
    is_consistent,
    par_bruteforce,
    sat_opt_bruteforce,
)
from .approx import (
    approx_2unbounded,
    approx_lp_rounding,
    approx_sqrt_d,
    split_by_boundedness,
)
from .discretize import (
    DiscretizedCost,
    digamma,
    gamma_for_dimension,
    prune_by_discretization,
    varpi_down,
    varpi_up,
)
from .disperser import Disperser, build_disperser
from .embedding import (
    ConnectedEmbedding,
    simple_connected_embedding,
    validate_embedding,
)
from .errors import CapExceededError, ConstructionError
from .graphs import Graph, complete_graph, graph_from_edges, line_graph
from .knapsack import (
    Solution,
    VkInstance,
    check_feasible,
    profit,
    solve_bruteforce,
    solve_bruteforce_bounded_size,
    solve_dp,
)
from .reductions import (
    EmbedReductionArtifacts,
    build_clause_conflict_graph,
    csp2_to_rcsp,
    extract_partial_assignment,
    rcsp_to_vk_embed,
    rcsp_to_vk_simple,
    sat_to_rcsp,
    sat_to_rcsp_disperser_route,
    sat_to_rcsp_embedding_route,
    verify_base_q_digits,
    vk_solution_from_assignment,
)
from .serialize import parse_instance, serialize_instance

__all__ = [
    "CapExceededError",
    "ConnectedEmbedding",
    "ConstructionError",
    "Csp2Instance",
    "DiscretizedCost",
    "Disperser",
    "EmbedReductionArtifacts",
    "Graph",
    "PartialAssignment",
    "RcspInstance",
    "SatInstance",
    "Solution",
    "VkInstance",
    "approx_2unbounded",
    "approx_lp_rounding",
    "approx_sqrt_d",
    "build_clause_conflict_graph",
    "build_disperser",
    "check_feasible",
    "complete_graph",
    "count_satisfied",
    "csp2_to_rcsp",
    "csp_opt_bruteforce",
    "csp_value",
    "digamma",
    "extract_partial_assignment",
    "gamma_for_dimension",
    "graph_from_edges",
    "is_consistent",
    "line_graph",
    "par_bruteforce",
    "parse_instance",
    "profit",
    "prune_by_discretization",
    "rcsp_to_vk_embed",
    "rcsp_to_vk_simple",
    "sat_opt_bruteforce",
    "sat_to_rcsp",
    "sat_to_rcsp_disperser_route",
    "sat_to_rcsp_embedding_route",
    "serialize_instance",
    "simple_connected_embedding",
    "solve_bruteforce",
    "solve_bruteforce_bounded_size",
    "solve_dp",
    "split_by_boundedness",
    "validate_embedding",
    "varpi_down",
    "varpi_up",
    "verify_base_q_digits",
    "vk_solution_from_assignment",
]
