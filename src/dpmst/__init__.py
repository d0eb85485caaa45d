"""Differentially private minimum spanning trees under edge-weight privacy."""

from .accounting import (PrivacyBudget, eps_from_rho_delta,
                         gaussian_sigma_for_input_privatization,
                         per_round_epsilon, rho_from_eps_delta)
from .exact import (ChiSquareResult, brute_force_mst, chi_square_gof, cycle_rule,
                    enumerate_spanning_trees, exact_selection_distribution,
                    exact_tree_distribution)
from .graph import (GraphError, SpanningTree, WeightedGraph, build_graph,
                    is_spanning_tree, kruskal_mst, tree_weight)
from .harness import RunReport, density_sweep, emit_csv, run_trials, tree_distribution_test
from .instances import (erdos_renyi_instance, hard_instance, mi_sensitivity,
                        mi_weight, mutual_info_chain_instance, parity_even_prob,
                        read_instance, write_instance)
from .mechanisms import (MECHANISMS, MechanismResult, input_perturbation_mst, pamst,
                         run_mechanism, sealfon_mst)
from .rng import RngStream
from .sampling import private_max_weight_basis

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
