"""extlab: exact decision procedures for stationary extension problems."""

from .lattice import (Domain, FiniteModule, Envelope, CapExceeded,
                      envelope_for, verify_envelope, translates_inside)
from .measures import (Measure, SignedMeasure, WordSet, tv_distance,
                       convex_combine, is_locally_stationary,
                       finite_window_entropy, conditional_entropy,
                       entropy_metric, entropy_chain_refute,
                       support_word_set, random_stationary_measure)
from .markov import MarkovExtension, entropy_rate
from .lp import (LinearSystem, solve_feasibility, enumerate_vertices,
                 FEASIBLE, INFEASIBLE, ABORTED)
from .engine import (build_window_polytope, ExtensionPolytope,
                     sft_emptiness, fill_window, periodic_config_search,
                     enumerate_periodic_configs, periodic_extension,
                     pullback_periodic, compute_H, epsilon_bound,
                     refute_nonextendible, SearchBudget)

__version__ = "0.1.0"
