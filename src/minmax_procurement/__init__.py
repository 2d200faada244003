"""Truthful-mechanism machinery for min-max procurement auctions on graphs.

Exact solvers, the VCG n-approximate mechanism with Clarke payments, a
truthfulness/monotonicity auditor for black-box allocation algorithms, an
approximation scheme for min-max path via approximate Pareto frontiers, and
an adversary engine that certifies either a near-n approximation ratio or a
monotonicity violation for any supplied algorithm.
"""

from .graphs import (
    ARBORESCENCE,
    CostSummary,
    Edge,
    Instance,
    PATH,
    Solution,
    agent_cost,
    cost_summary,
    load_instance,
    dump_instance,
    validate_solution,
)
from .solvers import (
    OptimumReport,
    brute_minmax,
    chain_minmax_exact,
    min_arborescence,
    min_sum_optimum,
    shortest_path,
)
from .vcg import clarke_payments, vcg_allocate, vcg_mechanism
from .pareto import PtasReport, minmax_ptas, pareto_eps, preprocess
from .audit import (
    Perturbation,
    ViolationWitness,
    check_truthfulness,
    check_weak_monotonicity,
    edge_stability_perturbation,
    edge_stability_witness,
)
from .adversary import (
    AdversaryReport,
    BlockIndexing,
    ChainSpec,
    chain_exact_allocator,
    expand_chain,
    gen_chain,
    opt_upper_bound,
    run_adversary,
)

__all__ = [
    # graphs
    "ARBORESCENCE", "CostSummary", "Edge", "Instance", "PATH", "Solution",
    "agent_cost", "cost_summary", "load_instance", "dump_instance",
    "validate_solution",
    # solvers
    "OptimumReport", "brute_minmax", "chain_minmax_exact", "min_arborescence",
    "min_sum_optimum", "shortest_path",
    # vcg
    "clarke_payments", "vcg_allocate", "vcg_mechanism",
    # pareto
    "PtasReport", "minmax_ptas", "pareto_eps", "preprocess",
    # audit
    "Perturbation", "ViolationWitness", "check_truthfulness",
    "check_weak_monotonicity", "edge_stability_perturbation",
    "edge_stability_witness",
    # adversary
    "AdversaryReport", "BlockIndexing", "ChainSpec", "chain_exact_allocator",
    "expand_chain", "gen_chain", "opt_upper_bound", "run_adversary",
]
