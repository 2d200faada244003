"""Chain constructions and the adversarial lower-bound driver."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import minmax_procurement
from minmax_procurement import (
    PATH,
    AdversaryReport,
    ChainSpec,
    Instance,
    Solution,
    brute_minmax,
    chain_exact_allocator,
    chain_minmax_exact,
    cost_summary,
    expand_chain,
    gen_chain,
    gen_dmst_chain,
    run_adversary,
    validate_solution,
    vcg_allocate,
)
from minmax_procurement.adversary import (
    MAX_CHAIN_EDGES,
    MODE_DMST,
    MODE_PATH,
    _selected_routes,
    build_adversary_instance,
    opt_upper_bound,
)
from minmax_procurement.audit import InfeasibleAllocationError
from minmax_procurement.graphs import MAX_FILE_EDGES, MAX_FILE_NODES
from minmax_procurement.solvers import _enumerate_arborescences, _enumerate_paths, min_sum_optimum

F = Fraction


# -- generators ---------------------------------------------------------------


def test_chain_shape():
    inst = gen_chain(ChainSpec(3, 1))
    assert inst.node_count == 2
    assert len(inst.edges) == 3
    inst2 = gen_chain(ChainSpec(2, 2))
    assert len(inst2.edges) == 4
    assert min_sum_optimum(inst2).value == 2


def test_chain_minmax_matches_round_robin():
    inst = gen_chain(ChainSpec(3, 5))
    assert brute_minmax(inst).value == math.ceil(F(5, 3)) == 2


def test_spec_validation():
    with pytest.raises(ValueError):
        ChainSpec(1, 4)
    with pytest.raises(ValueError):
        ChainSpec(2, 0)
    with pytest.raises(ValueError):
        ChainSpec(2, 4, helper_eps=F(2))  # helper not below base cost


def test_spec_refuses_chains_past_the_edge_limit_before_building():
    """n agents and l blocks give at most n*l*(2n-1) edges (the dmst chain);
    the check is arithmetic, so these specs build no chain."""
    assert MAX_CHAIN_EDGES == 2**20
    top = MAX_CHAIN_EDGES // (2 * 3)
    assert ChainSpec(2, top).blocks == top
    with pytest.raises(ValueError, match=f"^2 agents and {top + 1} blocks make chains of "
                                         f"up to {6 * (top + 1)} edges, above the limit"):
        ChainSpec(2, top + 1)
    for agents, blocks in ((2, 10**12), (10**6, 1), (725, 1)):
        with pytest.raises(ValueError, match="above the limit of 1048576$"):
            ChainSpec(agents, blocks)
    # every size the benchmark and the tests build stays admitted
    for agents, blocks in ((2, 400), (3, 644), (4, 12), (5, 8)):
        ChainSpec(agents, blocks)


def chain_sizes(agents, blocks):
    """Nodes and edges of the plain, expanded and dmst chains, by arithmetic."""
    interior = 1 + blocks * (agents * (agents - 1) + 1)
    return [(blocks + 1, agents * blocks), (interior, agents * agents * blocks),
            (interior, agents * blocks * (2 * agents - 1))]


def test_every_chain_gen_can_write_fits_the_instance_file_limits():
    for agents, blocks in ((2, 1), (2, 3), (3, 2), (4, 2)):
        spec = ChainSpec(agents, blocks)
        built = [gen_chain(spec), expand_chain(gen_chain(spec), F(1, 8))[0],
                 gen_dmst_chain(spec)[0]]
        assert [(i.node_count, len(i.edges)) for i in built] == chain_sizes(agents, blocks)
    for agents in range(2, 725):  # 725 agents are refused at one block
        blocks = MAX_CHAIN_EDGES // (agents * (2 * agents - 1))
        ChainSpec(agents, blocks)
        for nodes, edges in chain_sizes(agents, blocks):
            assert nodes <= MAX_FILE_NODES and edges <= MAX_FILE_EDGES


@pytest.mark.parametrize("agents, blocks", [(2, True), (True, 2), (2.0, 3), (2, "3")])
def test_spec_refuses_counts_other_than_ints(agents, blocks):
    with pytest.raises(TypeError, match="must be an int"):
        ChainSpec(agents, blocks)


@pytest.mark.parametrize("eps, error", [(0.1, TypeError), (True, TypeError),
                                        ("1e-3", ValueError)])
def test_expand_chain_refuses_inexact_helper_costs(eps, error):
    with pytest.raises(error):
        expand_chain(gen_chain(ChainSpec(2, 1)), eps)


def test_expand_chain_refuses_a_block_without_an_agents_edge():
    chain = gen_chain(ChainSpec(2, 2))  # block 1 holds edges 2 (agent 1) and 3 (agent 2)
    with pytest.raises(ValueError, match="^instance is not a generated chain$"):
        expand_chain(chain.without_edges([3]), F(1, 8))


@pytest.mark.parametrize("source, target", [(0, 1), (1, 2), (2, 0)])
def test_expand_chain_refuses_ends_other_than_0_and_l(source, target):
    chain = gen_chain(ChainSpec(2, 2))
    moved = Instance(False, chain.node_count, chain.edges, 2, PATH, source, target)
    with pytest.raises(ValueError, match="^instance is not a generated chain$"):
        expand_chain(moved, F(1, 8))


def test_expand_chain_reads_helper_costs_exactly():
    inst, _ = expand_chain(gen_chain(ChainSpec(2, 1)), "1/8")
    assert sorted({e.cost for e in inst.edges}) == [F(1, 8), 1]


def test_default_helper_costs():
    assert ChainSpec(2, 10).eps_for(MODE_PATH) == F(1, 20)
    assert ChainSpec(3, 10).eps_for(MODE_DMST) == F(1, 120)
    assert ChainSpec(2, 10, helper_eps=F(1, 7)).eps_for(MODE_PATH) == F(1, 7)


def test_expanded_chain_shape():
    inst, indexing = expand_chain(gen_chain(ChainSpec(3, 1)), F(1, 6))
    assert len(inst.edges) == 9
    assert inst.node_count == 8
    for route in indexing.blocks[0]:
        owners = [inst.edge_by_id(i).owner for i in route.edge_ids]
        assert owners == [1, 2, 3]  # position j owned by agent j
        # the full-cost edge is the one the route's agent owns
        (main,) = [inst.edge_by_id(i) for i in route.edge_ids
                   if inst.edge_by_id(i).owner == route.agent]
        assert main.cost == 1
        helpers = [inst.edge_by_id(i) for i in route.edge_ids if i != main.id]
        assert all(e.cost == F(1, 6) for e in helpers)


def test_expanded_route_costs():
    inst, indexing = expand_chain(gen_chain(ChainSpec(2, 1)), F(1, 4))
    for agent in (1, 2):
        ids = indexing.route(0, agent).edge_ids
        assert cost_summary(inst, Solution(ids)).sum_cost == 1 + F(1, 4)


def test_dmst_chain_shape_and_cyclic_ownership():
    inst, indexing = gen_dmst_chain(ChainSpec(3, 1))
    assert len(inst.edges) == 15  # 3 routes x (3 rightward + 2 leftward)
    r1, r2, r3 = indexing.blocks[0]
    owners = lambda r: [inst.edge_by_id(i).owner for i in r.edge_ids]
    assert owners(r1) == [1, 2, 3]
    assert owners(r2) == [2, 3, 1]
    assert owners(r3) == [3, 1, 2]
    for route in (r1, r2, r3):
        (main,) = [inst.edge_by_id(i) for i in route.edge_ids
                   if inst.edge_by_id(i).owner == route.agent]
        assert main.cost == 1
        assert all(inst.edge_by_id(i).cost == ChainSpec(3, 1).eps_for(MODE_DMST)
                   for i in route.leftward_ids)


def test_dmst_two_agent_route_owners():
    inst, indexing = gen_dmst_chain(ChainSpec(2, 1))
    owners = lambda r: [inst.edge_by_id(i).owner for i in r.edge_ids]
    assert owners(indexing.route(0, 1)) == [1, 2]
    assert owners(indexing.route(0, 2)) == [2, 1]


def test_dmst_single_route_per_block_solution_is_feasible():
    inst, indexing = gen_dmst_chain(ChainSpec(2, 3))
    ids = []
    for k in range(3):
        ids.extend(indexing.route(k, 1).edge_ids)
        ids.extend(indexing.route(k, 2).leftward_ids)
    assert validate_solution(inst, Solution(ids))


@pytest.mark.parametrize("mode", [MODE_PATH, MODE_DMST])
@pytest.mark.parametrize("agents, blocks", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1)])
def test_every_feasible_solution_selects_one_route_per_block(mode, agents, blocks):
    """A simple path crosses each block once; in an arborescence node k+1 has
    one in-edge, the last edge of one route, and the route's interior is then
    reached only along that route."""
    inst, indexing = build_adversary_instance(ChainSpec(agents, blocks), mode)
    enumerate_all = _enumerate_paths if mode == MODE_PATH else _enumerate_arborescences
    solutions = 0
    for ids in enumerate_all(inst):
        sol = Solution(ids)
        for routes, picked in zip(indexing.blocks, _selected_routes(indexing, sol)):
            full = [r.agent for r in routes if set(r.edge_ids) <= sol.edge_ids]
            assert full == [picked]
        solutions += 1
    assert solutions == agents ** (blocks * (1 if mode == MODE_PATH else agents))


# -- driver: monotone algorithm ends with a ratio witness ----------------------


def test_driver_certifies_ratio_against_vcg_path():
    spec = ChainSpec(2, 16)
    report = run_adversary(vcg_allocate, spec, MODE_PATH)
    assert report.outcome == "ratio"
    assert all(step.stable for step in report.trace)
    r = report.ratio
    assert r.certified_ratio == r.algorithm_cost / r.opt_upper_bound
    assert r.guaranteed_bound == 2 - F(4 * 8, 16)
    assert r.certified_ratio >= r.guaranteed_bound
    assert sum(report.selections_per_agent) >= 16
    assert report.selections_per_agent[report.heavy_agent - 1] * 2 >= 16


def test_driver_certifies_ratio_against_vcg_dmst():
    spec = ChainSpec(2, 16)
    report = run_adversary(vcg_allocate, spec, MODE_DMST)
    assert report.outcome == "ratio"
    assert report.ratio.certified_ratio >= report.ratio.guaranteed_bound


def test_driver_three_agents():
    spec = ChainSpec(3, 120)
    report = run_adversary(vcg_allocate, spec, MODE_PATH)
    assert report.outcome == "ratio"
    assert report.ratio.certified_ratio >= 3 - F(4 * 27, 120)
    assert len(report.trace) == 2  # one transformation per non-heavy agent


def test_custom_helper_cost_omits_the_closed_form_comparison():
    spec = ChainSpec(2, 16, helper_eps=F(1, 1000))
    report = run_adversary(vcg_allocate, spec, MODE_PATH)
    assert report.outcome == "ratio"
    assert report.ratio.guaranteed_bound is None


def test_driver_requires_unit_base_costs():
    with pytest.raises(ValueError, match="unit base"):
        run_adversary(vcg_allocate, ChainSpec(2, 4, base_cost=F(2)), MODE_PATH)


def test_driver_rejects_infeasible_algorithms():
    broken = lambda inst: Solution([0])
    with pytest.raises(InfeasibleAllocationError):
        run_adversary(broken, ChainSpec(2, 4), MODE_PATH)


# -- driver: non-monotone algorithm is caught ----------------------------------


def test_exact_minmax_allocator_yields_strict_violation():
    spec = ChainSpec(2, 12)
    _, indexing = build_adversary_instance(spec, MODE_PATH)
    report = run_adversary(chain_exact_allocator(indexing), spec, MODE_PATH)
    assert report.outcome == "monotonicity-violation"
    witness = report.violation
    assert witness.reverify()
    a, b, c, d = witness.terms
    assert a + b > c + d


@pytest.mark.parametrize("agents,blocks", [(2, 6), (3, 4), (4, 2)])
def test_chain_exact_allocator_is_the_dp_on_any_costs_of_its_topology(agents, blocks):
    # the allocator reads its route columns off the first instance and only
    # costs off later ones; the Fraction entry prices each route afresh
    rng = random.Random(f"allocator/{agents}x{blocks}")
    inst, indexing = build_adversary_instance(ChainSpec(agents, blocks), MODE_PATH)
    alg = chain_exact_allocator(indexing)
    edges = [[route.edge_ids for route in routes] for routes in indexing.blocks]
    for _ in range(30):
        costs = inst.with_costs({e.id: F(rng.randint(0, 6), rng.choice((1, 2, 3)))
                                 for e in inst.edges if rng.random() < 0.7})
        vectors = []
        for routes in indexing.blocks:
            vectors.append([])
            for route in routes:
                load = [F(0)] * agents
                for eid in route.edge_ids:
                    edge = costs.edge_by_id(eid)
                    load[edge.owner - 1] += edge.cost
                vectors[-1].append(tuple(load))
        assert alg(costs) == chain_minmax_exact(agents, vectors, edges).witness


def test_violation_witness_replays_against_the_algorithm():
    spec = ChainSpec(2, 12)
    inst, indexing = build_adversary_instance(spec, MODE_PATH)
    alg = chain_exact_allocator(indexing)
    report = run_adversary(alg, spec, MODE_PATH)
    witness = report.violation
    base = inst.with_costs({eid: c for eid, c in witness.base_costs})
    # the recorded base profile must reproduce the recorded allocation
    # restricted to the probed agent's edges
    owned = {eid for eid, _ in witness.base_costs}
    assert alg(base).edge_ids & owned == witness.allocation.edge_ids & owned


# -- upper-bound certificate ---------------------------------------------------


@pytest.mark.parametrize("mode,agents,blocks", [
    (MODE_PATH, 2, 2), (MODE_PATH, 2, 4), (MODE_PATH, 3, 3), (MODE_PATH, 2, 6),
    (MODE_DMST, 2, 2), (MODE_DMST, 2, 4), (MODE_DMST, 2, 6),
])
def test_upper_bound_dominates_true_optimum_at_small_scale(mode, agents, blocks):
    spec = ChainSpec(agents, blocks)
    report = run_adversary(vcg_allocate, spec, mode)
    assert report.outcome == "ratio"
    final = build_adversary_instance(spec, mode)[0].with_costs(
        {eid: c for eid, c in report.ratio.final_costs})
    assert validate_solution(final, report.ratio.upper_bound_solution)
    true_opt = brute_minmax(final).value
    assert report.ratio.opt_upper_bound >= true_opt
    exact_ratio = report.ratio.algorithm_cost / true_opt
    assert report.ratio.certified_ratio <= exact_ratio


def test_upper_bound_matches_closed_form_slack():
    spec = ChainSpec(2, 64, helper_eps=F(1, 128))
    report = run_adversary(vcg_allocate, spec, MODE_PATH)
    l1 = report.selections_per_agent[report.heavy_agent - 1]
    eps = F(1, 128)
    closed_form = math.ceil(F(l1, 2)) * (1 + eps) + 2 * eps * 64
    assert report.ratio.opt_upper_bound <= closed_form


# Run with -O, so a bare `assert` would be skipped: the step's strictness
# check must raise all the same. The perturbation keeps every cost, so no
# selected edge drops and no unselected one rises.
NON_STRICT_STEP = """
import minmax_procurement.adversary as adversary
from minmax_procurement import Perturbation, vcg_allocate
assert not __debug__
adversary.edge_stability_perturbation = lambda inst, sol, agent, *_: Perturbation(agent, {})
try:
    adversary.run_adversary(vcg_allocate, adversary.ChainSpec(2, 4), adversary.MODE_PATH)
except RuntimeError as exc:
    print(exc)
"""


def test_a_non_strict_step_is_refused_under_python_dash_O():
    env = dict(os.environ, PYTHONPATH=str(Path(minmax_procurement.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-O", "-c", NON_STRICT_STEP], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout == "transformation must be a strict edge-stability perturbation\n"
    assert result.stderr == ""
