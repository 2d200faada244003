"""Dijkstra against `networkx` on small multigraphs.

Each seeded multigraph has parallel edges, zero-cost edges and a few
agents. `shortest_path` and `scaled_min_sum_value` without each agent must
give the shortest-path lengths `networkx` gives on the edges that remain,
raise NoFeasibleSolutionError exactly where `networkx` finds no path, and
return witnesses that `validate_solution` accepts.
"""

import random
from fractions import Fraction

import networkx as nx
import pytest

from minmax_procurement import Edge, Instance, PATH, shortest_path, validate_solution
from minmax_procurement.graphs import cost_summary
from minmax_procurement.solvers import (
    NoFeasibleSolutionError,
    min_sum_optimum,
    scaled_min_sum_value,
)

F = Fraction


def random_multigraph(rng: random.Random, directed: bool) -> Instance:
    nodes = rng.randint(2, 8)
    agents = rng.randint(1, 3)
    # few distinct endpoint pairs, so many edges are parallel
    pairs = [(rng.randrange(nodes), rng.randrange(nodes)) for _ in range(rng.randint(1, 8))]
    edges = []
    for eid in range(rng.randint(0, 18)):
        tail, head = rng.choice(pairs) if rng.random() < 0.7 else (
            rng.randrange(nodes), rng.randrange(nodes))
        cost = F(0) if rng.random() < 0.3 else F(rng.randint(0, 9), rng.randint(1, 4))
        edges.append(Edge(eid, tail, head, rng.randint(1, agents), cost))
    rng.shuffle(edges)
    return Instance(directed, nodes, tuple(edges), agents, PATH,
                    rng.randrange(nodes), rng.randrange(nodes))


def networkx_length(inst: Instance, without_agent: int = 0):
    """The shortest source-target length over the edges `without_agent`
    does not own, or None when the target is out of reach."""
    graph = nx.MultiDiGraph() if inst.directed else nx.MultiGraph()
    graph.add_nodes_from(range(inst.node_count))
    for e in inst.edges:
        if e.owner != without_agent:
            graph.add_edge(e.tail, e.head, weight=e.cost)
    try:
        return nx.shortest_path_length(graph, inst.source, inst.target_or_root,
                                       weight="weight")
    except nx.NetworkXNoPath:
        return None


def unscaled_value(inst: Instance, without_agent=0):
    try:
        return F(scaled_min_sum_value(inst, without_agent), inst.scaled_costs()[0])
    except NoFeasibleSolutionError:
        return None


@pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
def test_dijkstra_matches_networkx(directed):
    rng = random.Random(f"dijkstra/{directed}")
    infeasible = 0
    for _ in range(400):
        inst = random_multigraph(rng, directed)
        expected = networkx_length(inst)
        if expected is None:
            infeasible += 1
            with pytest.raises(NoFeasibleSolutionError):
                shortest_path(inst)
        else:
            report = shortest_path(inst)
            assert report.value == expected
            assert validate_solution(inst, report.witness)
            assert cost_summary(inst, report.witness).sum_cost == expected
        # before the min-sum optimum is memoized, then after: the memo is
        # not read, so both are solves
        values = [unscaled_value(inst, agent) for agent in range(1, inst.agent_count + 1)]
        if expected is not None:
            min_sum_optimum(inst)
        for agent, value in enumerate(values, 1):
            assert value == networkx_length(inst, agent) == unscaled_value(inst, agent)
        assert unscaled_value(inst) == expected
    assert 0 < infeasible < 400


@pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
def test_a_disconnected_target_is_infeasible(directed):
    # nodes 0-1 and 2-3 form two components joined by nothing
    edges = (Edge(0, 0, 1, 1, F(0)), Edge(1, 0, 1, 2, F(1)), Edge(2, 2, 3, 1, F(0)))
    inst = Instance(directed, 4, edges, 2, PATH, 0, 3)
    assert networkx_length(inst) is None
    with pytest.raises(NoFeasibleSolutionError):
        shortest_path(inst)
    for agent in (0, 1, 2):
        with pytest.raises(NoFeasibleSolutionError):
            scaled_min_sum_value(inst, agent)
