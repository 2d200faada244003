"""Arborescence solves without one agent: the value a Clarke payment needs.

`scaled_min_sum_value(inst, agent)` runs the contraction on `inst` itself,
skipping the agent's edges, or takes the memoized optimum when its witness
holds none of them. Both must give what the former recursive Chu-Liu/Edmonds
and `networkx` give on `inst.without_agent(agent)`, and an infeasible
remainder must raise the same NoFeasibleSolutionError, message included.
"""

import random
import re
from fractions import Fraction

import pytest

from minmax_procurement import Instance, min_sum_optimum
from minmax_procurement.adversary import ChainSpec, build_adversary_instance
from minmax_procurement.audit import random_arborescence_instance
from minmax_procurement.solvers import NoFeasibleSolutionError, scaled_min_sum_value

from test_minsum_differential import (
    NETWORKX_ARBORESCENCE_EDGES,
    networkx_value,
    random_costs,
    recursion_limit,
    recursive_edmonds,
    with_zero_costs,
)


def oracle(inst):
    """The former recursive solver's min-sum value, or its error message."""
    try:
        with recursion_limit(10 * inst.node_count + 1000):
            chosen = recursive_edmonds(
                list(range(inst.node_count)), inst.target_or_root,
                [(e.tail, e.head, e.cost, e.id) for e in inst.edges])
    except NoFeasibleSolutionError as exc:
        return str(exc)
    return sum((inst.edge_by_id(eid).cost for eid in chosen), Fraction(0))


def without_each_agent(inst):
    """Per agent: the value on `inst` (unsolved, then memoized) without the
    agent, or the error message, checked against the oracles."""
    results = []
    for memoized in (False, True):
        if memoized:
            try:
                min_sum_optimum(inst)
            except NoFeasibleSolutionError:
                continue
        for agent in range(1, inst.agent_count + 1):
            remainder = inst.without_agent(agent)
            expected = oracle(remainder)
            if isinstance(expected, str):
                with pytest.raises(NoFeasibleSolutionError, match=f"^{re.escape(expected)}$"):
                    scaled_min_sum_value(inst, agent)
                with pytest.raises(NoFeasibleSolutionError, match=f"^{re.escape(expected)}$"):
                    min_sum_optimum(remainder)
                results.append(expected)
                continue
            value = Fraction(scaled_min_sum_value(inst, agent), inst.scaled_costs()[0])
            assert value == expected == min_sum_optimum(remainder).value
            if len(remainder.edges) <= NETWORKX_ARBORESCENCE_EDGES:
                assert networkx_value(remainder) == value
            results.append(value)
    return results


def test_random_arborescences_without_each_agent_match_the_oracles():
    solved = failed = 0
    for seed in range(240):
        rng = random.Random(seed)
        inst = random_arborescence_instance(rng, max_nodes=8 if seed % 4 else 20,
                                            agents=rng.randint(2, 4))
        if seed % 2:
            inst = with_zero_costs(inst, rng)
        if seed % 3 == 0:  # every node has in-edges of two owners: thin them out
            inst = inst.without_edges(e.id for e in inst.edges if rng.random() < 0.3)
        results = without_each_agent(inst)
        failed += sum(isinstance(r, str) for r in results)
        solved += len(results)
    assert solved - failed >= 500 and failed >= 50


@pytest.mark.parametrize("agents,blocks", [(2, 1), (2, 5), (3, 4), (4, 3), (2, 64), (3, 20)])
def test_randomly_costed_dmst_chains_without_each_agent_match_the_oracles(agents, blocks):
    rng = random.Random(agents * 1000 + blocks)
    chain = build_adversary_instance(ChainSpec(agents, blocks), "dmst")[0]
    for inst in (chain, random_costs(chain, rng), random_costs(chain, rng, zero_share=0.4)):
        # every agent owns a helper edge into each other agent's route, so
        # the remainder is infeasible; a cycle of the route's far end and an
        # interior node is cut off, and the message names its super-node
        messages = without_each_agent(inst)
        assert len(messages) == 2 * agents
        for message in messages:
            assert int(message.split()[1]) >= inst.node_count


def test_a_dmst_chain_with_a_spare_route_prices_every_agent():
    # a second copy of every edge, owned by another agent, keeps each
    # remainder feasible, so the Clarke values are real solves
    rng = random.Random(7)
    chain = build_adversary_instance(ChainSpec(3, 6), "dmst")[0]
    n, edges = chain.agent_count, list(chain.edges)
    spare = [e._replace(id=e.id + len(edges), owner=e.owner % n + 1) for e in edges]
    doubled = Instance(True, chain.node_count, tuple(edges + spare), n, chain.mode,
                       chain.source, chain.target_or_root)
    inst = random_costs(doubled, rng, zero_share=0.3)
    results = without_each_agent(inst)
    assert len(results) == 2 * n and not any(isinstance(r, str) for r in results)
