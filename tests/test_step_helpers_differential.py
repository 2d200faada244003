"""The edge-stability step helpers against the code they replaced.

`former_perturbation` and `former_is_strict` are the former bodies of
`audit.edge_stability_perturbation` (one Fraction product or sum per edge)
and `audit.is_strict_edge_stability`, kept here only as oracles. The new
perturbation prices each distinct (cost, selected) pair once; it must
return the same dict, with the same keys in the same order and values of
equal value and type, and the verdicts must agree.
"""

import random
from fractions import Fraction

import pytest

from minmax_procurement import Edge, Instance, Perturbation, Solution, vcg_allocate
from minmax_procurement.adversary import ChainSpec, expand_chain, gen_chain, gen_dmst_chain
from minmax_procurement.audit import (
    edge_stability_perturbation,
    is_strict_edge_stability,
    random_arborescence_instance,
    random_path_instance,
    random_perturbation,
)
from minmax_procurement.graphs import as_rational
from minmax_procurement.solvers import NoFeasibleSolutionError

F = Fraction


# -- the former implementations ----------------------------------------------


def former_perturbation(inst, alloc, agent, shrink, bump):
    shrink = as_rational(shrink)
    bump = as_rational(bump)
    if not (0 <= shrink < 1):
        raise ValueError("shrink must lie in [0, 1)")
    if bump <= 0:
        raise ValueError("bump must be positive")
    return Perturbation(agent, {
        e.id: e.cost * shrink if e.id in alloc.edge_ids else e.cost + bump
        for e in inst.agent_edges(agent)})


def former_is_strict(inst, alloc, pert):
    for e in inst.agent_edges(pert.agent):
        new = as_rational(pert.new_costs.get(e.id, e.cost))
        if e.id in alloc.edge_ids:
            if not new < e.cost:
                return False
        elif not new > e.cost:
            return False
    return True


# -- cases ---------------------------------------------------------------------


def with_int_costs(inst, rng):
    """The same topology through the public constructor, with int costs
    (zeros and repeats included) and no cache built."""
    edges = tuple(Edge(e.id, e.tail, e.head, e.owner, rng.choice([0, 1, 1, 2, 5]))
                  for e in inst.edges)
    return Instance(inst.directed, inst.node_count, edges, inst.agent_count, inst.mode,
                    inst.source, inst.target_or_root)


def allocations(rng, inst):
    try:
        yield vcg_allocate(inst)
    except NoFeasibleSolutionError:
        pass
    yield Solution(e.id for e in inst.edges if rng.random() < 0.5)
    yield Solution(())


def steps(rng, inst):
    """(allocation, agent, shrink, bump) for every agent, shrink 0 and above."""
    for alloc in allocations(rng, inst):
        for agent in range(1, inst.agent_count + 1):
            for shrink in (0, F(rng.randint(1, 3), 4), "1/2"):
                yield alloc, agent, shrink, rng.choice([F(1, rng.randint(1, 8)), 1, "1/3"])


def instances():
    for seed in range(150):
        rng = random.Random(seed)
        make = random_path_instance if seed % 2 else random_arborescence_instance
        inst = make(rng, agents=rng.randint(1, 4))
        yield rng, inst
        yield rng, with_int_costs(inst, rng)
    for agents, blocks in ((2, 1), (2, 5), (3, 4), (4, 2), (2, 64), (3, 20)):
        rng = random.Random(agents * 100 + blocks)
        chain = gen_chain(ChainSpec(agents, blocks))
        yield rng, chain
        yield rng, expand_chain(chain, F(1, 8))[0]
        dmst = gen_dmst_chain(ChainSpec(agents, blocks))[0]
        yield rng, dmst
        yield rng, dmst.with_costs({e.id: F(rng.randint(0, 3), rng.randint(1, 3))
                                    for e in dmst.edges})


def assert_same_dict(new, old):
    assert list(new.items()) == list(old.items())
    assert [type(v) for v in new.values()] == [type(v) for v in old.values()]


def test_the_step_helpers_match_the_former_code():
    checked = strict = 0
    for rng, inst in instances():
        for alloc, agent, shrink, bump in steps(rng, inst):
            old = former_perturbation(inst, alloc, agent, shrink, bump)
            new = edge_stability_perturbation(inst, alloc, agent, shrink, bump)
            assert new.agent == old.agent == agent
            assert_same_dict(new.new_costs, old.new_costs)
            verdict = former_is_strict(inst, alloc, old)
            assert is_strict_edge_stability(inst, alloc, new) == verdict
            strict += verdict
            other = random_perturbation(rng, inst, agent, alloc)
            assert is_strict_edge_stability(inst, alloc, other) == \
                former_is_strict(inst, alloc, other)
            checked += 1
    # both verdicts occur: zero-cost selected edges make some steps not strict
    assert checked >= 3000 and 0 < strict < checked


def test_an_agent_with_no_edges_gets_an_empty_perturbation():
    inst = gen_chain(ChainSpec(2, 3))
    inst = Instance(inst.directed, inst.node_count, inst.edges, 3, inst.mode,
                    inst.source, inst.target_or_root)
    alloc = vcg_allocate(inst)
    new = edge_stability_perturbation(inst, alloc, 3, 0, 1)
    assert new == former_perturbation(inst, alloc, 3, 0, 1) == Perturbation(3, {})
    assert is_strict_edge_stability(inst, alloc, new)


@pytest.mark.parametrize("shrink, bump, message", [
    (1, 1, "shrink must lie in \\[0, 1\\)"),
    (F(-1, 2), 1, "shrink must lie in \\[0, 1\\)"),
    (0, 0, "bump must be positive"),
    (0, "-1/2", "bump must be positive"),
])
def test_bad_parameters_keep_their_messages(shrink, bump, message):
    inst = gen_chain(ChainSpec(2, 2))
    alloc = vcg_allocate(inst)
    for helper in (edge_stability_perturbation, former_perturbation):
        with pytest.raises(ValueError, match=f"^{message}$"):
            helper(inst, alloc, 1, shrink, bump)
