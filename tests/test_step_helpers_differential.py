"""The edge-stability step helpers against the code they replaced.

`former_perturbation` and `former_is_strict` are the former bodies of
`audit.edge_stability_perturbation` (one Fraction product or sum per edge)
and `audit.is_strict_edge_stability` (one coercion and one comparison per
edge), kept here only as oracles. The new perturbation prices each distinct
(cost, selected) pair once; it must return the same dict, with the same
keys in the same order and values of equal value and type, and the verdicts
must agree. `former_validate` and `former_with_costs` are the former bodies
of `Perturbation.validate` (now the checks of `Perturbation.apply`) and
`Instance.with_costs`, which coerced every given cost; the new ones pass
Fractions through without a call, and must give the same edges, the same
integer costs over the same L, and the same errors, naming the same edge.
"""

import math
import random
from fractions import Fraction

import pytest

from minmax_procurement import Edge, Instance, Perturbation, Solution, audit, graphs, vcg_allocate
from minmax_procurement.adversary import (
    ChainSpec, build_adversary_instance, expand_chain, gen_chain)
from minmax_procurement.audit import (
    edge_stability_perturbation,
    is_strict_edge_stability,
    random_arborescence_instance,
    random_path_instance,
    random_perturbation,
)
from minmax_procurement.graphs import as_cost, as_rational
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


def former_validate(pert, inst):
    agent = pert.agent
    owned = {e.id for e in inst.edges if e.owner == agent}
    costs = {}
    for eid, cost in pert.new_costs.items():
        if eid not in owned:
            raise ValueError(f"edge {eid} is not owned by agent {pert.agent}")
        cost = as_rational(cost)
        if cost.numerator < 0:
            raise ValueError(f"perturbed cost of edge {eid} is negative")
        costs[eid] = cost
    return costs


def former_with_costs(inst, new_costs):
    index = inst._edge_index
    replaced = []
    for eid, cost in new_costs.items():
        if eid not in index:
            raise ValueError(f"unknown edge id {eid}")
        replaced.append((index[eid], as_cost(cost)))
    edges = list(inst.edges)
    for i, cost in replaced:
        eid, tail, head, owner, _ = edges[i]
        edges[i] = Edge(eid, tail, head, owner, cost)
    copy = inst._derive(tuple(edges))
    mine, shared = inst.__dict__, copy.__dict__
    for cache in ("_edge_index_cache", "_adjacency_cache"):
        if cache in mine:
            shared[cache] = mine[cache]
    if "_scaled_cache" in mine:
        scale, scaled = mine["_scaled_cache"]
        ratios = [(i, *cost.as_integer_ratio()) for i, cost in replaced]
        new_scale = math.lcm(scale, *(q for *_, q in ratios))
        factor = new_scale // scale
        ints = scaled.copy() if factor == 1 else [x * factor for x in scaled]
        for i, p, q in ratios:
            ints[i] = p * (new_scale // q)
        shared["_scaled_cache"] = (new_scale, ints)
    return copy


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
        dmst = build_adversary_instance(ChainSpec(agents, blocks), "dmst")[0]
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


# -- validate and with_costs ------------------------------------------------------


def outcome(call, *args):
    """What `call(*args)` returns, or the type and text of what it raises."""
    try:
        return "returned", call(*args)
    except Exception as exc:
        return type(exc), str(exc)


def copy_state(copy, scaled):
    """A copy's edges, their cost types and, if asked, its integers over L."""
    state = (copy.edges, [type(e.cost) for e in copy.edges])
    return state + (copy.scaled_costs(),) if scaled else state


def cost_pool():
    """Good costs: repeats of one object, equal values held in distinct
    objects (Fraction(1, 2) twice, 1 and Fraction(1)), ints, strings and zeros."""
    half = F(1, 2)
    return [half, half, F(1, 2), F(1), 1, 0, F(0), "3/4", "3/4", F(7, 3), F(5, 6), 2]


BAD_COSTS = [None, 0.5, True, False, F(-1, 3), -2, "-1/2", "1e3", "abc"]


def draws(rng, inst, agent):
    """New-cost mappings for `agent`'s edges: objects drawn with repeats,
    adjacent and not; some with a bad cost, an unknown id or another
    agent's edge, often after a repeated object."""
    owned = [e.id for e in inst.edges if e.owner == agent]
    others = [e.id for e in inst.edges if e.owner != agent]
    pool = cost_pool()
    for _ in range(12):
        ids = rng.sample(owned, rng.randint(1, len(owned)))
        costs = [rng.choice(pool) for _ in ids]
        if len(ids) > 2 and rng.random() < 0.5:  # one object, repeated non-adjacently
            costs[0] = costs[2] = pool[0]
        new_costs = dict(zip(ids, costs))
        flaw = rng.random()
        if flaw < 0.25:
            new_costs[rng.choice(ids)] = rng.choice(BAD_COSTS)
        elif flaw < 0.35:
            new_costs[999_999] = pool[0]
        elif flaw < 0.45 and others:
            new_costs[rng.choice(others)] = pool[0]
        yield new_costs


def step_instances():
    for seed in range(40):
        rng = random.Random(f"step-costs/{seed}")
        make = random_path_instance if seed % 2 else random_arborescence_instance
        yield rng, make(rng, agents=rng.randint(1, 3))
    for agents, blocks in ((2, 3), (3, 2)):
        rng = random.Random(f"step-costs/chain/{agents}")
        yield rng, expand_chain(gen_chain(ChainSpec(agents, blocks)), F(1, 8))[0]
        yield rng, build_adversary_instance(ChainSpec(agents, blocks), "dmst")[0]


def test_validate_and_with_costs_match_the_former_code():
    kinds = set()
    for rng, inst in step_instances():
        for agent in range(1, inst.agent_count + 1):
            if not inst.agent_edges(agent):
                continue
            for new_costs in draws(rng, inst, agent):
                pert = Perturbation(agent, new_costs)
                # with_costs takes the raw mapping too, on a parent with and
                # without its integers built
                for scaled in (False, True):
                    parent = Instance(inst.directed, inst.node_count, inst.edges,
                                      inst.agent_count, inst.mode, inst.source,
                                      inst.target_or_root)
                    if scaled:
                        parent.scaled_costs()
                    old = outcome(former_with_costs, parent, new_costs)
                    new = outcome(parent.with_costs, new_costs)
                    if old[0] == "returned":
                        assert new[0] == "returned"
                        assert copy_state(new[1], scaled) == copy_state(old[1], scaled)
                    else:
                        assert new == old
                    kinds.add(old[0])
                applied = outcome(pert.apply, inst)
                expected = outcome(lambda: former_with_costs(inst, former_validate(pert, inst)))
                kinds.add(expected[0])
                if expected[0] == "returned":
                    assert copy_state(applied[1], True) == copy_state(expected[1], True)
                else:
                    assert applied == expected
    assert {"returned", ValueError, TypeError} <= kinds


@pytest.mark.parametrize("new_costs, error, message", [
    # a bad cost after a repeated good object, and a repeated bad object
    ({0: F(1, 2), 2: F(1, 2), 4: None}, TypeError,
     "argument should be a string or a Rational instance"),
    ({0: 1, 2: 0.5, 4: 0.5}, TypeError, "float 0.5 is not an exact rational"),
    ({0: 1, 2: True}, TypeError, "bool True is not an exact rational"),
    # a negative cost after a valid one names its own edge
    ({0: F(1), 2: F(-1, 2)}, ValueError, "perturbed cost of edge 2 is negative"),
    # an unknown id or another agent's edge after a repeated object
    ({0: F(1), 2: F(1), 999: F(1)}, ValueError, "edge 999 is not owned by agent 1"),
    ({0: F(1), 2: F(1), 1: F(1)}, ValueError, "edge 1 is not owned by agent 1"),
])
def test_validate_names_the_first_bad_edge(new_costs, error, message):
    inst = gen_chain(ChainSpec(2, 3))  # agent 1 owns edges 0, 2 and 4
    pert = Perturbation(1, new_costs)
    for check in (pert.apply, lambda inst: former_validate(pert, inst)):
        with pytest.raises(error, match=f"^{message}$"):
            check(inst)


def test_only_costs_other_than_nonnegative_fractions_take_a_call(monkeypatch):
    coerced = []
    for module, name in ((audit, "as_rational"), (graphs, "as_cost")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda x, real=real: coerced.append(x) or real(x))
    inst = gen_chain(ChainSpec(2, 4))
    half, third = "1/2", F(1, 3)
    new_costs = {0: half, 2: third, 4: half, 6: 2}
    copy = inst.with_costs(new_costs)
    assert coerced == [half, half, 2]
    assert [copy.edge_by_id(i).cost for i in (0, 2, 4, 6)] == [F(1, 2), F(1, 3), F(1, 2), 2]
    # apply makes the Fractions, so its with_costs call takes no call
    coerced.clear()
    assert Perturbation(1, new_costs).apply(inst).edges == copy.edges
    assert coerced == [half, half, 2]
