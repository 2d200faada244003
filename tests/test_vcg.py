"""VCG mechanism: allocation, Clarke payments, and the n-approximation.

`former_clarke_payments` is the former payment loop: one `without_agent`
copy and one min-sum solve per agent that owns an edge, priced with
`cost_summary`'s Fractions. It is kept here only as the oracle the
integer loop on the instance itself must match, payment for payment and
pivotal agent for pivotal agent.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from minmax_procurement import (
    Edge,
    Instance,
    PATH,
    Solution,
    brute_minmax,
    clarke_payments,
    cost_summary,
    min_sum_optimum,
    vcg_allocate,
    vcg_mechanism,
)
from minmax_procurement.adversary import (
    ChainSpec, build_adversary_instance, expand_chain, gen_chain)
from minmax_procurement.audit import random_arborescence_instance, random_path_instance
from minmax_procurement import vcg
from minmax_procurement.graphs import agent_cost, dump_instance
from minmax_procurement.graphs import ARBORESCENCE
from minmax_procurement.solvers import NoFeasibleSolutionError
from minmax_procurement.vcg import PivotalInfeasibleError

F = Fraction


def parallel_instance(costs):
    edges = tuple(Edge(i, 0, 1, i + 1, F(c)) for i, c in enumerate(costs))
    return Instance(False, 2, edges, len(costs), PATH, 0, 1)


def test_allocation_picks_cheaper_parallel_edge():
    inst = parallel_instance([1, 3])
    assert vcg_allocate(inst).edge_ids == {0}


def test_allocation_tie_breaks_to_first_route_on_expanded_chain():
    inst, indexing = expand_chain(gen_chain(ChainSpec(2, 2)), F(1, 8))
    alloc = vcg_allocate(inst)
    expected = set(indexing.route(0, 1).edge_ids) | set(indexing.route(1, 1).edge_ids)
    assert alloc.edge_ids == expected


def test_allocation_stays_after_selected_edges_drop_to_zero():
    inst, _ = expand_chain(gen_chain(ChainSpec(2, 2)), F(1, 8))
    alloc = vcg_allocate(inst)
    zeroed = inst.with_costs({
        e.id: F(0) for e in inst.agent_edges(1) if e.id in alloc.edge_ids})
    assert vcg_allocate(zeroed).edge_ids == alloc.edge_ids


def test_clarke_payments_worked_example():
    inst = parallel_instance([1, 3])
    alloc = vcg_allocate(inst)
    payments = clarke_payments(inst, alloc)
    assert payments == (F(3), F(0))
    assert payments[0] - agent_cost(inst, alloc, 1) == 2
    assert payments[1] - agent_cost(inst, alloc, 2) == 0


def test_edgeless_agent_is_paid_zero():
    edges = (Edge(0, 0, 1, 1, F(1)), Edge(1, 0, 1, 3, F(2)))
    inst = Instance(False, 2, edges, 3, PATH, 0, 1)  # agent 2 owns nothing
    assert clarke_payments(inst, vcg_allocate(inst))[1] == 0
    assert vcg_mechanism(inst, 2)[1] == 0
    # also for an allocation that is not the min-sum optimum
    assert clarke_payments(inst, Solution({1}))[1] == 0


def test_pivotal_agent_is_a_hard_error():
    edges = (Edge(0, 0, 1, 1, F(1)),)
    inst = Instance(False, 2, edges, 1, PATH, 0, 1)
    with pytest.raises(PivotalInfeasibleError) as err:
        clarke_payments(inst, vcg_allocate(inst))
    assert err.value.agent == 1


def test_single_agent_allocation_is_min_sum_and_min_max():
    for seed in range(20):
        inst = random_path_instance(random.Random(seed), agents=1)
        alloc = vcg_allocate(inst)
        assert cost_summary(inst, alloc).max_cost == brute_minmax(inst).value


def test_expanded_chain_ratio_is_below_agent_count():
    inst, _ = expand_chain(gen_chain(ChainSpec(2, 2)), F(1, 8))
    alloc = vcg_allocate(inst)
    assert cost_summary(inst, alloc).max_cost == 2
    opt = brute_minmax(inst).value
    assert opt == F(9, 8)
    assert F(2) / opt == F(16, 9) <= 2


def test_n_approximation_and_social_cost_sandwich():
    for seed in range(80):
        rng = random.Random(seed)
        inst = (random_path_instance(rng) if seed % 2 == 0
                else random_arborescence_instance(rng, max_nodes=6))
        n = inst.agent_count
        sc = min_sum_optimum(inst).value
        opt = brute_minmax(inst).value
        assert F(sc, n) <= opt <= sc
        alloc = vcg_allocate(inst)
        assert cost_summary(inst, alloc).max_cost <= n * opt


def test_individual_rationality_of_truthful_outcomes():
    for seed in range(60):
        rng = random.Random(1000 + seed)
        agents = rng.randint(2, 3)
        inst = (random_path_instance(rng, agents=agents) if seed % 2 == 0
                else random_arborescence_instance(rng, max_nodes=6, agents=agents))
        alloc = vcg_allocate(inst)
        payments = clarke_payments(inst, alloc)
        for agent in range(1, inst.agent_count + 1):
            assert payments[agent - 1] - agent_cost(inst, alloc, agent) >= 0


def test_mechanism_is_deterministic():
    inst = random_path_instance(random.Random(5), agents=3)
    alloc = vcg_allocate(inst)
    payments = clarke_payments(inst, alloc)
    for _ in range(3):
        again = vcg_allocate(inst)
        assert again == alloc
        assert clarke_payments(inst, again) == payments


# -- the former payment loop as the oracle -------------------------------------


def former_clarke_payments(inst, alloc):
    summary = cost_summary(inst, alloc)
    owners = {e.owner for e in inst.edges}
    payments = []
    for agent in range(1, inst.agent_count + 1):
        if agent not in owners:
            payments.append(F(0))
            continue
        try:
            sc_without = min_sum_optimum(inst.without_agent(agent)).value
        except NoFeasibleSolutionError:
            raise PivotalInfeasibleError(agent) from None
        payments.append(sc_without - (summary.sum_cost - summary.per_agent[agent - 1]))
    return tuple(payments)


def fresh(inst):
    """The same instance with no cache, so no memoized optimum."""
    return Instance(inst.directed, inst.node_count, inst.edges, inst.agent_count,
                    inst.mode, inst.source, inst.target_or_root)


def payments_or_pivot(pay, inst, alloc):
    try:
        return pay(inst, alloc)
    except PivotalInfeasibleError as exc:
        return ("pivotal", exc.agent)


def random_instance(rng):
    """2-4 agents, sometimes an agent that owns nothing, sometimes zero costs,
    sometimes a part of the graph that only one agent's edges reach."""
    agents = rng.randint(2, 4)
    make = random_path_instance if rng.random() < 0.5 else random_arborescence_instance
    inst = make(rng, agents=agents)
    if rng.random() < 0.3:
        share = rng.choice([0.3, 1.0])
        inst = inst.with_costs({e.id: F(0) for e in inst.edges if rng.random() < share})
    edges = list(inst.edges)
    nodes, target = inst.node_count, inst.target_or_root
    if rng.random() < 0.25:  # a pendant node only `owner` reaches
        owner = rng.randint(1, agents)
        for _ in range(rng.randint(1, 2)):
            edges.append(Edge(len(edges), rng.randrange(nodes), nodes, owner,
                              F(rng.randint(0, 9), rng.randint(1, 3))))
        nodes += 1
        if inst.mode == PATH:
            target = nodes - 1
    idle = rng.random() < 0.3  # one more agent id, owning no edge
    return Instance(inst.directed, nodes, tuple(edges), agents + idle, inst.mode,
                    inst.source, target)


def test_clarke_payments_match_the_former_loop():
    seen = {"pivotal": 0, "idle": 0, "off_allocation": 0, "zero_cost": 0,
            "arborescence": 0, "not_optimal": 0}
    for seed in range(600):
        rng = random.Random(seed)
        inst = random_instance(rng)
        alloc = vcg_allocate(inst)
        expected = payments_or_pivot(former_clarke_payments, fresh(inst), alloc)
        # `vcg`'s path: the memoized optimum is the allocation
        assert payments_or_pivot(clarke_payments, inst, alloc) == expected, seed
        assert payments_or_pivot(lambda i, _: clarke_payments(i, vcg_allocate(i)),
                                 fresh(inst), None) == expected, seed
        # a feasible allocation that need not be optimal, with and without
        # the memoized optimum on the instance
        other = vcg_allocate(inst.with_costs(
            {e.id: F(rng.randint(0, 20), rng.randint(1, 4)) for e in inst.edges}))
        expected_other = payments_or_pivot(former_clarke_payments, fresh(inst), other)
        for probe in (inst, fresh(inst)):
            assert payments_or_pivot(clarke_payments, probe, other) == expected_other, seed
        owners = {e.owner for e in inst.edges}
        on_alloc = {inst.edge_by_id(i).owner for i in alloc.edge_ids}
        seen["pivotal"] += expected[0] == "pivotal"
        seen["idle"] += len(owners) < inst.agent_count
        seen["off_allocation"] += bool(owners - on_alloc)
        seen["zero_cost"] += any(e.cost == 0 for e in inst.edges)
        seen["arborescence"] += inst.mode == ARBORESCENCE
        seen["not_optimal"] += (cost_summary(inst, other).sum_cost
                                > min_sum_optimum(inst).value)
    assert min(seen.values()) >= 30, seen


def test_clarke_payments_on_all_zero_costs_and_an_owner_of_zero_cost_edges():
    # agent 1's zero-cost edge is on the allocation: its payment needs a solve
    edges = (Edge(0, 0, 1, 1, F(0)), Edge(1, 0, 1, 2, F(0)), Edge(2, 0, 1, 3, F(5)))
    inst = Instance(False, 2, edges, 3, PATH, 0, 1)
    assert clarke_payments(inst, vcg_allocate(inst)) == (F(0), F(0), F(0))
    priced = inst.with_costs({1: F(2)})
    assert clarke_payments(priced, vcg_allocate(priced)) == (F(2), F(0), F(0))
    assert former_clarke_payments(priced, vcg_allocate(priced)) == (F(2), F(0), F(0))


def test_the_first_pivotal_agent_is_named_as_before():
    # agents 2 and 3 each own the only way into a node; 1 owns a spare one
    edges = (Edge(0, 0, 1, 3, F(1)), Edge(1, 0, 2, 2, F(1)), Edge(2, 1, 2, 1, F(4)),
             Edge(3, 2, 3, 2, F(1)))
    inst = Instance(True, 4, edges, 3, ARBORESCENCE, 0, 0)
    alloc = vcg_allocate(inst)
    assert alloc.edge_ids == {0, 1, 3}
    for pay in (former_clarke_payments, clarke_payments):
        with pytest.raises(PivotalInfeasibleError) as err:
            pay(inst, alloc)
        assert err.value.agent == 2


# -- one agent's payment --------------------------------------------------------


def payment_or_pivot(inst, agent):
    """`vcg_mechanism`'s payment to `agent`, or the pivotal agent it names."""
    try:
        alloc, payment = vcg_mechanism(inst, agent)
    except PivotalInfeasibleError as exc:
        return ("pivotal", exc.agent)
    assert alloc == vcg_allocate(inst)
    return payment


def test_one_agents_payment_is_its_entry_in_every_agents_payments():
    pivotal = 0
    for seed in range(300):
        inst = random_instance(random.Random(seed))
        alloc = vcg_allocate(inst)
        for probe in (inst, fresh(inst)):
            each = [payment_or_pivot(probe, agent)
                    for agent in range(1, inst.agent_count + 1)]
            first_pivot = next((p for p in each if type(p) is tuple), None)
            assert payments_or_pivot(clarke_payments, probe, alloc) \
                == (first_pivot or tuple(each)), seed
            # and the former loop agrees, on a copy without the memo
            assert payments_or_pivot(former_clarke_payments, fresh(inst), alloc) \
                == (first_pivot or tuple(each)), seed
            pivotal += first_pivot is not None
    assert pivotal >= 30


def test_pivotal_agents_on_a_dmst_chain_raise_for_their_own_payments():
    # on a dmst chain no arborescence avoids any one agent's edges
    inst, _ = build_adversary_instance(ChainSpec(3, 2), "dmst")
    alloc = vcg_allocate(inst)
    with pytest.raises(PivotalInfeasibleError) as err:
        clarke_payments(inst, alloc)
    assert err.value.agent == 1
    for agent in (1, 2, 3):
        assert payment_or_pivot(inst, agent) == ("pivotal", agent)


@pytest.mark.parametrize("agent", [0, -1, 3, 99])
def test_a_payment_for_no_agent_of_the_instance_is_refused(agent):
    inst = gen_chain(ChainSpec(2, 2))
    with pytest.raises(ValueError, match=f"^agent {agent} is not one of 1..2$"):
        vcg_mechanism(inst, agent)


# -- work per payment call on two parallel paths ---------------------------------


class CountedEdges(tuple):
    """An instance's edges that count each edge read, by index or by a pass."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return tuple.__getitem__(self, i)

    def __iter__(self):
        for e in tuple.__iter__(self):
            self.reads += 1
            yield e


def two_paths(m, edges=tuple):
    """Two parallel m-edge paths from node 0 to node 1, one agent per edge,
    and agent 2m + 1 owning none. The first path costs 1/2, 1, 3/2, ... and
    the second 2, 3, 2, ..., so the first is the min-sum optimum."""
    listed = []
    for side, first, cost in ((0, 2, lambda k: F(1 + k % 3, 2)), (1, m + 1, lambda k: F(2 + k % 2))):
        nodes = [0, *range(first, first + m - 1), 1]
        for k in range(m):
            eid = side * m + k
            listed.append(Edge(eid, nodes[k], nodes[k + 1], eid + 1, cost(k)))
    return Instance(False, 2 * m, edges(listed), 2 * m + 1, PATH, 0, 1)


def test_the_committed_two_path_file_is_the_family_at_four(tmp_path):
    dump_instance(two_paths(4), tmp_path / "two_paths_4.json")
    committed = Path(__file__).with_name("two_paths_4.json")
    assert (tmp_path / "two_paths_4.json").read_bytes() == committed.read_bytes()


@pytest.mark.parametrize("m", [64, 128])
def test_clarke_payments_solve_once_per_agent_on_the_optimum(monkeypatch, m):
    inst = two_paths(m, CountedEdges)
    alloc = vcg_allocate(inst)
    assert alloc.edge_ids == set(range(m))
    solved, optima = [], []
    solve, optimum = vcg.scaled_min_sum_value, vcg.min_sum_optimum
    monkeypatch.setattr(vcg, "scaled_min_sum_value",
                        lambda inst, agent: solved.append(agent) or solve(inst, agent))
    monkeypatch.setattr(vcg, "min_sum_optimum",
                        lambda inst: optima.append(inst) or optimum(inst))
    inst.edges.reads = 0
    payments = clarke_payments(inst, alloc)
    # one solve per agent on the optimum's path, none for the other path's
    # agents or the idle one, and O(E) edge reads in all: one pass for the
    # owner index, one for the id index the allocation's loads build, the
    # allocation's edges and the optimum's, for their owners (listing each
    # agent's edge ids would read E more, and checking each agent against
    # the optimum edge by edge m^2)
    assert solved == list(range(1, m + 1))
    assert len(optima) == 1
    assert inst.edges.reads <= 3 * len(inst.edges)
    sc, sc_other = sum(F(1 + k % 3, 2) for k in range(m)), sum(F(2 + k % 2) for k in range(m))
    assert payments == tuple(sc_other - sc + F(1 + k % 3, 2) for k in range(m)) + (F(0),) * (m + 1)
    # one agent's payment reads the optimum twice, for the allocation and
    # for the pivot, and solves only for its own edges
    solved.clear()
    optima.clear()
    assert [vcg_mechanism(inst, agent) for agent in (1, m + 1, 2 * m + 1)] \
        == [(alloc, payments[0]), (alloc, F(0)), (alloc, F(0))]
    assert solved == [1] and len(optima) == 6
