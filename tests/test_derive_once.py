"""Derived instances, the min-sum memo and the work done once per instance.

Derived copies (`with_costs`, `without_agent`, `without_edges` and
`Perturbation.apply`) skip the constructor's per-edge validation. A
cost-only copy (`with_costs`, `apply`) keeps ids, endpoints and owners, so
it holds its parent's edge index, owner index and adjacency lists, the
very objects, and derives its integer costs from its parent's.
`without_agent` and `without_edges` hold only the instance's fields. No
copy holds the min-sum memo. A memo leaked into a copy would not show in any report: VCG
is monotone, so every audit passes either way. These tests look at the
copies directly, and count the solves and builds the CLI makes.
"""

import dataclasses
import math
import random
from fractions import Fraction

import pytest

from minmax_procurement import adversary, audit, cli, pareto, solvers
from minmax_procurement.adversary import (
    ChainSpec, build_adversary_instance, expand_chain, gen_chain)
from minmax_procurement.audit import (
    Perturbation,
    random_arborescence_instance,
    random_cost,
    random_path_instance,
    random_perturbation,
)
from minmax_procurement.graphs import ARBORESCENCE, PATH, Edge, Instance, dump_instance
from minmax_procurement.pareto import minmax_ptas
from minmax_procurement.solvers import NoFeasibleSolutionError, min_sum_optimum

F = Fraction
# what a cost-only copy shares with its parent, when the parent has built it
TOPOLOGY = ("_edge_index_cache", "_adjacency_cache", "_owned_cache")
FIELDS = {field.name for field in dataclasses.fields(Instance)}


def rebuilt(inst):
    """The same data through the validating public constructor."""
    return Instance(inst.directed, inst.node_count, inst.edges, inst.agent_count,
                    inst.mode, inst.source, inst.target_or_root)


def solve(inst):
    try:
        return min_sum_optimum(inst)
    except NoFeasibleSolutionError as exc:
        return str(exc)


def derived_copies(rng, inst, alloc):
    """(how, copy, the replaced costs of a cost-only copy or None)."""
    agent = rng.randint(1, inst.agent_count)
    pert = random_perturbation(rng, inst, agent, alloc)
    yield "apply", pert.apply(inst), dict(pert.new_costs)
    costs = {e.id: random_cost(rng) for e in inst.edges if rng.random() < 0.5}
    yield "with_costs", inst.with_costs(costs), costs
    yield "without_agent", inst.without_agent(agent), None
    yield "without_edges", inst.without_edges(
        rng.sample(sorted(alloc.edge_ids), min(1, len(alloc.edge_ids)))), None


def test_derived_copies_share_the_topology_and_never_the_memo():
    changed = 0
    for seed in range(200):
        rng = random.Random(seed)
        make = random_path_instance if seed % 2 else random_arborescence_instance
        inst = make(rng, agents=rng.randint(2, 3))
        alloc = min_sum_optimum(inst).witness
        inst.edge_by_id(inst.edges[0].id)
        inst.owned(1)
        # only the path solvers build adjacency lists
        built = set(TOPOLOGY) - ({"_adjacency_cache"} if inst.mode == ARBORESCENCE else set())
        assert built | {"_min_sum_cache", "_scaled_cache"} <= set(inst.__dict__)
        scale = inst.scaled_costs()[0]
        for how, copy, replaced in derived_copies(rng, inst, alloc):
            if replaced is None:
                # the fields and nothing else: a cache of any name would show here
                assert set(vars(copy)) == FIELDS, how
            else:
                assert set(vars(copy)) == FIELDS | built | {"_scaled_cache"}, how
                for cache in built:
                    assert vars(copy)[cache] is vars(inst)[cache], (how, cache)
                assert copy.scaled_costs()[0] == math.lcm(
                    scale, *(cost.denominator for cost in replaced.values())), (seed, how)
            copy_scale, costs = copy.scaled_costs()
            assert [F(x, copy_scale) for x in costs] == [e.cost for e in copy.edges], (seed, how)
            assert copy == rebuilt(copy)
            assert solve(copy) == solve(rebuilt(copy)), (seed, how)
            if how == "apply":
                changed += min_sum_optimum(copy).witness != alloc
    # a copied memo would return `alloc` here: the test must see changes
    assert changed >= 40


def test_a_cost_only_copy_rescales_only_what_it_must():
    inst = Instance(False, 2, edges((0, 1, 1, "1/2"), (0, 1, 2, 3), (0, 1, 1, "1/4")),
                    2, PATH, 0, 1)
    assert inst.scaled_costs() == (4, [2, 12, 1])
    thirds = inst.with_costs({1: F(1, 3)})
    assert thirds.scaled_costs() == (12, [6, 4, 3])
    same = inst.with_costs({1: F(5, 2)})
    assert same.scaled_costs() == (4, [2, 10, 1])
    assert inst.scaled_costs() == (4, [2, 12, 1])  # the parent's list is not changed
    # L is a common denominator: it keeps the parent's factor 3 after the third goes
    back = thirds.with_costs({1: 3})
    assert back.scaled_costs() == (12, [6, 36, 3])
    assert rebuilt(back).scaled_costs() == (4, [2, 12, 1])
    assert solve(back) == solve(rebuilt(back)) == solve(inst)
    # a copy of an instance without integers computes its own, the least L
    whole = {0: F(1), 2: F(1)}
    assert rebuilt(inst).with_costs(whole).scaled_costs() == (1, [1, 3, 1])
    assert inst.with_costs(whole).scaled_costs() == (4, [4, 12, 4])


def test_the_memo_is_written_once():
    inst = random_path_instance(random.Random(5), agents=3)
    first = min_sum_optimum(inst)
    assert inst.__dict__["_min_sum_cache"] is first
    assert min_sum_optimum(inst) is first


# -- the owner index ---------------------------------------------------------------


def assert_owners_match_a_scan(inst):
    """`owned` and `agent_edges` of every agent against a scan of every edge."""
    for agent in range(1, inst.agent_count + 1):
        scanned = tuple(i for i, e in enumerate(inst.edges) if e.owner == agent)
        assert inst.owned(agent) == scanned, agent
        assert inst.agent_edges(agent) == tuple(inst.edges[i] for i in scanned), agent


def owner_cases():
    for seed in range(60):
        rng = random.Random(f"owners/{seed}")
        make = random_path_instance if seed % 2 else random_arborescence_instance
        yield rng, make(rng, agents=rng.randint(1, 4))
    for agents, blocks in ((2, 1), (2, 5), (3, 4), (4, 2)):
        rng = random.Random(f"owners/chain/{agents}/{blocks}")
        chain = gen_chain(ChainSpec(agents, blocks))
        yield rng, chain
        yield rng, expand_chain(chain, F(1, 8))[0]
        yield rng, build_adversary_instance(ChainSpec(agents, blocks), "dmst")[0]
        # one more agent, who owns no edge
        yield rng, Instance(chain.directed, chain.node_count, chain.edges, agents + 1,
                            chain.mode, chain.source, chain.target_or_root)


def test_the_owner_index_matches_a_scan_and_only_cost_only_copies_share_it():
    cases = shared = 0
    for rng, inst in owner_cases():
        assert_owners_match_a_scan(inst)
        owners = vars(inst)["_owned_cache"]
        alloc = min_sum_optimum(inst).witness
        for how, copy, replaced in derived_copies(rng, inst, alloc):
            # a new topology builds its own index, from its own edges
            carried = vars(copy).get("_owned_cache")
            assert carried is (None if replaced is None else owners), how
            assert_owners_match_a_scan(copy)
            shared += carried is owners
        cases += 1
    assert shared == 2 * cases


# -- the public constructor and cost replacement still validate ---------------


def edges(*specs):
    return tuple(Edge(i, t, h, o, F(c)) for i, (t, h, o, c) in enumerate(specs))


@pytest.mark.parametrize("args, message", [
    ((False, 2, (Edge(0, 0, 1, 1, F(1)), Edge(0, 0, 1, 2, F(1))), 2, PATH, 0, 1),
     "duplicate edge id 0"),
    ((False, 2, edges((0, 2, 1, 1)), 1, PATH, 0, 1),
     "edge 0 has endpoints outside 0..1"),
    ((False, 2, edges((-1, 1, 1, 1)), 1, PATH, 0, 1),
     "edge 0 has endpoints outside 0..1"),
    ((False, 2, edges((0, 1, 3, 1)), 2, PATH, 0, 1),
     "edge 0 owner 3 outside 1..2"),
    ((False, 2, edges((0, 1, 0, 1)), 2, PATH, 0, 1),
     "edge 0 owner 0 outside 1..2"),
    ((False, 2, edges((0, 1, 1, -1)), 1, PATH, 0, 1),
     "edge 0 has negative cost"),
    ((False, 2, edges((0, 1, 1, 1)), 1, PATH, 0, 2),
     "designated node outside the node range"),
    ((True, 2, edges((0, 1, 1, 1)), 1, ARBORESCENCE, -1, 0),
     "designated node outside the node range"),
])
def test_constructor_rejects_invalid_instances(args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Instance(*args)


def two_agents():
    return Instance(False, 2, edges((0, 1, 1, 1), (0, 1, 2, 2)), 2, PATH, 0, 1)


@pytest.mark.parametrize("cost, error, message", [
    (-1, ValueError, "edge cost must be nonnegative, got -1"),
    (F(-1, 2), ValueError, "edge cost must be nonnegative, got -1/2"),
    ("-3/4", ValueError, "edge cost must be nonnegative, got -3/4"),
    ("abc", ValueError, "Invalid literal for Fraction: 'abc'"),
    (None, TypeError, "argument should be a string or a Rational instance"),
])
def test_with_costs_rejects_bad_replacement_costs(cost, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        two_agents().with_costs({1: cost})


def test_with_costs_refuses_an_unknown_edge_id_before_any_copy(monkeypatch):
    derived = counting(monkeypatch, Instance, "_derive")
    chain = gen_chain(ChainSpec(2, 2))
    for new_costs in ({999: -5}, {0: F(1), 999: F(2)}):
        with pytest.raises(ValueError, match="^unknown edge id 999$"):
            chain.with_costs(new_costs)
    assert derived == []


def test_with_costs_keeps_fractions_and_coerces_the_rest():
    cost = F(7, 3)
    copy = two_agents().with_costs({0: cost, 1: "5/10"})
    assert copy.edge_by_id(0).cost is cost
    assert copy.edge_by_id(1).cost == F(1, 2) and type(copy.edge_by_id(1).cost) is Fraction


@pytest.mark.parametrize("new_costs, message", [
    ({1: F(1)}, "edge 1 is not owned by agent 1"),
    ({0: F(-1)}, "perturbed cost of edge 0 is negative"),
    ({0: "-1/3"}, "perturbed cost of edge 0 is negative"),
])
def test_perturbation_apply_keeps_its_messages(new_costs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Perturbation(1, new_costs).apply(two_agents())


@pytest.mark.parametrize("cost, error", [(0.3, TypeError), (True, TypeError),
                                         ("1e3", ValueError)])
def test_perturbation_apply_refuses_floats_and_exponent_strings(cost, error):
    with pytest.raises(error):
        Perturbation(2, {1: cost}).apply(two_agents())


def test_perturbation_apply_coerces_each_cost_once():
    perturbed = Perturbation(2, {1: "3/6"}).apply(two_agents())
    assert perturbed.edge_by_id(1).cost == F(1, 2)


# -- work done once per instance and per op -----------------------------------


def counting(monkeypatch, module, *names):
    """One list that records a call of any of `module`'s `names`."""
    calls = []
    for name in names:
        def counted(*args, _original=getattr(module, name), **kwargs):
            calls.append(args)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("kind", ["truthfulness", "monotonicity"])
def test_audit_makes_two_witness_solves_per_trial(monkeypatch, tmp_path, kind):
    calls = counting(monkeypatch, solvers, "shortest_path", "min_arborescence")
    code = cli.main(["audit", kind, "--trials", "50", "--seed", "3",
                     "--out", str(tmp_path / "audit.json")])
    assert code == 0
    assert len(calls) == 2 * 50


@pytest.mark.parametrize("kind", ["truthfulness", "monotonicity"])
def test_every_audit_probe_copy_shares_its_parents_edge_index(monkeypatch, tmp_path, kind):
    # a monotonicity probe applies its perturbation before anything has built
    # the true profile's index, so `with_costs` must build it on the parent
    copies = []

    def with_costs(inst, new_costs, _original=Instance.with_costs):
        copy = _original(inst, new_costs)
        copies.append(vars(copy).get("_edge_index_cache") is vars(inst)["_edge_index_cache"])
        return copy

    monkeypatch.setattr(Instance, "with_costs", with_costs)
    code = cli.main(["audit", kind, "--trials", "200", "--seed", "3",
                     "--out", str(tmp_path / "audit.json")])
    assert code == 0
    assert copies == [True] * 200


def test_a_truthfulness_probe_solves_at_most_one_clarke_pivot_per_profile(monkeypatch,
                                                                          tmp_path):
    trials = []  # per trial: the probed agent, and the agent each value-only run skips

    def checked(mech, inst, pert, _original=audit.check_truthfulness):
        trials.append((pert.agent, []))
        return _original(mech, inst, pert)

    def dijkstra(inst, stop=None, without_agent=0, _original=solvers._dijkstra):
        if stop is not None:
            trials[-1][1].append(without_agent)
        return _original(inst, stop, without_agent)

    monkeypatch.setattr(audit, "check_truthfulness", checked)
    monkeypatch.setattr(solvers, "_dijkstra", dijkstra)
    code = cli.main(["audit", "truthfulness", "--trials", "50", "--seed", "3",
                     "--out", str(tmp_path / "audit.json")])
    assert code == 0 and len(trials) == 50
    for agent, skipped in trials:
        assert skipped in ([], [agent], [agent, agent])
    # paying every agent on the allocation under both profiles made 167
    assert sum(len(skipped) for _, skipped in trials) == 65


@pytest.mark.parametrize("cheap, on_allocation", [
    ({}, [1]),  # unit costs: the smallest ids, agent 1's edges, win every block
    ({1: F(1, 2)}, [1, 2]),  # agent 2's edge is the cheapest in block 0
])
def test_vcg_solves_once_per_agent_on_the_allocation(monkeypatch, tmp_path, cheap,
                                                     on_allocation):
    path = tmp_path / "chain.json"
    dump_instance(gen_chain(ChainSpec(3, 5)).with_costs(cheap), path)
    builds, dijkstras = [], []

    def adjacency(inst, _original=Instance.adjacency):
        if "_adjacency_cache" not in inst.__dict__:
            builds.append(inst)
        return _original(inst)

    def dijkstra(inst, stop=None, without_agent=0, _original=solvers._dijkstra):
        dijkstras.append((stop, without_agent))
        return _original(inst, stop, without_agent)

    monkeypatch.setattr(Instance, "adjacency", adjacency)
    monkeypatch.setattr(solvers, "_dijkstra", dijkstra)
    derived = counting(monkeypatch, Instance, "_derive")
    code = cli.main(["vcg", "--instance", str(path), "--out", str(tmp_path / "vcg.json")])
    assert code == 0
    assert len(builds) == 1
    # one full run for the witness, then one that stops at the target (node 5)
    # per agent on the allocation; agent 3 owns only edges off it
    assert dijkstras == [(None, 0)] + [(5, agent) for agent in on_allocation]
    assert derived == []


@pytest.mark.parametrize("alg", ["vcg", "chain-exact"])
def test_adversary_builds_its_instance_once_per_op(monkeypatch, tmp_path, alg):
    calls = counting(monkeypatch, adversary, "build_adversary_instance")
    for blocks in (4, 6):
        code = cli.main(["adversary", "run", "--alg", alg, "--mode", "path",
                         "--agents", "2", "--blocks", str(blocks),
                         "--out", str(tmp_path / "adv.json")])
        assert code == 0
    assert len(calls) == 2


def test_an_unknown_adversary_algorithm_is_refused_before_the_build(monkeypatch, capsys):
    calls = counting(monkeypatch, adversary, "build_adversary_instance")
    code = cli.main(["adversary", "run", "--alg", "typo", "--agents", "2", "--blocks", "4"])
    assert code == 2
    assert calls == []
    err = capsys.readouterr().err
    assert "invalid choice: 'typo'" in err and "Traceback" not in err


def test_ptas_with_a_zero_shortest_path_solves_it_once(monkeypatch):
    calls = []

    def counted(inst, _original=solvers.shortest_path):
        calls.append(inst)
        return _original(inst)

    # wherever a module of the package binds the solver, the count sees it
    for module in (solvers, pareto):
        monkeypatch.setattr(module, "shortest_path", counted, raising=False)
    inst = Instance(False, 3, edges((0, 1, 1, 0), (1, 2, 2, 0), (0, 2, 1, 5)), 2, PATH, 0, 2)
    report = minmax_ptas(inst, F(1, 4))
    assert report.label_count is None and report.value == 0
    assert report.witness.edge_ids == {0, 1}
    assert len(calls) == 1
