"""Derived instances, the min-sum memo and the work done once per instance.

Derived copies (`with_costs`, `without_agent`, `without_edges` and
`Perturbation.apply`) skip the constructor's per-edge validation and hold
only the instance's fields: no cache comes from the parent. A memo leaked into a copy would not show
in any report: VCG is monotone, so every audit passes either way. These
tests look at the copies directly, and count the solves and builds the CLI
makes.
"""

import dataclasses
import random
from fractions import Fraction

import pytest

from minmax_procurement import adversary, cli, pareto, solvers
from minmax_procurement.adversary import ChainSpec, gen_chain
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
CACHES = ("_min_sum_cache", "_edge_index_cache", "_scaled_cache", "_adjacency_cache")
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
    agent = rng.randint(1, inst.agent_count)
    pert = random_perturbation(rng, inst, agent, alloc)
    yield "apply", pert.apply(inst)
    yield "with_costs", inst.with_costs(
        {e.id: random_cost(rng) for e in inst.edges if rng.random() < 0.5})
    yield "without_agent", inst.without_agent(agent)
    yield "without_edges", inst.without_edges(
        rng.sample(sorted(alloc.edge_ids), min(1, len(alloc.edge_ids))))


def test_derived_copies_of_solved_instances_start_without_caches():
    changed = 0
    for seed in range(200):
        rng = random.Random(seed)
        make = random_path_instance if seed % 2 else random_arborescence_instance
        inst = make(rng, agents=rng.randint(2, 3))
        alloc = min_sum_optimum(inst).witness
        inst.edge_by_id(inst.edges[0].id)
        # only the path solvers build adjacency lists
        built = set(CACHES) - ({"_adjacency_cache"} if inst.mode == ARBORESCENCE else set())
        assert built <= set(inst.__dict__)
        for how, copy in derived_copies(rng, inst, alloc):
            # the fields and nothing else: a cache of any name would show here
            assert set(vars(copy)) == FIELDS, how
            assert copy == rebuilt(copy)
            assert solve(copy) == solve(rebuilt(copy)), (seed, how)
            if how == "apply":
                changed += min_sum_optimum(copy).witness != alloc
    # a copied memo would return `alloc` here: the test must see changes
    assert changed >= 40


def test_the_memo_is_written_once():
    inst = random_path_instance(random.Random(5), agents=3)
    first = min_sum_optimum(inst)
    assert inst.__dict__["_min_sum_cache"] is first
    assert min_sum_optimum(inst) is first


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
    assert Perturbation(2, {1: "3/6"}).validate(two_agents()) == {1: F(1, 2)}


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


@pytest.mark.parametrize("cheap, on_allocation", [
    ({}, [1]),  # unit costs: the smallest ids, agent 1's edges, win every block
    ({1: F(1, 2)}, [1, 2]),  # agent 2's edge is the cheapest in block 0
])
def test_vcg_solves_once_per_agent_on_the_allocation(monkeypatch, tmp_path, cheap,
                                                     on_allocation):
    path = tmp_path / "chain.json"
    dump_instance(gen_chain(ChainSpec(3, 5)).with_costs(cheap), path)
    builds, dijkstras = [], []

    def adjacency(inst, _original=solvers._adjacency):
        if "_adjacency_cache" not in inst.__dict__:
            builds.append(inst)
        return _original(inst)

    def dijkstra(inst, stop=None, without_agent=0, _original=solvers._dijkstra):
        dijkstras.append((stop, without_agent))
        return _original(inst, stop, without_agent)

    monkeypatch.setattr(solvers, "_adjacency", adjacency)
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
