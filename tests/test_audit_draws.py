"""The audit's random probes against the generators they replaced.

`former_random_cost`, `former_random_path_instance`,
`former_random_arborescence_instance` and `former_random_perturbation` are
the generators as they were written on `random.Random`'s `randint`,
`randrange`, `choice`, `shuffle` and `sample`. They are kept here only as
oracles: the generators now draw straight from `getrandbits`, and must build
the same instances and perturbations and leave the generator in the same
state, call for call.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from minmax_procurement import Instance, audit, graphs
from minmax_procurement.audit import (
    MAX_DENOMINATOR,
    MAX_NUMERATOR,
    Perturbation,
    draw_below,
    edge_stability_perturbation,
    random_arborescence_instance,
    random_cost,
    random_path_instance,
    random_perturbation,
)
from minmax_procurement.cli import main
from minmax_procurement.graphs import ARBORESCENCE, PATH, Edge
from minmax_procurement.vcg import vcg_allocate

# -- the former generators -----------------------------------------------------


_FORMER_COSTS = {(p, q): Fraction(p, q) for p in range(MAX_NUMERATOR + 1)
                 for q in range(1, MAX_DENOMINATOR + 1)}


def former_random_cost(rng):
    return _FORMER_COSTS[rng.randrange(MAX_NUMERATOR + 1), rng.randrange(1, MAX_DENOMINATOR + 1)]


def former_random_path_instance(rng, max_nodes=8, agents=None):
    n = agents if agents is not None else rng.randint(1, 3)
    nodes = rng.randint(3, max_nodes)
    edges = []

    def add(u, v, owner=None):
        edges.append(Edge(len(edges), u, v, owner if owner else rng.randint(1, n),
                          former_random_cost(rng)))

    order = list(range(nodes))
    rng.shuffle(order)
    s, t = order[0], order[-1]
    for u, v in zip(order, order[1:]):
        add(u, v)
        if n > 1:
            other = rng.choice([a for a in range(1, n + 1) if a != edges[-1].owner])
            add(u, v, owner=other)
    for _ in range(rng.randint(0, nodes)):
        u, v = rng.sample(range(nodes), 2)
        add(u, v)
    return Instance(False, nodes, tuple(edges), n, PATH, s, t)


def former_random_arborescence_instance(rng, max_nodes=8, agents=None):
    n = agents if agents is not None else rng.randint(1, 3)
    nodes = rng.randint(3, max_nodes)
    root = 0
    edges = []

    def add(u, v, owner=None):
        edges.append(Edge(len(edges), u, v, owner if owner else rng.randint(1, n),
                          former_random_cost(rng)))

    for v in range(1, nodes):
        u = rng.randint(0, v - 1)
        add(u, v)
        if n > 1:
            other = rng.choice([a for a in range(1, n + 1) if a != edges[-1].owner])
            add(rng.randint(0, v - 1), v, owner=other)
    for _ in range(rng.randint(0, nodes)):
        u, v = rng.sample(range(nodes), 2)
        if v != root:
            add(u, v)
    return Instance(True, nodes, tuple(edges), n, ARBORESCENCE, root, root)


def former_random_perturbation(rng, inst, agent, alloc=None):
    owned = inst.agent_edges(agent)
    if alloc is not None and rng.random() < 0.5:
        shrink = Fraction(rng.randint(1, 3), 4)
        bump = Fraction(1, rng.randint(1, 8))
        return edge_stability_perturbation(inst, alloc, agent, shrink, bump)
    return Perturbation(agent, {e.id: former_random_cost(rng) for e in owned})


def fields(inst):
    return (inst.directed, inst.node_count, inst.edges, inst.agent_count, inst.mode,
            inst.source, inst.target_or_root)


# -- the draws, one by one -----------------------------------------------------


def test_each_draw_matches_random():
    for n in range(1, 65):
        for seed in range(12):
            new, old = random.Random(seed), random.Random(seed)
            bits = new.getrandbits
            assert draw_below(bits, n) == old.randrange(n)
            assert 5 + draw_below(bits, n) == old.randint(5, n + 4)
            seq = [f"item{i}" for i in range(n)]
            assert seq[draw_below(bits, n)] == old.choice(seq)
            mine, theirs = list(seq), list(seq)
            audit._shuffle(bits, mine)
            old.shuffle(theirs)
            assert mine == theirs
            if n >= 2:  # Random.sample refuses two from fewer
                assert list(audit._node_pair(bits, n)) == old.sample(range(n), 2)
                owner = 1 + seed % n
                assert audit._rival(bits, n, owner) == old.choice(
                    [a for a in range(1, n + 1) if a != owner])
            assert new.getstate() == old.getstate()


# -- the generators against their former selves ----------------------------------


@pytest.mark.parametrize("agents", [None, 1, 2, 3, 4])
def test_generators_draw_what_the_former_generators_drew(agents):
    # max_nodes 3..30 crosses the node count past which Random.sample stops
    # drawing from a shrinking pool and redraws a repeated first node instead
    for max_nodes in range(3, 31):
        for seed in range(4):
            new = random.Random(f"{agents}/{max_nodes}/{seed}")
            old = random.Random(f"{agents}/{max_nodes}/{seed}")
            for ours, former in ((random_path_instance, former_random_path_instance),
                                 (random_arborescence_instance,
                                  former_random_arborescence_instance)):
                inst = ours(new, max_nodes=max_nodes, agents=agents)
                assert fields(inst) == fields(former(old, max_nodes=max_nodes, agents=agents))
                assert new.getstate() == old.getstate()
                agent = 1 + seed % inst.agent_count
                for alloc in (None, vcg_allocate(inst)):
                    pert = random_perturbation(new, inst, agent, alloc)
                    assert pert == former_random_perturbation(old, inst, agent, alloc)
                    assert new.getstate() == old.getstate()
                assert random_cost(new) == former_random_cost(old)
                assert new.getstate() == old.getstate()


# -- library calls outside the command line's parameters ---------------------------

# SHA-256 of the instances, perturbations and next draws that
# library_draws_digest makes for agents=None, max_nodes 3, 12, 21, 22 and 40,
# and perturbations without an allocation; computed with the former
# generators, so the stream is pinned whichever way `random`'s methods are
# written
LIBRARY_DRAWS_SHA256 = "b36439531f271e4bb7796cea6e422797caf56740df914dbef258f81191be0e68"


def library_draws_digest(path_instance, arborescence_instance, perturbation, cost):
    digest = hashlib.sha256()
    for max_nodes in (3, 12, 21, 22, 40):
        for seed in range(30):
            rng = random.Random(max_nodes * 1_000 + seed)
            for generate in (path_instance, arborescence_instance):
                inst = generate(rng, max_nodes=max_nodes)
                edges = [[*e[:4], str(e.cost)] for e in inst.edges]
                perts = []
                for agent in range(1, inst.agent_count + 1):
                    pert = perturbation(rng, inst, agent)
                    perts.append([pert.agent, sorted((eid, str(c))
                                                     for eid, c in pert.new_costs.items())])
                digest.update(json.dumps([
                    inst.directed, inst.node_count, inst.mode, inst.source,
                    inst.target_or_root, inst.agent_count, edges, perts,
                    str(cost(rng)), rng.getrandbits(64)]).encode() + b"\n")
    return digest.hexdigest()


def test_library_draws_are_pinned():
    assert library_draws_digest(random_path_instance, random_arborescence_instance,
                                random_perturbation, random_cost) == LIBRARY_DRAWS_SHA256
    assert library_draws_digest(former_random_path_instance,
                                former_random_arborescence_instance,
                                former_random_perturbation,
                                former_random_cost) == LIBRARY_DRAWS_SHA256


# -- refused parameters fail fast --------------------------------------------------


class BoundedRandom(random.Random):
    """A Random whose getrandbits raises after 10,000 calls, so a draw that
    never ends fails instead of hanging."""

    calls = 0

    def getrandbits(self, k):
        self.calls += 1
        if self.calls > 10_000:
            raise RuntimeError("getrandbits called more than 10,000 times")
        return super().getrandbits(k)


def test_refused_parameters_raise_value_error():
    with pytest.raises(ValueError, match="empty range"):
        draw_below(BoundedRandom(0).getrandbits, 0)
    with pytest.raises(ValueError, match="empty range"):
        draw_below(BoundedRandom(0).getrandbits, -3)
    for generate in (random_path_instance, random_arborescence_instance):
        for max_nodes in (2, 1, 0, -5):
            with pytest.raises(ValueError, match="empty range"):
                generate(BoundedRandom(1), max_nodes=max_nodes)
        for agents in (0, -1):
            with pytest.raises(ValueError, match="empty range"):
                generate(BoundedRandom(1), max_nodes=6, agents=agents)


# -- no check is dropped ------------------------------------------------------------

# Instance validations (`Instance.__post_init__`) and feasibility checks
# (`graphs.validate_solution`) run by one `audit --trials 50 --seed 0` op of
# each kind, counted with the former generators
AUDIT_CHECK_COUNTS = {"truthfulness": (50, 0), "monotonicity": (50, 100)}


@pytest.mark.parametrize("kind", sorted(AUDIT_CHECK_COUNTS))
def test_an_audit_runs_every_check_it_ran(kind, monkeypatch, tmp_path):
    counts = {"post_init": 0, "validate_solution": 0}
    post_init, validate = Instance.__post_init__, graphs.validate_solution

    def counted_post_init(self):
        counts["post_init"] += 1
        post_init(self)

    def counted_validate(inst, sol):
        counts["validate_solution"] += 1
        return validate(inst, sol)

    monkeypatch.setattr(Instance, "__post_init__", counted_post_init)
    for module in (graphs, audit):
        monkeypatch.setattr(module, "validate_solution", counted_validate)
    assert main(["audit", kind, "--trials", "50", "--seed", "0",
                 "--out", str(tmp_path / "audit.json")]) == 0
    assert (counts["post_init"], counts["validate_solution"]) == AUDIT_CHECK_COUNTS[kind]
