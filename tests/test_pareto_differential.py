"""The integer Pareto DP against a Fraction implementation of the same scheme.

`old_preprocess` is the former preprocessing: a copy of the instance without
the edges dearer than the shortest-path value and a table of each kept edge's
floored weight vector in Fractions. `FractionCells` is the cell rule written
from its definition in Fractions, and `old_pareto_eps` is the former DP over
those Fraction vectors, with `OldLabel`, its label linked to its predecessor;
`old_ptas_winner` is the former scoring of the labels, one Fraction cost
summary per label. They are kept here only as oracles: the DP must return the
same labels (node, cell, vector, edges) in the same order, and `minmax_ptas`
the same value, witness and label count.
"""

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import pytest

from minmax_procurement import (
    Edge,
    Instance,
    PATH,
    Solution,
    chain_minmax_exact,
    cost_summary,
    minmax_ptas,
    pareto_eps,
    preprocess,
    validate_solution,
)
from minmax_procurement.adversary import ChainSpec, expand_chain, gen_chain
from minmax_procurement.pareto import _simplify_path

F = Fraction


# -- the oracles ----------------------------------------------------------------


def old_preprocess(inst, epsilon):
    """(pruned copy, weight vectors by edge id, config): the copy drops every
    edge costing more than SP, and each kept edge weighs max(delta, cost) in
    its owner's coordinate and delta elsewhere; empty weights when SP = 0."""
    config = preprocess(inst, epsilon)
    sp, delta, n = config.baseline_sp, config.delta, inst.agent_count
    if sp == 0:
        return inst, {}, config
    pruned = inst.without_edges(e.id for e in inst.edges if e.cost > sp)
    weights = {}
    for e in pruned.edges:
        vec = [delta] * n
        vec[e.owner - 1] = max(delta, e.cost)
        weights[e.id] = tuple(vec)
    # every kept cost is at most SP = delta * n * (V - 1) / eps
    ratio = max(max(vec) for vec in weights.values()) / delta
    assert ratio <= max(1, n * (inst.node_count - 1) / config.epsilon)
    return pruned, weights, config


class FractionCells:
    """Cell 0 holds values up to delta. Above it, the octave
    [delta 2^e, delta 2^(e+1)) is cut into 16 equal pieces, and piece i into
    ceil(r / (16 + i)) equal cells, r = ceil(m (2 + eps) / (2 eps)) with
    m = max(V - 1, 1); cells count up from 1, octave by octave."""

    def __init__(self, epsilon, node_count, delta):
        self.delta = delta
        r = math.ceil(max(node_count - 1, 1) * (2 + epsilon) / (2 * epsilon))
        self.counts = [math.ceil(F(r, 16 + i)) for i in range(16)]

    def index(self, value):
        if value <= self.delta:
            return 0
        e = 0
        while self.delta * 2 ** (e + 1) <= value:
            e += 1
        low = self.delta * 2**e
        piece = math.floor((value - low) / (low / 16))
        piece_start = low * (16 + piece) / 16
        cell_width = low / 16 / self.counts[piece]
        return (e * sum(self.counts) + 1 + sum(self.counts[:piece])
                + math.floor((value - piece_start) / cell_width))


@dataclass
class OldLabel:
    node: int
    bucket_index: tuple[int, ...]
    vector: tuple[Fraction, ...]
    predecessor: Optional[tuple["OldLabel", int]]  # (label, edge id)

    @property
    def edge_ids(self) -> tuple[int, ...]:
        ids = []
        label = self
        while label.predecessor is not None:
            label, eid = label.predecessor
            ids.append(eid)
        ids.reverse()
        return tuple(ids)


def old_pareto_eps(inst, weights, epsilon):
    epsilon = Fraction(epsilon)
    n = inst.agent_count
    s, t = inst.source, inst.target_or_root
    positive = [w for vec in weights.values() for w in vec if w > 0]
    bucketizer = FractionCells(epsilon, inst.node_count,
                               min(positive) if positive else Fraction(1))
    incident = [[] for _ in range(inst.node_count)]
    for e in inst.edges:
        if e.id not in weights:
            continue
        incident[e.tail].append((e.head, e.id))
        if not inst.directed:
            incident[e.head].append((e.tail, e.id))
    for lst in incident:
        lst.sort(key=lambda pair: pair[1])

    def cell_key(node, vec):
        return (node, tuple(bucketizer.index(v) for v in vec[:-1]))

    start = OldLabel(s, (0,) * (n - 1), tuple(Fraction(0) for _ in range(n)), None)
    cells = {cell_key(s, start.vector): start}
    frontier = [start]
    for _ in range(max(inst.node_count - 1, 1)):
        new_frontier = []
        for label in frontier:
            for head, eid in incident[label.node]:
                vec = tuple(a + b for a, b in zip(label.vector, weights[eid]))
                key = cell_key(head, vec)
                kept = cells.get(key)
                if kept is None or vec[-1] < kept.vector[-1]:
                    new = OldLabel(head, key[1], vec, (label, eid))
                    cells[key] = new
                    new_frontier.append(new)
        frontier = new_frontier
        if not frontier:
            break
    return [label for key, label in sorted(cells.items()) if label.node == t]


def old_ptas_winner(inst, epsilon):
    """The former scoring of the target labels: cost_summary of every
    simplified walk, ranked by (max cost, sorted ids)."""
    labels = pareto_eps(inst, preprocess(inst, epsilon))
    best = None
    for label in labels:
        ids = _simplify_path(inst, label.edge_ids)
        value = cost_summary(inst, Solution(ids)).max_cost
        key = (value, tuple(sorted(ids)))
        if best is None or key < best:
            best = key
    return best[0], Solution(best[1]), len(labels)


# -- instances ------------------------------------------------------------------


def rand_instance(rng, max_nodes, agents):
    """Random connected path instance with rational costs, some of them zero."""
    nodes = rng.randint(3, max_nodes)
    order = list(range(nodes))
    rng.shuffle(order)
    pairs = list(zip(order, order[1:]))
    pairs += [tuple(rng.sample(range(nodes), 2)) for _ in range(rng.randint(0, nodes))]
    edges = tuple(
        Edge(eid, u, v, rng.randint(1, agents),
             F(rng.choice((0, 1, 2, 3, 5, 7, 10)), rng.choice((1, 2, 3, 7))))
        for eid, (u, v) in enumerate(pairs))
    return Instance(rng.random() < 0.3, nodes, edges, agents, PATH, order[0], order[-1])


def seeded_expanded_chain(agents, blocks, seed):
    """An expanded chain with seeded base costs in [1, 1.1] and helper 1/(2 blocks)."""
    rng = random.Random(seed)
    chain = gen_chain(ChainSpec(agents, blocks))
    costs = {e.id: F(rng.randint(100, 110), 100) for e in chain.edges}
    return expand_chain(chain.with_costs(costs), F(1, 2 * blocks))


def label_rows(labels):
    return [(lab.node, lab.bucket_index, lab.vector, lab.edge_ids) for lab in labels]


def assert_same_labels(inst, epsilon):
    pruned, weights, config = old_preprocess(inst, epsilon)
    if config.baseline_sp == 0:
        return 0
    new = pareto_eps(inst, config)
    old = old_pareto_eps(pruned, weights, epsilon)
    assert label_rows(new) == label_rows(old)
    for lab in new:
        assert all(type(x) is Fraction for x in lab.vector)
    report = minmax_ptas(inst, epsilon)
    assert (report.value, report.witness, report.label_count) == old_ptas_winner(inst, epsilon)
    return len(new)


# -- the DP ---------------------------------------------------------------------


EPSILONS = (F(1, 4), F(1, 32), F(2), F(7, 3), F(100))


@pytest.mark.parametrize("agents", [1, 2, 3, 4])
def test_labels_match_former_dp_on_random_instances(agents):
    compared = 0
    for seed in range(30):
        inst = rand_instance(random.Random(1000 * agents + seed), 9, agents)
        for eps in EPSILONS:
            compared += assert_same_labels(inst, eps) > 0
    assert compared > 30


def test_labels_match_former_dp_with_an_edge_costing_exactly_sp():
    # edges 0 and 3 cost SP = 2 and are kept; edge 4 costs just above it
    edges = (Edge(0, 0, 1, 1, F(2)), Edge(1, 0, 2, 2, F(1)), Edge(2, 2, 1, 1, F(1)),
             Edge(3, 0, 1, 2, F(2)), Edge(4, 0, 1, 1, F(201, 100)))
    inst = Instance(False, 3, edges, 2, PATH, 0, 1)
    for eps in EPSILONS:
        assert assert_same_labels(inst, eps) > 0
    # at eps = 1/4, delta = 1/8 puts the three routes in three cells
    walks = {lab.edge_ids for lab in pareto_eps(inst, preprocess(inst, F(1, 4)))}
    assert walks == {(0,), (1, 2), (3,)}


def test_labels_match_former_dp_with_zero_cost_edges():
    # zero-cost edges of three agents, each floored to delta in every
    # coordinate, on the way to SP = 2; edge 6 costs more than SP
    edges = (Edge(0, 0, 1, 1, F(0)), Edge(1, 1, 2, 2, F(0)), Edge(2, 2, 3, 1, F(3)),
             Edge(3, 1, 3, 2, F(2)), Edge(4, 0, 2, 3, F(0)), Edge(5, 2, 1, 3, F(0)),
             Edge(6, 0, 3, 2, F(5)))
    for directed in (False, True):
        inst = Instance(directed, 4, edges, 3, PATH, 0, 3)
        for eps in EPSILONS:
            assert assert_same_labels(inst, eps) > 0


@pytest.mark.parametrize("blocks, eps", [
    pytest.param(blocks, eps, id=f"2x{blocks}-eps{eps}")
    for blocks in (1, 2, 3)
    for eps in (F(1, 4), F(1, 32), F(1, 64), F(1, 256))
])
def test_labels_match_former_dp_on_expanded_chains(blocks, eps):
    inst, _ = seeded_expanded_chain(2, blocks, seed=blocks)
    assert assert_same_labels(inst, eps) > 0


def test_ptas_reports_label_count_and_config():
    inst, _ = seeded_expanded_chain(2, 2, seed=7)
    report = minmax_ptas(inst, F(1, 32))
    config = preprocess(inst, F(1, 32))
    assert report.label_count == len(pareto_eps(inst, config))
    assert (report.delta, report.baseline_sp) == (config.delta, config.baseline_sp)


def test_short_circuit_report_has_no_label_count():
    edges = (Edge(0, 0, 1, 1, F(0)), Edge(1, 0, 1, 2, F(5)))
    report = minmax_ptas(Instance(False, 2, edges, 2, PATH, 0, 1), F(1, 4))
    assert report.label_count is None
    assert report.delta == 0 and report.baseline_sp == 0


# -- the bound against the chain DP ----------------------------------------


def chain_opt(inst, indexing):
    """The exact min-max value of an expanded chain, from its block routes."""
    vectors = []
    for routes in indexing.blocks:
        block = []
        for route in routes:
            vec = [F(0)] * inst.agent_count
            for eid in route.edge_ids:
                edge = inst.edge_by_id(eid)
                vec[edge.owner - 1] += edge.cost
            block.append(tuple(vec))
        vectors.append(block)
    return chain_minmax_exact(inst.agent_count, vectors).value


@pytest.mark.parametrize("eps", [F(1, 1024), F(1, 10**5)], ids=str)
def test_fine_epsilon_finishes_within_bound(eps):
    inst, indexing = seeded_expanded_chain(2, 2, seed=11)
    started = time.process_time()
    report = minmax_ptas(inst, eps)
    # the former power table needed minutes and gigabytes here
    assert time.process_time() - started < 20
    opt = chain_opt(inst, indexing)
    assert opt <= report.value <= (1 + eps) ** 2 * opt


@pytest.mark.parametrize("agents, blocks, eps", [
    pytest.param(agents, blocks, eps, id=f"{agents}x{blocks}-eps{eps}")
    for agents, blocks, eps in ((2, 8, F(1, 32)), (2, 16, F(1, 4)), (3, 2, F(1, 4)))
])
def test_bound_holds_on_long_chains(agents, blocks, eps):
    # the cover argument compounds the cell ratio b once per edge of a path,
    # so paths of 24 to 48 edges test it where 2-block chains cannot
    inst, indexing = seeded_expanded_chain(agents, blocks, seed=blocks)
    report = minmax_ptas(inst, eps)
    opt = chain_opt(inst, indexing)
    assert opt <= report.value <= (1 + eps) ** 2 * opt
    assert validate_solution(inst, report.witness)
