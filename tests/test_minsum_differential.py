"""The exact min-sum layer against the implementations it replaced.

`greedy_shortest_path` and `recursive_edmonds` are the former witness walk
(a fresh reachability search at every step) and the former recursive
Chu-Liu/Edmonds (one recursive call and one full edge-list copy per
contraction). They are kept here only as oracles: the solvers must return
the same value and the same witness on every instance, and `networkx` must
agree on the value.
"""

import heapq
import random
import re
import sys
from contextlib import contextmanager
from fractions import Fraction

import pytest

from minmax_procurement import (
    Instance,
    min_arborescence,
    min_sum_optimum,
    min_sum_value,
    run_adversary,
    validate_solution,
    vcg_allocate,
)
from minmax_procurement.adversary import ChainSpec, expand_chain, gen_chain, gen_dmst_chain
from minmax_procurement.audit import random_arborescence_instance, random_path_instance
from minmax_procurement.graphs import PATH, Edge, Solution, cost_summary
from minmax_procurement.solvers import MIN_SUM, NoFeasibleSolutionError, OptimumReport

F = Fraction


# -- the former implementations ----------------------------------------------


def _old_adjacency(inst, reverse=False):
    adj = [[] for _ in range(inst.node_count)]
    for e in inst.edges:
        if inst.directed:
            if reverse:
                adj[e.head].append((e.tail, e))
            else:
                adj[e.tail].append((e.head, e))
        else:
            adj[e.tail].append((e.head, e))
            adj[e.head].append((e.tail, e))
    return adj


def _old_dijkstra(inst, start, reverse=False):
    adj = _old_adjacency(inst, reverse=reverse)
    dist = [None] * inst.node_count
    heap = [(Fraction(0), start)]
    while heap:
        d, u = heapq.heappop(heap)
        if dist[u] is not None:
            continue
        dist[u] = d
        for v, e in adj[u]:
            if dist[v] is None:
                heapq.heappush(heap, (d + e.cost, v))
    return dist


def greedy_shortest_path(inst):
    s, t = inst.source, inst.target_or_root
    dist_s = _old_dijkstra(inst, s)
    if dist_s[t] is None:
        raise NoFeasibleSolutionError("source and target are disconnected")
    dist_t = _old_dijkstra(inst, t, reverse=True)
    sp = dist_s[t]
    if s == t:
        return OptimumReport(MIN_SUM, Fraction(0), Solution(()))
    sub = [[] for _ in range(inst.node_count)]
    for e in inst.edges:
        ends = [(e.tail, e.head)] if inst.directed else [(e.tail, e.head), (e.head, e.tail)]
        for u, v in ends:
            if dist_s[u] is not None and dist_t[v] is not None \
                    and dist_s[u] + e.cost + dist_t[v] == sp:
                sub[u].append((v, e))
    for lst in sub:
        lst.sort(key=lambda pair: pair[1].id)

    def reaches_target(start, blocked):
        if start == t:
            return True
        stack = [start]
        seen = {start}
        while stack:
            u = stack.pop()
            for v, _ in sub[u]:
                if v == t:
                    return True
                if v not in seen and v not in blocked:
                    seen.add(v)
                    stack.append(v)
        return False

    path_edges = []
    visited = {s}
    node = s
    while node != t:
        for v, e in sub[node]:
            if v not in visited and reaches_target(v, visited):
                path_edges.append(e)
                visited.add(v)
                node = v
                break
        else:
            raise AssertionError("greedy walk got stuck in the shortest-path subgraph")
    return OptimumReport(MIN_SUM, sp, Solution(e.id for e in path_edges))


def recursive_edmonds(nodes, root, edges):
    best_in = {}
    for tail, head, cost, eid in edges:
        if head == root or tail == head:
            continue
        cur = best_in.get(head)
        if cur is None or (cost, eid) < (cur[2], cur[3]):
            best_in[head] = (tail, head, cost, eid)
    for v in nodes:
        if v != root and v not in best_in:
            raise NoFeasibleSolutionError(f"node {v} is unreachable from the root")

    color = {v: 0 for v in nodes}
    cycle = []
    for start in nodes:
        if color[start] or start == root:
            continue
        path = []
        v = start
        while v != root and color[v] == 0:
            color[v] = 1
            path.append(v)
            v = best_in[v][0]
        if v != root and color[v] == 1:
            cycle = path[path.index(v):]
        for u in path:
            color[u] = 2
        if cycle:
            break

    if not cycle:
        return {rec[3] for rec in best_in.values()}

    cycle_set = set(cycle)
    cycle_in = {v: best_in[v] for v in cycle}
    super_node = max(nodes) + 1
    mapping = {v: (super_node if v in cycle_set else v) for v in nodes}
    contracted = []
    for tail, head, cost, eid in edges:
        ct, ch = mapping[tail], mapping[head]
        if ct == ch:
            continue
        if ch == super_node:
            contracted.append((ct, ch, cost - cycle_in[head][2], eid))
        else:
            contracted.append((ct, ch, cost, eid))
    sub_nodes = [v for v in nodes if v not in cycle_set] + [super_node]
    sub_ids = recursive_edmonds(sub_nodes, mapping[root], contracted)

    by_id = {eid: (tail, head) for tail, head, _, eid in edges}
    chosen = set(sub_ids)
    entering_head = next(by_id[eid][1] for eid in sub_ids if by_id[eid][1] in cycle_set)
    for v in cycle:
        if v != entering_head:
            chosen.add(cycle_in[v][3])
    return chosen


@contextmanager
def recursion_limit(limit):
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, limit))
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def old_min_sum_optimum(inst):
    if inst.mode == PATH:
        return greedy_shortest_path(inst)
    with recursion_limit(10 * inst.node_count + 1000):
        chosen = recursive_edmonds(
            list(range(inst.node_count)), inst.target_or_root,
            [(e.tail, e.head, e.cost, e.id) for e in inst.edges])
    witness = Solution(chosen)
    return OptimumReport(MIN_SUM, cost_summary(inst, witness).sum_cost, witness)


# -- independent values --------------------------------------------------------


# networkx's own Edmonds takes seconds on a few thousand edges
NETWORKX_ARBORESCENCE_EDGES = 500


def networkx_value(inst):
    """The min-sum value by networkx; None if infeasible."""
    nx = pytest.importorskip("networkx")
    graph = nx.MultiDiGraph() if inst.directed else nx.MultiGraph()
    graph.add_nodes_from(range(inst.node_count))
    if inst.mode == PATH:
        for e in inst.edges:
            graph.add_edge(e.tail, e.head, weight=e.cost)
        try:
            return nx.dijkstra_path_length(graph, inst.source, inst.target_or_root)
        except nx.NetworkXNoPath:
            return None
    root = inst.target_or_root
    # no edge enters the root, so every spanning arborescence is rooted there
    for e in inst.edges:
        if e.head != root and e.tail != e.head:
            graph.add_edge(e.tail, e.head, weight=e.cost)
    try:
        tree = nx.minimum_spanning_arborescence(graph)
    except nx.NetworkXException:
        return None
    return sum((w for _, _, w in tree.edges(data="weight")), Fraction(0))


# -- instance families ---------------------------------------------------------


def with_zero_costs(inst, rng, share=0.4):
    """~`share` of the edges at cost 0, so shortest-path plateaus appear."""
    return inst.with_costs({e.id: F(0) for e in inst.edges if rng.random() < share})


def random_costs(inst, rng, zero_share=0.0):
    return inst.with_costs({
        e.id: F(0) if rng.random() < zero_share else F(rng.randint(1, 1000), rng.randint(1, 16))
        for e in inst.edges})


def directed_copy(inst):
    return Instance(True, inst.node_count, inst.edges, inst.agent_count, inst.mode,
                    inst.source, inst.target_or_root)


def random_family():
    for seed in range(400):
        rng = random.Random(seed)
        max_nodes = 8 if seed % 4 else 30
        path = with_zero_costs(random_path_instance(rng, max_nodes=max_nodes), rng)
        yield path
        yield directed_copy(path)
        yield with_zero_costs(
            random_arborescence_instance(rng, max_nodes=max_nodes), rng)


CHAIN_SIZES = [(2, 1), (2, 7), (3, 5), (2, 64), (3, 64), (2, 256), (3, 256)]


def chain_family(agents, blocks):
    rng = random.Random(agents * 1000 + blocks)
    plain = gen_chain(ChainSpec(agents, blocks))
    yield plain
    yield random_costs(plain, rng)
    yield random_costs(plain, rng, zero_share=0.4)
    yield expand_chain(plain, F(1, 8))[0]
    if agents == 2 or blocks <= 64:  # the recursive oracle is slow beyond
        dmst = gen_dmst_chain(ChainSpec(agents, blocks))[0]
        yield dmst
        yield with_zero_costs(dmst, rng)


def adversary_trace_family():
    for agents, blocks in ((2, 16), (3, 12), (2, 64)):
        seen = []

        def alg(inst):
            seen.append(inst)
            return vcg_allocate(inst)

        run_adversary(alg, ChainSpec(agents, blocks), "dmst")
        yield from seen


def assert_matches_oracles(inst):
    try:
        expected = old_min_sum_optimum(inst)
    except NoFeasibleSolutionError as exc:
        message = f"^{re.escape(str(exc))}$"
        with pytest.raises(NoFeasibleSolutionError, match=message):
            min_sum_optimum(inst)
        with pytest.raises(NoFeasibleSolutionError, match=message):
            min_sum_value(inst)
        value = None
    else:
        report = min_sum_optimum(inst)
        assert (report.value, report.witness) == (expected.value, expected.witness)
        assert report.objective == expected.objective
        assert validate_solution(inst, report.witness)
        assert min_sum_value(inst) == report.value
        value = report.value
    if inst.mode == PATH or len(inst.edges) <= NETWORKX_ARBORESCENCE_EDGES:
        assert networkx_value(inst) == value


def test_random_instances_with_zero_cost_plateaus_match_the_oracles():
    for inst in random_family():
        assert_matches_oracles(inst)


@pytest.mark.parametrize("agents,blocks", CHAIN_SIZES)
def test_chain_families_match_the_oracles(agents, blocks):
    for inst in chain_family(agents, blocks):
        assert_matches_oracles(inst)


def test_vcg_dmst_adversary_trace_instances_match_the_oracles():
    instances = list(adversary_trace_family())
    assert len(instances) >= 3
    for inst in instances:
        assert_matches_oracles(inst)


def test_dense_zero_plateau_keeps_the_smallest_id_witness():
    # all-zero complete graph: the walk must detour exactly as the oracle does
    rng = random.Random(3)
    edges = []
    for u in range(9):
        for v in range(u + 1, 9):
            edges.append(Edge(len(edges), u, v, rng.randint(1, 2), F(0)))
    rng.shuffle(edges)
    edges = tuple(Edge(i, e.tail, e.head, e.owner, e.cost) for i, e in enumerate(edges))
    assert_matches_oracles(Instance(False, 9, edges, 2, PATH, 4, 7))


def arborescence_instance(node_count, arcs):
    edges = tuple(Edge(i, u, v, 1, F(c)) for i, (u, v, c) in enumerate(arcs))
    return Instance(True, node_count, edges, 1, "arborescence", 0, 0)


@pytest.mark.parametrize("node_count,arcs,unreachable", [
    # nodes 1 and 2 only reach each other: their super-node 4 is cut off
    (4, [(1, 2, 1), (2, 1, 2), (0, 3, 1)], 4),
    # 3 and 7 only reach each other. The scan contracts {1, 6} into 8, then
    # walks from 2 into {3, 7}, which becomes 9; following 8's best in-edge
    # first would contract a cycle through 8 first and number {3, 7} 10
    (8, [(3, 2, 0), (1, 4, 1), (1, 2, 1), (1, 4, 0), (7, 3, 0), (4, 5, 0), (4, 0, 2),
         (1, 6, 2), (6, 1, 1), (6, 5, 2), (7, 1, 2), (7, 4, 2), (3, 7, 2), (4, 6, 2),
         (0, 0, 0)], 9),
])
def test_infeasible_arborescence_names_the_same_super_node(node_count, arcs, unreachable):
    inst = arborescence_instance(node_count, arcs)
    with pytest.raises(NoFeasibleSolutionError,
                       match=f"^node {unreachable} is unreachable from the root$"):
        min_arborescence(inst)
    assert_matches_oracles(inst)


def test_min_arborescence_on_a_700_block_dmst_chain_needs_no_recursion():
    inst = gen_dmst_chain(ChainSpec(2, 700))[0]
    report = min_arborescence(inst)
    assert validate_solution(inst, report.witness)
    assert report.value == cost_summary(inst, report.witness).sum_cost
