"""Exact solvers against brute-force oracles and hand-checked values."""

import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from minmax_procurement import (
    Edge,
    Instance,
    PATH,
    Solution,
    brute_minmax,
    chain_minmax_exact,
    cost_summary,
    min_arborescence,
    min_sum_optimum,
    shortest_path,
    validate_solution,
)
from minmax_procurement import solvers
from minmax_procurement.adversary import (
    ChainSpec, build_adversary_instance, expand_chain, gen_chain)
from minmax_procurement.audit import random_arborescence_instance, random_path_instance
from minmax_procurement.graphs import ARBORESCENCE
from minmax_procurement.solvers import (
    BudgetExceededError,
    NoFeasibleSolutionError,
    StructureError,
    _enumerate_arborescences,
    _enumerate_paths,
    brute_minsum,
)

F = Fraction


# -- shortest path ------------------------------------------------------------


def test_shortest_path_on_plain_chain():
    inst = gen_chain(ChainSpec(2, 2))
    report = shortest_path(inst)
    assert report.value == 2
    assert validate_solution(inst, report.witness)


def test_shortest_path_two_parallel_edges():
    edges = (Edge(0, 0, 1, 1, F(1)), Edge(1, 0, 1, 2, F(3)))
    inst = Instance(False, 2, edges, 2, PATH, 0, 1)
    report = shortest_path(inst)
    assert report.value == 1
    assert report.witness.edge_ids == {0}


def test_shortest_path_on_expanded_block():
    inst, _ = expand_chain(gen_chain(ChainSpec(2, 1)), F(1, 4))
    assert shortest_path(inst).value == 1 + F(1, 4)


def test_shortest_path_disconnected():
    inst = Instance(False, 3, (Edge(0, 0, 1, 1, F(1)),), 1, PATH, 0, 2)
    with pytest.raises(NoFeasibleSolutionError):
        shortest_path(inst)


def test_shortest_path_witness_cost_matches_value():
    for seed in range(40):
        inst = random_path_instance(random.Random(seed))
        report = shortest_path(inst)
        assert validate_solution(inst, report.witness)
        assert cost_summary(inst, report.witness).sum_cost == report.value
        assert report.value == brute_minsum(inst).value


def test_shortest_path_witness_is_deterministic():
    inst = random_path_instance(random.Random(11))
    first = shortest_path(inst).witness
    for _ in range(3):
        assert shortest_path(inst).witness == first


# -- minimum arborescence -----------------------------------------------------


def test_arborescence_star_is_sum_of_all_edges():
    edges = tuple(Edge(i, 0, i + 1, 1, F(i + 2)) for i in range(4))
    inst = Instance(True, 5, edges, 1, ARBORESCENCE, 0, 0)
    report = min_arborescence(inst)
    assert report.value == sum(e.cost for e in edges)
    assert report.witness.edge_ids == {0, 1, 2, 3}


def test_arborescence_picks_cheaper_parallel_edge():
    edges = (Edge(0, 0, 1, 1, F(2)), Edge(1, 0, 1, 1, F(5)),
             Edge(2, 1, 2, 1, F(1)))
    inst = Instance(True, 3, edges, 1, ARBORESCENCE, 0, 0)
    report = min_arborescence(inst)
    assert report.value == 3
    assert report.witness.edge_ids == {0, 2}


def test_arborescence_on_directed_chain_block():
    inst, indexing = build_adversary_instance(ChainSpec(2, 1, helper_eps=F(1, 8)), "dmst")
    report = min_arborescence(inst)
    # cheaper full route (1 + 1/8) plus the other route's leftward edge (1/8)
    assert report.value == F(5, 4)
    assert validate_solution(inst, report.witness)


def test_arborescence_handles_cycles_in_greedy_in_edges():
    # greedy per-node minima form a 2-cycle that must be contracted
    edges = (Edge(0, 0, 1, 1, F(10)), Edge(1, 1, 2, 1, F(1)),
             Edge(2, 2, 1, 1, F(1)), Edge(3, 0, 2, 1, F(10)))
    inst = Instance(True, 3, edges, 1, ARBORESCENCE, 0, 0)
    report = min_arborescence(inst)
    assert report.value == 11
    assert validate_solution(inst, report.witness)


def test_arborescence_unreachable_node():
    inst = Instance(True, 3, (Edge(0, 0, 1, 1, F(1)),), 1, ARBORESCENCE, 0, 0)
    with pytest.raises(NoFeasibleSolutionError):
        min_arborescence(inst)


def test_arborescence_matches_bruteforce_on_random_instances():
    for seed in range(60):
        inst = random_arborescence_instance(random.Random(seed), max_nodes=6)
        report = min_arborescence(inst)
        assert validate_solution(inst, report.witness)
        assert cost_summary(inst, report.witness).sum_cost == report.value
        best = min(
            cost_summary(inst, Solution(ids)).sum_cost
            for ids in _enumerate_arborescences(inst))
        assert report.value == best


# -- brute-force oracles ------------------------------------------------------


def test_brute_minmax_chain_values():
    assert brute_minmax(gen_chain(ChainSpec(2, 2))).value == 1
    assert brute_minmax(gen_chain(ChainSpec(3, 3))).value == 1
    assert brute_minmax(gen_chain(ChainSpec(2, 3))).value == 2
    assert brute_minmax(gen_chain(ChainSpec(3, 5))).value == 2


def test_brute_minmax_witness_is_lex_smallest_among_optima():
    inst = gen_chain(ChainSpec(2, 2))
    report = brute_minmax(inst)
    optima = [
        tuple(sorted(ids)) for ids in _enumerate_paths(inst)
        if cost_summary(inst, Solution(ids)).max_cost == report.value
    ]
    assert report.witness.sorted_ids() == min(optima)


def complete_instance(nodes, directed):
    """Every ordered (digraph, rooted at 0) or unordered (graph, 0 to the last
    node) pair of nodes joined by a unit-cost edge, owners alternating."""
    pairs = permutations(range(nodes), 2) if directed else combinations(range(nodes), 2)
    edges = tuple(Edge(i, u, v, 1 + i % 2, F(1)) for i, (u, v) in enumerate(pairs))
    if directed:
        return Instance(True, nodes, edges, 2, ARBORESCENCE, 0, 0)
    return Instance(False, nodes, edges, 2, PATH, 0, nodes - 1)


def test_brute_budget_guard(monkeypatch):
    assert brute_minmax(gen_chain(ChainSpec(2, 15))).value == 8
    monkeypatch.setattr(solvers, "BRUTE_STEP_BUDGET", 1000)
    for inst in (complete_instance(14, directed=True), complete_instance(12, directed=False)):
        enumerate_ = _enumerate_paths if inst.mode == PATH else _enumerate_arborescences
        found = []
        with pytest.raises(BudgetExceededError, match="budget of 1000 steps"):
            for ids in enumerate_(inst):
                found.append(ids)
        assert found  # the search was stopped mid-run, not refused up front


def test_brute_budget_charges_each_path_found(monkeypatch):
    """A 500-edge prefix before a 6-block two-way chain: the search examines
    ~1,500 edges but yields 64 paths of 506 edges each."""
    prefix = [(v, v + 1) for v in range(500)]
    chain = [(v, v + 1) for v in range(500, 506) for _ in range(2)]
    edges = tuple(Edge(i, u, v, 1 + i % 2, F(1)) for i, (u, v) in enumerate(prefix + chain))
    inst = Instance(False, 507, edges, 2, PATH, 0, 506)
    monkeypatch.setattr(solvers, "BRUTE_STEP_BUDGET", 5_000)
    with pytest.raises(BudgetExceededError):
        brute_minmax(inst)
    monkeypatch.setattr(solvers, "BRUTE_STEP_BUDGET", 50_000)
    assert brute_minmax(inst).value == 250 + 3


def test_brute_budget_charges_each_cycle_check(monkeypatch):
    """A 100-node chain of in-degree-1 nodes whose last node, or the root,
    may feed each of 8 more nodes: 256 trees, each cycle check walking the
    whole chain."""
    chain = [(v, v + 1) for v in range(100)]
    leaves = [(u, v) for v in range(101, 109) for u in (100, 0)]
    edges = tuple(Edge(i, u, v, 1 + i % 2, F(1)) for i, (u, v) in enumerate(chain + leaves))
    inst = Instance(True, 109, edges, 2, ARBORESCENCE, 0, 0)
    monkeypatch.setattr(solvers, "BRUTE_STEP_BUDGET", 20_000)
    with pytest.raises(BudgetExceededError):
        brute_minmax(inst)
    monkeypatch.setattr(solvers, "BRUTE_STEP_BUDGET", 100_000)
    assert brute_minmax(inst).value == 54


def _recursive_paths(inst):
    """The former recursive path enumerator, kept as the yield-order oracle."""
    adj = [[] for _ in range(inst.node_count)]
    for e in inst.edges:
        adj[e.tail].append((e.head, e.id))
        if not inst.directed:
            adj[e.head].append((e.tail, e.id))
    s, t = inst.source, inst.target_or_root
    path, visited = [], {s}

    def rec(u):
        if u == t:
            yield tuple(path)
            return
        for v, eid in adj[u]:
            if v in visited:
                continue
            visited.add(v)
            path.append(eid)
            yield from rec(v)
            path.pop()
            visited.remove(v)

    if s == t:
        yield ()
    else:
        yield from rec(s)


def test_path_enumeration_order_matches_the_former_recursion():
    rng = random.Random(11)
    for _ in range(60):
        inst = random_path_instance(rng)
        directed = Instance(True, inst.node_count, inst.edges, inst.agent_count,
                            PATH, inst.source, inst.target_or_root)
        loop = Instance(False, inst.node_count, inst.edges, inst.agent_count,
                        PATH, inst.source, inst.source)
        for probe in (inst, directed, loop):
            assert list(_enumerate_paths(probe)) == list(_recursive_paths(probe))


def long_single_path(nodes=1500):
    edges = tuple(Edge(i, i, i + 1, 1, F(1)) for i in range(nodes - 1))
    return Instance(False, nodes, edges, 1, PATH, 0, nodes - 1)


def test_brute_minmax_on_a_1500_node_path_reaches_no_recursion_limit():
    report = brute_minmax(long_single_path())
    assert report.value == 1499
    assert report.witness.sorted_ids() == tuple(range(1499))


def test_brute_minsum_agrees_with_polynomial_solvers():
    for seed in range(30):
        rng = random.Random(seed)
        inst = (random_path_instance(rng) if seed % 2 == 0
                else random_arborescence_instance(rng, max_nodes=6))
        assert brute_minsum(inst).value == min_sum_optimum(inst).value


# -- chain-structured exact min-max ------------------------------------------


def test_chain_exact_unit_costs():
    blocks = [[(F(1), F(0)), (F(0), F(1))]] * 2
    assert chain_minmax_exact(2, blocks).value == 1


def test_chain_exact_single_block():
    blocks = [[(F(3), F(1)), (F(1), F(2))]]
    report = chain_minmax_exact(2, blocks)
    assert report.value == min(max(F(3), F(1)), max(F(1), F(2)))
    assert report.choices == (1,)


def test_chain_exact_rejects_malformed_blocks():
    with pytest.raises(StructureError):
        chain_minmax_exact(2, [])
    with pytest.raises(StructureError):
        chain_minmax_exact(2, [[(F(1),)]])


def test_chain_exact_matches_brute_on_expanded_chain():
    spec = ChainSpec(2, 4, helper_eps=F(1, 8))
    inst, indexing = expand_chain(gen_chain(spec), F(1, 8))
    vectors, edge_lists = [], []
    for routes in indexing.blocks:
        vecs, ids = [], []
        for route in routes:
            v = [F(0), F(0)]
            for eid in route.edge_ids:
                e = inst.edge_by_id(eid)
                v[e.owner - 1] += e.cost
            vecs.append(tuple(v))
            ids.append(route.edge_ids)
        vectors.append(vecs)
        edge_lists.append(ids)
    report = chain_minmax_exact(2, vectors, edge_lists)
    oracle = brute_minmax(inst)
    assert report.value == oracle.value
    assert validate_solution(inst, report.witness)
    assert cost_summary(inst, report.witness).max_cost == report.value


def test_chain_exact_witness_assembled_from_block_edges():
    blocks = [[(F(1), F(0)), (F(0), F(1))], [(F(1), F(0)), (F(0), F(1))]]
    edges = [[(0,), (1,)], [(2,), (3,)]]
    report = chain_minmax_exact(2, blocks, edges)
    assert report.value == 1
    picks = report.choices
    assert len(picks) == 2 and picks[0] != picks[1]


def test_the_integer_entry_returns_the_value_over_the_given_scale():
    blocks = [[(F(1, 2), F(0)), (F(0), F(1, 3))], [(F(1, 6), F(1, 6)), (F(1), F(0))]]
    report = chain_minmax_exact(2, blocks)
    scaled = [[tuple(int(x * 6) for x in vec) for vec in block] for block in blocks]
    assert solvers.scaled_chain_minmax(2, scaled, 6) == report
    assert report.value == F(1, 2) and report.choices == (1, 0)


# -- the nondominated front of the chain DP -----------------------------------


def brute_front(candidates):
    """The first copy of each Pareto-minimal load, in list order: a load goes
    when another one is <= it everywhere and differs from it or comes first."""
    kept = []
    for i, cand in enumerate(candidates):
        load = cand[:-2]
        if not any(all(a <= b for a, b in zip(other[:-2], load)) and (other[:-2] != load or j < i)
                   for j, other in enumerate(candidates) if j != i):
            kept.append(cand)
    return kept


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
def test_front_helper_matches_brute_force(width):
    rng = random.Random(f"pareto-front/{width}")
    lengths = []
    for _ in range(300):
        top = rng.choice([0, 1, 2, 5])  # small ranges: ties, duplicates, all-zero loads
        loads = [tuple(rng.randint(0, top) for _ in range(width))
                 for _ in range(rng.randint(0, 24))]
        for _ in range(rng.randint(0, 3)):  # exact duplicates anywhere in the list
            if loads:
                loads.insert(rng.randrange(len(loads) + 1), rng.choice(loads))
        # positions ascend along the list, as the DP's (state, choice) pairs do
        candidates = [load + divmod(i, 3) for i, load in enumerate(loads)]
        kept = solvers._pareto_minimal(list(candidates))
        assert kept == brute_front(candidates)
        lengths.append(len(kept))
    assert 0 in lengths and max(lengths) >= (1 if width == 1 else 3)
