"""Approximation scheme for min-max path via approximate Pareto frontiers."""

import random
from fractions import Fraction

import pytest

from minmax_procurement import (
    Edge,
    Instance,
    PATH,
    Solution,
    brute_minmax,
    cost_summary,
    minmax_ptas,
    pareto_eps,
    preprocess,
    shortest_path,
)
from minmax_procurement.adversary import (
    ChainSpec,
    build_adversary_instance,
    chain_exact_allocator,
    expand_chain,
    gen_chain,
)
from minmax_procurement.pareto import _bucket_base, _Bucketizer, _simplify_path
from minmax_procurement.solvers import _enumerate_paths

F = Fraction


def rand_instance(rng, max_nodes, agents):
    """Random connected path instance with integer costs 1..10."""
    nodes = rng.randint(3, max_nodes)
    order = list(range(nodes))
    rng.shuffle(order)
    edges, eid = [], 0
    for u, v in zip(order, order[1:]):
        edges.append(Edge(eid, u, v, rng.randint(1, agents), F(rng.randint(1, 10))))
        eid += 1
    for _ in range(rng.randint(0, nodes)):
        u, v = rng.sample(range(nodes), 2)
        edges.append(Edge(eid, u, v, rng.randint(1, agents), F(rng.randint(1, 10))))
        eid += 1
    return Instance(False, nodes, tuple(edges), agents, PATH, order[0], order[-1])


# -- preprocessing ------------------------------------------------------------


def test_delta_formula():
    edges = (Edge(0, 0, 1, 1, F(4)), Edge(1, 0, 1, 2, F(6)),
             Edge(2, 1, 2, 2, F(0)), Edge(3, 2, 3, 1, F(0)))
    inst = Instance(False, 4, edges, 2, PATH, 0, 3)
    _, _, config = preprocess(inst, F(1, 2))
    assert config.baseline_sp == 4
    assert config.delta == F(1, 2) * 4 / (2 * 3)  # eps * SP / (n * (V - 1))
    assert config.ratio_bound == 4 / config.delta <= 2 * 3 / F(1, 2)


def test_edges_dearer_than_shortest_path_are_pruned():
    edges = (Edge(0, 0, 1, 1, F(4)), Edge(1, 0, 1, 2, F(10)))
    inst = Instance(False, 2, edges, 2, PATH, 0, 1)
    pruned, weights, _ = preprocess(inst, F(1, 2))
    assert {e.id for e in pruned.edges} == {0}
    assert set(weights) == {0}


def test_all_weight_components_floored_at_delta():
    # edge 0 costs more than SP = 3 and is pruned; edges 2 and 3 cost less than delta
    edges = (Edge(0, 0, 1, 1, F(4)), Edge(1, 0, 1, 2, F(3)),
             Edge(2, 1, 2, 3, F(0)), Edge(3, 1, 2, 2, F(1, 100)))
    inst = Instance(False, 3, edges, 3, PATH, 0, 2)
    pruned, weights, config = preprocess(inst, F(1, 2))
    assert set(weights) == {e.id for e in pruned.edges} == {1, 2, 3}
    for e in pruned.edges:
        vec = weights[e.id]
        assert vec[e.owner - 1] == max(config.delta, e.cost)
        assert vec[:e.owner - 1] + vec[e.owner:] == (config.delta,) * 2


def test_zero_shortest_path_short_circuits():
    edges = (Edge(0, 0, 1, 1, F(0)), Edge(1, 0, 1, 2, F(5)))
    inst = Instance(False, 2, edges, 2, PATH, 0, 1)
    _, _, config = preprocess(inst, F(1, 4))
    assert config.short_circuit
    report = minmax_ptas(inst, F(1, 4))
    assert report.value == 0
    assert report.witness.edge_ids == {0}


# -- bucketing ----------------------------------------------------------------


def test_bucket_base_certified_exactly():
    for eps in (F(1, 4), F(1, 7), F(2)):
        for nodes in (2, 5, 12):
            base = _bucket_base(eps, nodes)
            assert base > 1
            assert base ** max(nodes - 1, 1) <= 1 + eps


def test_bucket_index_is_exact_smallest_cover():
    base = _bucket_base(F(1, 4), 6)
    b = _Bucketizer(base, F(1, 8))
    for value in (F(1, 16), F(1, 8), F(1, 7), F(3), F(100, 7)):
        k = b.index(value)
        assert F(1, 8) * base**k >= value
        assert k == 0 or F(1, 8) * base ** (k - 1) < value


# -- Pareto DP ----------------------------------------------------------------


def test_single_agent_reduces_to_shortest_path():
    inst = rand_instance(random.Random(3), 8, 1)
    pruned, weights, config = preprocess(inst, F(1, 4))
    labels = pareto_eps(pruned, weights, config.epsilon)
    best = min(lab.vector[-1] for lab in labels)
    floored_sp = min(
        sum(weights[e][0] for e in ids)
        for ids in _enumerate_paths(pruned))
    assert best == floored_sp


def test_two_disjoint_routes_both_represented():
    edges = (Edge(0, 0, 1, 1, F(4)), Edge(1, 0, 1, 2, F(4)))
    inst = Instance(False, 2, edges, 2, PATH, 0, 1)
    pruned, weights, config = preprocess(inst, F(1, 4))
    labels = pareto_eps(pruned, weights, config.epsilon)
    vectors = {lab.vector for lab in labels}
    assert len(vectors) == 2  # (4, delta) and (delta, 4), mutually non-dominating


def test_coverage_against_bruteforce_pareto_enumeration():
    eps = F(1, 4)
    checked = 0
    for seed in range(30):
        inst = rand_instance(random.Random(seed), 10, 2)
        pruned, weights, config = preprocess(inst, eps)
        if config.short_circuit:
            continue
        labels = pareto_eps(pruned, weights, eps)
        outs = [lab.vector for lab in labels]
        all_vectors = [
            tuple(sum(ws) for ws in zip(*(weights[e] for e in ids)))
            for ids in _enumerate_paths(pruned)
        ]
        pareto = [
            v for v in all_vectors
            if not any(w != v and all(a <= b for a, b in zip(w, v))
                       for w in all_vectors)
        ]
        for p in pareto:
            assert any(all(o <= (1 + eps) * c for o, c in zip(out, p))
                       for out in outs), (seed, p)
            checked += 1
    assert checked > 0


def test_labels_reconstruct_feasible_walks():
    inst = rand_instance(random.Random(9), 9, 2)
    pruned, weights, config = preprocess(inst, F(1, 4))
    for label in pareto_eps(pruned, weights, config.epsilon):
        ids = _simplify_path(pruned, label.edge_ids)
        assert cost_summary(pruned, Solution(ids)).max_cost is not None
        from minmax_procurement import validate_solution
        assert validate_solution(pruned, Solution(ids))


# -- end-to-end scheme --------------------------------------------------------


def test_simplify_drops_cycles_without_raising_cost():
    edges = (Edge(0, 0, 1, 1, F(1)), Edge(1, 1, 2, 1, F(1)),
             Edge(2, 2, 1, 1, F(1)), Edge(3, 1, 3, 1, F(1)))
    inst = Instance(False, 4, edges, 1, PATH, 0, 3)
    walk = [0, 1, 2, 3]  # 0-1-2-1-3 revisits node 1
    assert _simplify_path(inst, walk) == [0, 3]


def test_ptas_requires_path_mode():
    from minmax_procurement.adversary import gen_dmst_chain
    inst, _ = gen_dmst_chain(ChainSpec(2, 1))
    with pytest.raises(ValueError):
        minmax_ptas(inst, F(1, 4))


def test_ptas_is_exact_for_single_agent():
    for seed in range(10):
        inst = rand_instance(random.Random(seed), 8, 1)
        assert minmax_ptas(inst, F(1, 4)).value == shortest_path(inst).value


def test_ptas_bound_on_expanded_chain():
    inst, _ = expand_chain(gen_chain(ChainSpec(2, 2)), F(1, 4))
    report = minmax_ptas(inst, F(1, 4))
    opt = brute_minmax(inst).value
    assert report.value <= F(25, 16) * opt


@pytest.mark.parametrize("blocks", range(16, 21))
def test_ptas_bound_on_long_expanded_chains(blocks):
    # paths of 2 * blocks edges: past n^2 / eps of them, so the floor must
    # shrink with the path length to stay within eps * OPT
    inst, indexing = build_adversary_instance(ChainSpec(2, blocks), "path")
    opt = cost_summary(inst, chain_exact_allocator(indexing)(inst)).max_cost
    eps = F(1, 4)
    assert minmax_ptas(inst, eps).value <= (1 + eps) ** 2 * opt


def test_ptas_bound_on_random_instances():
    eps = F(1, 4)
    for seed in range(25):
        inst = rand_instance(random.Random(100 + seed), 10, 3)
        report = minmax_ptas(inst, eps)
        opt = brute_minmax(inst).value
        assert report.value <= (1 + eps) ** 2 * opt
        assert cost_summary(inst, report.witness).max_cost == report.value


def test_smaller_epsilon_never_hurts():
    inst = rand_instance(random.Random(42), 9, 2)
    coarse = minmax_ptas(inst, F(1, 2)).value
    fine = minmax_ptas(inst, F(1, 8)).value
    assert fine <= coarse


def test_epsilon_below_the_floor_is_refused_before_any_float_guess():
    from minmax_procurement.pareto import MIN_EPSILON
    inst, _ = expand_chain(gen_chain(ChainSpec(2, 1)), F(1, 4))
    pruned, weights, _ = preprocess(inst, F(1, 4))
    for tiny in (MIN_EPSILON / 2, F(1, 10**3000)):
        with pytest.raises(ValueError, match="2\\^-48"):
            pareto_eps(pruned, weights, tiny)
    base = _bucket_base(MIN_EPSILON, inst.node_count)
    assert 1 < base and base ** (inst.node_count - 1) <= 1 + MIN_EPSILON


def test_preprocess_refuses_an_arborescence_instance_before_solving_it(monkeypatch):
    from minmax_procurement import solvers
    from minmax_procurement.adversary import gen_dmst_chain

    def no_solve(inst):
        raise AssertionError("the instance was solved")

    monkeypatch.setattr(solvers, "min_arborescence", no_solve)
    inst, _ = gen_dmst_chain(ChainSpec(2, 1))
    with pytest.raises(ValueError, match="^the approximation scheme handles path instances only$"):
        preprocess(inst, F(1, 4))
