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
from minmax_procurement.pareto import _cells, _simplify_path
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


def test_labels_do_not_depend_on_the_positions_of_the_edges():
    # each node's steps are tried in edge-id order, so shuffling the edges'
    # positions, ids kept, changes no label; equal-cost ties make the order show
    for seed in range(40):
        rng = random.Random(seed)
        inst = rand_instance(rng, 8, 2)
        moved = list(inst.edges)
        rng.shuffle(moved)
        shuffled = Instance(False, inst.node_count, tuple(moved), 2, PATH,
                            inst.source, inst.target_or_root)
        for eps in (F(1, 4), F(2)):
            labels = [pareto_eps(*preprocess(i, eps)[:2], eps) for i in (inst, shuffled)]
            assert labels[0] == labels[1], (seed, eps)


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
    assert config.baseline_sp == 0
    report = minmax_ptas(inst, F(1, 4))
    assert report.value == 0
    assert report.witness.edge_ids == {0}


# -- bucketing ----------------------------------------------------------------


# eps = p/q and V nodes give r = ceil(m (2q + p) / (2p)) with m = max(V - 1, 1)
EPSILONS = [F(1, 2**48), F(1, 256), F(1, 4), F(1), F(2**48)]
NODE_COUNTS = [2, 3, 9, 100]


def cell_r(eps, nodes):
    p, q = eps.numerator, eps.denominator
    return -(-max(nodes - 1, 1) * (2 * q + p) // (2 * p))


@pytest.mark.parametrize("eps", EPSILONS, ids=str)
def test_cell_ratio_certifies_epsilon_exactly(eps):
    for nodes in NODE_COUNTS:
        r, m = cell_r(eps, nodes), max(nodes - 1, 1)
        assert (r + 1) ** m <= (1 + eps) * r**m


@pytest.mark.parametrize("eps", EPSILONS, ids=str)
def test_cells_of_the_first_three_octaves(eps):
    # every integer up to 8 * least: cells never decrease, cell 0 is exactly
    # v <= least, and each cell's lowest and highest value differ by a factor
    # of at most 1 + 1/r
    for nodes in NODE_COUNTS:
        r = cell_r(eps, nodes)
        for least in (1, 2, 7, 100, 1000):
            cell = _cells(eps, nodes, least)
            cells = [cell(v) for v in range(8 * least + 1)]
            assert cells == sorted(cells)
            assert [c == 0 for c in cells] == [v <= least for v in range(8 * least + 1)]
            lowest = {}
            for v, c in enumerate(cells):
                lowest.setdefault(c, v)
                if c:
                    assert v * r <= lowest[c] * (r + 1), (nodes, least, v)


@pytest.mark.parametrize("eps", EPSILONS, ids=str)
def test_cells_hold_many_values_within_the_ratio(eps):
    # a least far above r puts many values in each cell; each sampled cell's
    # ends, found by bisection, differ by a factor of at most 1 + 1/r
    rng = random.Random(4)
    for nodes in NODE_COUNTS:
        r = cell_r(eps, nodes)
        least = (r << 20) + rng.getrandbits(40)
        cell = _cells(eps, nodes, least)
        # each piece's lower end in the first three octaves, past cell 0
        samples = [least * (16 + i) << e >> 4 for e in range(3) for i in range(16)][1:]
        samples += [rng.randint(least + 1, 8 * least) for _ in range(50)]
        for v in samples:
            c = cell(v)
            lo, hi = least, v  # cell(lo) < c == cell(hi)
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (lo, mid) if cell(mid) == c else (mid, hi)
            low_end = hi
            lo, hi = v, 16 * least  # cell(lo) == c < cell(hi)
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if cell(mid) == c else (lo, mid)
            assert lo - low_end >= 1 << 16
            assert lo * r <= low_end * (r + 1), (nodes, v)


def test_labels_do_not_change_when_every_cost_is_scaled():
    for seed in range(20):
        inst = rand_instance(random.Random(200 + seed), 9, 3)
        for factor in (F(3), F(1, 7), F(10**6, 13)):
            scaled = inst.with_costs({e.id: e.cost * factor for e in inst.edges})
            for eps in (F(1, 4), F(1, 32)):
                labels = pareto_eps(*preprocess(inst, eps)[:2], eps)
                moved = pareto_eps(*preprocess(scaled, eps)[:2], eps)
                assert [(lab.bucket_index, lab.edge_ids) for lab in labels] == \
                    [(lab.bucket_index, lab.edge_ids) for lab in moved]
                assert [tuple(x * factor for x in lab.vector) for lab in labels] == \
                    [lab.vector for lab in moved]


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
        if config.baseline_sp == 0:
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
    # the floor itself runs, on integers alone, and keeps the bound
    report = minmax_ptas(inst, MIN_EPSILON)
    opt = brute_minmax(inst).value
    assert opt <= report.value <= (1 + MIN_EPSILON) ** 2 * opt


def test_preprocess_refuses_an_arborescence_instance_before_solving_it(monkeypatch):
    from minmax_procurement import solvers
    from minmax_procurement.adversary import gen_dmst_chain

    def no_solve(inst):
        raise AssertionError("the instance was solved")

    monkeypatch.setattr(solvers, "min_arborescence", no_solve)
    inst, _ = gen_dmst_chain(ChainSpec(2, 1))
    with pytest.raises(ValueError, match="^the approximation scheme handles path instances only$"):
        preprocess(inst, F(1, 4))
