"""The integer Pareto DP against the implementation it replaced.

`OldBucketizer` and `old_pareto_eps` are the former bucketing, which compared
Fractions against exact powers delta * base^k, and the former DP over
Fraction vectors. They are kept here only as oracles: the new
DP must return the same labels (node, cell, vector, edges) in the same order,
and the new power bracket must give the exact floor d * p^k // q^k.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from minmax_procurement import (
    Edge,
    Instance,
    PATH,
    chain_minmax_exact,
    minmax_ptas,
    pareto_eps,
    preprocess,
)
from minmax_procurement import pareto
from minmax_procurement.adversary import ChainSpec, expand_chain, gen_chain
from minmax_procurement.pareto import (
    ParetoLabel,
    _bucket_base,
    _Bucketizer,
    _floor_scaled_power,
    _power_bracket,
)

F = Fraction


# -- the former implementation -----------------------------------------------


class OldBucketizer:
    def __init__(self, base, delta):
        self.base = base
        self.delta = delta
        self._log_base = math.log(float(base))
        self._powers = {}

    def _power(self, k):
        # the former table held every power up to the largest k; caching only
        # the powers asked for compares the same Fractions in less memory
        if k not in self._powers:
            self._powers[k] = self.base**k
        return self._powers[k]

    def index(self, value):
        if value <= self.delta:
            return 0
        k = max(int(math.log(float(value / self.delta)) / self._log_base), 0)
        while self.delta * self._power(k) < value:
            k += 1
        while k > 0 and self.delta * self._power(k - 1) >= value:
            k -= 1
        return k


def old_pareto_eps(inst, weights, epsilon):
    epsilon = Fraction(epsilon)
    n = inst.agent_count
    s, t = inst.source, inst.target_or_root
    positive = [w for vec in weights.values() for w in vec if w > 0]
    bucketizer = OldBucketizer(_bucket_base(epsilon, inst.node_count),
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

    start = ParetoLabel(s, (0,) * (n - 1), tuple(Fraction(0) for _ in range(n)), None)
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
                    new = ParetoLabel(head, key[1], vec, (label, eid))
                    cells[key] = new
                    new_frontier.append(new)
        frontier = new_frontier
        if not frontier:
            break
    return [label for key, label in sorted(cells.items()) if label.node == t]


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
    return [(lab.node, lab.bucket_index, lab.vector, lab.edge_ids()) for lab in labels]


def assert_same_labels(inst, epsilon):
    pruned, weights, config = preprocess(inst, epsilon)
    if config.short_circuit:
        return 0
    new = pareto_eps(pruned, weights, epsilon)
    old = old_pareto_eps(pruned, weights, epsilon)
    assert label_rows(new) == label_rows(old)
    for lab in new:
        assert all(type(x) is Fraction for x in lab.vector)
    return len(new)


# -- the DP ---------------------------------------------------------------------


@pytest.mark.parametrize("agents", [2, 3])
def test_labels_match_former_dp_on_random_instances(agents):
    compared = 0
    for seed in range(30):
        inst = rand_instance(random.Random(1000 * agents + seed), 9, agents)
        for eps in (F(1, 4), F(1, 32)):
            compared += assert_same_labels(inst, eps) > 0
    assert compared > 30


# 2 x 3 blocks at 1/256 is left out: the oracle takes ~30 s there (~1 GB with
# the former full power table)
@pytest.mark.parametrize("blocks, eps", [
    pytest.param(blocks, eps, id=f"2x{blocks}-eps{eps}")
    for blocks in (1, 2, 3)
    for eps in (F(1, 4), F(1, 32), F(1, 64), F(1, 256))
    if (blocks, eps) != (3, F(1, 256))
])
def test_labels_match_former_dp_on_expanded_chains(blocks, eps):
    inst, _ = seeded_expanded_chain(2, blocks, seed=blocks)
    assert assert_same_labels(inst, eps) > 0


def test_ptas_reports_label_count_and_config():
    inst, _ = seeded_expanded_chain(2, 2, seed=7)
    report = minmax_ptas(inst, F(1, 32))
    pruned, weights, config = preprocess(inst, F(1, 32))
    assert report.label_count == len(pareto_eps(pruned, weights, F(1, 32)))
    assert (report.delta, report.baseline_sp) == (config.delta, config.baseline_sp)


def test_short_circuit_report_has_no_label_count():
    edges = (Edge(0, 0, 1, 1, F(0)), Edge(1, 0, 1, 2, F(5)))
    report = minmax_ptas(Instance(False, 2, edges, 2, PATH, 0, 1), F(1, 4))
    assert report.label_count is None
    assert report.delta == 0 and report.baseline_sp == 0


# -- bucketing ------------------------------------------------------------------


def random_triples(rng, count, max_k):
    for _ in range(count):
        base = _bucket_base(F(1, rng.choice((2, 8, 64, 256, 1024))), rng.randint(2, 12))
        d = rng.choice((1, rng.randint(1, 1000), rng.getrandbits(rng.randint(1, 90)) + 1))
        yield base.numerator, base.denominator, d, rng.randint(0, max_k)


def test_power_bracket_contains_exact_power():
    rng = random.Random(5)
    for p, q, _, k in random_triples(rng, 300, 3000):
        bits = pareto.GUARD_BITS + 2 * k.bit_length()
        lo, hi = _power_bracket(p, q, k, bits)
        exact_scaled = (p**k << bits)
        assert lo * q**k <= exact_scaled <= hi * q**k


def test_floor_matches_exact_quotient():
    rng = random.Random(6)
    for p, q, d, k in random_triples(rng, 2000, 3000):
        assert _floor_scaled_power(d, p, q, k) == d * p**k // q**k


def test_floor_falls_back_when_bracket_is_too_wide(monkeypatch):
    monkeypatch.setattr(pareto, "GUARD_BITS", 0)
    rng = random.Random(7)
    fallbacks = 0
    for p, q, d, k in random_triples(rng, 500, 3000):
        bits = 2 * k.bit_length()
        lo, hi = _power_bracket(p, q, k, bits)
        fallbacks += (d * lo >> bits) != (d * hi >> bits)
        assert _floor_scaled_power(d, p, q, k) == d * p**k // q**k
    assert fallbacks > 50


def test_bucket_index_matches_former_on_fractions_and_ints():
    rng = random.Random(8)
    for _ in range(100):
        base = _bucket_base(F(1, rng.choice((4, 16, 64))), rng.randint(2, 9))
        delta = F(rng.randint(1, 50), rng.randint(1, 50))
        new, old = _Bucketizer(base, delta), OldBucketizer(base, delta)
        ints = _Bucketizer(base, rng.randint(1, 10**6))
        ints_old = OldBucketizer(base, F(ints.delta))
        for _ in range(10):
            value = F(rng.randint(0, 10**6), rng.randint(1, 10**3))
            assert new.index(value) == old.index(value)
            scaled = rng.randint(0, ints.delta * 10**5)
            assert ints.index(scaled) == ints_old.index(F(scaled))


# -- regression: fine epsilon -----------------------------------------------


@pytest.mark.parametrize("eps", [F(1, 1024), F(1, 10**5)], ids=str)
def test_fine_epsilon_finishes_within_bound(eps):
    inst, indexing = seeded_expanded_chain(2, 2, seed=11)
    started = time.process_time()
    report = minmax_ptas(inst, eps)
    # the former power table needed minutes and gigabytes here
    assert time.process_time() - started < 20
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
    opt = chain_minmax_exact(inst.agent_count, vectors).value
    assert opt <= report.value <= (1 + eps) ** 2 * opt
