"""The integer Pareto DP against the implementation it replaced.

`OldBucketizer` and `old_pareto_eps` are the former bucketing, which compared
Fractions against exact powers delta * base^k, and the former DP over
Fraction vectors, with `OldLabel`, its label linked to its predecessor;
`old_ptas_winner` is the former scoring of the labels,
one Fraction cost summary per label. They are kept here only as oracles: the
new DP must return the same labels (node, cell, vector, edges) in the same
order, `minmax_ptas` the same value, witness and label count, and the power
brackets must give the exact floor d * p^k // q^k.
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
)
from minmax_procurement import pareto
from minmax_procurement.adversary import ChainSpec, expand_chain, gen_chain
from minmax_procurement.pareto import _bucket_base, _Bucketizer, _simplify_path

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
    pruned, weights, config = preprocess(inst, epsilon)
    labels = pareto_eps(pruned, weights, config.epsilon)
    best = None
    for label in labels:
        ids = _simplify_path(pruned, label.edge_ids)
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
    pruned, weights, config = preprocess(inst, epsilon)
    if config.short_circuit:
        return 0
    new = pareto_eps(pruned, weights, epsilon)
    old = old_pareto_eps(pruned, weights, epsilon)
    assert label_rows(new) == label_rows(old)
    for lab in new:
        assert all(type(x) is Fraction for x in lab.vector)
    report = minmax_ptas(inst, epsilon)
    assert (report.value, report.witness, report.label_count) == old_ptas_winner(inst, epsilon)
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


def assert_bracket_holds(bucketizer, k):
    p, q = bucketizer.base.numerator, bucketizer.base.denominator
    lo, hi = bucketizer._bracket(k)
    bits = bucketizer._bits
    assert bits >= 64 + 2 * k.bit_length()
    assert lo * q**k <= p**k << bits <= hi * q**k


def test_power_bracket_contains_exact_power():
    rng = random.Random(5)
    for p, q, _, k in random_triples(rng, 300, 3000):
        assert_bracket_holds(_Bucketizer(F(p, q), 1), k)


def test_power_bracket_spans_three_table_levels():
    # k >= 64^2 multiplies entries of levels 0, 1 and 2; 64^3 - 1 uses entry
    # 63 of each, and 64^3 starts a fourth level
    for base in (F(1025, 1024), _bucket_base(F(1, 64), 7)):
        bucketizer = _Bucketizer(base, 1)
        for k in (64**2, 64**2 + 64 + 1, 5 * 64**2 + 63, 64**3 - 1, 64**3):
            assert_bracket_holds(bucketizer, k)
        assert [len(row) for row in bucketizer._levels] == [64, 64, 64, 2]


def test_floor_matches_exact_quotient():
    rng = random.Random(6)
    for p, q, d, k in random_triples(rng, 2000, 3000):
        bucketizer = _Bucketizer(F(p, q), 1)
        assert bucketizer._floor(d, k, *bucketizer._bracket(k)) == d * p**k // q**k


def test_floor_falls_back_when_bracket_is_too_wide(monkeypatch):
    monkeypatch.setattr(pareto, "_table_bits", lambda k: 2 * k.bit_length())
    rng = random.Random(7)
    fallbacks = 0
    for p, q, d, k in random_triples(rng, 500, 3000):
        bucketizer = _Bucketizer(F(p, q), 1)
        lo, hi = bucketizer._bracket(k)
        bits = bucketizer._bits
        fallbacks += (d * lo >> bits) != (d * hi >> bits)
        assert bucketizer._floor(d, k, lo, hi) == d * p**k // q**k
        # the cell search, with its neighbour brackets, falls back exactly too
        value = d * p**k // q**k + rng.randint(-1, 1)
        cell = _Bucketizer(F(p, q), d).index(value)
        assert value <= d * p**cell // q**cell
        assert cell == 0 or value > d * p ** (cell - 1) // q ** (cell - 1)
    assert fallbacks > 50


def test_neighbour_bracket_holds_from_the_tightest_bracket():
    # the float guess's neighbour k +- 1 is bracketed by multiplying k's
    # bracket by base or 1 / base; from the tightest bracket of base^k, a
    # rounding toward the exact value shows
    rng = random.Random(10)
    for p, q, _, k in random_triples(rng, 300, 50):
        bits = 64
        exact = p**k << bits
        lo, hi = exact // q**k, -(-exact // q**k)
        for num, den, j in ((p, q, k + 1), (q, p, k - 1)):
            new_lo, new_hi = pareto._times(lo, hi, num, den)
            if j >= 0:
                assert new_lo * q**j <= p**j << bits <= new_hi * q**j


class OffGuessBucketizer(_Bucketizer):
    """Guesses `off` cells away from the float estimate and counts brackets."""

    def __init__(self, base, delta, off):
        super().__init__(base, delta)
        self.off = off
        self.brackets = 0

    def _guess(self, m, d):
        return max(super()._guess(m, d) + self.off, 1)

    def _bracket(self, k):
        self.brackets += 1
        return super()._bracket(k)


@pytest.mark.parametrize("offs", [range(-70, 71), [-1000, 1000]], ids=["near", "far"])
def test_bucket_index_gallops_from_a_guess_far_off(offs):
    # every offset up to 70 ends the doubling at each place a step can;
    # values past cell 20,000 keep the guesses from being clamped at 1
    rng = random.Random(9)
    base = _bucket_base(F(1, 256), 7)
    old = OldBucketizer(base, F(1))
    for _ in range(10):
        value = rng.randint(10**6, 10**9)
        for off in offs:
            new = OffGuessBucketizer(base, 1, off)
            assert new.index(value) == old.index(F(value))
            # one bracket for the guess, then doubling and bisecting
            assert new.brackets <= 2 * math.ceil(math.log2(abs(off) + 1)) + 3


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
