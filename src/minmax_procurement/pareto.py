"""Approximation scheme for min-max path via approximate Pareto frontiers.

The min-max path problem embeds into multi-objective shortest path: an edge
owned by agent i gets the objective vector with its cost in coordinate i and
zeros elsewhere. After flooring all weights at a small delta (so the
max/min weight ratio is bounded) a label-correcting dynamic program computes
a (1+eps)-Pareto set of the target; minimizing the maximum coordinate over
that set, re-evaluated under the original costs, gives a (1+eps)^2
approximation of the min-max optimum.

Geometric bucketing uses a rational base b = p/q with b^(nodes-1) <= 1+eps,
so the coverage factor is certified in exact arithmetic. The DP scales the
floored weights once to integers over their common denominator L and runs on
integer tuples. An integer value V lies in the smallest cell k >= 0 with
V <= floor(D * p^k / q^k), where D = delta * L. That floor comes from a
certified fixed-point bracket lo <= 2^g * b^k <= hi, the product of one
table entry per base-64 digit of k, rounding lo down and hi up: when
floor(D * lo / 2^g) and floor(D * hi / 2^g) agree, that is the exact floor;
otherwise it is computed from the exact powers. The table holds at most 64
brackets per level, so memory does not grow with 1/eps. Floating point only
guesses k; the guess is corrected exactly, galloping then bisecting.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from operator import add
from typing import Iterable, Optional

from .graphs import (
    Instance, PATH, Solution, as_rational, cost_summary, scale_to_integers, scaled_loads,
)
from .solvers import MIN_MAX, NoFeasibleSolutionError, OptimumReport, min_sum_optimum


@dataclass(frozen=True)
class PtasConfig:
    epsilon: Fraction
    delta: Fraction
    ratio_bound: Fraction  # max/min modified weight ratio, <= max(1, n(V-1)/eps)
    baseline_sp: Fraction  # 0: the shortest path itself is optimal


@dataclass(frozen=True, kw_only=True)
class PtasReport(OptimumReport):
    """The scheme's answer with its floor delta, the baseline shortest-path
    value and the number of labels at the target (None when SP = 0 made the
    shortest path itself optimal)."""
    delta: Fraction
    baseline_sp: Fraction
    label_count: Optional[int]


@dataclass(frozen=True)
class ParetoLabel:
    """A label at the target: its cell, its exact vector and its walk."""
    node: int
    bucket_index: tuple[int, ...]  # objectives 1..n-1
    vector: tuple[Fraction, ...]  # exact costs under the modified weights
    edge_ids: tuple[int, ...]  # the walk from the source, in traversal order


def preprocess(inst: Instance, epsilon: Fraction):
    """Prune expensive edges and floor all weights at delta.

    Returns (pruned instance, modified weight vectors, PtasConfig). Edges
    costing more than the shortest-path value SP cannot improve on the
    shortest path and are deleted; each remaining edge's vector has
    max(delta, cost) in its owner's coordinate and delta elsewhere, with
    delta = eps * SP / (n * (V - 1)) for n agents and V nodes, so the weight
    ratio is at most max(1, n * (V - 1) / eps): once eps > n * (V - 1), delta
    exceeds every kept cost and every weight is delta. A simple path has at
    most V - 1 edges and SP <= n * OPT, so the floor adds at most eps * OPT to
    each coordinate of the optimal path, and the scheme keeps its (1+eps)^2
    bound. When SP = 0 the shortest path is already min-max optimal and the
    weights are empty.
    """
    if inst.mode != PATH:
        raise ValueError("the approximation scheme handles path instances only")
    epsilon = as_rational(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    n = inst.agent_count
    sp = min_sum_optimum(inst).value
    if sp == 0:
        return inst, {}, PtasConfig(epsilon, Fraction(0), Fraction(1), sp)

    delta = epsilon * sp / (n * (inst.node_count - 1))
    pruned = inst.without_edges(e.id for e in inst.edges if e.cost > sp)
    weights = {}
    for e in pruned.edges:
        vec = [delta] * n
        vec[e.owner - 1] = max(delta, e.cost)
        weights[e.id] = tuple(vec)
    ratio = max(max(vec) for vec in weights.values()) / delta
    assert ratio <= max(1, n * (inst.node_count - 1) / epsilon)
    config = PtasConfig(epsilon, delta, ratio, sp)
    return pruned, weights, config


MIN_EPSILON = Fraction(1, 2**48)
MAX_EPSILON = 2**48


def _bucket_base(epsilon: Fraction, node_count: int) -> Fraction:
    """A rational b > 1 with b^(node_count-1) <= 1 + epsilon, certified exactly.

    Epsilon outside [MIN_EPSILON, MAX_EPSILON] raises ValueError. The float
    guesses of b and of each cell lose bits as epsilon shrinks, and below
    ~1e-308 they divide by zero; above ~1.8e308 float(epsilon) overflows.
    """
    if not MIN_EPSILON <= epsilon <= MAX_EPSILON:
        raise ValueError("epsilon must be at least 2^-48 and at most 2^48")
    steps = max(node_count - 1, 1)
    approx = (1.0 + float(epsilon)) ** (1.0 / steps)
    base = Fraction(approx).limit_denominator(10**6)
    one_plus = 1 + epsilon
    if base <= 1:
        base = 1 + epsilon / steps
    while base**steps > one_plus:  # shrink toward 1 until certified exactly
        base = 1 + (base - 1) * Fraction(9, 10)
    assert base > 1
    return base


def _times(lo: int, hi: int, num: int, den: int) -> tuple[int, int]:
    """The bracket lo, hi times num / den, lo rounded down and hi up."""
    return lo * num // den, -(-(hi * num) // den)


def _table_bits(k: int) -> int:
    """Fractional bits of a bracket table that serves k: 64 beyond 2 * bitlen(k),
    which keeps fallbacks to exact powers rare, and at least 160, so that one
    table serves every k below 2^48."""
    return 64 + 2 * max(k.bit_length(), 48)


class _Bucketizer:
    """Cells of the geometric grid delta * base^k, decided exactly.

    Fixed-point brackets lo <= 2^bits * base^k <= hi come from a table whose
    level j holds the brackets of base^(r * 64^j) for r < 64. Entries are
    built when a k first needs them, each by one multiply of two existing ones;
    every product rounds lo down and hi up, so the brackets hold at any
    precision and `bits` only sets how often the exact powers are needed.
    """

    def __init__(self, base: Fraction, delta):
        self.base = base
        self.delta = delta  # a Fraction, or an int in the DP's scaled units
        self._log_base = math.log1p(float(base - 1))  # accurate for base near 1
        self._bits = 0
        self._levels: list[list[tuple[int, int]]] = []

    def _grow(self, j: int, r: int) -> None:
        """Build the table up to the bracket of base^(r * 64^j)."""
        levels, bits = self._levels, self._bits
        while len(levels) <= j:
            i = len(levels)
            if i == 0:
                step = _times(1 << bits, 1 << bits, self.base.numerator, self.base.denominator)
            else:  # base^(64^i) = base^(63 * 64^(i-1)) * base^(64^(i-1))
                self._grow(i - 1, 63)
                (lo, hi), (step_lo, step_hi) = levels[i - 1][63], levels[i - 1][1]
                step = lo * step_lo >> bits, -(-(hi * step_hi) >> bits)
            levels.append([(1 << bits, 1 << bits), step])
        row = levels[j]
        while len(row) <= r:
            (lo, hi), (step_lo, step_hi) = row[-1], row[1]
            row.append((lo * step_lo >> bits, -(-(hi * step_hi) >> bits)))

    def _bracket(self, k: int) -> tuple[int, int]:
        """lo <= 2^bits * base^k <= hi: one table multiply per base-64 digit of k."""
        if _table_bits(k) > self._bits:  # first use, or k past the table's precision
            self._bits = _table_bits(k)
            self._levels = []
        bits, levels = self._bits, self._levels
        lo = hi = 1 << bits
        j = 0
        while k:
            r = k & 63
            if r:
                if len(levels) <= j or len(levels[j]) <= r:
                    self._grow(j, r)
                entry_lo, entry_hi = levels[j][r]
                lo = lo * entry_lo >> bits
                hi = -(-(hi * entry_hi) >> bits)
            k >>= 6
            j += 1
        return lo, hi

    def _floor(self, d: int, k: int, lo: int, hi: int) -> int:
        """floor(d * base^k), exactly, for d >= 0 and a bracket lo, hi of base^k."""
        floor = d * lo >> self._bits
        if floor == d * hi >> self._bits:
            return floor
        return d * self.base.numerator**k // self.base.denominator**k

    def _covers(self, m: int, d: int, k: int) -> bool:
        return m <= self._floor(d, k, *self._bracket(k))

    def _guess(self, m: int, d: int) -> int:
        """A float estimate of the smallest k >= 1 with m <= d * base^k."""
        return max(int((math.log(m) - math.log(d)) / self._log_base), 1)

    def index(self, value) -> int:
        """Smallest k >= 0 with value <= delta * base^k (0 for value <= delta).

        With value / delta = m / d in integers this is the smallest k with
        m <= floor(d * base^k). The float guess's neighbour k +- 1 is bracketed
        from the guess's bracket by one multiply or divide by base; a guess e
        cells off costs O(log e) brackets.
        """
        m = value.numerator * self.delta.denominator
        d = value.denominator * self.delta.numerator
        if m <= d:
            return 0
        p, q = self.base.numerator, self.base.denominator
        k = self._guess(m, d)
        lo, hi = self._bracket(k)
        if m <= self._floor(d, k, lo, hi):  # k covers m; does k - 1?
            if k == 1 or m > self._floor(d, k - 1, *_times(lo, hi, q, p)):
                return k
            return self._search(m, d, 0, k - 1)
        if m <= self._floor(d, k + 1, *_times(lo, hi, p, q)):
            return k + 1
        return self._search(m, d, k + 1, None)

    def _search(self, m: int, d: int, fails: int, covers: Optional[int]) -> int:
        """The smallest k that covers m, given that k = fails does not and
        k = covers does (None: gallop up from fails to find one).

        Gallops away from the side known nearest, doubling the step, then
        bisects.
        """
        step = 1
        if covers is None:
            while not self._covers(m, d, fails + step):
                fails += step
                step *= 2
            covers = fails + step
        else:
            while covers - step > fails and self._covers(m, d, covers - step):
                covers -= step
                step *= 2
            fails = max(fails, covers - step)
        while covers - fails > 1:
            mid = (fails + covers) // 2
            if self._covers(m, d, mid):
                covers = mid
            else:
                fails = mid
        return covers


def pareto_eps(inst: Instance, weights: dict[int, tuple[Fraction, ...]],
               epsilon: Fraction) -> list[ParetoLabel]:
    """Labels at the target forming a (1+eps)-Pareto set of s-t paths, one
    per target cell, in cell order.

    Round-based relaxation: node_count-1 rounds over all edges, keeping per
    (node, bucket cell) the label with minimal last-objective cost. For every
    Pareto-optimal path p there is a returned label y with
    vector(y) <= (1+eps) * vector(p) componentwise, exactly. Each label holds
    its walk's edge ids and its vector over Fractions; the labels the DP kept
    at other nodes are not returned.
    """
    epsilon = as_rational(epsilon)
    n = inst.agent_count
    s, t = inst.source, inst.target_or_root
    scale, flat = scale_to_integers(w for vec in weights.values() for w in vec)
    least = min((w for w in flat if w > 0), default=scale)
    values = iter(flat)
    scaled = {eid: tuple(islice(values, len(vec))) for eid, vec in weights.items()}
    # few distinct values recur across many relaxations: remember each one's cell
    index = functools.cache(_Bucketizer(_bucket_base(epsilon, inst.node_count), least).index)
    ids = [e.id for e in inst.edges]
    # per node, (edge id, head) of each weighted step, by edge id
    incident = [sorted((ids[i], v) for v, i, _ in steps if ids[i] in weights)
                for steps in inst.adjacency()]

    # a label is (node, cell, scaled vector, predecessor label, edge id)
    start = (s, (0,) * (n - 1), (0,) * n, None, None)
    cells: dict[tuple, tuple] = {(s, start[1]): start}
    frontier = [start]
    for _ in range(max(inst.node_count - 1, 1)):
        new_frontier = []
        for label in frontier:
            vec = label[2]
            for eid, head in incident[label[0]]:
                new_vec = tuple(map(add, vec, scaled[eid]))
                cell = tuple(map(index, new_vec[:-1]))
                kept = cells.get((head, cell))
                if kept is None or new_vec[-1] < kept[2][-1]:
                    new = (head, cell, new_vec, label, eid)
                    cells[head, cell] = new
                    new_frontier.append(new)
        frontier = new_frontier
        if not frontier:
            break
    labels = []
    for key in sorted(key for key in cells if key[0] == t):
        label = cells[key]
        vec, walk = label[2], []
        while label[3] is not None:
            walk.append(label[4])
            label = label[3]
        labels.append(ParetoLabel(t, key[1], tuple(Fraction(x, scale) for x in vec),
                                  tuple(reversed(walk))))
    return labels


def _simplify_path(inst: Instance, edge_ids: Iterable[int]) -> list[int]:
    """Drop cycles from a source-target walk; never increases any cost."""
    node = inst.source
    nodes = [node]
    kept: list[int] = []
    seen = {node: 0}
    for eid in edge_ids:
        e = inst.edge_by_id(eid)
        node = e.head if e.tail == node else e.tail
        if node in seen:
            idx = seen[node]
            for dropped in nodes[idx + 1:]:
                del seen[dropped]
            del nodes[idx + 1:]
            del kept[idx:]
        else:
            seen[node] = len(nodes)
            nodes.append(node)
            kept.append(eid)
    return kept


def minmax_ptas(inst: Instance, epsilon: Fraction) -> PtasReport:
    """(1+eps)^2-approximate min-max s-t path.

    Runs the approximate Pareto DP on the floored weights, then re-evaluates
    every candidate under the original costs and returns the best.
    """
    pruned, weights, config = preprocess(inst, epsilon)
    if config.baseline_sp == 0:
        witness = min_sum_optimum(inst).witness
        return PtasReport(MIN_MAX, cost_summary(inst, witness).max_cost, witness,
                          delta=config.delta, baseline_sp=config.baseline_sp,
                          label_count=None)

    labels = pareto_eps(pruned, weights, config.epsilon)
    walks = (sorted(_simplify_path(pruned, label.edge_ids)) for label in labels)
    # scaled loads share the instance's denominator, so they rank as the costs do
    best = min(((max(scaled_loads(inst, ids)), ids) for ids in walks), default=None)
    if best is None:
        raise NoFeasibleSolutionError("no source-target path survived preprocessing")
    return PtasReport(MIN_MAX, Fraction(best[0], inst.scaled_costs()[0]), Solution(best[1]),
                      delta=config.delta, baseline_sp=config.baseline_sp,
                      label_count=len(labels))
