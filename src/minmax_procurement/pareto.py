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
certified fixed-point bracket lo <= 2^g * b^k <= hi, built by
square-and-multiply rounding lo down and hi up: when floor(D * lo / 2^g) and
floor(D * hi / 2^g) agree, that is the exact floor; otherwise it is computed
from the exact powers. Floating point only guesses k, and the guess is
corrected exactly. No table of exact powers is kept, so memory does not grow
with 1/eps.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from operator import add
from typing import Optional

from .graphs import Instance, PATH, Solution, as_rational, cost_summary, scale_to_integers
from .solvers import MIN_MAX, NoFeasibleSolutionError, OptimumReport, min_sum_optimum


@dataclass(frozen=True)
class PtasConfig:
    epsilon: Fraction
    delta: Fraction
    ratio_bound: Fraction  # max/min modified weight ratio, <= n^2/eps
    baseline_sp: Fraction
    short_circuit: bool  # SP == 0: the shortest path itself is optimal


@dataclass(frozen=True, kw_only=True)
class PtasReport(OptimumReport):
    """The scheme's answer with its floor delta, the baseline shortest-path
    value and the number of labels at the target (None when SP = 0 made the
    shortest path itself optimal)."""
    delta: Fraction
    baseline_sp: Fraction
    label_count: Optional[int]


@dataclass
class ParetoLabel:
    node: int
    bucket_index: tuple[int, ...]  # objectives 1..n-1
    vector: tuple[Fraction, ...]  # exact costs under the modified weights
    predecessor: Optional[tuple["ParetoLabel", int]]  # (label, edge id)

    def edge_ids(self) -> list[int]:
        ids: list[int] = []
        label = self
        while label.predecessor is not None:
            label, eid = label.predecessor
            ids.append(eid)
        ids.reverse()
        return ids


def encode_objectives(inst: Instance) -> dict[int, tuple[Fraction, ...]]:
    """Edge id -> objective vector: owner's coordinate carries the cost."""
    if inst.mode != PATH:
        raise ValueError("objective encoding is defined for path instances")
    vectors = {}
    zero = [Fraction(0)] * inst.agent_count
    for e in inst.edges:
        vec = list(zero)
        vec[e.owner - 1] = e.cost
        vectors[e.id] = tuple(vec)
    return vectors


def preprocess(inst: Instance, epsilon: Fraction):
    """Prune expensive edges and floor all weights at delta.

    Returns (pruned instance, modified weight vectors, PtasConfig). Edges
    costing more than the shortest-path value cannot improve on the shortest
    path and are deleted; every remaining weight component is raised to at
    least delta = eps * SP / n^2 so the weight ratio is at most n^2 / eps.
    When SP = 0 the shortest path is already min-max optimal and the config
    carries the short-circuit flag.
    """
    if inst.mode != PATH:
        raise ValueError("the approximation scheme handles path instances only")
    epsilon = as_rational(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    n = inst.agent_count
    sp = min_sum_optimum(inst).value
    if sp == 0:
        config = PtasConfig(epsilon, Fraction(0), Fraction(1), sp, True)
        return inst, encode_objectives(inst), config

    delta = epsilon * sp / (n * n)
    pruned = inst.without_edges(e.id for e in inst.edges if e.cost > sp)
    weights = {}
    hi = delta
    for eid, vec in encode_objectives(pruned).items():
        mod = tuple(max(delta, w) for w in vec)
        weights[eid] = mod
        hi = max(hi, max(mod))
    ratio = hi / delta
    assert ratio <= Fraction(n * n, 1) / epsilon
    config = PtasConfig(epsilon, delta, ratio, sp, False)
    return pruned, weights, config


MIN_EPSILON = Fraction(1, 2**48)


def _bucket_base(epsilon: Fraction, node_count: int) -> Fraction:
    """A rational b > 1 with b^(node_count-1) <= 1 + epsilon, certified exactly.

    Epsilon below MIN_EPSILON raises ValueError: the float guesses of b and of
    each cell lose bits as epsilon shrinks, so their exact correction slows
    without bound (2^-64 ran past 40 s); below ~1e-308 they overflow or divide by zero.
    """
    if epsilon < MIN_EPSILON:
        raise ValueError("epsilon must be at least 2^-48")
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


GUARD_BITS = 64  # bits of a power bracket beyond 2 * bitlen(k)


def _power_bracket(p: int, q: int, k: int, bits: int) -> tuple[int, int]:
    """Integers lo <= 2^bits * (p/q)^k <= hi.

    Square-and-multiply in fixed point with `bits` fractional bits, rounding
    every product down for lo and up for hi.
    """
    base_lo = (p << bits) // q
    base_hi = -(-(p << bits) // q)
    lo = hi = 1 << bits
    for bit in bin(k)[2:]:
        lo = lo * lo >> bits
        hi = -(-(hi * hi) >> bits)
        if bit == "1":
            lo = lo * base_lo >> bits
            hi = -(-(hi * base_hi) >> bits)
    return lo, hi


def _floor_scaled_power(d: int, p: int, q: int, k: int) -> int:
    """floor(d * (p/q)^k), exactly, for integers d >= 0, p >= q >= 1, k >= 0."""
    bits = GUARD_BITS + 2 * k.bit_length()
    lo, hi = _power_bracket(p, q, k, bits)
    floor = d * lo >> bits
    if floor == d * hi >> bits:
        return floor
    return d * p**k // q**k


class _Bucketizer:
    def __init__(self, base: Fraction, delta):
        self.base = base
        self.delta = delta  # a Fraction, or an int in the DP's scaled units
        self._log_base = math.log1p(float(base - 1))  # accurate for base near 1
        self._floors: dict[tuple[int, int], int] = {}

    def _floor(self, d: int, k: int) -> int:
        floor = self._floors.get((d, k))
        if floor is None:
            floor = _floor_scaled_power(d, self.base.numerator, self.base.denominator, k)
            self._floors[d, k] = floor
        return floor

    def index(self, value) -> int:
        """Smallest k >= 0 with value <= delta * base^k (0 for value <= delta).

        With value / delta = m / d in integers this is the smallest k with
        m <= floor(d * base^k).
        """
        m = value.numerator * self.delta.denominator
        d = value.denominator * self.delta.numerator
        if m <= d:
            return 0
        k = max(int((math.log(m) - math.log(d)) / self._log_base), 0)
        while m > self._floor(d, k):
            k += 1
        while k > 0 and m <= self._floor(d, k - 1):
            k -= 1
        return k


def pareto_eps(inst: Instance, weights: dict[int, tuple[Fraction, ...]],
               epsilon: Fraction) -> list[ParetoLabel]:
    """Labels at the target forming a (1+eps)-Pareto set of s-t paths.

    Round-based relaxation: node_count-1 rounds over all edges, keeping per
    (node, bucket cell) the label with minimal last-objective cost. For every
    Pareto-optimal path p there is a returned label y with
    vector(y) <= (1+eps) * vector(p) componentwise, exactly.
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
    incident: list[list[tuple[int, int]]] = [[] for _ in range(inst.node_count)]
    for e in inst.edges:
        if e.id not in weights:
            continue
        incident[e.tail].append((e.head, e.id))
        if not inst.directed:
            incident[e.head].append((e.tail, e.id))
    for lst in incident:
        lst.sort(key=lambda pair: pair[1])

    # a label is (node, cell, scaled vector, predecessor label, edge id)
    start = (s, (0,) * (n - 1), (0,) * n, None, None)
    cells: dict[tuple, tuple] = {(s, start[1]): start}
    frontier = [start]
    for _ in range(max(inst.node_count - 1, 1)):
        new_frontier = []
        for label in frontier:
            vec = label[2]
            for head, eid in incident[label[0]]:
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
    exported: dict[int, ParetoLabel] = {}
    return [_export(cells[key], scale, exported) for key in sorted(cells) if key[0] == t]


def _export(label: tuple, scale: int, exported: dict[int, ParetoLabel]) -> ParetoLabel:
    """The ParetoLabel of a DP label and its predecessors, vectors over Fractions.

    `exported` maps id(DP label) to its ParetoLabel, so shared prefixes are
    converted once.
    """
    chain = []
    while label is not None and id(label) not in exported:
        chain.append(label)
        label = label[3]
    out = None if label is None else exported[id(label)]
    for label in reversed(chain):
        node, cell, vec, pred, eid = label
        out = ParetoLabel(node, cell, tuple(Fraction(x, scale) for x in vec),
                          None if pred is None else (out, eid))
        exported[id(label)] = out
    return out


def _simplify_path(inst: Instance, edge_ids: list[int]) -> list[int]:
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
            continue
    return kept


def minmax_ptas(inst: Instance, epsilon: Fraction) -> PtasReport:
    """(1+eps)^2-approximate min-max s-t path.

    Runs the approximate Pareto DP on the floored weights, then re-evaluates
    every candidate under the original costs and returns the best.
    """
    pruned, weights, config = preprocess(inst, epsilon)
    if config.short_circuit:
        witness = min_sum_optimum(inst).witness
        return PtasReport(MIN_MAX, cost_summary(inst, witness).max_cost, witness,
                          delta=config.delta, baseline_sp=config.baseline_sp,
                          label_count=None)

    labels = pareto_eps(pruned, weights, config.epsilon)
    best: Optional[tuple[Fraction, tuple[int, ...]]] = None
    for label in labels:
        ids = _simplify_path(pruned, label.edge_ids())
        sol = Solution(ids)
        value = cost_summary(inst, sol).max_cost
        key = (value, tuple(sorted(ids)))
        if best is None or key < best:
            best = key
    if best is None:
        raise NoFeasibleSolutionError("no source-target path survived preprocessing")
    return PtasReport(MIN_MAX, best[0], Solution(best[1]), delta=config.delta,
                      baseline_sp=config.baseline_sp, label_count=len(labels))
