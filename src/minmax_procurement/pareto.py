"""Approximation scheme for min-max path via approximate Pareto frontiers.

The min-max path problem embeds into multi-objective shortest path: an edge
owned by agent i gets the objective vector with its cost in coordinate i and
zeros elsewhere. After flooring all weights at a small delta (so the
max/min weight ratio is bounded) a label-correcting dynamic program computes
a (1+eps)-Pareto set of the target; minimizing the maximum coordinate over
that set, re-evaluated under the original costs, gives a (1+eps)^2
approximation of the min-max optimum.

The DP reads the instance's own integer costs (`Instance.scaled_costs`),
times one common factor, skips the edges dearer than the shortest-path
value in place and runs on integer tuples: no pruned copy, no weight table
and no second scaling. A label's cell is one integer per objective 1..n-1,
from a rule on integers alone: values up to the floor delta share cell 0,
and each octave above it is cut into pieces of equal cells, each cell at
most 1/r of its lower end. Two values in one cell then differ by a factor
of at most b = 1 + 1/r, and r is chosen so that b^(nodes-1) <= 1+eps,
which certifies the coverage factor exactly. Epsilon must lie in
[2^-48, 2^48].
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import add
from typing import Callable, Iterable, Optional

from .graphs import Instance, PATH, Solution, as_rational, cost_summary, scaled_loads
from .solvers import MIN_MAX, OptimumReport, min_sum_optimum


@dataclass(frozen=True)
class PtasConfig:
    epsilon: Fraction
    delta: Fraction
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


# the accepted range of epsilon; the cells are exact beyond it too, so widening
# it is a choice of behaviour, not of arithmetic
MIN_EPSILON = Fraction(1, 2**48)
MAX_EPSILON = 2**48


def preprocess(inst: Instance, epsilon: Fraction) -> PtasConfig:
    """Check epsilon, solve min-sum once and fix the floor delta.

    The DP (`pareto_eps`) skips every edge costing more than the
    shortest-path value SP, as it cannot improve on the shortest path, and
    gives each other edge the vector with max(delta, cost) in its owner's
    coordinate and delta elsewhere, with delta = eps * SP / (n * (V - 1)) for
    n agents and V nodes. The weight ratio is then at most
    max(1, n * (V - 1) / eps): once eps > n * (V - 1), delta exceeds every
    kept cost and every weight is delta. A simple path has at most V - 1
    edges and SP <= n * OPT, so the floor adds at most eps * OPT to each
    coordinate of the optimal path, and the scheme keeps its (1+eps)^2 bound.
    When SP = 0 the shortest path is already min-max optimal and delta is 0.
    A non-path instance, and an epsilon outside [MIN_EPSILON, MAX_EPSILON],
    raise ValueError before anything is solved.
    """
    if inst.mode != PATH:
        raise ValueError("the approximation scheme handles path instances only")
    epsilon = as_rational(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if not MIN_EPSILON <= epsilon <= MAX_EPSILON:
        raise ValueError("epsilon must be at least 2^-48 and at most 2^48")
    sp = min_sum_optimum(inst).value
    delta = epsilon * sp / (inst.agent_count * max(inst.node_count - 1, 1))
    return PtasConfig(epsilon, delta, sp)


# Each octave is cut into 16 linear pieces: ~2.3% more cells per octave than
# the geometric grid with the same cell ratio, where 8 pieces make ~4.7% more.
PIECES = 16


def _cells(epsilon: Fraction, node_count: int, least: int) -> Callable[[int], int]:
    """The cell function of integer values v >= 0, for eps = p/q on V nodes.

    Cell 0 holds v <= least. A larger v lies in octave e = bitlen(v // least) - 1,
    [low, 2 low) with low = least * 2^e, cut into PIECES equal pieces; piece i
    holds c_i = ceil(r / (PIECES + i)) equal cells, r = ceil(m (2q + p) / (2p))
    and m = max(V - 1, 1). A cell's width is at most 1/r of its piece's lower
    end, so two values in one cell differ by a factor below b = 1 + 1/r, and
    b^m <= e^(m/r) <= e^(2 eps / (2 + eps)) <= 1 + eps, as
    ln(1 + x) >= 2x / (2 + x). Cells never decrease as v grows.
    """
    p, q = epsilon.numerator, epsilon.denominator
    r = -(-max(node_count - 1, 1) * (2 * q + p) // (2 * p))
    counts = [-(-r // (PIECES + i)) for i in range(PIECES)]
    offsets = list(accumulate(counts[:-1], initial=1))  # piece i's first cell in octave 0
    per_octave = sum(counts)

    def cell(v: int) -> int:
        if v <= least:
            return 0
        e = (v // least).bit_length() - 1
        low = least << e
        i = (v - low) * PIECES // low
        return (e * per_octave + offsets[i]
                + (PIECES * v - low * (PIECES + i)) * counts[i] // low)

    return cell


def pareto_eps(inst: Instance, config: PtasConfig) -> list[ParetoLabel]:
    """Labels at the target forming a (1+eps)-Pareto set of s-t paths, one
    per target cell, in cell order, under the weights `preprocess` describes.

    `config` is `preprocess(inst, eps)`. The weights are integers over
    M = L * q * n * m, for the instance's costs over L
    (`Instance.scaled_costs`), eps = p/q, n agents and m = V - 1 (1 if
    V = 1): with S = SP * L, delta is p * S, an edge costing x over L weighs
    max(p * S, x * q * n * m) in its owner's coordinate and p * S elsewhere,
    and an edge with x > S is skipped.

    Round-based relaxation: node_count-1 rounds over all edges, keeping per
    (node, bucket cell) the label with minimal last-objective cost. Values in
    one cell differ by a factor of at most b = 1 + 1/r, with b^(V-1) <= 1+eps
    (see `_cells`). By induction on the rounds, after round i the node that a
    simple path's first i edges reach keeps a label at most b^i times that
    prefix's vector in objectives 1..n-1 and at most it in the last one: a
    label replaces another only within one cell and with a smaller last cost.
    So for every Pareto-optimal path p there is a returned label y with
    vector(y) <= (1+eps) * vector(p) componentwise, exactly. Each label holds
    its walk's edge ids and its vector as Fractions; the labels the DP kept
    at other nodes are not returned.
    """
    p, q = config.epsilon.numerator, config.epsilon.denominator
    n, m = inst.agent_count, max(inst.node_count - 1, 1)
    s, t = inst.source, inst.target_or_root
    scale, costs = inst.scaled_costs()
    limit = int(config.baseline_sp * scale)  # S
    floor, factor = p * limit, q * n * m  # delta over M, and M / L
    # few distinct values recur across many relaxations: remember each one's cell
    index = functools.cache(_cells(config.epsilon, inst.node_count, floor))

    def floored(x: int, owner: int) -> tuple[int, ...]:
        return tuple(max(floor, x * factor) if a == owner else floor for a in range(1, n + 1))

    ids = [e.id for e in inst.edges]
    # per node, (edge id, head, weight) of each step costing at most SP, by edge id
    incident = [sorted((ids[i], v, floored(costs[i], owner))
                       for v, i, owner in steps if costs[i] <= limit)
                for steps in inst.adjacency()]

    # a label is (node, cell, scaled vector, predecessor label, edge id)
    start = (s, (0,) * (n - 1), (0,) * n, None, None)
    cells: dict[tuple, tuple] = {(s, start[1]): start}
    frontier = [start]
    for _ in range(m):
        new_frontier = []
        for label in frontier:
            vec = label[2]
            for eid, head, weight in incident[label[0]]:
                new_vec = tuple(map(add, vec, weight))
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
        labels.append(ParetoLabel(t, key[1], tuple(Fraction(x, scale * factor) for x in vec),
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
    config = preprocess(inst, epsilon)
    if config.baseline_sp == 0:
        witness = min_sum_optimum(inst).witness
        return PtasReport(MIN_MAX, cost_summary(inst, witness).max_cost, witness,
                          delta=config.delta, baseline_sp=config.baseline_sp,
                          label_count=None)

    labels = pareto_eps(inst, config)
    walks = (sorted(_simplify_path(inst, label.edge_ids)) for label in labels)
    # the shortest path's edges all cost at most SP, so the target has a label;
    # scaled loads share the instance's denominator, so they rank as the costs do
    best = min((max(scaled_loads(inst, ids)), ids) for ids in walks)
    return PtasReport(MIN_MAX, Fraction(best[0], inst.scaled_costs()[0]), Solution(best[1]),
                      delta=config.delta, baseline_sp=config.baseline_sp,
                      label_count=len(labels))
