"""Exact optimization oracles.

Min-sum solvers (Dijkstra shortest path, contraction-based minimum
arborescence) plus brute-force min-max oracles for desk-scale ground truth.
Everything is exact. The solvers read the costs as integers over their common
denominator L, scaled once per instance (`Instance.scaled_costs`), compare
only those integers, and turn a result x back into a rational with
Fraction(x, L); brute force builds one Fraction, for the winner. Witnesses
are deterministic.

Cost of the min-sum layer, for V nodes and E edges:
- `shortest_path`: one Dijkstra run, O(E log V), that pushes a node only
  when its distance improves, then one depth-first search from the source
  over tight edges, O(E log E) with its per-node sorts by edge id,
  zero-cost plateaus included, over the adjacency lists
  `Instance.adjacency` builds once per instance.
- `scaled_min_sum_value`: the value alone, without one agent's edges, on
  the instance itself (no derived copy and no memo); one Dijkstra that
  stops at the target for paths.
- `min_arborescence`: iterative Chu-Liu/Edmonds in O(E log^2 V), with no
  recursion; a contraction recomputes only the new super-node's best
  in-edge, from its members' in-edge heaps merged smaller into larger, and
  the walks keep their union-find and markers in flat per-node lists.

The chain DP has two entries over one body, `_picks`, for every agent
count n. `chain_minmax_exact` checks its int or Fraction block costs and
scales them to integers over their common denominator L;
`scaled_chain_minmax` takes n-tuples of ints already over a given L, with no
check and no rescale, as the chain-exact allocator does. Of the candidate
load vectors after a block the DP keeps only the ones whose lower bound on
the final max load does not exceed the max load of a greedy pick sequence,
tested as the candidates are built, and of those only the Pareto-minimal
ones, found by one front helper that the load width selects. The kept
candidates are the next block's states, and the pick sequence is read back
once at the end; `scaled_chain_minmax` gives the cost per block.

Tie-breaking: the brute-force oracles return, among equal-value optima, the
solution whose sorted edge-id sequence is lexicographically smallest. The
polynomial solvers use a deterministic smallest-edge-id preference (a
depth-first search over tight edges in edge-id order for paths; (cost, id)
keys inside the arborescence contraction); same instance bytes always give
the same witness.
"""

from __future__ import annotations

import heapq
import operator
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Callable, Optional, Sequence

from .graphs import (
    ARBORESCENCE,
    PATH,
    Edge,
    Instance,
    Solution,
    scale_to_integers,
    scaled_loads,
)

MIN_SUM = "min-sum"
MIN_MAX = "min-max"

BRUTE_STEP_BUDGET = 2**20  # work steps a brute-force enumeration may take


class NoFeasibleSolutionError(ValueError):
    """The instance admits no feasible solution."""


class BudgetExceededError(RuntimeError):
    """A brute-force oracle refused to run past its enumeration budget."""


class StructureError(ValueError):
    """Input does not have the block structure an oracle requires."""


@dataclass(frozen=True)
class OptimumReport:
    objective: str
    value: Fraction
    witness: Optional[Solution]
    choices: Optional[tuple[int, ...]] = None  # per-block picks, chain DP only


# -- shortest path ----------------------------------------------------------


def _dijkstra(inst: Instance, stop: Optional[int] = None,
              without_agent: int = 0) -> list[Optional[int]]:
    """Scaled distances from the source over the edges that `without_agent`
    does not own (0, no agent, keeps them all); stops early once `stop` is
    settled. A node is pushed only when its distance improves on the least
    pushed for it so far."""
    adj, costs = inst.adjacency(), inst.scaled_costs()[1]
    dist: list[Optional[int]] = [None] * inst.node_count
    pushed = dist.copy()
    heap: list[tuple[int, int]] = [(0, inst.source)]
    while heap:
        d, u = heapq.heappop(heap)
        if dist[u] is not None:
            continue
        dist[u] = d
        if u == stop:
            break
        for v, i, owner in adj[u]:
            if dist[v] is None and owner != without_agent:
                dv = d + costs[i]
                if pushed[v] is None or dv < pushed[v]:
                    pushed[v] = dv
                    heapq.heappush(heap, (dv, v))
    return dist


def shortest_path(inst: Instance) -> OptimumReport:
    """Min-sum s-t path with a deterministic witness.

    One Dijkstra from the source gives dist. Call a step u -> v of cost c
    tight when dist[u] + c = dist[v]; a walk of tight steps from s to t costs
    dist[t], so every such path is optimal. The witness is the first path
    that a depth-first search from s over tight steps completes to t, trying
    each node's steps in edge-id order and never entering a node twice. That
    is the greedy rule: at each node take the smallest-id step whose head
    still reaches t without revisiting a node. Every path from a node the
    search has left without reaching t passes through a node still on the
    search's stack, so skipping such a node is exact, and the solve is
    O(E log E), zero-cost plateaus included.
    """
    if inst.mode != PATH:
        raise ValueError("shortest_path requires a path-mode instance")
    s, t = inst.source, inst.target_or_root
    scale, costs = inst.scaled_costs()
    dist = _dijkstra(inst)
    if dist[t] is None:
        raise NoFeasibleSolutionError("source and target are disconnected")
    if s == t:
        return OptimumReport(MIN_SUM, Fraction(0), Solution(()))
    sp = dist[t]
    adj, edges = inst.adjacency(), inst.edges

    def tight_steps(u: int):
        du = dist[u]
        steps = [(edges[i].id, v, costs[i]) for v, i, _ in adj[u] if du + costs[i] == dist[v]]
        steps.sort()
        return iter(steps)

    entered = bytearray(inst.node_count)
    entered[s] = 1
    pending = [tight_steps(s)]  # per node on the stack, its untried steps
    steps: list[tuple[int, int]] = []  # (edge id, scaled cost) from s to the top
    while True:
        for eid, v, c in pending[-1]:
            if not entered[v]:
                break
        else:  # the top node cannot reach t; s always can, so steps is not empty
            pending.pop()
            steps.pop()
            continue
        entered[v] = 1
        steps.append((eid, c))
        if v == t:
            break
        pending.append(tight_steps(v))
    total = sum(c for _, c in steps)
    assert total == sp
    return OptimumReport(MIN_SUM, Fraction(sp, scale), Solution(eid for eid, _ in steps))


# -- minimum arborescence ---------------------------------------------------


def min_arborescence(inst: Instance) -> OptimumReport:
    """Min-sum spanning arborescence via cycle contraction (Chu-Liu/Edmonds).

    Ties on incoming-edge selection break toward the smaller edge id, which
    makes the witness deterministic. The contraction is iterative, so no
    instance size reaches a recursion limit. It runs in O(E log^2 V): each
    contraction merges its members' in-edge heaps smaller into larger and
    recomputes only the new super-node's best in-edge.
    """
    if inst.mode != ARBORESCENCE:
        raise ValueError("min_arborescence requires an arborescence-mode instance")
    scale, costs = inst.scaled_costs()
    chosen = _edmonds(inst)
    witness = Solution(inst.edges[i].id for i in chosen)
    return OptimumReport(MIN_SUM, Fraction(sum(costs[i] for i in chosen), scale), witness)


def _edmonds(inst: Instance, without_agent: int = 0) -> list[int]:
    """Indices into `inst.edges` of a min-cost arborescence over the edges
    that `without_agent` does not own (0, no agent, keeps them all).

    Each live node's best in-edge is the smallest by (reduced cost, id). The
    next cycle to contract is the one reached by following best in-edges
    from the first live node, in id order, that does not reach the root. The
    cycle becomes a super-node with the next free id, and an edge entering
    it at member m has its reduced cost lowered by the cost of m's best
    in-edge. A contraction changes no best in-edge outside the cycle, so
    nodes that reach the root keep doing so: the scan resumes at the node
    whose walk found the cycle, and continues that walk from the super-node
    when the walk started outside the cycle. The contractions are undone in
    reverse order at the end.

    Bookkeeping is in per-node lists: `rep`, a union-find with path halving
    inline; `reached`; `at`, a node's place on the current walk, which ends
    with its nodes reached or contracted, so none is stale; `size`, leaves.
    """
    node_count, root, edges = inst.node_count, inst.target_or_root, inst.edges
    # In-edge heap per live node: (reduced cost + a per-heap constant, id, index, tail).
    heaps: list[list[tuple[int, int, int, int]]] = [[] for _ in range(node_count)]
    for i, ((eid, tail, head, owner, _), cost) in enumerate(zip(edges, inst.scaled_costs()[1])):
        if head != root and tail != head and owner != without_agent:
            heaps[head].append((cost, eid, i, tail))
    for v, heap in enumerate(heaps):
        if len(heap) > 1:
            heapq.heapify(heap)
        elif not heap and v != root:
            raise NoFeasibleSolutionError(f"node {v} is unreachable from the root")
    rep = list(range(node_count))
    reached = [False] * (2 * node_count)  # each contraction leaves one live node fewer
    reached[root] = True
    at = [-1] * (2 * node_count)
    size = [1] * node_count
    cycles: list[tuple[list[int], list[int]]] = []  # members and their best in-edges

    start = 0
    while start < len(rep):
        if rep[start] != start or reached[start]:
            start += 1
            continue
        path: list[int] = []
        v = start
        while not reached[v]:
            cut = at[v]
            if cut < 0:
                at[v] = len(path)
                path.append(v)
                v = heaps[v][0][3]
                while rep[v] != v:
                    rep[v] = v = rep[rep[v]]
                continue
            cycle = path[cut:]
            del path[cut:]
            s = len(rep)
            rep.append(s)
            big, heap, total = None, None, 0
            for m in cycle:
                rep[m] = s
                total += size[m]
                if heap is None or len(heaps[m]) > len(heap):
                    big, heap = m, heaps[m]
            size.append(total)
            cycles.append((cycle, [heaps[m][0][2] for m in cycle]))
            # Entries into member m drop by the cost of m's best in-edge, the
            # top of m's heap. Only order inside a heap matters, so entries
            # keep their stored values in the largest member's heap and the
            # others move over shifted by the difference of the two tops.
            top = heap[0][0]
            for m in cycle:
                if m != big:
                    delta = top - heaps[m][0][0]
                    for cost, eid, i, tail in heaps[m]:
                        while rep[tail] != tail:
                            rep[tail] = tail = rep[rep[tail]]
                        if tail != s:
                            heapq.heappush(heap, (cost + delta, eid, i, tail))
                    heaps[m] = []
            while heap:
                tail = heap[0][3]
                while rep[tail] != tail:
                    rep[tail] = tail = rep[rep[tail]]
                if tail != s:
                    break
                heapq.heappop(heap)
            else:
                raise NoFeasibleSolutionError(f"node {s} is unreachable from the root")
            heaps.append(heap)
            if not path:  # `start` itself was contracted
                break
            v = s
        else:
            for v in path:
                reached[v] = True
        start += 1

    # Undo the contractions: a super-node's chosen in-edge goes to the member
    # it enters, and every other member takes back its best in-edge. Original
    # nodes under a node form one range of this leaf order.
    chosen = [-1] * len(rep)
    first = chosen.copy()
    pos = 0
    for v, r in enumerate(rep):
        if r == v:
            first[v] = pos
            pos += size[v]
            chosen[v] = heaps[v][0][2] if v != root else -1
    for k in reversed(range(len(cycles))):
        pos = first[node_count + k]
        for m in cycles[k][0]:
            first[m] = pos
            pos += size[m]
    for k in reversed(range(len(cycles))):
        entering = chosen[node_count + k]
        leaf = first[edges[entering].head]
        for m, best in zip(*cycles[k]):
            chosen[m] = entering if first[m] <= leaf < first[m] + size[m] else best
    del chosen[node_count:], chosen[root]
    return chosen


# -- brute-force min-max ----------------------------------------------------


def _enumerate_paths(inst: Instance):
    """Yield edge-id tuples of all simple source-target paths, depth first.

    The search keeps an explicit stack, so no path length reaches a
    recursion limit.
    """
    s, t = inst.source, inst.target_or_root
    if s == t:
        yield ()
        return
    steps = BRUTE_STEP_BUDGET
    adj = inst.adjacency()
    path: list[int] = []  # edge ids from s to the node on top of the stack
    visited = {s}
    stack = [(s, iter(adj[s]))]  # nodes of the path, each with its unexplored edges
    while stack:
        u, todo = stack[-1]
        for v, i, _ in todo:
            steps -= len(path) + 1 if v == t else 1
            if steps < 0:
                raise BudgetExceededError(f"path enumeration passed the brute-force "
                                          f"budget of {BRUTE_STEP_BUDGET} steps")
            if v == t:
                yield (*path, inst.edges[i].id)
            elif v not in visited:
                visited.add(v)
                path.append(inst.edges[i].id)
                stack.append((v, iter(adj[v])))
                break
        else:
            stack.pop()
            visited.remove(u)
            if path:
                path.pop()


def _enumerate_arborescences(inst: Instance):
    """Yield edge-id tuples: one in-edge per non-root node, root-reachable.

    Non-root nodes pick their in-edges in order, depth first, and an in-edge
    that would close a cycle is refused at once.
    """
    root = inst.target_or_root
    in_edges: list[list[Edge]] = [[] for _ in range(inst.node_count)]
    for e in inst.edges:
        if e.head != root and e.tail != e.head:
            in_edges[e.head].append(e)
    non_root = [v for v in range(inst.node_count) if v != root]
    for v in non_root:
        if not in_edges[v]:
            raise NoFeasibleSolutionError(f"node {v} is unreachable from the root")
    if not non_root:
        yield ()
        return
    steps = BRUTE_STEP_BUDGET
    picked: dict[int, Edge] = {}  # node -> its in-edge, in the order of non_root
    stack = [iter(in_edges[non_root[0]])]  # the unexplored in-edges of each picking node
    while stack:
        v = non_root[len(stack) - 1]
        last = len(stack) == len(non_root)
        for e in stack[-1]:
            steps -= len(non_root) + 1 if last else 1
            u = e.tail
            while u in picked:  # up to the root, a node yet to pick, or v
                u = picked[u].tail
                steps -= 1
            if steps < 0:
                raise BudgetExceededError(f"arborescence enumeration passed the brute-force "
                                          f"budget of {BRUTE_STEP_BUDGET} steps")
            if u == v:  # e closes a cycle
                continue
            if last:
                yield (*(p.id for p in picked.values()), e.id)
            else:
                picked[v] = e
                stack.append(iter(in_edges[non_root[len(stack)]]))
                break
        else:
            stack.pop()
            if picked:
                picked.popitem()  # the last node to pick, as dicts pop LIFO


def brute_minmax(inst: Instance) -> OptimumReport:
    """Exact min-max optimum by exhaustive enumeration.

    Raises BudgetExceededError mid-run once the enumeration has taken more
    than BRUTE_STEP_BUDGET (2**20) steps: one per edge examined or tried, per
    parent walked in a cycle check, and per edge of each solution found.
    """
    return _brute_optimum(inst, MIN_MAX, max)


def brute_minsum(inst: Instance) -> OptimumReport:
    """Exhaustive min-sum counterpart of brute_minmax (testing oracle)."""
    return _brute_optimum(inst, MIN_SUM, sum)


def _brute_optimum(inst: Instance, objective: str,
                   value_of: Callable[[list[int]], int]) -> OptimumReport:
    """The feasible solution with the smallest (value, sorted edge ids), where
    value_of maps a solution's scaled per-agent loads to its scaled value."""
    enumerator = _enumerate_paths if inst.mode == PATH else _enumerate_arborescences
    best = min(((value_of(scaled_loads(inst, ids)), tuple(sorted(ids)))
                for ids in enumerator(inst)), default=None)
    if best is None:
        raise NoFeasibleSolutionError("no feasible solution exists")
    return OptimumReport(objective, Fraction(best[0], inst.scaled_costs()[0]),
                         Solution(best[1]))


# -- chain-structured exact min-max -----------------------------------------


def chain_minmax_exact(
    n: int,
    block_cost_vectors: Sequence[Sequence[Sequence[Fraction]]],
    block_edges: Optional[Sequence[Sequence[Sequence[int]]]] = None,
) -> OptimumReport:
    """Exact min-max over per-block path choices (makespan-style DP).

    `block_cost_vectors[k][c][i]` is the cost agent i+1 pays when choice `c`
    is taken in block k, an int or a Fraction; any other entry, a bool too,
    raises StructureError, as does an `n` that is not an int. The costs are
    scaled once to integers over their common denominator L, and
    `scaled_chain_minmax` solves the scaled input: its tie-break, prunes and
    cost are this function's.

    When `block_edges` is given (edge ids per block and choice), the witness
    Solution is assembled from the chosen blocks.
    """
    if type(n) is not int:
        raise StructureError(f"n must be an int, got {n!r}")
    if n < 1:
        raise StructureError("need at least one agent")
    if not block_cost_vectors:
        raise StructureError("need at least one block")
    for k, block in enumerate(block_cost_vectors):
        if not block:
            raise StructureError(f"block {k} offers no choices")
        for c, vec in enumerate(block):
            if len(vec) != n:
                raise StructureError(
                    f"block {k} choice {c} has {len(vec)} agent costs, expected {n}")
            for x in vec:
                if type(x) not in (int, Fraction):
                    raise StructureError(f"block {k} choice {c} has a cost {x!r} of "
                                         f"type {type(x).__name__}; use ints or Fractions")

    scale, scaled = scale_to_integers(
        x for block in block_cost_vectors for vec in block for x in vec)
    costs = iter(scaled)
    blocks = [[tuple(islice(costs, n)) for _ in block] for block in block_cost_vectors]
    return scaled_chain_minmax(n, blocks, scale, block_edges)


def scaled_chain_minmax(
    n: int,
    blocks: Sequence[Sequence[tuple[int, ...]]],
    scale: int,
    block_edges: Optional[Sequence[Sequence[Sequence[int]]]] = None,
) -> OptimumReport:
    """`chain_minmax_exact` on loads already over a common L = `scale`.

    `blocks[k][c]` is a tuple of n ints, what each agent pays for choice c
    of block k times L. Nothing is checked or rescaled: at least one block,
    each with at least one choice, is the caller's to give. The value is the
    optimal max load over L, Fraction(max load, scale).

    Among optimal load vectors the one whose per-block pick sequence is
    lexicographically smallest wins, and each load vector keeps the smallest
    pick sequence that reaches it.

    Two prunes keep the state count small; it is still exponential in n in
    the worst case. A candidate X after block k is dropped when its bound,
    max_i(X_i + rest[k+1][i]) with rest[j][i] the sum over blocks j, j+1, ...
    of agent i's cheapest choice, exceeds UB, the max load of one real pick
    sequence (greedy: in each block the first choice of smallest bound).
    Then dominated load vectors are dropped from the survivors. Neither
    changes the result:
    - A child's bound is never below its parent's, and after the last block
      the bound is the max load. So every ancestor of an optimal state has
      bound <= OPT <= UB and is kept, whatever the signs of the costs.
    - X <= Y everywhere gives bound(X) <= bound(Y). So a dropped candidate
      dominates no kept one, and equal loads share their fate: the
      survivors that are Pareto-minimal among the survivors are the ones
      Pareto-minimal among all candidates, and bounding first keeps the
      states that bounding the Pareto-minimal ones would keep.
    - The survivors keep their order, so the first-copy rule and the final
      first-of-equal `min` pick the states they would pick without the bound.
    The bound is one test per coordinate of each candidate, against the
    limits UB - rest[k+1][i] computed once per block, and the greedy costs
    O(n) per choice. Each kept candidate, its load followed by its parent's
    position and its choice, serves as a state of the next block as it is,
    and the picks are read back along those positions once, at the end.
    With S survivors, a block costs O(S log S) for n <= 3: one sort, then a
    linear sweep with a running minimum for n <= 2 or a staircase sweep for
    n = 3. For n >= 4 it is a pairwise scan, O(S^2); the bound keeps S small
    enough that 4 agents and 16 blocks take well under a second.
    """
    value, picks = _picks(n, blocks)
    witness = None
    if block_edges is not None:
        ids: list[int] = []
        for k, c in enumerate(picks):
            ids.extend(block_edges[k][c])
        witness = Solution(ids)
    return OptimumReport(MIN_MAX, Fraction(value, scale), witness, choices=tuple(picks))


def _picks(n: int, blocks: Sequence[Sequence[tuple[int, ...]]]) -> tuple[int, list[int]]:
    """`scaled_chain_minmax`'s optimal max load over L and its pick sequence."""
    # rest[k][i]: the least agent i pays in blocks k, k+1, ...; ub: the
    # greedy's max load; a limit per block. At n = 2 they are plain ints, as
    # tuples cost the 2-agent allocation about a tenth of its time.
    if n == 2:
        rest_a, rest_b = [0], [0]
        for block in reversed(blocks):
            xs, ys = zip(*block)
            rest_a.append(rest_a[-1] + min(xs))
            rest_b.append(rest_b[-1] + min(ys))
        rest_a.reverse()
        rest_b.reverse()
        ga = gb = 0
        for block, ra, rb in zip(blocks, rest_a[1:], rest_b[1:]):
            bound = None
            for x, y in block:
                u, v = ga + x + ra, gb + y + rb
                if v > u:
                    u = v
                if bound is None or u < bound:
                    bound, gx, gy = u, x, y
            ga += gx
            gb += gy
        ub = ga if ga > gb else gb
        limits = [(ub - ra, ub - rb) for ra, rb in zip(rest_a[1:], rest_b[1:])]
    else:
        rest = [(0,) * n]
        for block in reversed(blocks):
            rest.append(tuple(map(operator.add, rest[-1], map(min, zip(*block)))))
        rest.reverse()
        greedy = (0,) * n
        for block, r in zip(blocks, rest[1:]):
            greedy = min((tuple(map(operator.add, greedy, vec)) for vec in block),
                         key=lambda load: max(map(operator.add, load, r)))
        ub = max(greedy)
        limits = [tuple(ub - x for x in r) for r in rest[1:]]
    # The states stay in lexicographic order of their pick sequences, as they
    # are expanded in that order, choices ascending: of the candidates with
    # equal loads the first has the smallest pick sequence.
    states: list[tuple[int, ...]] = [(0,) * (n + 2)]
    history = []
    for block, limit in zip(blocks, limits):
        if n == 2:
            la, lb = limit
            candidates = [(p, q, s, ch) for s, (a, b, _, _) in enumerate(states)
                          for ch, (x, y) in enumerate(block)
                          if (p := a + x) <= la and (q := b + y) <= lb]
        elif n == 3:
            la, lb, lc = limit
            candidates = [(p, q, w, s, ch) for s, (a, b, c, _, _) in enumerate(states)
                          for ch, (x, y, z) in enumerate(block)
                          if (p := a + x) <= la and (q := b + y) <= lb and (w := c + z) <= lc]
        else:  # map stops at the n coordinates of vec, before the position
            candidates = [load + (s, ch) for s, state in enumerate(states)
                          for ch, vec in enumerate(block)
                          if all(map(operator.le,
                                     (load := tuple(map(operator.add, state, vec))), limit))]
        states = _pareto_minimal(candidates)
        history.append(states)
    # min returns the first of equal keys: the smallest pick sequence
    best = min(range(len(states)), key=lambda i: max(states[i][:n]))
    value = max(states[best][:n])
    picks: list[int] = []
    for kept in reversed(history):
        best, choice = kept[best][-2:]
        picks.append(choice)
    picks.reverse()
    return value, picks


def _pareto_minimal(candidates: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The first copy of each Pareto-minimal load among `candidates`, in the
    order of the list.

    A candidate is a load followed by two ints, its position in the list's
    order (positions ascend along the list); all loads have one width w. A
    load is dropped when another one, or an earlier equal one, is <= it
    everywhere. Any such load precedes it in a lexicographic sort of the
    candidates, so a sweep in that order only asks whether an earlier load
    dominates, and how it asks depends on w (Kung, Luccio & Preparata 1975):
    - w <= 2: the earlier loads have a first coordinate <= the current one,
      so the current load is dominated iff its last coordinate is not below
      the least last coordinate so far (for w = 1 only the first survives).
    - w = 3, loads (a, b, c): the sweep keeps the Pareto staircase of the
      earlier loads' (b, c), b ascending and c strictly descending. The
      current load is dominated iff the staircase point with the largest
      b' <= b has c' <= c.
    - w >= 4: a pairwise scan against the loads kept so far.
    """
    order = sorted(candidates)
    if not order:
        return order
    width = len(order[0]) - 2
    kept: list[tuple[int, ...]] = []
    if width > 3:
        for cand in order:
            if not any(all(map(operator.le, k[:-2], cand)) for k in kept):
                kept.append(cand)
    elif width == 3:
        bs: list[int] = []  # staircase, b ascending
        cs: list[int] = []  # c strictly descending
        for cand in order:
            b, c = cand[1], cand[2]
            pos = bisect_right(bs, b)
            if pos and cs[pos - 1] <= c:
                continue
            kept.append(cand)
            # drop the points (b' >= b, c' >= c) the new one dominates
            end = pos
            while end < len(bs) and cs[end] >= c:
                end += 1
            start = pos - 1 if pos and bs[pos - 1] == b else pos
            bs[start:end] = [b]
            cs[start:end] = [c]
    else:
        col = width - 1
        least = order[0][col] + 1  # the least last coordinate so far
        for cand in order:
            if cand[col] < least:
                least = cand[col]
                kept.append(cand)
    kept.sort(key=operator.itemgetter(-2, -1))
    return kept


# -- convenience ------------------------------------------------------------


def min_sum_optimum(inst: Instance) -> OptimumReport:
    """Dispatch to the mode's exact min-sum solver (SC oracle); memoized on the instance."""
    report = inst.__dict__.get("_min_sum_cache")
    if report is None:
        report = shortest_path(inst) if inst.mode == PATH else min_arborescence(inst)
        object.__setattr__(inst, "_min_sum_cache", report)
    return report


def scaled_min_sum_value(inst: Instance, without_agent: int) -> int:
    """The min-sum optimum's value times the instance's L, over the edges
    that agent `without_agent` does not own (0, no agent, keeps them all):
    SC_{-i}, as a Clarke payment needs it, or SC.

    A plain solve: no derived instance is built and no memo is read. Paths
    take one forward Dijkstra over the instance's own adjacency, skipping the
    agent's edges and stopping at the target; arborescences take
    `min_arborescence`'s contraction on the remaining edges. Raises
    NoFeasibleSolutionError exactly where `min_sum_optimum` on
    `inst.without_agent(without_agent)` does.
    """
    if inst.mode != PATH:
        costs = inst.scaled_costs()[1]
        return sum(costs[i] for i in _edmonds(inst, without_agent))
    t = inst.target_or_root
    dist = _dijkstra(inst, stop=t, without_agent=without_agent)
    if dist[t] is None:
        raise NoFeasibleSolutionError("source and target are disconnected")
    return dist[t]
