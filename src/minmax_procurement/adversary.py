"""Worst-case chain constructions and the adversary driver.

The chain family: ``l`` blocks in series, each offering one route per agent.
In the expanded (path) variant each block route is an n-edge path spreading
ownership over all agents, with the route owner's edge at full cost and tiny
helper costs elsewhere. The directed variant adds paired backward helper
edges so an arborescence can cover the unselected routes' interior nodes.

The driver mechanically plays the lower-bound argument against any
deterministic allocation algorithm: start from the all-ones instance, find
the most-loaded agent, then for every other agent zero out its selected
edges and bump the rest. A monotone algorithm must keep its choices, ending
with a certified approximation-ratio witness close to n; any instability is
converted into an exactly re-verifiable weak-monotonicity violation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .graphs import (
    ARBORESCENCE,
    MAX_FILE_EDGES,
    PATH,
    Edge,
    Instance,
    Solution,
    as_rational,
    cost_summary,
    validate_solution,
)
from .audit import (
    AllocationAlgorithm,
    InfeasibleAllocationError,
    ViolationWitness,
    edge_stability_perturbation,
    edge_stability_witness,
    is_strict_edge_stability,
)
from .solvers import scaled_chain_minmax

MODE_PATH = "path"
MODE_DMST = "dmst"

MAX_CHAIN_EDGES = MAX_FILE_EDGES  # edges a generated chain may have: gen's files load


@dataclass(frozen=True)
class ChainSpec:
    """Agents n and blocks l of a chain. Refused, before anything is built,
    when the largest chain of the spec, the dmst chain with n·l·(2n-1)
    edges, would have more than MAX_CHAIN_EDGES edges."""

    agents: int
    blocks: int
    base_cost: Fraction = Fraction(1)
    helper_eps: Optional[Fraction] = None  # None: mode default

    def __post_init__(self):
        for name in ("agents", "blocks"):
            if type(getattr(self, name)) is not int:
                raise TypeError(f"{name} must be an int, got {getattr(self, name)!r}")
        if self.agents < 2:
            raise ValueError("the constructions need at least two agents")
        if self.blocks < 1:
            raise ValueError("need at least one block")
        edges = self.agents * self.blocks * (2 * self.agents - 1)
        if edges > MAX_CHAIN_EDGES:
            raise ValueError(f"{self.agents} agents and {self.blocks} blocks make chains of "
                             f"up to {edges} edges, above the limit of {MAX_CHAIN_EDGES}")
        object.__setattr__(self, "base_cost", as_rational(self.base_cost))
        if self.base_cost <= 0:
            raise ValueError("base cost must be positive")
        if self.helper_eps is not None:
            object.__setattr__(self, "helper_eps", as_rational(self.helper_eps))
            if not 0 < self.helper_eps < self.base_cost:
                raise ValueError("helper cost must lie strictly between 0 and the base cost")

    def eps_for(self, mode: str) -> Fraction:
        if self.helper_eps is not None:
            return self.helper_eps
        if mode == MODE_PATH:
            return Fraction(1, 2 * self.blocks)
        if mode == MODE_DMST:
            return Fraction(1, 4 * self.blocks * self.agents)
        raise ValueError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class BlockPath:
    """One block route: the owning agent's full path through the block."""

    agent: int
    edge_ids: tuple[int, ...]  # rightward, in traversal order
    leftward_ids: tuple[int, ...] = ()  # directed variant only


@dataclass(frozen=True)
class BlockIndexing:
    """Per block: the n routes, keyed by owning agent (1..n)."""

    blocks: tuple[tuple[BlockPath, ...], ...]

    def route(self, block: int, agent: int) -> BlockPath:
        return self.blocks[block][agent - 1]


def gen_chain(spec: ChainSpec) -> Instance:
    """Plain chain: l+1 nodes, n parallel edges per block, path mode."""
    n, l = spec.agents, spec.blocks
    base = spec.base_cost
    edges = []
    eid = 0
    for k in range(l):
        for agent in range(1, n + 1):
            edges.append(Edge(eid, k, k + 1, agent, base))
            eid += 1
    return Instance(False, l + 1, tuple(edges), n, PATH, 0, l)


def expand_chain(chain: Instance, eps: Fraction) -> tuple[Instance, BlockIndexing]:
    """Expand every block edge into an n-edge path spreading ownership.

    The route replacing agent i's edge keeps that edge's cost on position i
    (owned by i) and gives every other position j a helper edge owned by j at
    cost eps. Edge ids are assigned block-major, route-major, left to right.
    """
    eps = as_rational(eps)
    if chain.mode != PATH or chain.directed:
        raise ValueError("expand_chain expects an undirected path-mode chain")
    n = chain.agent_count
    l = chain.node_count - 1
    by_block: dict[int, dict[int, Fraction]] = {k: {} for k in range(l)}
    for e in chain.edges:
        k = min(e.tail, e.head)
        if abs(e.head - e.tail) != 1 or e.owner in by_block[k]:
            raise ValueError("instance is not a generated chain")
        by_block[k][e.owner] = e.cost
    if (chain.source, chain.target_or_root) != (0, l) or any(
            len(costs) != n for costs in by_block.values()):
        raise ValueError("instance is not a generated chain")

    edges: list[Edge] = []
    blocks: list[tuple[BlockPath, ...]] = []
    eid = 0
    next_node = l + 1  # u-nodes are 0..l; interiors appended after
    for k in range(l):
        routes = []
        for agent in range(1, n + 1):
            base = by_block[k][agent]
            interior = list(range(next_node, next_node + n - 1))
            next_node += n - 1
            nodes = [k] + interior + [k + 1]
            for j in range(1, n + 1):
                cost = base if j == agent else eps
                edges.append(Edge(eid + j - 1, nodes[j - 1], nodes[j], j, cost))
            routes.append(BlockPath(agent, tuple(range(eid, eid + n))))
            eid += n
        blocks.append(tuple(routes))
    inst = Instance(False, next_node, tuple(edges), n, PATH, 0, l)
    return inst, BlockIndexing(tuple(blocks))


def gen_dmst_chain(spec: ChainSpec) -> tuple[Instance, BlockIndexing]:
    """Directed chain for the arborescence bound, rooted at the left end.

    Per block and agent i: n rightward edges (the first owned by i at the
    base cost, the rest owned cyclically by i+1, i+2, ... at cost eps, the
    same order in every block) and, for each of those n-1 helper edges, a
    paired opposite edge of cost eps with the same owner.
    """
    n, l = spec.agents, spec.blocks
    base = spec.base_cost
    eps = spec.eps_for(MODE_DMST)
    edges: list[Edge] = []
    blocks: list[tuple[BlockPath, ...]] = []
    eid = 0
    next_node = l + 1
    for k in range(l):
        routes = []
        for agent in range(1, n + 1):
            interior = list(range(next_node, next_node + n - 1))
            next_node += n - 1
            nodes = [k] + interior + [k + 1]
            ids = []
            left_ids = []
            for pos in range(1, n + 1):
                owner = ((agent - 1 + pos - 1) % n) + 1
                cost = base if pos == 1 else eps
                edges.append(Edge(eid, nodes[pos - 1], nodes[pos], owner, cost))
                ids.append(eid)
                eid += 1
                if pos > 1:
                    edges.append(Edge(eid, nodes[pos], nodes[pos - 1], owner, eps))
                    left_ids.append(eid)
                    eid += 1
            routes.append(BlockPath(agent, tuple(ids), tuple(left_ids)))
        blocks.append(tuple(routes))
    inst = Instance(True, next_node, tuple(edges), n, ARBORESCENCE, 0, 0)
    return inst, BlockIndexing(tuple(blocks))


def build_adversary_instance(spec: ChainSpec, mode: str) -> tuple[Instance, BlockIndexing]:
    if mode == MODE_PATH:
        return expand_chain(gen_chain(spec), spec.eps_for(MODE_PATH))
    if mode == MODE_DMST:
        return gen_dmst_chain(spec)
    raise ValueError(f"unknown mode {mode!r}")


def chain_exact_allocator(indexing: BlockIndexing) -> AllocationAlgorithm:
    """Wrap the exact block-structured min-max solver as an allocation rule.

    Works for any cost assignment on the topology `indexing` was built with,
    and assumes that every instance it is given lists that topology's edges
    in one order, as the built instance and its `with_costs` copies do. The
    first call reads each route's (edge position, owner) columns off its
    instance; every call sums the instance's integer costs over L
    (`Instance.scaled_costs`) along them into per-route load vectors, and
    the integer makespan DP (`scaled_chain_minmax`) picks one route per
    block. An adversary step's copy takes its integers from its parent's,
    computing only the perturbed agent's, over a common denominator that
    need not be the least. Scaling every cost alike changes no comparison,
    so the witness is the one the rational costs give, whatever L is.
    """
    edge_lists = [[route.edge_ids for route in routes] for routes in indexing.blocks]
    columns: list[list[list[tuple[int, int]]]] = []  # per block and route

    def allocate(inst: Instance) -> Solution:
        if not columns:
            position = {e.id: i for i, e in enumerate(inst.edges)}
            columns.extend([[(position[eid], inst.edge_by_id(eid).owner - 1)
                              for eid in route.edge_ids] for route in routes]
                            for routes in indexing.blocks)
        n = inst.agent_count
        scale, costs = inst.scaled_costs()
        vectors = []
        for routes in columns:
            block = []
            for route in routes:
                load = [0] * n
                for i, agent in route:
                    load[agent] += costs[i]
                block.append(tuple(load))
            vectors.append(block)
        return scaled_chain_minmax(n, vectors, scale, edge_lists).witness

    return allocate


# -- the driver -------------------------------------------------------------


@dataclass(frozen=True)
class RatioWitness:
    final_costs: tuple[tuple[int, Fraction], ...]  # edge id -> cost under t*
    algorithm_cost: Fraction
    opt_upper_bound: Fraction
    upper_bound_solution: Solution
    certified_ratio: Fraction
    guaranteed_bound: Optional[Fraction]  # n - 4 n^3 / l, default helper cost only


@dataclass(frozen=True)
class AdversaryStep:
    agent: int
    allocation: Solution
    stable: bool


@dataclass(frozen=True)
class AdversaryReport:
    selections_per_agent: tuple[int, ...]  # l_i
    heavy_agent: int  # i*
    trace: tuple[AdversaryStep, ...]
    ratio: Optional[RatioWitness]
    violation: Optional[ViolationWitness]

    @property
    def outcome(self) -> str:
        return "ratio" if self.ratio is not None else "monotonicity-violation"


def _selected_routes(indexing: BlockIndexing, sol: Solution) -> list[int]:
    """Per block, the agent whose route a feasible allocation selects in full.

    There is exactly one. A simple path crosses each block once. In an
    arborescence node k+1 has one in-edge, the last rightward edge of one
    route of block k; each interior node of that route has one other
    in-edge, from its right neighbour, which would close a cycle, so the
    whole route is selected.
    """
    picked = []
    for routes in indexing.blocks:
        (agent,) = [r.agent for r in routes if sol.edge_ids.issuperset(r.edge_ids)]
        picked.append(agent)
    return picked


def run_adversary(alg: AllocationAlgorithm, spec: ChainSpec, mode: str,
                  built: Optional[tuple[Instance, BlockIndexing]] = None) -> AdversaryReport:
    """Execute the lower-bound argument against `alg`.

    Either returns a ratio witness (certified approximation ratio, at least
    n - 4n^3/l under the default helper cost) or a strictly re-verifiable
    weak-monotonicity violation. Requires the all-ones start (base cost 1).
    `built` is `build_adversary_instance(spec, mode)` when the caller has it.
    A step whose perturbation is not a strict edge-stability one raises
    RuntimeError, under `python -O` as well.
    """
    if spec.base_cost != 1:
        raise ValueError("the lower-bound argument starts from unit base costs")
    eps = spec.eps_for(mode)
    default_eps = eps == ChainSpec(spec.agents, spec.blocks).eps_for(mode)
    inst, indexing = built or build_adversary_instance(spec, mode)
    n, l = spec.agents, spec.blocks

    sol = alg(inst)
    if not validate_solution(inst, sol):
        raise InfeasibleAllocationError("initial allocation is infeasible")
    picked = _selected_routes(indexing, sol)
    counts = [picked.count(a) for a in range(1, n + 1)]
    heavy = max(range(1, n + 1), key=lambda a: (counts[a - 1], -a))
    assert counts[heavy - 1] * n >= l, "pigeonhole bound violated"
    heavy_blocks = [k for k, agent in enumerate(picked) if agent == heavy]

    if mode == MODE_PATH:
        order = [a for a in range(1, n + 1) if a != heavy]
    else:
        # the owners of the heavy route's edges, last to second: after step
        # k the route's first n-k edges must stay (`_dmst_stable`)
        heavy_route = indexing.route(heavy_blocks[0], heavy)
        order = [inst.edge_by_id(eid).owner for eid in reversed(heavy_route.edge_ids[1:])]

    trace: list[AdversaryStep] = []
    cur_inst, cur_sol = inst, sol
    for step, agent in enumerate(order, start=1):
        pert = edge_stability_perturbation(cur_inst, cur_sol, agent, 0, eps)
        if not is_strict_edge_stability(cur_inst, cur_sol, pert):  # checked under -O too
            raise RuntimeError("transformation must be a strict edge-stability perturbation")
        new_inst = pert.apply(cur_inst)
        new_sol = alg(new_inst)
        if not validate_solution(new_inst, new_sol):
            raise InfeasibleAllocationError(f"allocation infeasible after step {step}")
        if mode == MODE_PATH:
            stable = new_sol.edge_ids == cur_sol.edge_ids
        else:
            stable = _dmst_stable(indexing, heavy, heavy_blocks, new_sol,
                                  prefix=n - step)
        trace.append(AdversaryStep(agent, new_sol, stable))
        if not stable:
            witness = edge_stability_witness(cur_inst, new_inst, pert, cur_sol, new_sol)
            return AdversaryReport(tuple(counts), heavy, tuple(trace), None, witness)
        cur_inst, cur_sol = new_inst, new_sol

    alg_cost = cost_summary(cur_inst, cur_sol).max_cost
    assert alg_cost >= counts[heavy - 1]
    ub_sol, ub_value = opt_upper_bound(cur_inst, indexing, mode, heavy, picked, eps,
                                       default_eps=default_eps)
    ratio = alg_cost / ub_value
    guaranteed_bound = None
    if default_eps:
        guaranteed_bound = Fraction(n) - Fraction(4 * n**3, l)
        assert ratio >= guaranteed_bound
    witness = RatioWitness(
        final_costs=tuple((e.id, e.cost) for e in cur_inst.edges),
        algorithm_cost=alg_cost,
        opt_upper_bound=ub_value,
        upper_bound_solution=ub_sol,
        certified_ratio=ratio,
        guaranteed_bound=guaranteed_bound,
    )
    return AdversaryReport(tuple(counts), heavy, tuple(trace), witness, None)


def _dmst_stable(indexing: BlockIndexing, heavy: int, heavy_blocks: list[int],
                 sol: Solution, prefix: int) -> bool:
    """After k steps the first n-k edges of the heavy route must persist in
    every block where it was initially selected."""
    for k in heavy_blocks:
        route = indexing.route(k, heavy)
        if not set(route.edge_ids[:prefix]) <= sol.edge_ids:
            return False
    return True


def opt_upper_bound(inst: Instance, indexing: BlockIndexing, mode: str,
                    heavy: int, picked: list[int],
                    eps: Fraction, default_eps: bool) -> tuple[Solution, Fraction]:
    """Explicit cheap solution under the final costs t*.

    `picked` holds, per block, the agent whose route the initial allocation
    selected. The heavy agent's blocks are redistributed round-robin over all
    agents; every other block keeps its picked route, whose cost collapsed to
    helper scale.
    Returns the solution and its exact max agent cost, checked against the
    closed-form bound ceil(l1/n)(1+eps) + 2*eps*l (path) respectively
    + 4*eps*n*l (directed), and against l1/n + 4 under the default eps.
    """
    n = inst.agent_count
    l = len(indexing.blocks)
    l1 = picked.count(heavy)

    ids: list[int] = []
    spread = itertools.cycle(range(1, n + 1))
    for k, agent in enumerate(picked):
        if agent == heavy:
            agent = next(spread)
        route = indexing.route(k, agent)
        ids.extend(route.edge_ids)
        if mode == MODE_DMST:
            for other in indexing.blocks[k]:
                if other.agent != agent:
                    ids.extend(other.leftward_ids)

    sol = Solution(ids)
    assert validate_solution(inst, sol)
    value = cost_summary(inst, sol).max_cost

    slack = 2 * eps * l if mode == MODE_PATH else 4 * eps * n * l
    closed_form = Fraction(math.ceil(Fraction(l1, n))) * (1 + eps) + slack
    assert value <= closed_form
    if default_eps:
        assert value <= Fraction(l1, n) + 4
    return sol, value
