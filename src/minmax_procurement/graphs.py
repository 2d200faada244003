"""Agent-partitioned weighted multigraphs with exact rational costs.

An instance is either an s-t path problem on an undirected (or directed)
multigraph, or an arborescence problem on a directed multigraph rooted at a
designated node. Edges carry an owning agent and a nonnegative rational cost;
parallel edges are allowed and edges are identified by integer id only.

Costs are `fractions.Fraction`s (or ints) at the API. Each instance scales
them once to integers over their common denominator L (`Instance.scaled_costs`);
the solvers and the pricing of solutions compare and sum only those, and
build a Fraction only for a value they return. No floating point enters any
comparison.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, Mapping

PATH = "path"
ARBORESCENCE = "arborescence"

FILE_FORMAT_VERSION = 1

# The largest instance file accepted, checked before anything is built, as
# the solvers allocate per-node lists. Every chain `gen` writes fits: its spec
# caps it at MAX_FILE_EDGES edges, and a chain with E edges has E + 1 nodes at most.
MAX_FILE_EDGES = 2**20
MAX_FILE_NODES = MAX_FILE_EDGES + 1
# Each edge has one owner, so an agent past MAX_FILE_EDGES would own nothing.
MAX_FILE_AGENTS = MAX_FILE_EDGES


class MalformedSolutionError(ValueError):
    """A solution references edge ids that the instance does not have."""


class InstanceFormatError(ValueError):
    """An instance file or dict does not conform to the on-disk schema."""


def as_rational(value) -> Fraction:
    """`value` as an exact Fraction: a Fraction as it is, anything else through
    Fraction(), so ints and strings such as "1/2" or "0.25". Floats, Decimals
    and bools raise TypeError, and strings in exponent notation ValueError,
    before Fraction("1e100000000") could build a huge integer."""
    if type(value) is Fraction:
        return value
    if isinstance(value, (float, bool, Decimal)):
        raise TypeError(f"{type(value).__name__} {value!r} is not an exact rational")
    if isinstance(value, str) and ("e" in value or "E" in value):
        raise ValueError(f"exponent notation is not accepted: {value!r}")
    return Fraction(value)


def as_cost(value) -> Fraction:
    """`as_rational(value)`, refused when negative."""
    cost = as_rational(value)
    if cost.numerator < 0:
        raise ValueError(f"edge cost must be nonnegative, got {cost}")
    return cost


def scale_to_integers(values: Iterable[int | Fraction]) -> tuple[int, list[int]]:
    """The values' common denominator L and each value times L, in order.

    Reads `values` once, so a generator will do. Exact solvers compare only
    these integers and turn a result x back into a rational with Fraction(x, L).
    """
    ratios = [x.as_integer_ratio() for x in values]
    scale = math.lcm(*{q for _, q in ratios})
    return scale, [p * (scale // q) for p, q in ratios]


@dataclass(frozen=True)
class Edge:
    id: int
    tail: int
    head: int
    owner: int
    cost: Fraction


@dataclass(frozen=True)
class Instance:
    """Immutable problem instance.

    `mode` selects the feasible set: simple paths from `source` to
    `target_or_root` (PATH), or spanning arborescences rooted at
    `target_or_root` (ARBORESCENCE; `source` conventionally equals the root).

    Derived copies (`with_costs`, `without_agent`, `without_edges`) skip the
    constructor's per-edge checks, which their parent passed, and carry only
    the fields: no derived data, such as the integer costs, comes from the
    parent. Besides the edge index and the integer costs, `solvers` keeps two
    caches on an instance: its min-sum optimum and its adjacency lists.
    """

    directed: bool
    node_count: int
    edges: tuple[Edge, ...]
    agent_count: int
    mode: str
    source: int
    target_or_root: int

    def __post_init__(self):
        if self.node_count < 1:
            raise ValueError("node_count must be positive")
        if self.agent_count < 1:
            raise ValueError("agent_count must be positive")
        if self.mode not in (PATH, ARBORESCENCE):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == ARBORESCENCE and not self.directed:
            raise ValueError("arborescence mode requires a directed graph")
        seen = set()
        for e in self.edges:
            if e.id in seen:
                raise ValueError(f"duplicate edge id {e.id}")
            seen.add(e.id)
            if not (0 <= e.tail < self.node_count and 0 <= e.head < self.node_count):
                raise ValueError(f"edge {e.id} has endpoints outside 0..{self.node_count - 1}")
            if not (1 <= e.owner <= self.agent_count):
                raise ValueError(f"edge {e.id} owner {e.owner} outside 1..{self.agent_count}")
            if type(e.cost) not in (int, Fraction):
                raise TypeError(f"edge {e.id} cost {e.cost!r} is not an int or a Fraction")
            if e.cost.numerator < 0:
                raise ValueError(f"edge {e.id} has negative cost")
        for node in (self.source, self.target_or_root):
            if not (0 <= node < self.node_count):
                raise ValueError("designated node outside the node range")

    # -- lookups ----------------------------------------------------------

    def edge_by_id(self, edge_id: int) -> Edge:
        try:
            return self.edges[self._edge_index[edge_id]]
        except KeyError:
            raise MalformedSolutionError(f"unknown edge id {edge_id}") from None

    @property
    def _edge_index(self) -> dict[int, int]:
        """Edge id -> the edge's position in `edges`."""
        # cached on first use; object.__setattr__ because the dataclass is frozen
        index = self.__dict__.get("_edge_index_cache")
        if index is None:
            index = {e.id: i for i, e in enumerate(self.edges)}
            object.__setattr__(self, "_edge_index_cache", index)
        return index

    def scaled_costs(self) -> tuple[int, list[int]]:
        """The costs' common denominator L and each edge's cost times L, in
        edge order; computed on first use. The list is shared: do not change it."""
        scaled = self.__dict__.get("_scaled_cache")
        if scaled is None:
            scaled = scale_to_integers(e.cost for e in self.edges)
            object.__setattr__(self, "_scaled_cache", scaled)
        return scaled

    def agent_edges(self, agent: int) -> tuple[Edge, ...]:
        return tuple(e for e in self.edges if e.owner == agent)

    # -- derived instances -------------------------------------------------

    def with_costs(self, new_costs: Mapping[int, Fraction]) -> "Instance":
        """Copy with the given edge costs replaced (same topology and ids)."""
        return self._derive(tuple(
            Edge(e.id, e.tail, e.head, e.owner, as_cost(new_costs[e.id]))
            if e.id in new_costs else e
            for e in self.edges))

    def without_agent(self, agent: int) -> "Instance":
        """Copy with all of `agent`'s edges deleted (agent ids unchanged)."""
        return self._derive(tuple(e for e in self.edges if e.owner != agent))

    def without_edges(self, edge_ids: Iterable[int]) -> "Instance":
        drop = set(edge_ids)
        return self._derive(tuple(e for e in self.edges if e.id not in drop))

    def _derive(self, edges: tuple[Edge, ...]) -> "Instance":
        """This instance with `edges`, unvalidated and without caches."""
        copy = object.__new__(Instance)
        copy.__dict__.update(
            directed=self.directed, node_count=self.node_count, edges=edges,
            agent_count=self.agent_count, mode=self.mode, source=self.source,
            target_or_root=self.target_or_root)
        return copy


@dataclass(frozen=True)
class Solution:
    """A claimed feasible solution: a set of edge ids."""

    edge_ids: frozenset[int]

    def __init__(self, edge_ids: Iterable[int]):
        object.__setattr__(self, "edge_ids", frozenset(edge_ids))

    def __contains__(self, edge_id: int) -> bool:
        return edge_id in self.edge_ids

    def sorted_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.edge_ids))


@dataclass(frozen=True)
class CostSummary:
    per_agent: tuple[Fraction, ...]
    max_cost: Fraction
    sum_cost: Fraction


def scaled_loads(inst: Instance, edge_ids: Iterable[int]) -> list[int]:
    """Per agent, the cost of its edges among `edge_ids` times the instance's
    L (`Instance.scaled_costs`).

    Raises MalformedSolutionError for unknown edge ids.
    """
    costs, index, edges = inst.scaled_costs()[1], inst._edge_index, inst.edges
    loads = [0] * inst.agent_count
    try:
        for edge_id in edge_ids:
            i = index[edge_id]
            loads[edges[i].owner - 1] += costs[i]
    except KeyError:
        raise MalformedSolutionError(f"unknown edge id {edge_id}") from None
    return loads


def scaled_agent_cost(inst: Instance, sol: Solution, agent: int) -> int:
    """`agent_cost(inst, sol, agent)` times the instance's L."""
    loads = scaled_loads(inst, sol.edge_ids)
    return loads[agent - 1] if 0 < agent <= len(loads) else 0


def agent_cost(inst: Instance, sol: Solution, agent: int) -> Fraction:
    """Sum of costs of `agent`'s edges selected in `sol` (0 if none)."""
    return Fraction(scaled_agent_cost(inst, sol, agent), inst.scaled_costs()[0])


def cost_summary(inst: Instance, sol: Solution) -> CostSummary:
    loads = scaled_loads(inst, sol.edge_ids)
    scale = inst.scaled_costs()[0]
    return CostSummary(tuple(Fraction(x, scale) for x in loads),
                       Fraction(max(loads), scale), Fraction(sum(loads), scale))


# -- feasibility ------------------------------------------------------------


def validate_solution(inst: Instance, sol: Solution) -> bool:
    """True iff `sol` is feasible for the instance's mode.

    Path mode: the edges form a simple path from source to target (undirected
    instances may traverse edges either way; directed instances must respect
    orientation). Arborescence mode: every node is reachable from the root and
    every non-root node has exactly one selected incoming edge.

    Raises MalformedSolutionError for unknown edge ids.
    """
    index, all_edges = inst._edge_index, inst.edges
    try:
        edges = [all_edges[index[i]] for i in sol.edge_ids]
    except KeyError as exc:
        raise MalformedSolutionError(f"unknown edge id {exc.args[0]}") from None
    ways: list[list[int]] = [[] for _ in range(inst.node_count)]  # where selected edges lead
    for e in edges:
        ways[e.tail].append(e.head)
        if not inst.directed:
            ways[e.head].append(e.tail)
    if inst.mode == PATH:
        # Walk from the source. Every node before the target must offer exactly
        # one way on; undirected, the edge walked in on also leads back.
        node, came_from, seen = inst.source, None, {inst.source}
        while node != inst.target_or_root:
            on = ways[node]
            if len(on) != (1 if inst.directed or came_from is None else 2):
                return False
            came_from, node = node, on[-1] if on[0] == came_from else on[0]
            if node in seen:
                return False
            seen.add(node)
        return len(seen) == len(edges) + 1  # the walk took every edge
    root = inst.target_or_root
    heads = {e.head for e in edges}
    if len(heads) != len(edges) or root in heads:
        return False
    # at most one edge into each node and none into the root, so the search
    # reaches no node twice; it reaches them all iff the edges are an arborescence
    reached = [root]
    for node in reached:
        reached.extend(ways[node])
    return len(reached) == inst.node_count


# -- serialization -----------------------------------------------------------


def instance_to_dict(inst: Instance) -> dict:
    return {
        "version": FILE_FORMAT_VERSION,
        "directed": inst.directed,
        "nodes": inst.node_count,
        "mode": inst.mode,
        "source": inst.source,
        "target_or_root": inst.target_or_root,
        "agents": inst.agent_count,
        "edges": [
            {"id": e.id, "tail": e.tail, "head": e.head, "owner": e.owner,
             "cost": str(e.cost)}
            for e in inst.edges
        ],
    }


def _integer(record: dict, key: str, where: str = "") -> int:
    """`record[key]` if it is an integer (not a bool); no other type is coerced."""
    value = record[key]
    if type(value) is not int:
        raise InstanceFormatError(f"{where}{key} must be an integer, got {value!r}")
    return value


def _file_cost(edge: dict, where: str) -> Fraction:
    """An edge's cost from an int or a "p/q" string; floats and exponent
    notation are refused.

    Strings "p" and "p/q" of decimal digits are split and read with int(),
    any other string through `as_cost`: the two accept the same strings, and
    past int()'s digit limit both raise int()'s ValueError.
    """
    value = edge["cost"]
    if type(value) is not int and not isinstance(value, str):
        raise InstanceFormatError(
            f"{where}cost must be an integer or a \"p/q\" string, got {value!r}")
    try:
        if type(value) is str:
            num, slash, den = value.partition("/")
            if num.isdecimal() and (den.isdecimal() or not slash):
                return Fraction(int(num), int(den) if slash else 1)
        return as_cost(value)
    except ZeroDivisionError:
        raise InstanceFormatError(f"{where}cost {value!r} has a zero denominator") from None
    except ValueError as exc:
        raise InstanceFormatError(f"{where}cost {value!r}: {exc}") from None


def _file_edge(edge: dict, where: str) -> Edge:
    return Edge(_integer(edge, "id", where), _integer(edge, "tail", where),
                _integer(edge, "head", where), _integer(edge, "owner", where),
                _file_cost(edge, where))


def instance_from_dict(data: dict) -> Instance:
    """The instance a file's JSON document describes.

    Integers must be JSON integers, `directed` a JSON bool and costs ints or
    "p/q" strings; more than MAX_FILE_NODES nodes, MAX_FILE_AGENTS agents or
    MAX_FILE_EDGES edges are refused before any edge is read. Anything else
    raises InstanceFormatError.
    """
    try:
        if _integer(data, "version") != FILE_FORMAT_VERSION:
            raise InstanceFormatError(f"unsupported version {data['version']!r}")
        if type(data["directed"]) is not bool:
            raise InstanceFormatError(
                f"directed must be true or false, got {data['directed']!r}")
        nodes = _integer(data, "nodes")
        if nodes > MAX_FILE_NODES:
            raise InstanceFormatError(f"nodes {nodes} is above the limit of {MAX_FILE_NODES}")
        agents = _integer(data, "agents")
        if agents > MAX_FILE_AGENTS:
            raise InstanceFormatError(f"agents {agents} is above the limit of {MAX_FILE_AGENTS}")
        if len(data["edges"]) > MAX_FILE_EDGES:
            raise InstanceFormatError(f"edges has {len(data['edges'])} entries, above the "
                                      f"limit of {MAX_FILE_EDGES}")
        edges = tuple(_file_edge(e, f"edge {k} ") for k, e in enumerate(data["edges"]))
        return Instance(
            directed=data["directed"],
            node_count=nodes,
            edges=edges,
            agent_count=agents,
            mode=data["mode"],
            source=_integer(data, "source"),
            target_or_root=_integer(data, "target_or_root"),
        )
    except (KeyError, ValueError, TypeError) as exc:
        if isinstance(exc, InstanceFormatError):
            raise
        raise InstanceFormatError(f"bad instance data: {exc}") from exc


def dump_instance(inst: Instance, path) -> None:
    with open(path, "w") as fh:
        json.dump(instance_to_dict(inst), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_instance(path) -> Instance:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InstanceFormatError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    return instance_from_dict(data)
