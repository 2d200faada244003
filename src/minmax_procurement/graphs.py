"""Agent-partitioned weighted multigraphs with exact rational costs.

An instance is either an s-t path problem on an undirected (or directed)
multigraph, or an arborescence problem on a directed multigraph rooted at a
designated node. Edges carry an owning agent and a nonnegative rational cost;
parallel edges are allowed and edges are identified by integer id only.

Costs are `fractions.Fraction`s (or ints) at the API. Each instance holds
them once as integers over a common denominator L (`Instance.scaled_costs`):
the least one for a built or loaded instance, and for a cost-only copy
(`Instance.with_costs`) of an instance that has its integers, the lcm of
its parent's L and the replaced costs' denominators, so that the copy
rescales none of the costs it keeps. The solvers and the pricing of
solutions compare and sum only those integers, and build a Fraction only
for a value they return. No floating point enters any comparison. Which
edges an agent owns is read from one owner index (`Instance.owned`), the
one place that refuses an agent outside 1..n. An `Edge` is a named tuple,
cheap to build by the thousand. A loop over every edge that reads most of
its fields unpacks it; one that reads one or two reads them by name, which
is faster than unpacking all five.

`json_text` is the package's one JSON writer: the CLI's reports and the
instance files of `dump_instance` go through it. `write_object` writes an
object with one long list member a bounded chunk at a time, as
`dump_instance` writes the edge records and `vcg` its agent rows; `json`
only loads.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import repeat
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

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
# the strings `as_rational` reads: ASCII digits, a minus, a "/q" or ".d" part
_RATIONAL_TEXT = re.compile(r"-?[0-9]+(?:/[0-9]+|\.[0-9]+)?")


class MalformedSolutionError(ValueError):
    """A solution references edge ids that the instance does not have."""


class InstanceFormatError(ValueError):
    """An instance file or dict does not conform to the on-disk schema."""


def as_rational(value) -> Fraction:
    """`value` as an exact Fraction: a Fraction as it is, anything else through
    Fraction(), so ints and `_RATIONAL_TEXT` strings such as "-1/2" or "0.25".
    Floats, Decimals and bools raise TypeError, other strings ValueError, and
    exponent notation before Fraction("1e100000000") could build a huge integer."""
    if type(value) is Fraction:
        return value
    if isinstance(value, (float, bool, Decimal)):
        raise TypeError(f"{type(value).__name__} {value!r} is not an exact rational")
    if isinstance(value, str) and ("e" in value or "E" in value):
        raise ValueError(f"exponent notation is not accepted: {value!r}")
    if isinstance(value, str) and not _RATIONAL_TEXT.fullmatch(value):
        raise ValueError(f"Invalid literal for Fraction: {value!r}")
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


class Edge(NamedTuple):
    """Agent `owner`'s edge, `tail` to `head` if directed; equal and hashed by its fields."""
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
    constructor's per-edge checks, which their parent passed. A cost-only
    copy (`with_costs`) keeps ids, endpoints, owners and `directed`, so it
    shares its parent's edge index and whatever owner index and adjacency
    lists the parent has built, and derives its integer costs from the
    parent's, if built, computing only the replaced ones. `without_agent`
    and `without_edges` change the topology and carry only the fields; no
    layer of the package builds them (the solvers and the Pareto DP skip
    edges in place), and they stay as test oracles and as names the bench
    traces. Besides these, `solvers` keeps one cache on an instance, its
    min-sum optimum, which no copy shares.
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
        nodes, agents = self.node_count, self.agent_count
        for eid, tail, head, owner, cost in self.edges:
            if eid in seen:
                raise ValueError(f"duplicate edge id {eid}")
            seen.add(eid)
            if not (0 <= tail < nodes and 0 <= head < nodes):
                raise ValueError(f"edge {eid} has endpoints outside 0..{nodes - 1}")
            if not (1 <= owner <= agents):
                raise ValueError(f"edge {eid} owner {owner} outside 1..{agents}")
            if type(cost) not in (int, Fraction):
                raise TypeError(f"edge {eid} cost {cost!r} is not an int or a Fraction")
            if cost.numerator < 0:
                raise ValueError(f"edge {eid} has negative cost")
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
        """A common denominator L of the costs and each edge's cost times L,
        in edge order: edge i costs Fraction(x_i, L). Computed on first use,
        with the least L, unless a `with_costs` copy took them from its
        parent (see the module docstring). The list is shared: do not change it."""
        scaled = self.__dict__.get("_scaled_cache")
        if scaled is None:
            scaled = scale_to_integers(e.cost for e in self.edges)
            object.__setattr__(self, "_scaled_cache", scaled)
        return scaled

    def adjacency(self) -> list[list[tuple[int, int, int]]]:
        """Per node, (neighbour, index into `edges`, owner) along each usable
        direction, in edge order; computed on first use. Shared: do not change it."""
        adj = self.__dict__.get("_adjacency_cache")
        if adj is None:
            adj = [[] for _ in range(self.node_count)]
            for i, (_, tail, head, owner, _) in enumerate(self.edges):
                adj[tail].append((head, i, owner))
                if not self.directed:
                    adj[head].append((tail, i, owner))
            object.__setattr__(self, "_adjacency_cache", adj)
        return adj

    def owned(self, agent: int) -> tuple[int, ...]:
        """The indices into `edges` of `agent`'s edges, in edge order; () for
        an agent that owns none. Built for every agent on first use. An agent
        outside 1..n raises ValueError."""
        if not 1 <= agent <= self.agent_count:
            raise ValueError(f"agent {agent} is not one of 1..{self.agent_count}")
        owners = self.__dict__.get("_owned_cache")
        if owners is None:
            lists: dict[int, list[int]] = {}
            for i, e in enumerate(self.edges):
                lists.setdefault(e.owner, []).append(i)
            owners = {agent: tuple(ids) for agent, ids in lists.items()}
            object.__setattr__(self, "_owned_cache", owners)
        return owners.get(agent, ())

    def agent_edges(self, agent: int) -> tuple[Edge, ...]:
        """`agent`'s edges, in edge order (`owned`)."""
        return tuple(map(self.edges.__getitem__, self.owned(agent)))

    # -- derived instances -------------------------------------------------

    def with_costs(self, new_costs: Mapping[int, Fraction]) -> "Instance":
        """Copy with the given edge costs replaced (same topology and ids).

        An id the instance does not have raises ValueError, and each cost
        but a nonnegative Fraction goes through `as_cost`, before the copy
        is built. The copy shares the parent's edge index, built on the
        parent by this call if it has none, and the owner index and
        adjacency lists the parent has built, never the min-sum memo. From
        the parent's integer costs over L, if built, it derives its own over
        L' = lcm(L, the replaced costs' denominators): the kept ones reused,
        times L'/L when L' != L, and only the replaced ones computed.
        """
        index = self._edge_index
        replaced = []
        for eid, cost in new_costs.items():
            if eid not in index:
                raise ValueError(f"unknown edge id {eid}")
            if type(cost) is not Fraction or cost.numerator < 0:
                cost = as_cost(cost)
            replaced.append((index[eid], cost))
        edges = list(self.edges)
        for i, cost in replaced:
            eid, tail, head, owner, _ = edges[i]
            edges[i] = Edge(eid, tail, head, owner, cost)
        copy = self._derive(tuple(edges))
        mine, shared = self.__dict__, copy.__dict__
        for cache in ("_edge_index_cache", "_adjacency_cache", "_owned_cache"):
            if cache in mine:
                shared[cache] = mine[cache]
        if "_scaled_cache" in mine:
            scale, scaled = mine["_scaled_cache"]
            new_scale = math.lcm(scale, *{cost.denominator for _, cost in replaced})
            factor = new_scale // scale
            ints = scaled.copy() if factor == 1 else [x * factor for x in scaled]
            for i, cost in replaced:
                ints[i] = cost.numerator * (new_scale // cost.denominator)
            shared["_scaled_cache"] = (new_scale, ints)
        return copy

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


def agent_cost(inst: Instance, sol: Solution, agent: int) -> Fraction:
    """Sum of costs of `agent`'s edges selected in `sol` (0 if none, and for
    an agent outside 1..n)."""
    loads = scaled_loads(inst, sol.edge_ids)
    return Fraction(loads[agent - 1] if 0 < agent <= len(loads) else 0,
                    inst.scaled_costs()[0])


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

# Per dataclass the writer has met: its field names. The module holds it, so
# it goes when a discarded import goes.
_FIELDS: dict[type, tuple[str, ...]] = {}


@functools.lru_cache(maxsize=256)
def _members(names: tuple[str, ...], indent: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """`names` sorted, and the text around their values in an object that
    closes at `indent`: the opening brace and the first key, a comma and
    each further key, and the closing brace."""
    names = tuple(sorted(names))
    inner = indent + " "
    return names, (*(("," if i else "{") + inner + _encode_str(k) + ": "
                     for i, k in enumerate(names)), indent + "}")


def json_text(obj, indent: str = "\n") -> str:
    """`obj` as JSON, in the bytes `json.dumps(..., indent=1, sort_keys=True)`
    writes, with Fractions as "p/q" strings, Solutions as their sorted ids
    and dataclasses as dicts of their fields. `indent` is the newline and
    spaces that precede obj's closing bracket. Reports and instance files
    are written by it alone.

    Only the exact types reports hold are written: list, tuple, dict with
    str keys, str, int, bool, None, Fraction, Solution and dataclasses. A
    subclass of any of them (an `IntEnum` member, say), a dict key of
    another type and every other value raise TypeError.
    """
    t = type(obj)
    if t is dict:
        for k in obj:
            if type(k) is not str:
                raise TypeError(f"keys must be str, not {type(k).__name__}")
        names, frame = _members(tuple(obj), indent)
        return _enclose(map(obj.__getitem__, names), indent, frame)
    if t is tuple or t is list:
        # the last item rules out most mixed lists before the generator starts
        if obj and type(obj[-1]) is int and all(type(x) is int for x in obj):
            inner = indent + " "
            return "[" + inner + ("," + inner).join(map(int.__repr__, obj)) + indent + "]"
        return _enclose(obj, indent)
    if t is str:
        return _encode_str(obj)
    if t is int:
        return int.__repr__(obj)
    if t is Fraction:
        return '"%s"' % obj
    if t is Solution:
        return json_text(sorted(obj.edge_ids), indent)
    if t is bool:
        return "true" if obj else "false"
    if obj is None:
        return "null"
    fields = _FIELDS.get(t)
    if fields is None:  # dataclasses.fields raises TypeError for any other type
        fields = _FIELDS[t] = tuple(f.name for f in dataclasses.fields(t))
    names, frame = _members(fields, indent)
    return _enclose(map(getattr, repeat(obj), names), indent, frame)


def _enclose(values: Iterable, indent: str, frame: tuple[str, ...] | None = None) -> str:
    """`values`, one a line, as an array that closes at `indent` or, given
    the `frame` of `_members`, as the values of an object's members. This
    is the one scalar dispatch of lists, dicts and dataclasses: an int, str
    or Fraction member is written here, without a call, and so is an exact
    (int, Fraction) 2-tuple, a witness's (edge id, cost) row, through one
    template per call; any other member, a row holding a bool or another
    subclass too, goes through `json_text`."""
    inner = indent + " "
    parts = []
    row = None  # the text of an (int, Fraction) row at `inner`, "%d" and "%s" left open
    for v in values:
        t = type(v)
        if t is int:
            parts.append(int.__repr__(v))
        elif t is Fraction:
            parts.append('"%s"' % v)
        elif t is str:
            parts.append(_encode_str(v))
        elif t is tuple and len(v) == 2 and type(v[0]) is int and type(v[1]) is Fraction:
            if row is None:
                row = "[" + inner + ' %d,' + inner + ' "%s"' + inner + "]"
            parts.append(row % v)
        else:
            parts.append(json_text(v, inner))
    if frame is not None:
        if not parts:
            return "{}"
        text = [None] * (2 * len(parts) + 1)  # the frame's pieces around the values
        text[::2] = frame
        text[1::2] = parts
        return "".join(text)
    if not parts:
        return "[]"
    # the brackets join the end parts, so the joined text is not copied once more
    parts[0] = "[" + inner + parts[0]
    parts[-1] += indent + "]"
    return ("," + inner).join(parts)


# Items `write_object` makes, writes and drops at a time.
CHUNK = 4096


def write_object(write: Callable[[str], object], obj: dict, key: str,
                 items: Sequence, records: Callable[[Sequence], list]) -> None:
    """Write `json_text` of `obj` with one more member, `key`, whose value is
    the list `records(items)`. The member goes among obj's sorted keys, and
    `records` is called on CHUNK items at a time, its values' text made and
    written per call, so neither all the records nor the whole text is
    held."""
    inner, item = "\n ", "\n  "
    names, frame = _members((*obj, key), "\n")
    at = names.index(key)
    texts = [json_text(obj[n], inner) for n in names if n != key]
    write("".join(map(str.__add__, frame[:at], texts[:at])) + frame[at] + "[")
    lead = item  # what comes before the next chunk's first item
    for i in range(0, len(items), CHUNK):
        chunk = records(items[i:i + CHUNK])
        write(lead + ("," + item).join([json_text(x, item) for x in chunk]))
        lead = "," + item
    write(("]" if lead == item else inner + "]")
          + "".join(map(str.__add__, frame[at + 1:], texts[at:])) + frame[-1])


def _header(inst: Instance) -> dict:
    """An instance file's members but its edges."""
    return {
        "version": FILE_FORMAT_VERSION,
        "directed": inst.directed,
        "nodes": inst.node_count,
        "mode": inst.mode,
        "source": inst.source,
        "target_or_root": inst.target_or_root,
        "agents": inst.agent_count,
    }


def _edge_records(edges: Iterable[Edge]) -> list[dict]:
    """The edges' records in an instance file; costs as "p" or "p/q"."""
    return [{"id": eid, "tail": tail, "head": head, "owner": owner, "cost": str(cost)}
            for eid, tail, head, owner, cost in edges]


def instance_to_dict(inst: Instance) -> dict:
    return {**_header(inst), "edges": _edge_records(inst.edges)}


def _integer(record: dict, key: str, where: str = "") -> int:
    """`record[key]` if it is an integer (not a bool); no other type is coerced."""
    value = record[key]
    if type(value) is not int:
        raise InstanceFormatError(f"{where}{key} must be an integer, got {value!r}")
    return value


def _file_cost(value, k: int) -> Fraction:
    """Edge k's cost from an int or a "p/q" string; floats and exponent
    notation are refused.

    Strings "p" and "p/q" of ASCII digits (`isdecimal` takes every script's)
    are split and read with int(), any other string through `as_cost`: the
    two accept the same strings, and past int()'s digit limit both raise
    int()'s ValueError."""
    if type(value) is not int and not isinstance(value, str):
        raise InstanceFormatError(
            f"edge {k} cost must be an integer or a \"p/q\" string, got {value!r}")
    try:
        if type(value) is str:
            num, slash, den = value.partition("/")
            if value.isascii() and num.isdecimal() and (den.isdecimal() or not slash):
                return Fraction(int(num), int(den) if slash else 1)
        return as_cost(value)
    except ZeroDivisionError:
        raise InstanceFormatError(f"edge {k} cost {value!r} has a zero denominator") from None
    except ValueError as exc:
        raise InstanceFormatError(f"edge {k} cost {value!r}: {exc}") from None


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
        edges = []
        for k, e in enumerate(data["edges"]):
            try:
                eid, tail, head, owner = e["id"], e["tail"], e["head"], e["owner"]
                ok = type(eid) is type(tail) is type(head) is type(owner) is int
            except (KeyError, TypeError):
                ok = False
            if not ok:  # read the fields again in order: the first bad one raises
                for key in ("id", "tail", "head", "owner"):
                    _integer(e, key, f"edge {k} ")
            edges.append(Edge(eid, tail, head, owner, _file_cost(e["cost"], k)))
        return Instance(
            directed=data["directed"],
            node_count=nodes,
            edges=tuple(edges),
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
    """Write `instance_to_dict(inst)` to `path` as `json_text` writes it, and
    a newline; the edge records are made CHUNK at a time (`write_object`)."""
    with open(path, "w") as fh:
        write_object(fh.write, _header(inst), "edges", inst.edges, _edge_records)
        fh.write("\n")


def load_instance(path) -> Instance:
    with open(path, encoding="utf-8") as fh:  # JSON text is UTF-8 whatever the locale
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InstanceFormatError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
        except (ValueError, RecursionError) as exc:  # bad bytes, int()'s digit limit, nesting
            raise InstanceFormatError(f"{path}: {exc}") from exc
    return instance_from_dict(data)
