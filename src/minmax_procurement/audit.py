"""Property-testing of truthfulness and weak monotonicity.

Black-box checks against allocation algorithms and mechanisms:

* weak monotonicity of an allocation rule under a single-agent perturbation,
  t_i(x) + t'_i(x') <= t_i(x') + t'_i(x);
* dominant-strategy truthfulness of a mechanism, comparing the agent's exact
  utility under truth-telling and under a misreport;
* edge-stability witnesses: when an agent's selected edges all get strictly
  cheaper and the unselected ones strictly dearer, a monotone algorithm must
  keep the agent's selected edge set unchanged; a change certifies a strict
  violation of the same inequality, which one function decides for both.

Verdicts are exact (rational arithmetic, no tolerances) and every violation
witness carries the evaluated terms so it can be re-verified from its own
data.

The random probe generators are fully determined by their generator's state.
They read only its `getrandbits` and `random()`: each bounded draw is
`draw_below`, the rejection rule `random.Random.randrange` applies to
`getrandbits`, so they draw what `randint`, `choice`, `shuffle` and
`sample` would. Trial i of `audit --seed s` seeds `random.Random(s *
1_000_003 + i)`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Optional

from .graphs import (
    ARBORESCENCE,
    PATH,
    Edge,
    Instance,
    Solution,
    agent_cost,
    as_rational,
    scaled_loads,
    validate_solution,
)

# The contracts a rule under audit meets. An allocation rule maps a profile
# to a feasible solution for every instance it accepts; a mechanism
# `mech(profile, agent)` returns the allocation for the profile and the
# agent's payment. The names are strings: typing caches a subscripted alias,
# and with the classes in it the cache would keep every discarded import of
# the package alive.
AllocationAlgorithm = Callable[["Instance"], "Solution"]
Mechanism = Callable[["Instance", int], "tuple[Solution, Fraction]"]

WEAK_MONOTONICITY = "weak-monotonicity"
TRUTHFULNESS = "truthfulness"
EDGE_STABILITY = "edge-stability"


class InfeasibleAllocationError(RuntimeError):
    """The algorithm under test returned an infeasible solution (this is a
    contract breach of the plug-in, not a monotonicity violation)."""


@dataclass(frozen=True)
class Perturbation:
    """A single agent's alternative report: edge id -> new cost."""

    agent: int
    new_costs: Mapping[int, Fraction]

    def validate(self, inst: Instance) -> dict[int, Fraction]:
        """The new costs as Fractions, each checked against `inst`, in the
        mapping's order; an agent outside 1..n is refused (`Instance.owned`).
        A Fraction is kept as it is, without a call, and anything else goes
        through `as_rational`."""
        edges = inst.edges
        owned = {edges[i].id for i in inst.owned(self.agent)}
        costs = {}
        for eid, cost in self.new_costs.items():
            if eid not in owned:
                raise ValueError(f"edge {eid} is not owned by agent {self.agent}")
            if type(cost) is not Fraction:
                cost = as_rational(cost)
            if cost.numerator < 0:
                raise ValueError(f"perturbed cost of edge {eid} is negative")
            costs[eid] = cost
        return costs

    def apply(self, inst: Instance) -> Instance:
        return inst.with_costs(self.validate(inst))


@dataclass(frozen=True)
class ViolationWitness:
    kind: str
    agent: int
    base_costs: tuple[tuple[int, Fraction], ...]  # agent's edges under t
    perturbed_costs: tuple[tuple[int, Fraction], ...]  # agent's edges under t'
    allocation: Solution  # x = A(t)
    perturbed_allocation: Solution  # x' = A(t')
    terms: tuple[Fraction, Fraction, Fraction, Fraction]
    # (t_i(x), t'_i(x'), t_i(x'), t'_i(x)) for monotonicity kinds;
    # (u_truth, u_misreport, 0, 0) for truthfulness.

    def reverify(self) -> bool:
        """Recompute the violated inequality from the stored terms."""
        a, b, c, d = self.terms
        if self.kind == TRUTHFULNESS:
            return a < b
        return a + b > c + d


def _witness(kind: str, inst: Instance, perturbed: Instance, agent: int,
             x: Solution, x_prime: Solution, terms) -> ViolationWitness:
    """The witness of `kind` for x under `inst` and x' under `perturbed`,
    with the agent's cost table under each profile."""
    base, changed = (tuple((e.id, e.cost) for e in profile.agent_edges(agent))
                     for profile in (inst, perturbed))
    return ViolationWitness(kind, agent, base, changed, x, x_prime, terms)


def _violation(kind: str, inst: Instance, perturbed: Instance, agent: int,
               x: Solution, x_prime: Solution) -> Optional[ViolationWitness]:
    """The `kind` witness when x under `inst` and x' under `perturbed` violate
    t_i(x) + t'_i(x') <= t_i(x') + t'_i(x) for `agent`; None when they do not.

    The inequality is decided on each profile's integers, (a - c) / L1 <=
    (d - b) / L2 with a, c over L1 and b, d over L2; the Fraction terms are
    built only for a witness.
    """
    l1, l2 = inst.scaled_costs()[0], perturbed.scaled_costs()[0]
    a, c = (scaled_loads(inst, sol.edge_ids)[agent - 1] for sol in (x, x_prime))
    b, d = (scaled_loads(perturbed, sol.edge_ids)[agent - 1] for sol in (x_prime, x))
    if (a - c) * l2 <= (d - b) * l1:
        return None
    terms = (Fraction(a, l1), Fraction(b, l2), Fraction(c, l1), Fraction(d, l2))
    return _witness(kind, inst, perturbed, agent, x, x_prime, terms)


def check_weak_monotonicity(alg: AllocationAlgorithm, inst: Instance,
                            pert: Perturbation) -> Optional[ViolationWitness]:
    """None on pass; a ViolationWitness when the inequality fails."""
    perturbed = pert.apply(inst)
    x = alg(inst)
    x_prime = alg(perturbed)
    for probe_inst, sol in ((inst, x), (perturbed, x_prime)):
        if not validate_solution(probe_inst, sol):
            raise InfeasibleAllocationError(
                f"algorithm returned an infeasible solution {sorted(sol.edge_ids)}")
    return _violation(WEAK_MONOTONICITY, inst, perturbed, pert.agent, x, x_prime)


def check_truthfulness(mech: Mechanism, inst: Instance, agent: int,
                       misreport: Perturbation) -> Optional[ViolationWitness]:
    """None on pass; a witness when the misreport beats truth-telling.

    `inst` carries the true profile; `misreport` is the alternative report of
    `agent`. The mechanism is asked for the probed agent's payment alone
    under each profile, and utilities are evaluated with the true costs.
    """
    if misreport.agent != agent:
        raise ValueError("misreport must belong to the probed agent")
    new_costs = misreport.validate(inst)  # a bad misreport is refused before any solve
    x, pay = mech(inst, agent)
    reported = inst.with_costs(new_costs)  # shares what the mechanism built on inst
    x_dev, pay_dev = mech(reported, agent)
    u_truth = pay - agent_cost(inst, x, agent)
    u_dev = pay_dev - agent_cost(inst, x_dev, agent)
    if u_truth >= u_dev:
        return None
    return _witness(TRUTHFULNESS, inst, reported, agent, x, x_dev,
                    (u_truth, u_dev, Fraction(0), Fraction(0)))


def edge_stability_perturbation(inst: Instance, alloc: Solution, agent: int,
                                shrink: Fraction, bump: Fraction) -> Perturbation:
    """Scale the agent's selected edges by `shrink` in [0, 1), raise the rest by `bump`.

    A selected edge that already costs 0 stays at 0, so the perturbation is
    then not strict; `is_strict_edge_stability` says whether it may be used
    to claim an edge-stability witness. Each distinct (cost, selected) pair
    is priced once, keyed by the instance's integer cost, and its edges
    share that Fraction.
    """
    shrink = as_rational(shrink)
    bump = as_rational(bump)
    if not (0 <= shrink < 1):
        raise ValueError("shrink must lie in [0, 1)")
    if bump <= 0:
        raise ValueError("bump must be positive")
    selected, priced, new_costs = alloc.edge_ids, {}, {}
    edges, costs = inst.edges, inst.scaled_costs()[1]
    for i in inst.owned(agent):
        eid, _, _, _, cost = edges[i]
        key = (costs[i], eid in selected)
        new = priced.get(key)
        if new is None:
            new = priced[key] = cost * shrink if key[1] else cost + bump
        new_costs[eid] = new
    return Perturbation(agent, new_costs)


def is_strict_edge_stability(inst: Instance, alloc: Solution, pert: Perturbation) -> bool:
    """True iff selected costs strictly drop and unselected strictly rise.

    Each edge's new cost p/q is compared on integers with its old cost
    x/L (`Instance.scaled_costs`): p·L against x·q. An edge the
    perturbation leaves out keeps its cost, which neither drops nor rises.
    """
    selected, new_costs = alloc.edge_ids, pert.new_costs
    edges, (scale, costs) = inst.edges, inst.scaled_costs()
    for i in inst.owned(pert.agent):
        eid, _, _, _, old = edges[i]
        new = as_rational(new_costs.get(eid, old))
        now, before = new.numerator * scale, costs[i] * new.denominator
        if not (now < before if eid in selected else now > before):
            return False
    return True


def edge_stability_witness(inst: Instance, perturbed: Instance, pert: Perturbation,
                           x: Solution, x_prime: Solution) -> ViolationWitness:
    """The witness that x = A(inst) and x' = A(perturbed) violate weak monotonicity.

    `perturbed` is `pert.apply(inst)`, and `pert` is a strict edge-stability
    perturbation for x under which the agent's selected edges changed. Such
    a change certifies a strict violation: the witness carries the agent's
    cost tables under both profiles and the four terms, and re-verifies.
    """
    witness = _violation(EDGE_STABILITY, inst, perturbed, pert.agent, x, x_prime)
    assert witness is not None, "instability without a strict monotonicity violation"
    return witness


# -- random probes ----------------------------------------------------------

MAX_NUMERATOR = 20
MAX_DENOMINATOR = 4
# every value random_cost can return, keyed by its (numerator, denominator) draw
_RANDOM_COSTS = {(p, q): Fraction(p, q) for p in range(MAX_NUMERATOR + 1)
                 for q in range(1, MAX_DENOMINATOR + 1)}


def draw_below(bits: Callable[[int], int], n: int) -> int:
    """A draw from range(n) made as `random.Random.randrange(n)` makes it:
    `bits(k)` for k = n.bit_length(), redrawn while it is n or more.

    `bits` is a Random's `getrandbits`. Raises ValueError for n <= 0, for
    which no draw ends (bits(0) is always 0).
    """
    if n <= 0:
        raise ValueError(f"empty range for a draw below {n}")
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def _shuffle(bits: Callable[[int], int], x: list) -> None:
    """Shuffle `x` in place as `random.Random.shuffle` does."""
    for i in range(len(x) - 1, 0, -1):
        j = draw_below(bits, i + 1)
        x[i], x[j] = x[j], x[i]


def _node_pair(bits: Callable[[int], int], n: int) -> tuple[int, int]:
    """Two distinct nodes of range(n), drawn as `random.Random.sample(range(n), 2)`
    draws them: from a shrinking pool for n <= 21, else by redrawing a repeat."""
    first = draw_below(bits, n)
    if n <= 21:
        second = draw_below(bits, n - 1)
        return first, n - 1 if second == first else second
    second = draw_below(bits, n)
    while second == first:
        second = draw_below(bits, n)
    return first, second


def _rival(bits: Callable[[int], int], n: int, owner: int) -> int:
    """An owner of 1..n other than `owner`, drawn as `random.Random.choice`
    draws from the list of them."""
    j = 1 + draw_below(bits, n - 1)
    return j if j < owner else j + 1


def _cost(bits: Callable[[int], int]) -> Fraction:
    return _RANDOM_COSTS[draw_below(bits, MAX_NUMERATOR + 1),
                         1 + draw_below(bits, MAX_DENOMINATOR)]


def random_cost(rng: random.Random) -> Fraction:
    return _cost(rng.getrandbits)


def _random_start(bits: Callable[[int], int], max_nodes: int, agents: int | None):
    """Both random instances' first draws, n agents (1..3 unless given) and
    the node count, with an empty edge list and `add(u, v, owner=None)`,
    which appends edge u-v at a random cost and returns its owner, `owner`
    or else a random agent."""
    n = agents if agents is not None else 1 + draw_below(bits, 3)
    nodes = 3 + draw_below(bits, max_nodes - 2)
    edges: list[Edge] = []

    def add(u, v, owner=None):
        owner = owner if owner else 1 + draw_below(bits, n)
        edges.append(Edge(len(edges), u, v, owner, _cost(bits)))
        return owner

    return n, nodes, edges, add


def random_path_instance(rng: random.Random, max_nodes: int = 8,
                         agents: int | None = None) -> Instance:
    """Connected undirected path-mode instance with random rational costs.

    Built as a random s-t backbone plus extra parallel/chord edges, so the
    source and target stay connected even after deleting any single agent's
    edges (no agent is pivotal-infeasible by construction: every edge gets a
    same-route sibling owned by a different agent when n > 1).
    """
    bits = rng.getrandbits
    n, nodes, edges, add = _random_start(bits, max_nodes, agents)
    order = list(range(nodes))
    _shuffle(bits, order)
    s, t = order[0], order[-1]
    for u, v in zip(order, order[1:]):
        owner = add(u, v)
        # sibling parallel edge under a different owner keeps every agent
        # non-pivotal when n > 1
        if n > 1:
            add(u, v, owner=_rival(bits, n, owner))
    for _ in range(draw_below(bits, nodes + 1)):
        add(*_node_pair(bits, nodes))
    return Instance(False, nodes, tuple(edges), n, PATH, s, t)


def random_arborescence_instance(rng: random.Random, max_nodes: int = 8,
                                 agents: int | None = None) -> Instance:
    """Rooted directed instance where every node stays reachable without any
    single agent (each non-root node gets in-edges from two owners when n > 1)."""
    bits = rng.getrandbits
    n, nodes, edges, add = _random_start(bits, max_nodes, agents)
    root = 0
    for v in range(1, nodes):
        owner = add(draw_below(bits, v), v)
        if n > 1:
            other = _rival(bits, n, owner)  # drawn before the edge's tail
            add(draw_below(bits, v), v, owner=other)
    for _ in range(draw_below(bits, nodes + 1)):
        u, v = _node_pair(bits, nodes)
        if v != root:
            add(u, v)
    return Instance(True, nodes, tuple(edges), n, ARBORESCENCE, root, root)


def random_perturbation(rng: random.Random, inst: Instance, agent: int,
                        alloc: Optional[Solution] = None) -> Perturbation:
    """Half edge-stability shaped (when an allocation is supplied), half
    unstructured resampling of the agent's costs."""
    bits = rng.getrandbits
    owned = inst.agent_edges(agent)
    if alloc is not None and rng.random() < 0.5:
        shrink = Fraction(1 + draw_below(bits, 3), 4)
        bump = Fraction(1, 1 + draw_below(bits, 8))
        return edge_stability_perturbation(inst, alloc, agent, shrink, bump)
    return Perturbation(agent, {e.id: _cost(bits) for e in owned})
