"""VCG mechanism: min-sum allocation plus Clarke pivot payments.

The allocation minimizes the sum of all agents' costs (shortest path or
minimum arborescence depending on the instance mode), which makes the
mechanism truthful and an n-approximation of the min-max optimum. Payments
follow the Clarke pivot rule: each agent receives the externality it imposes,
P_i = SC_without_i - (SC - own_share), which is individually rational here.
Three entries: `vcg_allocate` allocates, `clarke_payments` pays every agent
for an allocation, and `vcg_mechanism` gives the allocation and one agent's
payment, the contract the truthfulness audit asks for. `vcg` alone decides
when a pivot needs no solve: SC_without_i = SC when the memoized min-sum
optimum holds none of agent i's edges, so only agents on that optimum cost
a solve each.

All quantities are exact rationals; the mechanism is deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .graphs import Instance, Solution, scaled_loads
from .solvers import NoFeasibleSolutionError, min_sum_optimum, scaled_min_sum_value


class PivotalInfeasibleError(ValueError):
    """Removing one agent's edges destroys feasibility; the Clarke payment
    for that agent is undefined."""

    def __init__(self, agent: int):
        super().__init__(f"no feasible solution without agent {agent}'s edges")
        self.agent = agent


def vcg_allocate(inst: Instance) -> Solution:
    """The min-sum optimal solution under the deterministic tie-break."""
    return min_sum_optimum(inst).witness


_ZERO = Fraction(0)  # immutable, so every idle agent's payment is this one


def clarke_payments(inst: Instance, alloc: Solution) -> tuple[Fraction, ...]:
    """Agents 1..n's Clarke pivot payments for the allocation `alloc`.

    P_i = SC_{-i} - (SC - t_i(alloc)), where SC_{-i} is the min-sum optimum
    with agent i's edges deleted. The allocation and the min-sum optimum
    are read once, each agent's edges from `Instance.owned`; everything is
    an integer over the instance's L until each Fraction returned. An agent
    with no edge in the graph is paid 0. When the witness of
    `min_sum_optimum(inst)`, which `vcg_allocate` allocates, holds none of
    an agent's edges, that optimum stays feasible without the agent, so
    SC_{-i} = SC with no solve; otherwise `scaled_min_sum_value(inst, i)`
    solves on the instance itself, with no derived copy. The shortcut rests
    on the optimum, not on `alloc`, so any allocation gets the exact
    payments. The first pivotal agent raises PivotalInfeasibleError: no
    solution avoids its edges.
    """
    pay = _payer(inst, alloc)
    return tuple(map(pay, range(1, inst.agent_count + 1)))


def _payer(inst: Instance, alloc: Solution) -> Callable[[int], Fraction]:
    """One agent's Clarke payment for `alloc`, as a function of the agent,
    with the allocation's loads, the min-sum optimum and the owners of its
    witness's edges read once."""
    scale = inst.scaled_costs()[0]
    loads = scaled_loads(inst, alloc.edge_ids)
    total = sum(loads)
    optimum = min_sum_optimum(inst)
    holders = {inst.edge_by_id(eid).owner for eid in optimum.witness.edge_ids}
    sc = optimum.value.numerator * (scale // optimum.value.denominator)

    def pay(agent: int) -> Fraction:
        if not inst.owned(agent):
            return _ZERO
        if agent not in holders:
            sc_without = sc
        else:
            try:
                sc_without = scaled_min_sum_value(inst, agent)
            except NoFeasibleSolutionError:
                raise PivotalInfeasibleError(agent) from None
        return Fraction(sc_without - (total - loads[agent - 1]), scale)

    return pay


def vcg_mechanism(inst: Instance, agent: int) -> tuple[Solution, Fraction]:
    """VCG as `audit.Mechanism`: the min-sum allocation and `agent`'s Clarke
    payment alone, so one pivot solve at most, and only for that agent.

    Raises PivotalInfeasibleError when no solution avoids the agent's edges,
    and ValueError for an agent outside 1..n.
    """
    inst.owned(agent)  # refuses an agent outside 1..n before the allocation
    alloc = vcg_allocate(inst)
    return alloc, _payer(inst, alloc)(agent)
