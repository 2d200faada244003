"""VCG mechanism: min-sum allocation plus Clarke pivot payments.

The allocation minimizes the sum of all agents' costs (shortest path or
minimum arborescence depending on the instance mode), which makes the
mechanism truthful and an n-approximation of the min-max optimum. Payments
follow the Clarke pivot rule: each agent receives the externality it imposes,
P_i = SC_without_i - (SC - own_share), which is individually rational here.

All quantities are exact rationals; the mechanism is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .graphs import Instance, Solution, agent_cost, cost_summary
from .solvers import NoFeasibleSolutionError, min_sum_optimum, min_sum_value

# Any deterministic allocation rule under audit satisfies this signature and
# must return a feasible solution for every instance it accepts. The names
# are strings: typing caches a subscripted alias, and with the classes in it
# the cache would keep every discarded import of the package alive.
AllocationAlgorithm = Callable[["Instance"], "Solution"]


class PivotalInfeasibleError(ValueError):
    """Removing one agent's edges destroys feasibility; the Clarke payment
    for that agent is undefined."""

    def __init__(self, agent: int):
        super().__init__(f"no feasible solution without agent {agent}'s edges")
        self.agent = agent


@dataclass(frozen=True)
class MechanismOutcome:
    allocation: Solution
    payments: tuple[Fraction, ...]

    def utility(self, inst: Instance, agent: int) -> Fraction:
        return self.payments[agent - 1] - agent_cost(inst, self.allocation, agent)


def vcg_allocate(inst: Instance) -> Solution:
    """The min-sum optimal solution under the deterministic tie-break."""
    return min_sum_optimum(inst).witness


def clarke_payments(inst: Instance, alloc: Solution) -> tuple[Fraction, ...]:
    """Clarke pivot payments for the given min-sum allocation.

    P_i = SC_{-i} - (SC - t_i(alloc)), where SC_{-i} is the min-sum optimum
    with agent i's edges deleted (its value only, from `min_sum_value`).
    Agents with no edge in the graph, and more generally agents whose removal
    leaves the optimum unchanged and who have no selected edge, are paid 0.
    """
    summary = cost_summary(inst, alloc)
    owners = {e.owner for e in inst.edges}
    payments = []
    for agent in range(1, inst.agent_count + 1):
        if agent not in owners:
            payments.append(Fraction(0))
            continue
        try:
            sc_without = min_sum_value(inst.without_agent(agent))
        except NoFeasibleSolutionError:
            raise PivotalInfeasibleError(agent) from None
        payments.append(sc_without - (summary.sum_cost - summary.per_agent[agent - 1]))
    return tuple(payments)


def run_vcg(inst: Instance) -> MechanismOutcome:
    """Allocate by min-sum and pay Clarke pivots.

    The allocation's maximum agent cost is at most n times the min-max
    optimum for the reported costs.
    """
    alloc = vcg_allocate(inst)
    return MechanismOutcome(alloc, clarke_payments(inst, alloc))
