"""The integer cost core, checked against the Fraction code it replaced.

An instance prices solutions on its costs scaled once to integers over a
common denominator L, and the loader reads plain "p" and "p/q" strings with
int(). Both are fast paths: each must give exactly what the Fraction sums
and the `as_cost` parse gave, values and error messages alike.
"""

import operator
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minmax_procurement import CostSummary, Solution, agent_cost, cost_summary
from minmax_procurement.audit import random_arborescence_instance, random_cost, random_path_instance
from minmax_procurement.graphs import (
    InstanceFormatError,
    MalformedSolutionError,
    as_cost,
    instance_from_dict,
)
from minmax_procurement.solvers import NoFeasibleSolutionError, min_sum_optimum

# -- the former Fraction pricing, kept as the oracle ---------------------------


def fraction_agent_cost(inst, sol, agent):
    total = Fraction(0)
    for edge_id in sol.edge_ids:
        e = inst.edge_by_id(edge_id)
        if e.owner == agent:
            total += e.cost
    return total


def fraction_cost_summary(inst, sol):
    per_agent = [Fraction(0)] * inst.agent_count
    for edge_id in sol.edge_ids:
        e = inst.edge_by_id(edge_id)
        per_agent[e.owner - 1] += e.cost
    per_agent = tuple(per_agent)
    return CostSummary(per_agent, max(per_agent), sum(per_agent, Fraction(0)))


def outcome(price, *args):
    """`price(*args)`, or the type and message of the error it raised."""
    try:
        return price(*args)
    except MalformedSolutionError as exc:
        return type(exc), str(exc)


def copies(rng, inst):
    """The instance and its derived copies; the parent's integer costs are
    computed first, so the copies without an agent or edges slice them."""
    inst.scaled_costs()
    yield "original", inst
    yield "with_costs", inst.with_costs(
        {e.id: random_cost(rng) for e in inst.edges if rng.random() < 0.5})
    yield "without_agent", inst.without_agent(rng.randint(1, inst.agent_count))
    yield "without_edges", inst.without_edges(
        e.id for e in inst.edges if rng.random() < 0.3)


def solutions(rng, inst):
    ids = [e.id for e in inst.edges]
    try:
        yield min_sum_optimum(inst).witness
    except NoFeasibleSolutionError:
        pass
    yield Solution(())
    yield Solution(rng.sample(ids, rng.randint(0, len(ids))))
    # an unknown id among known ones
    yield Solution([*rng.sample(ids, min(2, len(ids))), max(ids, default=0) + 1])


def test_integer_pricing_matches_fraction_sums():
    priced = unknown = 0
    for seed in range(300):
        rng = random.Random(seed)
        make = random_path_instance if seed % 2 else random_arborescence_instance
        for how, inst in copies(rng, make(rng, agents=rng.randint(1, 3))):
            for sol in solutions(rng, inst):
                expected = outcome(fraction_cost_summary, inst, sol)
                got = outcome(cost_summary, inst, sol)
                assert got == expected, (seed, how, sorted(sol.edge_ids))
                if isinstance(expected, CostSummary):
                    priced += 1
                    values = (*got.per_agent, got.max_cost, got.sum_cost)
                    assert all(type(x) is Fraction for x in values)
                else:
                    unknown += 1
                # agents outside 1..n own nothing and pay 0
                for agent in range(0, inst.agent_count + 2):
                    expected = outcome(fraction_agent_cost, inst, sol, agent)
                    got = outcome(agent_cost, inst, sol, agent)
                    assert got == expected, (seed, how, agent)
                    assert type(got) is type(expected)
    assert priced >= 3000 and unknown >= 1000


def test_an_unknown_id_keeps_its_message():
    inst = random_path_instance(random.Random(1), agents=2)
    missing = Solution([inst.edges[0].id, 10_000])
    for price in (cost_summary, lambda i, s: agent_cost(i, s, 1)):
        with pytest.raises(MalformedSolutionError, match="^unknown edge id 10000$"):
            price(inst, missing)


# -- the loader's fast path against `as_cost` ----------------------------------


def as_cost_from_file(value):
    """The loader's former reading of a cost: `as_cost`, errors worded."""
    where = "edge 0 "
    try:
        return as_cost(value)
    except ZeroDivisionError:
        raise InstanceFormatError(f"{where}cost {value!r} has a zero denominator") from None
    except ValueError as exc:
        raise InstanceFormatError(f"{where}cost {value!r}: {exc}") from None


def loaded_cost(value):
    doc = {"version": 1, "directed": False, "nodes": 2, "mode": "path", "source": 0,
           "target_or_root": 1, "agents": 1,
           "edges": [{"id": 0, "tail": 0, "head": 1, "owner": 1, "cost": value}]}
    return instance_from_dict(doc).edges[0].cost


def result(read, value):
    try:
        cost = read(value)
    except InstanceFormatError as exc:
        return "error", str(exc)
    return type(cost), cost


# ASCII and non-ASCII decimal digits (Arabic-Indic, Extended Arabic-Indic,
# Devanagari, fullwidth) and a superscript two, a digit that is not decimal
DIGITS = "0123456789٣٠۵५０²"
PIECES = st.one_of(
    st.text(alphabet=DIGITS, min_size=1, max_size=4),
    # the other characters the Fraction syntax gives a meaning to
    st.sampled_from(list("/._+-eE \t")),
    # runs around int()'s limit of 4,300 digits
    st.builds(operator.mul, st.sampled_from(["1", "0", "٣", "9"]), st.integers(4295, 4310)),
)
COSTS = st.one_of(st.lists(PIECES, max_size=5).map("".join), st.integers(-10**6, 10**6))


@settings(max_examples=600, deadline=None, derandomize=True)
@given(COSTS)
@example("1/0")
@example("٣/٤")
@example("1" * 4301)
@example("7/" + "3" * 4301)
@example("0" * 4301 + "/2")
@example("12/06")
@example("1 / 2")
@example("1_000/3")
def test_the_fast_path_reads_exactly_what_as_cost_reads(value):
    expected = result(as_cost_from_file, value)
    assert result(loaded_cost, value) == expected
    if expected[0] == "error":
        assert expected[1].startswith("edge 0 cost")
