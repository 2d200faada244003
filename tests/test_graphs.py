"""Data model, feasibility checking, cost evaluation, and serialization."""

import json
from decimal import Decimal
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minmax_procurement import (
    ARBORESCENCE,
    Edge,
    Instance,
    PATH,
    Solution,
    agent_cost,
    cost_summary,
    dump_instance,
    load_instance,
    validate_solution,
)
from minmax_procurement.adversary import ChainSpec, expand_chain, gen_chain, gen_dmst_chain
from minmax_procurement.graphs import (
    InstanceFormatError,
    MalformedSolutionError,
    as_cost,
    as_rational,
    instance_from_dict,
    instance_to_dict,
)

F = Fraction


def parallel_instance(costs, owners=None):
    """Two-node path instance with one parallel s-t edge per cost."""
    owners = owners or list(range(1, len(costs) + 1))
    edges = tuple(
        Edge(i, 0, 1, owners[i], F(c)) for i, c in enumerate(costs))
    return Instance(False, 2, edges, max(owners), PATH, 0, 1)


# -- construction invariants --------------------------------------------------


def test_rejects_duplicate_edge_ids():
    with pytest.raises(ValueError, match="duplicate edge id"):
        Instance(False, 2, (Edge(0, 0, 1, 1, F(1)), Edge(0, 0, 1, 1, F(2))),
                 1, PATH, 0, 1)


def test_rejects_bad_owner():
    with pytest.raises(ValueError, match="owner"):
        Instance(False, 2, (Edge(0, 0, 1, 3, F(1)),), 2, PATH, 0, 1)


def test_rejects_negative_cost():
    with pytest.raises(ValueError):
        Edge(0, 0, 1, 1, F(-1)) and Instance(
            False, 2, (Edge(0, 0, 1, 1, F(-1)),), 1, PATH, 0, 1)


def test_rejects_undirected_arborescence():
    with pytest.raises(ValueError, match="directed"):
        Instance(False, 2, (Edge(0, 0, 1, 1, F(1)),), 1, ARBORESCENCE, 0, 0)


def test_rejects_endpoint_out_of_range():
    with pytest.raises(ValueError, match="endpoints"):
        Instance(False, 2, (Edge(0, 0, 5, 1, F(1)),), 1, PATH, 0, 1)


def test_parallel_edges_are_permitted():
    inst = parallel_instance([1, 3])
    assert len(inst.edges) == 2
    assert inst.edge_by_id(1).cost == 3


def test_unknown_edge_id_is_malformed():
    inst = parallel_instance([1, 3])
    with pytest.raises(MalformedSolutionError):
        validate_solution(inst, Solution([7]))


# -- path feasibility ---------------------------------------------------------


def test_single_block_chain_path_is_valid():
    inst = gen_chain(ChainSpec(2, 1))
    assert validate_solution(inst, Solution([0]))
    assert validate_solution(inst, Solution([1]))


def test_two_parallel_edges_are_not_a_simple_path():
    inst = gen_chain(ChainSpec(2, 2))
    # both edges of block 1 only: a multi-edge between the same node pair
    assert not validate_solution(inst, Solution([0, 1]))


def test_path_must_reach_target():
    inst = gen_chain(ChainSpec(2, 2))
    assert not validate_solution(inst, Solution([0]))  # stops at the block boundary
    assert validate_solution(inst, Solution([0, 2]))
    assert validate_solution(inst, Solution([1, 3]))


def test_empty_solution_only_when_source_is_target():
    inst = parallel_instance([1])
    assert not validate_solution(inst, Solution([]))
    loop = Instance(False, 2, inst.edges, 1, PATH, 0, 0)
    assert validate_solution(loop, Solution([]))
    assert not validate_solution(loop, Solution([0]))


def test_mixed_route_selection_within_a_block_is_rejected():
    inst, indexing = expand_chain(gen_chain(ChainSpec(2, 1)), F(1, 4))
    r1, r2 = indexing.blocks[0]
    assert validate_solution(inst, Solution(r1.edge_ids))
    assert validate_solution(inst, Solution(r2.edge_ids))
    mixed = Solution([r1.edge_ids[0], r2.edge_ids[1]])
    assert not validate_solution(inst, mixed)


def test_directed_path_respects_orientation():
    edges = (Edge(0, 1, 0, 1, F(1)),)  # points away from the target
    inst = Instance(True, 2, edges, 1, PATH, 0, 1)
    assert not validate_solution(inst, Solution([0]))


# -- arborescence feasibility -------------------------------------------------


def test_full_route_plus_other_routes_leftward_edges_is_an_arborescence():
    inst, indexing = gen_dmst_chain(ChainSpec(2, 1))
    r1, r2 = indexing.blocks[0]
    sol = Solution(r1.edge_ids + r2.leftward_ids)
    assert validate_solution(inst, sol)
    sol2 = Solution(r2.edge_ids + r1.leftward_ids)
    assert validate_solution(inst, sol2)


def test_arborescence_indegree_violations_are_rejected():
    inst, indexing = gen_dmst_chain(ChainSpec(2, 1))
    r1, r2 = indexing.blocks[0]
    # both full routes: the right endpoint gets in-degree 2
    assert not validate_solution(inst, Solution(r1.edge_ids + r2.edge_ids))
    # missing the other route's interior node
    assert not validate_solution(inst, Solution(r1.edge_ids))
    # an edge into the root, on a cycle through it
    edges = (Edge(0, 0, 1, 1, F(1)), Edge(1, 1, 0, 1, F(1)), Edge(2, 1, 2, 1, F(1)))
    cycle = Instance(True, 3, edges, 1, ARBORESCENCE, 0, 0)
    assert validate_solution(cycle, Solution([0, 2]))
    assert not validate_solution(cycle, Solution([0, 1]))
    assert not validate_solution(cycle, Solution([0, 1, 2]))


def test_arborescence_rejects_unreached_nodes():
    edges = (Edge(0, 0, 1, 1, F(1)), Edge(1, 2, 2, 1, F(1)))
    inst = Instance(True, 3, edges, 1, ARBORESCENCE, 0, 0)
    assert not validate_solution(inst, Solution([0]))


def test_validate_agrees_with_exhaustive_subset_checker():
    """Cross-check against independent brute-force feasibility on all subsets."""
    inst, indexing = gen_dmst_chain(ChainSpec(2, 1))
    ids = [e.id for e in inst.edges]

    def brute_ok(subset):
        indeg = {v: 0 for v in range(inst.node_count)}
        out = {v: [] for v in range(inst.node_count)}
        for eid in subset:
            e = inst.edge_by_id(eid)
            indeg[e.head] += 1
            out[e.tail].append(e.head)
        root = inst.target_or_root
        if indeg[root] != 0:
            return False
        if any(indeg[v] != 1 for v in range(inst.node_count) if v != root):
            return False
        seen, stack = {root}, [root]
        while stack:
            for w in out[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == inst.node_count

    for size in range(len(ids) + 1):
        for subset in combinations(ids, size):
            assert validate_solution(inst, Solution(subset)) == brute_ok(subset)


@pytest.mark.parametrize("directed, target", [(False, 3), (True, 3), (False, 0)])
def test_validate_agrees_with_exhaustive_path_checker(directed, target):
    """Every edge subset of a multigraph with parallel edges, a self-loop and
    a cycle, against an independent checker that tries every edge order."""
    ends = [(0, 1), (0, 1), (1, 2), (2, 3), (1, 3), (2, 2), (3, 0)]
    edges = tuple(Edge(i, u, v, 1, F(1)) for i, (u, v) in enumerate(ends))
    inst = Instance(directed, 4, edges, 1, PATH, 0, target)

    def brute_ok(subset):
        for order in permutations(subset):
            walk = [inst.source]
            for eid in order:
                u, v = ends[eid]
                if walk[-1] == u:
                    walk.append(v)
                elif walk[-1] == v and not directed:
                    walk.append(u)
                else:
                    break
            else:
                if walk[-1] == target and len(set(walk)) == len(walk):
                    return True
        return False

    valid = 0
    for size in range(len(ends) + 1):
        for subset in combinations(range(len(ends)), size):
            ok = brute_ok(subset)
            assert validate_solution(inst, Solution(subset)) == ok, subset
            valid += ok
    assert valid == {(False, 3): 5, (True, 3): 4, (False, 0): 1}[directed, target]


# -- cost evaluation ----------------------------------------------------------


def test_agent_cost_counts_only_selected_owned_edges():
    inst = gen_chain(ChainSpec(3, 3))
    sol = Solution([0, 3, 6])  # agent 1 in every block
    assert agent_cost(inst, sol, 1) == 3
    assert agent_cost(inst, sol, 2) == 0


def test_agent_cost_on_expanded_route_includes_helper_edges():
    inst, indexing = expand_chain(gen_chain(ChainSpec(2, 1)), F(1, 4))
    sol = Solution(indexing.route(0, 1).edge_ids)
    assert agent_cost(inst, sol, 1) == 1
    assert agent_cost(inst, sol, 2) == F(1, 4)


def test_cost_summary_balanced_and_unbalanced():
    inst = gen_chain(ChainSpec(2, 2))
    balanced = cost_summary(inst, Solution([0, 3]))
    assert (balanced.max_cost, balanced.sum_cost) == (1, 2)
    heavy = cost_summary(inst, Solution([0, 2]))
    assert (heavy.max_cost, heavy.sum_cost) == (2, 2)


def test_cost_summary_on_expanded_chain():
    inst, indexing = expand_chain(gen_chain(ChainSpec(2, 2)), F(1, 8))
    ids = indexing.route(0, 1).edge_ids + indexing.route(1, 1).edge_ids
    summary = cost_summary(inst, Solution(ids))
    assert summary.max_cost == 2
    assert summary.sum_cost == 2 + F(2, 8)
    assert summary.per_agent == (F(2), F(1, 4))


def test_summary_consistency():
    inst = gen_chain(ChainSpec(3, 2))
    summary = cost_summary(inst, Solution([0, 4]))
    assert summary.sum_cost == sum(summary.per_agent)
    assert summary.max_cost == max(summary.per_agent)
    assert summary.sum_cost == 2


# -- serialization ------------------------------------------------------------


def test_round_trip_preserves_costs_exactly(tmp_path):
    inst, _ = expand_chain(gen_chain(ChainSpec(3, 2)), F(1, 12))
    path = tmp_path / "inst.json"
    dump_instance(inst, path)
    again = load_instance(path)
    assert again == inst
    sol = Solution([0, 1, 2])  # agent 1's route through the first block
    assert cost_summary(again, sol) == cost_summary(inst, sol)


def test_dump_is_deterministic(tmp_path):
    inst = gen_chain(ChainSpec(2, 3))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    dump_instance(inst, a)
    dump_instance(inst, b)
    assert a.read_bytes() == b.read_bytes()


def test_costs_serialize_as_rational_strings():
    inst = parallel_instance([F(1, 3), 2])
    data = instance_to_dict(inst)
    assert data["edges"][0]["cost"] == "1/3"
    assert data["edges"][1]["cost"] == "2"
    assert instance_from_dict(data) == inst


def test_bad_version_is_rejected():
    data = instance_to_dict(parallel_instance([1]))
    data["version"] = 99
    with pytest.raises(InstanceFormatError, match="version"):
        instance_from_dict(data)


def test_missing_field_is_rejected():
    data = instance_to_dict(parallel_instance([1]))
    del data["edges"]
    with pytest.raises(InstanceFormatError):
        instance_from_dict(data)


def test_load_reports_parse_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    with pytest.raises(InstanceFormatError, match="line"):
        load_instance(path)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.fractions(min_value=0, max_value=10), min_size=1, max_size=6))
def test_round_trip_summary_identical_for_random_costs(costs):
    inst = parallel_instance(costs, owners=[1] * len(costs))
    again = instance_from_dict(json.loads(json.dumps(instance_to_dict(inst))))
    for i in range(len(costs)):
        sol = Solution([i])
        assert cost_summary(again, sol) == cost_summary(inst, sol)


# -- derived instances --------------------------------------------------------


def test_with_costs_replaces_only_named_edges():
    inst = parallel_instance([1, 3])
    new = inst.with_costs({0: F(5, 2)})
    assert new.edge_by_id(0).cost == F(5, 2)
    assert new.edge_by_id(1).cost == 3
    assert inst.edge_by_id(0).cost == 1  # original untouched


def test_without_agent_drops_all_owned_edges():
    inst = gen_chain(ChainSpec(2, 2))
    rest = inst.without_agent(1)
    assert all(e.owner == 2 for e in rest.edges)
    assert rest.agent_count == inst.agent_count


# -- no silent coercion -------------------------------------------------------


@pytest.mark.parametrize("value", ["false", 0, 1, None])
def test_directed_must_be_a_json_bool(value):
    data = instance_to_dict(parallel_instance([1]))
    data["directed"] = value
    with pytest.raises(InstanceFormatError, match="directed"):
        instance_from_dict(data)


@pytest.mark.parametrize("field", ["nodes", "agents", "source", "target_or_root", "version"])
@pytest.mark.parametrize("value", [1.0, 0.9, True, "1"])
def test_instance_integers_are_not_coerced(field, value):
    data = instance_to_dict(parallel_instance([1]))
    data[field] = value
    with pytest.raises(InstanceFormatError, match=field):
        instance_from_dict(data)


@pytest.mark.parametrize("field", ["id", "tail", "head", "owner"])
@pytest.mark.parametrize("value", [0.9, 1.0, False, "1"])
def test_edge_integers_are_not_coerced(field, value):
    data = instance_to_dict(parallel_instance([1, 2]))
    data["edges"][1][field] = value
    with pytest.raises(InstanceFormatError, match=f"edge 1 {field}"):
        instance_from_dict(data)


@pytest.mark.parametrize("value", [0.1, 1.0, True, None, [1, 2]])
def test_costs_are_ints_or_rational_strings(value):
    data = instance_to_dict(parallel_instance([1]))
    data["edges"][0]["cost"] = value
    with pytest.raises(InstanceFormatError, match="cost"):
        instance_from_dict(data)


def test_int_and_decimal_string_costs_still_load():
    data = instance_to_dict(parallel_instance([1, 2]))
    data["edges"][0]["cost"] = 3
    data["edges"][1]["cost"] = "0.25"
    inst = instance_from_dict(data)
    assert [e.cost for e in inst.edges] == [3, F(1, 4)]


@pytest.mark.parametrize("value", ["1/0", "0/0", "-3/0"])
def test_zero_denominator_cost_names_the_edge(value):
    data = instance_to_dict(parallel_instance([1, 2]))
    data["edges"][1]["cost"] = value
    with pytest.raises(InstanceFormatError, match=f"^edge 1 cost '{value}' has a zero denominator$"):
        instance_from_dict(data)


@pytest.mark.parametrize("value, reason", [
    ("1e3", "exponent notation is not accepted"),
    ("abc", "Invalid literal for Fraction"),
    (-1, "must be nonnegative"),
    ("-1", "must be nonnegative"),
])
def test_every_refused_cost_names_the_edge(value, reason):
    data = instance_to_dict(parallel_instance([1, 2]))
    data["edges"][1]["cost"] = value
    with pytest.raises(InstanceFormatError) as info:
        instance_from_dict(data)
    message = str(info.value)
    assert message.startswith(f"edge 1 cost {value!r}: ") and reason in message


# -- one coercion for costs and rational arguments ----------------------------


@pytest.mark.parametrize("value", [0.1, 1.0, True, False])
def test_as_rational_refuses_floats_and_bools(value):
    with pytest.raises(TypeError, match="is not an exact rational"):
        as_rational(value)


@pytest.mark.parametrize("value", [Decimal("0.5"), Decimal("1e3")])
def test_as_rational_refuses_decimals(value):
    with pytest.raises(TypeError, match="^Decimal .* is not an exact rational"):
        as_rational(value)


@pytest.mark.parametrize("value", ["1e3", "1E3", "2.5e-1", " 1e1"])
def test_as_rational_refuses_exponent_notation(value):
    with pytest.raises(ValueError, match="^exponent notation is not accepted"):
        as_rational(value)


def test_as_rational_keeps_fractions_and_reads_ints_and_strings():
    half = F(1, 2)
    assert as_rational(half) is half
    assert [as_rational(x) for x in (3, "3", "1/2", "0.25")] == [3, 3, half, F(1, 4)]
    assert type(as_rational(3)) is Fraction


@pytest.mark.parametrize("value", [0.1, True])
def test_as_cost_refuses_floats_and_bools(value):
    with pytest.raises(TypeError):
        as_cost(value)


@pytest.mark.parametrize("cost", [0.1, 1.0, True])
def test_constructor_refuses_a_cost_that_is_not_an_int_or_a_fraction(cost):
    edges = (Edge(0, 0, 1, 1, F(1)), Edge(1, 0, 1, 1, cost))
    with pytest.raises(TypeError, match=f"^edge 1 cost {cost!r} is not an int or a Fraction$"):
        Instance(False, 2, edges, 1, PATH, 0, 1)


def test_constructor_keeps_int_costs():
    assert Instance(False, 2, (Edge(0, 0, 1, 1, 2),), 1, PATH, 0, 1).edges[0].cost == 2


def test_with_costs_refuses_floats_and_exponent_strings():
    inst = parallel_instance([1, 2])
    with pytest.raises(TypeError):
        inst.with_costs({1: 0.3})
    with pytest.raises(ValueError, match="exponent"):
        inst.with_costs({1: "1e3"})


@pytest.mark.parametrize("value", ["1e3", "1E-3"])
def test_exponent_cost_strings_are_format_errors(value):
    data = instance_to_dict(parallel_instance([1, 2]))
    data["edges"][1]["cost"] = value
    with pytest.raises(InstanceFormatError, match="exponent notation"):
        instance_from_dict(data)


def test_chain_spec_coerces_its_costs_once():
    spec = ChainSpec(2, 3, 2, "1/4")
    assert type(spec.base_cost) is Fraction and spec.base_cost == 2
    assert type(spec.helper_eps) is Fraction and spec.eps_for("path") == F(1, 4)
    with pytest.raises(TypeError):
        ChainSpec(2, 3, 1.5)
    with pytest.raises(TypeError):
        ChainSpec(2, 3, helper_eps=0.25)
