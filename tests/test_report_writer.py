"""The report writer against the `json.dumps` encoding it replaced.

`old_report_text` is the former writer: `_jsonable` turned Fractions,
Solutions and dataclasses into plain values, then `json.dumps(..., indent=1,
sort_keys=True)` wrote them. It is kept here only as an oracle:
`graphs.json_text` must write the same bytes for every value of the exact
types reports hold (list, tuple, dict with str keys, str, int, bool, None,
Fraction, Solution and dataclasses), and must refuse with TypeError
everything else, subclasses of those types and dict keys that are not
exactly str included, whether they stand alone, in a list, as a dict value
or as a dataclass field.
"""

import dataclasses
import json
from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minmax_procurement import Instance, cli, clarke_payments, graphs, vcg_allocate
from minmax_procurement.adversary import ChainSpec, gen_chain
from minmax_procurement.graphs import (
    Solution,
    cost_summary,
    dump_instance,
    json_text,
    load_instance,
)


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, Solution):
        return sorted(obj.edge_ids)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def old_report_text(obj):
    return json.dumps(_jsonable(obj), indent=1, sort_keys=True)


@dataclass(frozen=True)
class Pair:
    first: object
    second: object


class Colour(IntEnum):
    RED = 1
    GREEN = -7


# subclasses of the types reports hold, which the writer refuses
class Ratio(Fraction):
    pass


class Name(str):
    pass


class Count(int):
    pass


strings = st.text() | st.sampled_from(["", "é", "\x00", "\n\t\"\\", "\U0001f600", "1", "True"])
fractions = st.fractions(max_denominator=50) | st.integers(-10**30, 10**30).map(Fraction)
solutions = st.frozensets(st.integers(-5, 50), max_size=6).map(Solution)
# the witnesses' cost tables: (edge id, cost) pairs
cost_tables = st.lists(st.tuples(st.integers(0, 10**6), fractions), max_size=6).map(tuple)
# (int, Fraction) rows, which the writer fills into a template, and the
# near misses it must write the general way
rows = (st.tuples(st.integers(), fractions) | st.tuples(st.booleans(), fractions)
        | st.tuples(st.integers(), st.integers()) | st.tuples(fractions, st.integers())
        | st.tuples(st.integers()) | st.tuples(st.integers(), fractions, st.integers()))
leaves = (strings | st.integers() | st.booleans() | st.none() | fractions | solutions
          | cost_tables | rows | st.lists(rows, max_size=5)
          | st.lists(st.integers() | st.booleans(), max_size=5))
values = st.recursive(
    leaves,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.tuples(inner, inner)
                   | st.tuples(st.builds(Pair, inner, inner), inner)
                   | st.dictionaries(strings, inner, max_size=5)
                   | st.builds(Pair, inner, inner)),
    max_leaves=25)


@settings(max_examples=200, deadline=None)
@given(values)
def test_nested_values_match_the_former_writer(obj):
    assert json_text(obj) == old_report_text(obj)


@pytest.mark.parametrize("row", [
    (3, Fraction(1, 2)), (-4, Fraction(-7, 3)), (10**30, Fraction(0)), [5, Fraction(9, 4)],
    (True, Fraction(1, 2)), (3, 4), (Fraction(1, 2), 3), (3,), (3, Fraction(1, 2), 4),
])
@pytest.mark.parametrize("depth", [0, 1, 2, 5])
def test_cost_rows_at_every_indent(row, depth):
    # a row alone, in a list, as a dataclass field and a dict value, `depth`
    # levels down
    obj = [row, (row, row), Pair(row, 1)]
    for _ in range(depth):
        obj = {"rows": [obj, Pair(row, obj)], "row": row}
    assert json_text(obj) == old_report_text(obj)
    assert json_text(row) == old_report_text(row)


@pytest.mark.parametrize("obj", [{}, [], (), {"a": {}}, {"a": []}, [[], {}], Solution(())])
def test_empty_containers(obj):
    assert json_text(obj) == old_report_text(obj)


def test_a_bool_in_an_int_list_stays_a_bool():
    assert json_text([1, True]) == old_report_text([1, True]) == "[\n 1,\n true\n]"


@pytest.mark.parametrize("obj", [
    1.5, {"a": [float("nan")]}, b"bytes", {1, 2}, object(),
    pytest.param(Colour.GREEN, id="int-enum-member"),
    pytest.param([3, Colour.RED], id="int-enum-member-in-an-int-list"),
    pytest.param(Ratio(1, 3), id="fraction-subclass"),
    pytest.param((4, Ratio(2)), id="fraction-subclass-in-a-pair"),
    pytest.param([(4, Ratio(2))], id="fraction-subclass-in-a-row-in-a-list"),
    pytest.param(Pair((4, Ratio(2)), 1), id="fraction-subclass-in-a-row-as-a-field"),
    pytest.param([(Colour.RED, Fraction(1, 2))], id="int-enum-member-in-a-row-in-a-list"),
    pytest.param({"row": (Count(4), Fraction(1))}, id="int-subclass-in-a-row-as-a-dict-value"),
    pytest.param(Name("a"), id="str-subclass"),
    pytest.param({"n": Count(5)}, id="int-subclass"),
    pytest.param({"n": 2, "colour": Colour.RED}, id="int-enum-member-as-a-dict-value"),
    pytest.param(Pair(Fraction(1, 2), Ratio(1, 3)), id="fraction-subclass-as-a-field"),
    pytest.param({"name": Name("a")}, id="str-subclass-as-a-dict-value"),
    pytest.param(Pair(Name("a"), 1), id="str-subclass-as-a-field"),
    pytest.param(Pair(3, Count(4)), id="int-subclass-as-a-field"),
    pytest.param({1: "int"}, id="int-key"),
    pytest.param({"a": 1, Name("b"): 2}, id="str-subclass-key"),
    pytest.param(Pair, id="dataclass-type"),
])
def test_other_types_are_refused(obj):
    with pytest.raises(TypeError):
        json_text(obj)


def test_one_report_of_every_subcommand(tmp_path, monkeypatch):
    reports = []
    emit = cli._emit

    def recorded(report, out, *member):
        # a member written a chunk at a time is checked as part of the report
        if member:
            key, items, records = member
            reports.append({**report, key: records(items)})
        else:
            reports.append(report)
        emit(report, out, *member)

    monkeypatch.setattr(cli, "_emit", recorded)
    chain, expanded = tmp_path / "chain.json", tmp_path / "exp.json"
    out = tmp_path / "report.json"
    runs = [
        ["gen", "chain", "--agents", "2", "--blocks", "3", "--out", str(chain)],
        ["gen", "expandedchain", "--agents", "2", "--blocks", "2", "--eps", "1/8",
         "--out", str(expanded)],
        ["solve", "--instance", str(expanded), "--objective", "minmax"],
        ["solve", "--instance", str(chain)],
        ["vcg", "--instance", str(chain)],
        ["ptas", "--instance", str(expanded), "--epsilon", "1/4", "--check-against-bruteforce"],
        ["audit", "monotonicity", "--trials", "30", "--seed", "3"],
        ["audit", "truthfulness", "--trials", "10", "--seed", "3"],
        ["adversary", "run", "--alg", "vcg", "--agents", "3", "--blocks", "4"],
        ["adversary", "run", "--alg", "vcg", "--agents", "2", "--blocks", "3", "--mode", "dmst"],
        ["adversary", "run", "--alg", "chain-exact", "--agents", "2", "--blocks", "5"],
    ]
    for argv in runs:
        code = cli.main(argv if argv[0] == "gen" else argv + ["--out", str(out)])
        assert code in (0, 1)
        if argv[0] != "gen":
            assert out.read_text() == old_report_text(reports[-1]) + "\n"
    assert len(reports) == len(runs) - 2
    assert any("violation" in r for r in reports) and any("ratio" in r for r in reports)


def former_vcg_report(instance_path):
    """The `vcg` report as `cli.cmd_vcg` built it before its agent rows were
    made and written a chunk at a time: every row in one list."""
    inst = load_instance(instance_path)
    alloc = vcg_allocate(inst)
    payments = clarke_payments(inst, alloc)
    summary = cost_summary(inst, alloc)
    selected = [[] for _ in range(inst.agent_count)]
    for eid in alloc.sorted_ids():
        selected[inst.edge_by_id(eid).owner - 1].append(eid)
    per_agent = [{
        "agent": agent,
        "selected_edge_ids": ids,
        "cost": cost,
        "payment": payment,
        "utility": payment - cost,
    } for agent, (ids, cost, payment)
        in enumerate(zip(selected, summary.per_agent, payments), 1)]
    return {
        "command": "vcg",
        "config": {"instance": instance_path},
        "allocation": alloc,
        "max_agent_cost": summary.max_cost,
        "agents": per_agent,
        "tie_break": "deterministic smallest-edge-id preference",
    }


@pytest.mark.parametrize("rows", [1, 2, 3, 7, graphs.CHUNK])
def test_vcg_rows_written_a_chunk_at_a_time_match_the_former_report(tmp_path, monkeypatch,
                                                                      capsys, rows):
    # 3 agents own edges and agents 4..7 own none, so chunks end on both kinds
    chain = gen_chain(ChainSpec(3, 4)).with_costs({1: Fraction(1, 2), 5: Fraction(3, 4)})
    chain = Instance(chain.directed, chain.node_count, chain.edges, 7, chain.mode,
                     chain.source, chain.target_or_root)
    path = str(tmp_path / "chain.json")
    dump_instance(chain, path)
    expected = old_report_text(former_vcg_report(path)) + "\n"
    monkeypatch.setattr(graphs, "CHUNK", rows)
    assert cli.main(["vcg", "--instance", path]) == 0
    assert capsys.readouterr().out == expected
    out = tmp_path / "report.json"
    assert cli.main(["vcg", "--instance", path, "--out", str(out)]) == 0
    assert out.read_text() == expected
