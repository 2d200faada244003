"""The report writer against the `json.dumps` encoding it replaced.

`old_report_text` is the former writer: `_jsonable` turned Fractions,
Solutions and dataclasses into plain values, then `json.dumps(..., indent=1,
sort_keys=True)` wrote them. It is kept here only as an oracle: `cli._json`
must write the same bytes for every report.
"""

import dataclasses
import json
from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minmax_procurement import cli
from minmax_procurement.graphs import Solution



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


class Ratio(Fraction):
    """A Fraction subclass; its own str shows whether the writer calls it."""

    def __str__(self):
        return "ratio " + super().__str__()


class Name(str):
    def __str__(self):
        return "name " + str.__str__(self)


class Count(int):
    def __repr__(self):
        return "Count(" + int.__repr__(self) + ")"

    __str__ = __repr__


strings = st.text() | st.sampled_from(["", "é", "\x00", "\n\t\"\\", "\U0001f600", "1", "True"])
fractions = st.fractions(max_denominator=50) | st.integers(-10**30, 10**30).map(Fraction)
solutions = st.frozensets(st.integers(-5, 50), max_size=6).map(Solution)
subclassed = (st.sampled_from(list(Colour)) | st.integers().map(Count)
              | st.builds(Ratio, st.integers(-50, 50), st.integers(1, 50))
              | strings.map(Name))
# the witnesses' cost tables: (edge id, cost) pairs
cost_tables = st.lists(st.tuples(st.integers(0, 10**6), fractions), max_size=6).map(tuple)
leaves = (strings | st.integers() | st.booleans() | st.none() | fractions | solutions
          | subclassed | cost_tables
          | st.lists(st.integers() | st.booleans() | st.sampled_from(list(Colour)), max_size=5))
# keys that collide once turned into strings: 1 and "1", None and "None", ...
keys = (st.integers(-2, 2) | st.sampled_from(["0", "1", "-1", "None", "True", "a", "é"])
        | st.booleans() | st.none() | fractions | subclassed)
values = st.recursive(
    leaves,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.tuples(inner, inner)
                   | st.tuples(st.builds(Pair, inner, inner), inner)
                   | st.dictionaries(keys, inner, max_size=5)
                   | st.dictionaries(strings, inner, max_size=5)
                   | st.builds(Pair, inner, inner)),
    max_leaves=25)


@settings(max_examples=200, deadline=None)
@given(values)
def test_nested_values_match_the_former_writer(obj):
    assert cli._json(obj) == old_report_text(obj)


@pytest.mark.parametrize("obj", [{}, [], (), {"a": {}}, {"a": []}, [[], {}], Solution(())])
def test_empty_containers(obj):
    assert cli._json(obj) == old_report_text(obj)


def test_colliding_keys_keep_the_last_value():
    obj = {1: "int", "1": "str", None: 0, "None": 1}
    assert cli._json(obj) == old_report_text(obj) == '{\n "1": "str",\n "None": 1\n}'


def test_a_bool_in_an_int_list_stays_a_bool():
    assert cli._json([1, True]) == old_report_text([1, True]) == "[\n 1,\n true\n]"


def test_an_int_enum_member_is_written_as_its_int():
    obj = [Colour.GREEN, {"c": Colour.RED}, Count(5)]
    assert cli._json(obj) == old_report_text(obj) == '[\n -7,\n {\n  "c": 1\n },\n 5\n]'


def test_a_fraction_subclass_is_written_as_its_str():
    obj = [Ratio(1, 3), (4, Ratio(2))]
    assert cli._json(obj) == old_report_text(obj)
    assert cli._json(obj) == '[\n "ratio 1/3",\n [\n  4,\n  "ratio 2"\n ]\n]'


@pytest.mark.parametrize("obj", [1.5, {"a": [float("nan")]}, b"bytes", {1, 2}, object()])
def test_other_types_are_refused(obj):
    with pytest.raises(TypeError):
        cli._json(obj)


def test_one_report_of_every_subcommand(tmp_path, monkeypatch):
    reports = []
    emit = cli._emit

    def recorded(report, out):
        reports.append(report)
        emit(report, out)

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
