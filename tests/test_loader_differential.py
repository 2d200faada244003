"""The instance loader against the per-edge reader it replaced.

`instance_from_dict` tests an edge's four integer fields with one combined
check and reads its cost with `_file_cost(value, k)`. The former reader,
kept below as the oracle, read each field through `_integer` and the cost
through `_file_cost(edge, where)`, with an `edge {k} ` prefix built for
every edge. It is kept verbatim but for one test: its fast path now reads
ASCII digits only, as the loader's does, so a cost such as "٣/٤", which
`isdecimal` and int() once took, goes through `as_cost` and is refused. On
every document both must give the same instance, with Fraction costs, or
the same InstanceFormatError message.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from minmax_procurement.graphs import (
    FILE_FORMAT_VERSION,
    MAX_FILE_AGENTS,
    MAX_FILE_EDGES,
    MAX_FILE_NODES,
    Edge,
    Instance,
    InstanceFormatError,
    as_cost,
    instance_from_dict,
)
from test_integer_costs import COSTS

# -- the former reader, kept as the oracle -------------------------------------


def _integer(record: dict, key: str, where: str = "") -> int:
    """`record[key]` if it is an integer (not a bool); no other type is coerced."""
    value = record[key]
    if type(value) is not int:
        raise InstanceFormatError(f"{where}{key} must be an integer, got {value!r}")
    return value


def _file_cost(edge: dict, where: str) -> Fraction:
    """An edge's cost from an int or a "p/q" string; floats and exponent
    notation are refused.

    Strings "p" and "p/q" of ASCII digits are split and read with int(),
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
            if value.isascii() and num.isdecimal() and (den.isdecimal() or not slash):
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


def former_instance_from_dict(data: dict) -> Instance:
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


# -- generated documents ---------------------------------------------------------

MISSING = object()  # a field left out of its record

BAD_FIELDS = st.one_of(
    st.booleans(),
    st.floats(allow_nan=False),
    st.text(alphabet="0123456789", min_size=1, max_size=3),
    st.none(),
    st.lists(st.integers(0, 3), max_size=2),
    st.just(MISSING),
)


def mostly(good, bad):
    """`good` nine times in ten, else `bad` (one_of would weigh each of the
    alternatives inside `bad` as much as `good`)."""
    return st.integers(0, 9).flatmap(lambda k: bad if k == 0 else good)


# mostly small ints, some out of the node and agent ranges
FIELDS = mostly(st.integers(-1, 4), BAD_FIELDS)
# the cost fuzzer's strings and ints, plain "p/q" strings as gen writes them, and
# values of the wrong type
FILE_COSTS = mostly(st.one_of(COSTS, st.fractions(0, 10, max_denominator=12).map(str)),
                    BAD_FIELDS)


def _record(fields: dict) -> dict:
    return {key: value for key, value in fields.items() if value is not MISSING}


RECORDS = mostly(
    st.fixed_dictionaries({"id": FIELDS, "tail": FIELDS, "head": FIELDS,
                           "owner": FIELDS, "cost": FILE_COSTS}).map(_record),
    # not an object at all
    st.one_of(st.none(), st.integers(), st.text(max_size=3), st.lists(st.integers(), max_size=2)),
)


def document(edges: list, directed: bool = False) -> dict:
    return {"version": 1, "directed": directed, "nodes": 4, "mode": "path", "source": 0,
            "target_or_root": 3, "agents": 3, "edges": edges}


def outcome(read, data):
    try:
        inst = read(data)
    except InstanceFormatError as exc:
        return "error", str(exc)
    return "instance", inst, [type(e.cost) for e in inst.edges]


@settings(max_examples=800, deadline=None, derandomize=True)
@given(edges=st.lists(RECORDS, max_size=5), directed=st.booleans())
@example(edges=[{"id": 1.5}], directed=False)
@example(edges=[{"id": 0, "tail": 0, "head": 1, "owner": 1, "cost": "٣/٤"}], directed=True)
@example(edges=[{"id": 0, "tail": 0, "head": 1, "owner": True, "cost": "1"}], directed=False)
@example(edges=[{"id": 0, "tail": 0, "head": 1, "owner": 1}], directed=False)
@example(edges=[[0, 0, 1, 1, "1"]], directed=False)
def test_the_loader_reads_what_the_per_edge_reader_read(edges, directed):
    data = document(edges, directed)
    expected = outcome(former_instance_from_dict, data)
    assert outcome(instance_from_dict, data) == expected
    if expected[0] == "instance":
        assert set(expected[2]) <= {Fraction}


def test_a_bad_id_is_named_before_a_missing_field():
    # reading all four integer fields before checking any would report the
    # missing tail instead
    data = document([{"id": 1.5}])
    for read in (former_instance_from_dict, instance_from_dict):
        assert outcome(read, data) == ("error", "edge 0 id must be an integer, got 1.5")
