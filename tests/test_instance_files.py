"""Instance files against the `json.dump` encoding they replaced.

`former_dump_instance` is the former writer, kept here only as an oracle:
`dump_instance` writes the header and each edge record through
`graphs.json_text`, `graphs.CHUNK` records at a time, and every file must keep
the oracle's bytes, whatever the costs, ids, mode and edge count.
"""

import contextlib
import io
import json
import os
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minmax_procurement import ARBORESCENCE, PATH, Edge, Instance, cli, graphs
from minmax_procurement.adversary import (
    MODE_DMST,
    MODE_PATH,
    ChainSpec,
    build_adversary_instance,
    gen_chain,
)
from minmax_procurement.graphs import dump_instance, instance_to_dict, load_instance


def former_dump_instance(inst, path):
    with open(path, "w") as fh:
        json.dump(instance_to_dict(inst), fh, indent=1, sort_keys=True)
        fh.write("\n")


def assert_same_file(inst, work):
    new, old = work / "new.json", work / "old.json"
    dump_instance(inst, new)
    former_dump_instance(inst, old)
    assert new.read_bytes() == old.read_bytes()
    return new


costs = st.integers(0, 10**20) | st.fractions(min_value=0, max_denominator=10**6)


@st.composite
def instances(draw, counts):
    """An instance with one of `counts` edges: ids spaced by a drawn step from
    a drawn start, large and negative ones included, and endpoints, owners
    and int or Fraction costs drawn once each and repeated along the edges."""
    directed = draw(st.booleans())
    mode = ARBORESCENCE if directed and draw(st.booleans()) else PATH
    nodes = draw(st.integers(1, 5))
    agents = draw(st.integers(1, 3))
    count = draw(st.sampled_from(counts))
    start = draw(st.integers(-10**20, 10**20))
    step = draw(st.integers(1, 10**12)) * draw(st.sampled_from([1, -1]))
    node = st.integers(0, nodes - 1)
    pool = draw(st.lists(st.tuples(node, node, st.integers(1, agents), costs),
                         min_size=1, max_size=5))
    edges = tuple(Edge(start + k * step, *pool[k % len(pool)]) for k in range(count))
    return Instance(directed, nodes, edges, agents, mode, draw(node), draw(node))


SMALL_CHUNK = 3


@settings(max_examples=60, deadline=None)
@given(inst=instances([0, 1, SMALL_CHUNK - 1, SMALL_CHUNK, SMALL_CHUNK + 1,
                       2 * SMALL_CHUNK + 1]))
def test_files_match_the_former_writer_in_small_chunks(tmp_path_factory, inst):
    with mock.patch.object(graphs, "CHUNK", SMALL_CHUNK):
        path = assert_same_file(inst, tmp_path_factory.getbasetemp())
    assert load_instance(path) == inst


@pytest.mark.parametrize("count", [graphs.CHUNK - 1, graphs.CHUNK, graphs.CHUNK + 1])
@settings(max_examples=2, deadline=None)
@given(data=st.data())
def test_files_match_the_former_writer_at_the_chunk_size(tmp_path_factory, count, data):
    assert_same_file(data.draw(instances([count])), tmp_path_factory.getbasetemp())


def test_an_empty_instance_matches_the_former_writer(tmp_path):
    assert_same_file(Instance(True, 1, (), 1, ARBORESCENCE, 0, 0), tmp_path)


@pytest.mark.parametrize("kind, mode", [("chain", None), ("expandedchain", MODE_PATH),
                                        ("dmst-chain", MODE_DMST)])
@pytest.mark.parametrize("agents, blocks", [(2, 1), (3, 3), (4, 50), (2, 700)])
def test_gen_files_match_the_former_writer(tmp_path, kind, mode, agents, blocks):
    spec = ChainSpec(agents, blocks)
    inst = gen_chain(spec) if mode is None else build_adversary_instance(spec, mode)[0]
    out, old = tmp_path / "gen.json", tmp_path / "old.json"
    assert cli.main(["gen", kind, "--agents", str(agents), "--blocks", str(blocks),
                     "--out", str(out)]) == 0
    former_dump_instance(inst, old)
    assert out.read_bytes() == old.read_bytes()
    assert load_instance(out) == inst


def test_dump_holds_less_than_the_file_it_writes(tmp_path):
    inst = gen_chain(ChainSpec(2, 30_000))
    path = tmp_path / "chain.json"
    tracemalloc.start()
    try:
        dump_instance(inst, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(inst.edges) == 60_000
    assert peak < os.path.getsize(path)


def test_gen_into_a_directory_is_one_error_line(tmp_path):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(["gen", "chain", "--agents", "2", "--blocks", "2",
                         "--out", str(tmp_path)])
    assert code == 2 and out.getvalue() == ""
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    assert "Traceback" not in err.getvalue()
