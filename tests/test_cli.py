"""End-to-end command-line harness tests."""

import argparse
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from minmax_procurement import cli, graphs, load_instance, minmax_ptas
from minmax_procurement.cli import main

F = Fraction


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


# -- gen ----------------------------------------------------------------------


def test_gen_chain(tmp_path, capsys):
    out = tmp_path / "chain.json"
    code = main(["gen", "chain", "--agents", "3", "--blocks", "1",
                 "--out", str(out)])
    assert code == 0
    inst = load_instance(out)
    assert inst.node_count == 2 and len(inst.edges) == 3


def test_gen_expandedchain(tmp_path, capsys):
    out = tmp_path / "exp.json"
    code = main(["gen", "expandedchain", "--agents", "2", "--blocks", "2",
                 "--eps", "1/8", "--out", str(out)])
    assert code == 0
    assert len(load_instance(out).edges) == 8


def test_gen_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert main(["gen", "dmst-chain", "--agents", "2", "--blocks", "3",
                     "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_invalid_spec_is_usage_error(tmp_path, capsys):
    code = main(["gen", "chain", "--agents", "1", "--blocks", "0",
                 "--out", str(tmp_path / "x.json")])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["gen", "dmst-chain", "--agents", "2", "--blocks", "1000000", "--out", "{out}"],
    ["gen", "chain", "--agents", "100000", "--blocks", "1", "--out", "{out}"],
    ["adversary", "run", "--agents", "3", "--blocks", "100000", "--out", "{out}"],
])
def test_chains_past_the_edge_limit_are_usage_errors(tmp_path, capsys, argv):
    out = tmp_path / "x.json"
    assert main([a.format(out=out) for a in argv]) == 2
    err = capsys.readouterr().err
    assert "above the limit of 1048576" in err and "Traceback" not in err
    assert not out.exists()


def test_gen_zero_denominator_base_is_usage_error(tmp_path, capsys):
    out = tmp_path / "x.json"
    code = main(["gen", "chain", "--agents", "2", "--blocks", "3", "--base", "1/0",
                 "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "not a rational" in err and "Traceback" not in err
    assert not out.exists()


def test_gen_base_is_read_as_a_rational(tmp_path):
    from minmax_procurement import ChainSpec, dump_instance, gen_chain
    cli_out, lib_out = tmp_path / "cli.json", tmp_path / "lib.json"
    assert main(["gen", "chain", "--agents", "2", "--blocks", "3", "--base", "3/2",
                 "--out", str(cli_out)]) == 0
    dump_instance(gen_chain(ChainSpec(2, 3, F(3, 2))), lib_out)
    assert cli_out.read_bytes() == lib_out.read_bytes()


def test_gen_chain_refuses_eps_before_writing(tmp_path, capsys):
    # a plain chain has no helper edges, so --eps would change nothing
    out = tmp_path / "x.json"
    code = main(["gen", "chain", "--agents", "2", "--blocks", "2", "--eps", "1/3",
                 "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "--eps" in captured.err
    assert not out.exists()


def sometimes_bad(good, bad):
    """`good` four times in five, else `bad`."""
    return st.integers(0, 4).flatmap(lambda k: bad if k == 0 else good)


@settings(max_examples=200, deadline=None)
@given(kind=sometimes_bad(st.sampled_from(["chain", "expandedchain", "dmst-chain"]),
                          st.just("tree")),
       agents=sometimes_bad(st.integers(2, 4).map(str),
                            st.sampled_from(["-1", "0", "1", "x", "2.5", "", "100000"])),
       blocks=sometimes_bad(st.integers(1, 6).map(str),
                            st.sampled_from(["-1", "0", "x", "1e3", "1000000"])),
       base=sometimes_bad(
           st.one_of(st.none(), st.fractions(F(1, 2), 3, max_denominator=16).map(str)),
           st.sampled_from(["0", "-1", "1/0", "1e-3", "x", ""])),
       eps=sometimes_bad(
           st.one_of(st.none(), st.fractions(F(1, 64), F(1, 3), max_denominator=64).map(str)),
           st.sampled_from(["0", "-1/4", "5", "1/0", "x", f"1/{2**70}"])),
       missing_dir=sometimes_bad(st.just(False), st.just(True)))
def test_gen_files_load_back_to_the_instance_gen_built(
        tmp_path_factory, kind, agents, blocks, base, eps, missing_dir):
    work = tmp_path_factory.getbasetemp() / "gen-round-trip"
    work.mkdir(exist_ok=True)
    out = work / "missing" / "x.json" if missing_dir else work / "x.json"
    out.unlink(missing_ok=True)
    argv = ["gen", kind, f"--agents={agents}", f"--blocks={blocks}", f"--out={out}"]
    argv += [f"{option}={value}" for option, value in (("--base", base), ("--eps", eps))
             if value is not None]
    err = io.StringIO()
    with mock.patch.object(cli, "dump_instance", wraps=graphs.dump_instance) as dump, \
            contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    event(f"exit {code}")
    assert code in (0, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    assert out.exists() == (code == 0), argv
    if code == 0:
        assert load_instance(out) == dump.call_args.args[0], argv


# -- solve --------------------------------------------------------------------


def test_solve_minsum(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    main(["gen", "chain", "--agents", "2", "--blocks", "2", "--out", str(inst)])
    code, doc = run(capsys, "solve", "--instance", str(inst),
                    "--objective", "minsum")
    assert code == 0
    assert doc["value"] == "2"


def test_solve_minmax(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    main(["gen", "chain", "--agents", "2", "--blocks", "3", "--out", str(inst)])
    code, doc = run(capsys, "solve", "--instance", str(inst),
                    "--objective", "minmax")
    assert code == 0
    assert doc["value"] == "2"


def test_solve_missing_file_is_usage_error(capsys):
    code = main(["solve", "--instance", "/nonexistent.json"])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["gen", "dmst-chain", "--agents", "2", "--blocks", "2", "--out", "{missing}/x.json"],
    ["solve", "--instance", "{inst}", "--out", "{missing}/y.json"],
    ["vcg", "--instance", "{missing}/z.json"],
])
def test_io_errors_are_usage_errors(tmp_path, capsys, argv):
    inst, missing = tmp_path / "chain.json", tmp_path / "missing"
    main(["gen", "chain", "--agents", "2", "--blocks", "2", "--out", str(inst)])
    assert main([arg.format(inst=inst, missing=missing) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: [Errno 2] No such file or directory: ")
    assert "Traceback" not in captured.err and not missing.exists()


def test_solve_minmax_on_a_1500_node_path(tmp_path, capsys):
    from minmax_procurement import Edge, Instance, PATH, dump_instance
    path = tmp_path / "long.json"
    edges = tuple(Edge(i, i, i + 1, 1, F(1)) for i in range(1499))
    dump_instance(Instance(False, 1500, edges, 1, PATH, 0, 1499), path)
    code, doc = run(capsys, "solve", "--instance", str(path), "--objective", "minmax")
    assert code == 0
    assert doc["value"] == "1499" and doc["witness"] == list(range(1499))


@pytest.mark.parametrize("nodes, directed", [(14, True), (12, False)])
def test_solve_minmax_on_a_dense_instance_exits_at_the_budget(
        tmp_path, capsys, monkeypatch, nodes, directed):
    from minmax_procurement import ARBORESCENCE, Edge, Instance, PATH, dump_instance
    pairs = [(u, v) for u in range(nodes) for v in range(nodes)
             if u != v and (directed or u < v)]
    edges = tuple(Edge(i, u, v, 1 + i % 2, F(1)) for i, (u, v) in enumerate(pairs))
    path = tmp_path / "dense.json"
    dump_instance(Instance(directed, nodes, edges, 2, ARBORESCENCE if directed else PATH,
                           0, 0 if directed else nodes - 1), path)
    monkeypatch.setattr(cli.solvers, "BRUTE_STEP_BUDGET", 1000)  # keeps the run quick
    assert main(["solve", "--instance", str(path), "--objective", "minmax"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "budget" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["solve", "--instance", "{inst}", "--objective", "minmax", "--limit", "1500"],
    ["ptas", "--instance", "{inst}", "--epsilon", "1/4", "--check-against-bruteforce",
     "--limit", "16"],
    ["adversary", "run", "--agents", "2", "--blocks", "4", "--csv", "{csv}"],
])
def test_removed_options_are_usage_errors(tmp_path, capsys, argv):
    inst, csv = tmp_path / "chain.json", tmp_path / "sweep.csv"
    main(["gen", "chain", "--agents", "2", "--blocks", "2", "--out", str(inst)])
    assert main([arg.format(inst=inst, csv=csv) for arg in argv]) == 2
    assert capsys.readouterr().out == ""
    assert not csv.exists()


# -- vcg ----------------------------------------------------------------------


def test_vcg_report_table(tmp_path, capsys):
    inst_path = tmp_path / "par.json"
    from minmax_procurement import Edge, Instance, PATH, dump_instance
    inst = Instance(False, 2, (Edge(0, 0, 1, 1, F(1)), Edge(1, 0, 1, 2, F(3))),
                    2, PATH, 0, 1)
    dump_instance(inst, inst_path)
    code, doc = run(capsys, "vcg", "--instance", str(inst_path))
    assert code == 0
    assert doc["allocation"] == [0]
    rows = {row["agent"]: row for row in doc["agents"]}
    assert rows[1]["payment"] == "3" and rows[1]["utility"] == "2"
    assert rows[2]["payment"] == "0" and rows[2]["selected_edge_ids"] == []


def test_vcg_pivotal_instance_is_reported_as_error(tmp_path, capsys):
    inst_path = tmp_path / "single.json"
    from minmax_procurement import Edge, Instance, PATH, dump_instance
    inst = Instance(False, 2, (Edge(0, 0, 1, 1, F(1)),), 1, PATH, 0, 1)
    dump_instance(inst, inst_path)
    assert main(["vcg", "--instance", str(inst_path)]) == 2


# -- ptas ---------------------------------------------------------------------


def test_ptas_with_bruteforce_check(tmp_path, capsys):
    inst = tmp_path / "exp.json"
    main(["gen", "expandedchain", "--agents", "2", "--blocks", "2",
          "--eps", "1/8", "--out", str(inst)])
    code, doc = run(capsys, "ptas", "--instance", str(inst),
                    "--epsilon", "1/4", "--check-against-bruteforce")
    assert code == 0
    assert doc["bound_satisfied"] is True
    assert F(doc["value"]) <= F(doc["bound"])


def test_ptas_meets_its_bound_on_a_ten_block_chain(tmp_path, capsys):
    inst = tmp_path / "chain.json"
    main(["gen", "chain", "--agents", "2", "--blocks", "10", "--out", str(inst)])
    code, doc = run(capsys, "ptas", "--instance", str(inst),
                    "--epsilon", "2/5", "--check-against-bruteforce")
    assert code == 0
    assert (doc["value"], doc["bruteforce_optimum"], doc["bound_satisfied"]) == ("5", "5", True)


def test_ptas_with_epsilon_past_n_times_the_path_length(tmp_path, capsys):
    # eps = 100 > n (V - 1) = 10: delta exceeds every kept cost, so every
    # weight is delta and the weight ratio is 1
    inst = tmp_path / "exp.json"
    main(["gen", "expandedchain", "--agents", "2", "--blocks", "2", "--out", str(inst)])
    code, doc = run(capsys, "ptas", "--instance", str(inst),
                    "--epsilon", "100", "--check-against-bruteforce")
    assert code == 0 and doc["bound_satisfied"] is True


def test_ptas_rejects_bad_epsilon(tmp_path, capsys):
    inst = tmp_path / "exp.json"
    main(["gen", "chain", "--agents", "2", "--blocks", "2", "--out", str(inst)])
    assert main(["ptas", "--instance", str(inst), "--epsilon", "zero"]) == 2


@pytest.mark.parametrize("epsilon", ["0", "-1/2"])
def test_ptas_non_positive_epsilon_is_usage_error(tmp_path, capsys, epsilon):
    inst = tmp_path / "chain.json"
    main(["gen", "chain", "--agents", "2", "--blocks", "2", "--out", str(inst)])
    assert main(["ptas", "--instance", str(inst), f"--epsilon={epsilon}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "must be positive" in err


def test_ptas_on_arborescence_instance_is_usage_error(tmp_path, capsys):
    inst = tmp_path / "dmst.json"
    main(["gen", "dmst-chain", "--agents", "2", "--blocks", "2", "--out", str(inst)])
    assert main(["ptas", "--instance", str(inst), "--epsilon", "1/4"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "path instances only" in err


def test_ptas_reports_label_count_from_one_run(tmp_path, capsys):
    inst = tmp_path / "exp.json"
    main(["gen", "expandedchain", "--agents", "2", "--blocks", "2",
          "--eps", "1/8", "--out", str(inst)])
    code, doc = run(capsys, "ptas", "--instance", str(inst), "--epsilon", "1/16")
    assert code == 0
    report = minmax_ptas(load_instance(inst), F(1, 16))
    assert doc["label_count_at_target"] == report.label_count > 0
    assert (F(doc["delta"]), F(doc["baseline_shortest_path"])) == (report.delta, report.baseline_sp)


# -- audit --------------------------------------------------------------------


def test_audit_monotonicity(capsys):
    code, doc = run(capsys, "audit", "monotonicity", "--alg", "vcg",
                    "--trials", "40", "--seed", "7")
    assert code == 0
    assert doc["passes"] == 40 and doc["violations"] == []


def test_audit_truthfulness(capsys):
    code, doc = run(capsys, "audit", "truthfulness", "--alg", "vcg",
                    "--trials", "40", "--seed", "7")
    assert code == 0
    assert doc["passes"] == 40


def test_audit_jobs_is_a_usage_error(capsys):
    assert main(["audit", "truthfulness", "--trials", "4", "--jobs", "4"]) == 2
    assert capsys.readouterr().out == ""


def test_audit_config_echoes_exactly_kind_alg_trials_and_seed(capsys):
    _, doc = run(capsys, "audit", "monotonicity", "--trials", "3", "--seed", "5")
    assert doc["config"] == {"alg": "vcg", "kind": "monotonicity", "seed": 5, "trials": 3}


def test_audit_negative_trials_is_a_usage_error(capsys):
    assert main(["audit", "truthfulness", "--trials", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--trials" in captured.err and "Traceback" not in captured.err


def test_audit_trials_past_the_limit_are_a_usage_error(capsys):
    assert main(["audit", "truthfulness", "--trials", str(cli.MAX_TRIALS + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--trials must be at most {cli.MAX_TRIALS}" in captured.err
    assert "Traceback" not in captured.err


def test_audit_is_seed_reproducible(capsys):
    _, first = run(capsys, "audit", "monotonicity", "--trials", "20", "--seed", "3")
    _, again = run(capsys, "audit", "monotonicity", "--trials", "20", "--seed", "3")
    assert first == again


def test_audit_unknown_algorithm(capsys):
    assert main(["audit", "monotonicity", "--alg", "mystery"]) == 2


# -- adversary ----------------------------------------------------------------


def test_adversary_run_vcg(capsys):
    code, doc = run(capsys, "adversary", "run", "--alg", "vcg",
                    "--agents", "2", "--blocks", "16", "--mode", "path")
    assert code == 0
    assert doc["outcome"] == "ratio"
    ratio = F(doc["ratio"]["certified_ratio"])
    assert ratio >= F(doc["ratio"]["guaranteed_bound"])


def test_adversary_run_chain_exact_emits_violation(capsys):
    code, doc = run(capsys, "adversary", "run", "--alg", "chain-exact",
                    "--agents", "2", "--blocks", "12", "--mode", "path")
    assert code == 0
    assert doc["outcome"] == "monotonicity-violation"
    assert doc["violation_reverified"] is True


def test_adversary_run_dmst(capsys):
    code, doc = run(capsys, "adversary", "run", "--alg", "vcg",
                    "--agents", "2", "--blocks", "16", "--mode", "dmst")
    assert code == 0
    assert doc["outcome"] == "ratio"


def test_reports_carry_no_floats(capsys):
    _, doc = run(capsys, "adversary", "run", "--alg", "vcg",
                 "--agents", "2", "--blocks", "8", "--mode", "path")

    def walk(obj):
        if isinstance(obj, float):
            raise AssertionError("float leaked into a report")
        if isinstance(obj, dict):
            for v in obj.values():
                walk(v)
        elif isinstance(obj, list):
            for v in obj:
                walk(v)

    walk(doc)


# -- one parser per process ---------------------------------------------------


def test_reused_parser_gives_the_bytes_of_fresh_parsers(tmp_path, capsys):
    inst = tmp_path / "chain.json"
    assert main(["gen", "chain", "--agents", "2", "--blocks", "3", "--out", str(inst)]) == 0
    calls = [
        ["solve", "--instance", str(inst)],
        ["vcg", "--instance", str(inst)],
        ["ptas", "--instance", str(inst), "--epsilon", "1/4"],
        ["audit", "monotonicity", "--trials", "5", "--seed", "2"],
        ["adversary", "run", "--alg", "chain-exact", "--agents", "2", "--blocks", "5"],
        ["vcg"],  # usage error: --instance is required
        ["audit", "truthfulness", "--trials", "zero"],  # usage error
        ["frobnicate"],  # usage error
        ["solve", "--instance", str(inst), "--objective", "minmax"],
        ["--help"],
        ["adversary", "run", "--agents", "2", "--blocks", "4", "--mode", "dmst"],
    ]

    def outputs(fresh):
        results = []
        for argv in calls:
            if fresh:
                cli._parser.cache_clear()
            code = main(list(argv))
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results

    reused = outputs(fresh=False)
    assert cli._parser.cache_info().misses <= 1
    assert outputs(fresh=True) == reused
    assert [code for code, _, _ in reused] == [0, 0, 0, 0, 0, 2, 2, 2, 0, 0, 0]
    assert all(err.startswith("usage:") for _, _, err in reused[5:8])


# -- strict instance files ----------------------------------------------------


@pytest.mark.parametrize("field,value", [
    ("directed", "false"), ("nodes", 2.0), ("agents", True), ("source", "0"),
])
def test_coerced_instance_fields_are_usage_errors(tmp_path, capsys, field, value):
    inst = tmp_path / "chain.json"
    main(["gen", "chain", "--agents", "2", "--blocks", "1", "--out", str(inst)])
    data = json.loads(inst.read_text())
    data[field] = value
    inst.write_text(json.dumps(data))
    assert main(["solve", "--instance", str(inst)]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("field,value", [("tail", 0.9), ("cost", 0.1), ("owner", True)])
def test_coerced_edge_fields_are_usage_errors(tmp_path, capsys, field, value):
    inst = tmp_path / "chain.json"
    main(["gen", "chain", "--agents", "2", "--blocks", "1", "--out", str(inst)])
    data = json.loads(inst.read_text())
    data["edges"][0][field] = value
    inst.write_text(json.dumps(data))
    assert main(["vcg", "--instance", str(inst)]) == 2
    assert field in capsys.readouterr().err


def test_zero_denominator_cost_is_a_usage_error(tmp_path, capsys):
    inst = tmp_path / "chain.json"
    main(["gen", "chain", "--agents", "2", "--blocks", "1", "--out", str(inst)])
    data = json.loads(inst.read_text())
    data["edges"][1]["cost"] = "1/0"
    inst.write_text(json.dumps(data))
    assert main(["solve", "--instance", str(inst)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: edge 1 cost '1/0' has a zero denominator\n"


@pytest.mark.parametrize("nodes", [graphs.MAX_FILE_NODES + 1, 10**12])
@pytest.mark.parametrize("command", ["solve", "vcg", "ptas"])
def test_instance_files_past_the_node_limit_are_usage_errors(tmp_path, capsys, nodes, command):
    # the edges are malformed too: the node count is refused before any is read
    inst = tmp_path / "chain.json"
    main(["gen", "chain", "--agents", "2", "--blocks", "1", "--out", str(inst)])
    data = json.loads(inst.read_text())
    data["nodes"] = nodes
    data["edges"][0]["cost"] = 0.5
    inst.write_text(json.dumps(data))
    extra = ["--epsilon", "1/4"] if command == "ptas" else []
    assert main([command, "--instance", str(inst), *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: nodes {nodes} is above the limit of "
                            f"{graphs.MAX_FILE_NODES}\n")


def test_instance_files_past_the_edge_limit_are_usage_errors(tmp_path, capsys, monkeypatch):
    inst = tmp_path / "chain.json"
    main(["gen", "chain", "--agents", "2", "--blocks", "2", "--out", str(inst)])
    monkeypatch.setattr(graphs, "MAX_FILE_EDGES", 3)
    assert main(["solve", "--instance", str(inst)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: edges has 4 entries, above the limit of 3\n"


def test_instance_files_past_the_agent_limit_are_usage_errors(tmp_path, capsys, monkeypatch):
    # the edges are malformed too: the agent count is refused before any is read
    inst = tmp_path / "chain.json"
    main(["gen", "chain", "--agents", "3", "--blocks", "1", "--out", str(inst)])
    data = json.loads(inst.read_text())
    data["edges"][0]["cost"] = 0.5
    inst.write_text(json.dumps(data))
    monkeypatch.setattr(graphs, "MAX_FILE_AGENTS", 2)
    assert main(["vcg", "--instance", str(inst)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: agents 3 is above the limit of 2\n"
    main(["gen", "chain", "--agents", "2", "--blocks", "1", "--out", str(inst)])
    assert main(["vcg", "--instance", str(inst)]) == 0


@pytest.mark.parametrize("agents, blocks", [(2, 3), (3, 2)])
def test_chain_exact_on_dmst_is_refused_before_any_work(monkeypatch, capsys, agents, blocks):
    def no_build(*args):
        raise AssertionError("the adversary instance was built")

    monkeypatch.setattr(cli.adv, "build_adversary_instance", no_build)
    code = main(["adversary", "run", "--alg", "chain-exact", "--mode", "dmst",
                 "--agents", str(agents), "--blocks", str(blocks)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: chain-exact") and "--mode path" in captured.err


# -- exit codes on generated instance files -----------------------------------


@st.composite
def instance_docs(draw):
    """A small instance document in the file format; not always feasible."""
    nodes = draw(st.integers(1, 6))
    agents = draw(st.integers(1, 4))
    node = st.integers(0, nodes - 1)
    cost = st.one_of(st.integers(0, 9),
                     st.fractions(0, 9, max_denominator=6).map(str))
    edges = draw(st.lists(st.fixed_dictionaries({
        "tail": node, "head": node, "owner": st.integers(1, agents), "cost": cost}),
        max_size=10))
    for i, edge in enumerate(edges):
        edge["id"] = i
    return {"version": 1, "directed": draw(st.booleans()), "nodes": nodes,
            "mode": draw(st.sampled_from(["path", "arborescence"])),
            "source": draw(node), "target_or_root": draw(node), "agents": agents,
            "edges": edges}


JUNK = st.one_of(st.none(), st.booleans(), st.integers(-3, 10_000),
                 st.floats(allow_nan=True), st.text(max_size=4),
                 st.sampled_from(["1/0", "1e3", "-1", "1/2", "x/y"]),
                 st.lists(st.integers(0, 3), max_size=2), st.just({}))


@st.composite
def instance_files(draw):
    """The text of an instance file: valid, with one field replaced by junk
    or deleted, or not an instance document at all."""
    doc = draw(instance_docs())
    how = draw(st.sampled_from(["valid", "field", "edge field", "text"]))
    if how == "text":
        return draw(st.one_of(st.text(max_size=20), st.sampled_from(
            ["[]", "null", "3", '"x"', "{", json.dumps(doc)[:-1]])))
    record = doc
    if how == "edge field" and doc["edges"]:
        record = draw(st.sampled_from(doc["edges"]))
    if how != "valid":
        key = draw(st.sampled_from(sorted(record)))
        if draw(st.booleans()):
            del record[key]
        else:
            record[key] = draw(JUNK)
    return json.dumps(doc)


@settings(max_examples=300, deadline=None)
@given(text=instance_files())
def test_vcg_and_solve_exit_0_1_or_2_without_a_traceback(tmp_path_factory, text):
    work = tmp_path_factory.getbasetemp() / "exit-codes"
    work.mkdir(exist_ok=True)
    path = work / "generated.json"
    path.write_text(text)
    for argv in (["vcg"], ["solve"], ["solve", "--objective", "minmax"]):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([*argv, "--instance", str(path), "--out", str(work / "out.json")])
        assert code in (0, 1, 2), (argv, text)
        assert "Traceback" not in err.getvalue(), (argv, text)


EPSILONS = ["1/4", "1", "0", "-1", f"1/{2**49}", str(2**49)]


@settings(max_examples=150, deadline=None)
@given(text=instance_files(), epsilon=st.sampled_from(EPSILONS))
def test_ptas_exits_0_1_or_2_without_a_traceback(tmp_path_factory, text, epsilon):
    work = tmp_path_factory.getbasetemp() / "exit-codes"
    work.mkdir(exist_ok=True)
    path = work / "generated-ptas.json"
    path.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["ptas", "--instance", str(path), f"--epsilon={epsilon}",
                     "--out", str(work / "out.json")])
    assert code in (0, 1, 2), (epsilon, text)
    assert "Traceback" not in err.getvalue(), (epsilon, text)


HELPER_COSTS = st.one_of(st.fractions(-1, 2, max_denominator=64).map(str),
                         st.sampled_from(["1/0", "1e-3", "x", f"1/{2**70}"]))


@settings(max_examples=150, deadline=None)
@given(agents=st.integers(2, 3), blocks=st.integers(1, 12),
       mode=st.sampled_from(["path", "dmst"]), alg=st.sampled_from(cli.ALGORITHMS),
       eps=st.one_of(st.none(), HELPER_COSTS))
def test_adversary_run_exits_0_1_or_2_without_a_traceback(agents, blocks, mode, alg, eps):
    argv = ["adversary", "run", "--alg", alg, "--agents", str(agents),
            "--blocks", str(blocks), "--mode", mode]
    if eps is not None:
        argv.append(f"--eps={eps}")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv


AUDIT_TOKENS = st.one_of(
    st.sampled_from(["extra", "-", "--", "-x", "--jobs", "2", "--alg", "--seed", "--trials",
                     "--seed=x", "--trials=1.5", "1/2", "-1", "monotonicity", "vcg"]),
    st.text(max_size=3))
VALID_TRIALS = st.sampled_from(["0", "1", "2", "3"])
TRIALS = st.one_of(VALID_TRIALS, VALID_TRIALS,
                   st.sampled_from(["-1", str(cli.MAX_TRIALS + 1), "x", "", "1e2"]))
SEEDS = st.one_of(st.integers(-2**70, 2**70).map(str),
                  st.sampled_from(["-1", str(2**64), str(2**64 + 1), "0x10", "1.0"]))


@st.composite
def audit_argv(draw):
    """`audit` with a kind, --alg, --seed and junk tokens in any order or
    missing, then --trials and --out: the last --trials and --out win, so
    no run takes the default 100 trials and no junk token redirects --out."""
    pieces = [[draw(AUDIT_TOKENS)] for _ in range(draw(st.sampled_from([0, 0, 0, 0, 1, 2])))]
    if draw(st.integers(0, 9)):
        kind = st.sampled_from(["monotonicity", "truthfulness"])
        pieces.append([draw(kind if draw(st.integers(0, 8)) else AUDIT_TOKENS)])
    if draw(st.booleans()):
        pieces.append(["--alg", draw(st.sampled_from(["vcg", "vcg", "vcg", "chain-exact", ""]))])
    if draw(st.booleans()):
        pieces.append(["--seed", draw(SEEDS)])
    argv = ["audit"] + [token for piece in draw(st.permutations(pieces)) for token in piece]
    trials = draw(TRIALS)
    return argv + (["--trials", trials] if draw(st.booleans()) else [f"--trials={trials}"])


@settings(max_examples=200, deadline=None)
@given(argv=audit_argv())
def test_audit_exits_0_1_or_2_without_a_traceback(tmp_path_factory, argv):
    work = tmp_path_factory.getbasetemp() / "exit-codes"
    work.mkdir(exist_ok=True)
    out = work / "audit.json"
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([*argv, "--out", str(out)])
    event(f"exit {code}")
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    if out.exists():  # written only by a run that exits 0 or 1
        assert code in (0, 1), argv
        assert json.loads(out.read_text())["command"] == "audit"


# -- exit codes on argv of any subcommand ---------------------------------------

# every subcommand's options; test_option_inventory_is_pinned checks the parser
OPTIONS = {
    "gen": ["--agents", "--blocks", "--base", "--eps", "--out"],
    "solve": ["--instance", "--objective", "--out"],
    "vcg": ["--instance", "--out"],
    "ptas": ["--instance", "--epsilon", "--check-against-bruteforce", "--out"],
    "audit": ["--alg", "--trials", "--seed", "--out"],
    "adversary run": ["--alg", "--agents", "--blocks", "--mode", "--eps", "--out"],
}
POSITIONALS = {"gen": ["chain", "expandedchain", "dmst-chain"],
               "audit": ["monotonicity", "truthfulness"]}
# per option: (values it takes, values it refuses); file names are relative to
# the test's directory, where each run starts with three instances and a
# report that is not one, and "." is the directory itself
OPTION_VALUES = {
    "--agents": (["2", "3", "4"], ["1", "0", "-1", "x", "100000"]),
    "--blocks": (["1", "2", "3", "5"], ["0", "-1", "1e3", "1000000"]),
    "--base": (["1", "3/2", "2"], ["0", "-1", "1/0", "1e-3"]),
    "--eps": (["1/8", "1/5", "1/3"], ["0", "5", "1/0", "x", f"1/{2**70}"]),
    "--epsilon": (["1/4", "1", "1/16"], ["0", "-1", f"1/{2**49}", str(2**49), "x"]),
    "--objective": (["minsum", "minmax"], ["max"]),
    "--alg": (["vcg", "chain-exact"], ["minmax", ""]),
    "--mode": (["path", "dmst"], ["tree"]),
    "--trials": (["0", "1", "3"], ["-1", str(cli.MAX_TRIALS + 1), "1.5"]),
    "--seed": (["0", "7", str(2**64)], ["-1.5", "0x10"]),
    "--instance": (["chain.json", "exp.json", "dmst.json"], ["report.json", "missing.json", "."]),
    "--out": (["out.json"], ["missing/out.json", "."]),
}
FLAGS = {"--check-against-bruteforce"}
WORDS = ["gen", "solve", "vcg", "ptas", "audit", "adversary", "run", "-h", "--jobs", "-",
         "--", "x", *POSITIONALS["gen"], *POSITIONALS["audit"]]


def option_piece(option, clean=False):
    if option in FLAGS:
        return st.just([option])
    good, bad = OPTION_VALUES[option]
    values = st.sampled_from(good) if clean else sometimes_bad(st.sampled_from(good),
                                                               st.sampled_from(bad))
    return values.map(lambda value: [option, value])


STRAY = st.one_of(
    st.sampled_from(sorted({o for options in OPTIONS.values() for o in options})).flatmap(
        option_piece),
    st.sampled_from(WORDS).map(lambda word: [word]),
    st.text(max_size=3).map(lambda text: [text]))


@st.composite
def any_argv(draw):
    """Half the time a subcommand with all its options, good values and its
    positional, in any order; else most of that, a bad value now and then,
    and tokens of other subcommands or junk."""
    command = draw(st.sampled_from(sorted(OPTIONS)))
    clean = not draw(st.booleans())  # the simplest draw is the clean command
    pieces = [draw(option_piece(option, clean)) for option in OPTIONS[command]
              if clean or draw(st.integers(0, 7))]
    if command in POSITIONALS and (clean or draw(st.integers(0, 7))):
        pieces.append([draw(st.sampled_from(POSITIONALS[command]))])
    if not clean:
        pieces += [draw(STRAY) for _ in range(draw(st.sampled_from([0, 1, 2])))]
    head = command.split()
    if not (clean or draw(st.integers(0, 9))):
        head = [draw(st.sampled_from(WORDS))]
    return head + [token for piece in draw(st.permutations(pieces)) for token in piece]


def fresh_directory(base):
    from minmax_procurement import ChainSpec, dump_instance, gen_chain
    from minmax_procurement.adversary import build_adversary_instance
    work = base / "any-argv"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    spec = ChainSpec(2, 2)
    dump_instance(gen_chain(spec), work / "chain.json")
    dump_instance(build_adversary_instance(spec, "path")[0], work / "exp.json")
    dump_instance(build_adversary_instance(spec, "dmst")[0], work / "dmst.json")
    (work / "report.json").write_text('{"command": "vcg"}\n')
    return work


@settings(max_examples=300, deadline=None)
@given(argv=any_argv())
def test_any_argv_exits_0_1_or_2_without_a_traceback(tmp_path_factory, argv):
    work = fresh_directory(tmp_path_factory.getbasetemp())
    cwd = os.getcwd()
    err = io.StringIO()
    try:
        # every relative name resolves in `work`, also one that an option
        # such as "--out" takes from a stray token
        os.chdir(work)
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    finally:
        os.chdir(cwd)
    event(f"{argv[0]} exit {code}")
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    if (work / "out.json").exists():  # written only by a run that exits 0 or 1
        assert code in (0, 1), argv


# -- instance files the JSON decoder refuses ------------------------------------


@pytest.mark.parametrize("content", [
    pytest.param(b"[" * 100_000 + b"]" * 100_000, id="nested-100000-deep"),
    pytest.param(b'{"nodes": ' + b"7" * 5000 + b"}", id="5000-digit-integer"),
    pytest.param(b"\xff\xfe\x00", id="bytes-ff-fe-00"),
])
def test_instance_files_the_decoder_refuses_are_usage_errors(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main(["vcg", "--instance", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: ") and captured.err.count("\n") == 1


def run_under_c_locale(*argv):
    """`main(argv)` in a fresh interpreter whose locale encoding is ASCII:
    LC_ALL=C, with UTF-8 mode off (LC_ALL also turns off locale coercion)."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("LC_") and k not in ("LANG", "PYTHONUTF8", "PYTHONPATH")}
    env.update(LC_ALL="C", PYTHONPATH=str(Path(cli.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-X", "utf8=0", "-c",
         "import sys; from minmax_procurement.cli import main; sys.exit(main(sys.argv[1:]))",
         *argv], env=env, capture_output=True, text=True, timeout=60)


def test_instance_files_are_read_as_utf8_whatever_the_locale(tmp_path):
    path = tmp_path / "inst.json"
    main(["gen", "chain", "--agents", "2", "--blocks", "1", "--out", str(path)])
    data = json.loads(path.read_text())
    data["edges"][0]["cost"] = "٣/٤"  # Arabic-Indic digits, 3/4
    path.write_bytes(json.dumps(data, ensure_ascii=False).encode("utf-8"))
    done = run_under_c_locale("solve", "--instance", str(path))
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(done.stdout)["value"] == "3/4"

    path.write_bytes(path.read_bytes().replace("٣".encode("utf-8"), b"\xff"))
    done = run_under_c_locale("solve", "--instance", str(path))
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith(f"error: {path}: 'utf-8' codec can't decode byte 0xff")
    assert done.stderr.count("\n") == 1


def test_a_json_syntax_error_names_its_line(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{\n"nodes": 2,\n}')
    assert main(["vcg", "--instance", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: line 3: ")


# -- refused rational inputs ---------------------------------------------------


@pytest.mark.parametrize("epsilon", ["1/1" + "0" * 3000, "1e-310", "1/" + str(2**64)])
def test_ptas_refuses_a_tiny_epsilon(tmp_path, capsys, epsilon):
    inst = tmp_path / "exp.json"
    assert main(["gen", "expandedchain", "--agents", "2", "--blocks", "2",
                 "--out", str(inst)]) == 0
    assert main(["ptas", "--instance", str(inst), "--epsilon", epsilon]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "2^-48" in captured.err or "not a rational" in captured.err


@pytest.mark.parametrize("epsilon", ["1" + "0" * 400, str(2**48 + 1)],
                         ids=["10^400", "2^48+1"])
def test_ptas_refuses_a_huge_epsilon(tmp_path, capsys, epsilon):
    inst = tmp_path / "exp.json"
    assert main(["gen", "expandedchain", "--agents", "2", "--blocks", "2",
                 "--out", str(inst)]) == 0
    assert main(["ptas", "--instance", str(inst), "--epsilon", epsilon]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("error:") and "at most 2^48" in captured.err


def test_an_exponent_cost_in_a_file_is_a_usage_error(tmp_path, capsys):
    inst = tmp_path / "chain.json"
    main(["gen", "chain", "--agents", "2", "--blocks", "1", "--out", str(inst)])
    data = json.loads(inst.read_text())
    data["edges"][1]["cost"] = "1e3"
    inst.write_text(json.dumps(data))
    assert main(["solve", "--instance", str(inst)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: edge 1 cost '1e3': "
                            "exponent notation is not accepted: '1e3'\n")


@pytest.mark.parametrize("option", ["--eps", "--base"])
def test_gen_refuses_exponent_arguments(tmp_path, capsys, option):
    out = tmp_path / "x.json"
    code = main(["gen", "chain", "--agents", "2", "--blocks", "3", option, "1e-3",
                 "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "not a rational" in err and "Traceback" not in err
    assert not out.exists()


# -- option inventory ----------------------------------------------------------


def test_option_inventory_is_pinned():
    """Every subcommand's options; a new or removed option edits this test."""
    def options(parser, name=""):
        found = {}
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for sub, subparser in action.choices.items():
                    found.update(options(subparser, f"{name} {sub}".strip()))
            elif action.option_strings and not isinstance(action, argparse._HelpAction):
                found.setdefault(name, []).extend(action.option_strings)
        return found

    assert options(cli.build_parser()) == OPTIONS


@pytest.mark.parametrize("prefixed,full", [
    (["ptas", "--instance", "exp.json", "--eps", "1/4", "--out", "out.json"],
     ["ptas", "--instance", "exp.json", "--epsilon", "1/4", "--out", "out.json"]),
    (["gen", "expandedchain", "--ag", "2", "--bl", "2", "--o", "out.json"],
     ["gen", "expandedchain", "--agents", "2", "--blocks", "2", "--out", "out.json"]),
    (["audit", "monotonicity", "--tri", "2", "--o", "out.json"],
     ["audit", "monotonicity", "--trials", "2", "--out", "out.json"]),
    (["adversary", "run", "--ag", "2", "--bl", "2", "--o", "out.json"],
     ["adversary", "run", "--agents", "2", "--blocks", "2", "--out", "out.json"]),
], ids=["ptas", "gen", "audit", "adversary"])
def test_an_option_has_one_spelling(tmp_path, monkeypatch, capsys, prefixed, full):
    # argparse takes a unique prefix of an option for the option unless
    # allow_abbrev is off; every parser turns it off
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "expandedchain", "--agents", "2", "--blocks", "2",
                 "--out", "exp.json"]) == 0
    capsys.readouterr()
    assert main(prefixed) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage: ")
    assert not (tmp_path / "out.json").exists()
    assert main(full) == 0 and (tmp_path / "out.json").exists()
