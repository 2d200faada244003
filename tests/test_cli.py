"""End-to-end command-line harness tests."""

import argparse
import json
from fractions import Fraction

import pytest

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

    assert options(cli.build_parser()) == {
        "gen": ["--agents", "--blocks", "--base", "--eps", "--out"],
        "solve": ["--instance", "--objective", "--out"],
        "vcg": ["--instance", "--out"],
        "ptas": ["--instance", "--epsilon", "--check-against-bruteforce", "--out"],
        "audit": ["--alg", "--trials", "--seed", "--out"],
        "adversary run": ["--alg", "--agents", "--blocks", "--mode", "--eps", "--out"],
    }
