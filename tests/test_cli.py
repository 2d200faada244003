"""End-to-end command-line harness tests."""

import json
from fractions import Fraction

import pytest

from minmax_procurement import load_instance, minmax_ptas
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


def test_audit_truthfulness_parallel_jobs(capsys):
    code, doc = run(capsys, "audit", "truthfulness", "--alg", "vcg",
                    "--trials", "40", "--seed", "7", "--jobs", "4")
    assert code == 0
    assert doc["passes"] == 40


def test_audit_is_seed_reproducible(capsys):
    _, first = run(capsys, "audit", "monotonicity", "--trials", "20", "--seed", "3")
    _, again = run(capsys, "audit", "monotonicity", "--trials", "20", "--seed", "3")
    assert first == again


def test_audit_unknown_algorithm(capsys):
    assert main(["audit", "monotonicity", "--alg", "mystery"]) == 2


# -- adversary ----------------------------------------------------------------


def test_adversary_run_vcg(tmp_path, capsys):
    csv = tmp_path / "sweep.csv"
    code, doc = run(capsys, "adversary", "run", "--alg", "vcg",
                    "--agents", "2", "--blocks", "16", "--mode", "path",
                    "--csv", str(csv))
    assert code == 0
    assert doc["outcome"] == "ratio"
    ratio = F(doc["ratio"]["certified_ratio"])
    assert ratio >= F(doc["ratio"]["guaranteed_bound"])
    row = csv.read_text().strip().split(",")
    assert row[0] == "path" and row[4] == "ratio"


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
