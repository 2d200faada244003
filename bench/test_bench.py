"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import run
import workloads

BENCHMARK_JSON = run.ROOT / "BENCHMARK.json"
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_workload_runs_tiny_without_errors(name):
    result = run.run(name, seed=7, seconds=0.1, trace=False, tiny=True)
    assert result["attempted"] >= 2 * 8
    assert result["failed"] == 0 and result["correct"]
    assert result["metrics"]["success_rate"]["value"] == 1.0
    assert [m for m, _, _ in run.END_TO_END] == list(result["metrics"])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_run_reports_every_layer_metric(name):
    result = run.run(name, seed=7, seconds=0.1, trace=True, tiny=True)
    assert result["failed"] == 0
    assert [m for m, _, _ in run.PER_LAYER] == list(result["metrics"])


@pytest.mark.parametrize("n, ranks", [(200, (100, 180)), (100, (50, 90)), (40, (20, 30)), (5, (1, 1))])
def test_p90_leaves_ten_op_times_beyond_it_below_100_ops(n, ranks):
    assert run.percentile_ranks(n) == ranks


def _counts(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in ("count", "B")}


def test_layer_counts_repeat_exactly_and_show_known_waste(tmp_path):
    first = run.run("ptas-eps", seed=3, seconds=0.1, trace=True, tiny=True)
    second = run.run("ptas-eps", seed=3, seconds=0.3, trace=True, tiny=True)
    assert _counts(first) == _counts(second)
    ops = len(workloads.build("ptas-eps", 3, tmp_path, tiny=True).cycle)
    # cmd_ptas runs the Pareto DP a second time to count labels
    assert first["metrics"]["pareto.pareto_eps.calls"]["value"] == 2 * ops

    minsum = run.run("minsum-large", seed=3, seconds=0.1, trace=True, tiny=True)
    workload = workloads.build("minsum-large", 3, tmp_path, tiny=True)
    vcg_ops = sum(op.kind == "vcg" for op in workload.cycle)
    dmst_solves = minsum["metrics"]["adversary.alg_calls"]["value"]
    # n + 1 = 4 min-sum solves per vcg op on 3 agents; one per adversary step
    assert minsum["metrics"]["vcg.min_sum_solves"]["value"] == 4 * vcg_ops + dmst_solves


def _raise_payment(doc):
    doc["agents"][0]["payment"] = str(Fraction(doc["agents"][0]["payment"]) + 1)


def _drop_violation_flag(doc):
    doc["violation_reverified"] = False


def _raise_first_term(doc):
    # the inequality still holds; only recomputing the terms catches it
    terms = doc["violation"]["terms"]
    terms[0] = str(Fraction(terms[0]) + 1)


def _inflate_value(doc):
    doc["value"] = "1000"


def _hide_violation(doc):
    doc["passes"] -= 1


@pytest.mark.parametrize("name, kind, corrupt", [
    ("minsum-large", "vcg", _raise_payment),
    ("adversary-chain-exact", "adversary-chain-exact-path-2", _drop_violation_flag),
    ("adversary-chain-exact", "adversary-chain-exact-path-2", _raise_first_term),
    ("ptas-eps", "ptas-1/4", _inflate_value),
    ("audit-small", "audit-truthfulness", _hide_violation),
])
def test_corrupted_report_counts_as_failure(tmp_path, name, kind, corrupt):
    _, cli, workload = run.setup(name, 5, tmp_path, tiny=True)
    op = next(op for op in workload.cycle if op.kind == kind)
    runner = run.Runner(cli)
    assert runner.run(op)[1]

    def corrupting_main(argv):
        code = cli.main(argv)
        out = Path(argv[argv.index("--out") + 1])
        doc = json.loads(out.read_text())
        corrupt(doc)
        out.write_text(json.dumps(doc))
        return code

    runner.cli = SimpleNamespace(main=corrupting_main)
    assert not runner.run(op)[1]
    assert runner.failed == 1 and runner.attempted == 2

    # the check alone rejects it too, not only the byte-identity comparison
    doc = json.loads(op.out.read_text())
    with pytest.raises(workloads.CheckFailed):
        op.check(doc)


def test_metric_names_are_valid_and_match_benchmark_json():
    defs = run.END_TO_END + run.PER_LAYER
    names = [name for name, _, _ in defs]
    assert len(names) == len(set(names))
    for name in names:
        assert METRIC_NAME.fullmatch(name), name
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
