"""Golden report bytes: every subcommand's output, pinned by SHA-256.

Each op runs `cli.main` in a fresh working directory, so the file names the
reports echo are the same on every machine. An op's digest covers its
stdout, its stderr and the file it writes with --out, and the test checks
it together with the exit code. A change that should leave reports alone
must leave every digest alone.

When a report is meant to change, regenerate the digests and say why in
the change's notes:

    PYTHONPATH=src python tests/test_golden_reports.py

rewrites tests/golden_reports.json from the code as it stands.
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from minmax_procurement.cli import main

GOLDEN = Path(__file__).with_name("golden_reports.json")
# committed instance files copied into the working directory before the ops:
# two parallel 4-edge paths, one agent per edge, and one agent owning none
INPUTS = [Path(__file__).with_name("two_paths_4.json")]

# (name, argv, file written by --out or None), run in this order: later ops
# read the instance files the gen ops write
OPS = [
    ("gen-chain", ["gen", "chain", "--agents", "3", "--blocks", "2", "--base", "3/2",
                   "--out", "chain.json"], "chain.json"),
    ("gen-expandedchain", ["gen", "expandedchain", "--agents", "2", "--blocks", "2",
                           "--eps", "1/8", "--out", "exp.json"], "exp.json"),
    ("gen-dmst-chain", ["gen", "dmst-chain", "--agents", "2", "--blocks", "2",
                        "--out", "dmst.json"], "dmst.json"),
    ("solve-minsum", ["solve", "--instance", "dmst.json"], None),
    ("solve-minmax", ["solve", "--instance", "exp.json", "--objective", "minmax"], None),
    ("vcg-path", ["vcg", "--instance", "chain.json"], None),
    ("vcg-dmst-pivotal", ["vcg", "--instance", "dmst.json"], None),
    ("ptas-check", ["ptas", "--instance", "exp.json", "--epsilon", "1/4",
                    "--check-against-bruteforce"], None),
    ("ptas-out", ["ptas", "--instance", "chain.json", "--epsilon", "1/16",
                  "--out", "ptas.json"], "ptas.json"),
    ("audit-truthfulness", ["audit", "truthfulness", "--trials", "20", "--seed", "1"], None),
    ("audit-monotonicity", ["audit", "monotonicity", "--trials", "20", "--seed", "2"], None),
    ("adversary-vcg-path", ["adversary", "run", "--agents", "2", "--blocks", "4"], None),
    ("adversary-vcg-dmst", ["adversary", "run", "--mode", "dmst", "--agents", "3",
                            "--blocks", "2"], None),
    ("adversary-chain-exact-violation", ["adversary", "run", "--alg", "chain-exact",
                                         "--agents", "2", "--blocks", "4"], None),
    ("adversary-chain-exact-ratio", ["adversary", "run", "--alg", "chain-exact",
                                     "--agents", "3", "--blocks", "2", "--eps", "1/8"], None),
    ("adversary-chain-exact-3x12", ["adversary", "run", "--alg", "chain-exact",
                                    "--agents", "3", "--blocks", "12"], None),
    ("adversary-chain-exact-2x80", ["adversary", "run", "--alg", "chain-exact",
                                    "--agents", "2", "--blocks", "80"], None),
    ("adversary-chain-exact-4x5", ["adversary", "run", "--alg", "chain-exact",
                                   "--agents", "4", "--blocks", "5"], None),
    ("adversary-chain-exact-dmst-refused", ["adversary", "run", "--alg", "chain-exact",
                                            "--mode", "dmst", "--agents", "2",
                                            "--blocks", "2"], None),
    ("vcg-missing-file", ["vcg", "--instance", "missing.json"], None),
    ("gen-chain-eps-refused", ["gen", "chain", "--agents", "2", "--blocks", "2",
                               "--eps", "1/3", "--out", "refused.json"], None),
    ("adversary-vcg-dmst-2x64", ["adversary", "run", "--mode", "dmst", "--agents", "2",
                                 "--blocks", "64"], None),
    ("adversary-vcg-dmst-3x20", ["adversary", "run", "--mode", "dmst", "--agents", "3",
                                 "--blocks", "20"], None),
    ("adversary-chain-exact-2x79", ["adversary", "run", "--alg", "chain-exact",
                                    "--agents", "2", "--blocks", "79"], None),
    ("adversary-chain-exact-2x81", ["adversary", "run", "--alg", "chain-exact",
                                    "--agents", "2", "--blocks", "81"], None),
    ("vcg-two-paths", ["vcg", "--instance", "two_paths_4.json"], None),
]


def run_ops() -> dict[str, dict]:
    """Each op's exit code and the SHA-256 of its stdout, stderr and --out file."""
    results = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        for path in INPUTS:
            shutil.copy(path, work)
        os.chdir(work)
        try:
            for name, argv, written in OPS:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
                digest = hashlib.sha256()
                digest.update(out.getvalue().encode() + b"\0" + err.getvalue().encode() + b"\0")
                if written is not None:
                    digest.update(Path(written).read_bytes())
                results[name] = {"exit": code, "sha256": digest.hexdigest()}
        finally:
            os.chdir(cwd)
    return results


@pytest.fixture(scope="module")
def results():
    return run_ops()


def test_the_golden_file_names_every_op():
    assert list(json.loads(GOLDEN.read_text())) == [name for name, _, _ in OPS]


@pytest.mark.parametrize("name", [name for name, _, _ in OPS])
def test_report_bytes_and_exit_code_are_unchanged(results, name):
    assert results[name] == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(run_ops(), indent=1) + "\n")
    sys.exit(0)
