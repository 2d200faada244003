"""Every Python example and every CLI command in README.md runs."""

import re
import shlex
from pathlib import Path

import pytest

from minmax_procurement import cli

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
COMMANDS = [line for block in re.findall(r"^```sh\n(.*?)^```", TEXT, re.M | re.S)
            for line in block.splitlines() if line.startswith("minmax-procurement ")]


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(source):
    exec(compile(source, str(README), "exec"), {"__name__": "readme"})


def test_readme_cli_commands_exit_0(tmp_path, monkeypatch, capsys):
    """The commands run in order, in one directory: the later ones read the
    files that the `gen` lines write."""
    assert COMMANDS
    monkeypatch.chdir(tmp_path)
    for line in COMMANDS:
        assert cli.main(shlex.split(line)[1:]) == 0, line
        assert not capsys.readouterr().err, line
