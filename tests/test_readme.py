"""Every `shiftlab ...` line in README's sh blocks runs and succeeds."""

import re
import shlex
from pathlib import Path

import pytest

from shiftlab import cli

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
COMMANDS = [line for block in BLOCKS for line in block.splitlines()
            if line.startswith("shiftlab ")]


def test_readme_shows_commands():
    assert len(COMMANDS) >= 12


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_runs(line, capsys):
    assert cli.main(shlex.split(line)[1:]) == 0
    assert capsys.readouterr().out.strip()
