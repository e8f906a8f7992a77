"""README drift: every repository path and every `reachrrt.cli` subcommand
that README.md names must exist."""

import os
import re

import pytest

from reachrrt.cli import main

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
README = open(os.path.join(ROOT, "README.md")).read()


def test_readme_paths_exist():
    paths = {p.rstrip(".") for p in
             re.findall(r"\b(?:scripts|scenarios|tests)/[\w./-]*", README)}
    assert paths
    missing = sorted(p for p in paths if not os.path.exists(os.path.join(ROOT, p)))
    assert missing == []


def test_readme_subcommands_exist(capsys):
    commands = set(re.findall(r"reachrrt\.cli\s+([a-z][\w-]*)", README))
    assert {"run", "validate", "study", "compare"} <= commands
    for command in sorted(commands):
        with pytest.raises(SystemExit) as e:
            main([command, "--help"])
        assert e.value.code == 0, f"README names unknown subcommand {command!r}"
    capsys.readouterr()
