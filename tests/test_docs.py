"""Drift checks: every repository path and every `reachrrt.cli` subcommand
that README.md names must exist, the third-party modules the code imports
must be the ones pyproject.toml and README's "Requires" line name, and
every function the benchmark's tracer wraps must still exist by name."""

import ast
import glob
import importlib
import importlib.util
import os
import re
import sys

import pytest

from reachrrt.cli import main

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
README = open(os.path.join(ROOT, "README.md")).read()
PYPROJECT = open(os.path.join(ROOT, "pyproject.toml")).read()


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


def _third_party_imports(directory):
    names = set()
    for path in glob.glob(os.path.join(ROOT, directory, "**", "*.py"), recursive=True):
        for node in ast.walk(ast.parse(open(path).read())):
            if isinstance(node, ast.Import):
                names.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"reachrrt"}


def _requirement_names(key):
    """Distribution names of a pyproject requirement list (each of ours
    imports under the same name)."""
    body = re.search(rf"^{key}\s*=\s*\[(.*?)\]", PYPROJECT, re.M | re.S).group(1)
    return {re.match(r"[A-Za-z0-9_.-]+", r).group(0) for r in re.findall(r'"([^"]+)"', body)}


def _readme_names(text):
    return set(re.split(r",\s*|\s+and\s+", text.strip()))


def test_dependencies_match_imports_and_readme():
    runtime = _requirement_names("dependencies")
    dev = _requirement_names("dev")
    assert _third_party_imports("src/reachrrt") == runtime
    assert _third_party_imports("tests") == runtime | dev
    m = re.search(r"^Requires Python [\d.]+\+ and ([^(]+)\((.*) for the tests\)\.",
                  README, re.M)
    assert m, "README lacks its 'Requires Python ... and ... (... for the tests).' line"
    assert _readme_names(m.group(1)) == runtime
    assert _readme_names(m.group(2)) == dev


def test_tracer_targets_resolve():
    # perfbench/tracer.py wraps its targets by module and attribute name; a
    # rename in src/ would break the benchmark's traced run (`--trace 1`)
    path = os.path.join(ROOT, "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    missing = []
    for _, module, attr_path, _ in tracer.TARGETS:
        obj = importlib.import_module(f"{tracer.PACKAGE}.{module}")
        for attr in attr_path.split("."):
            obj = getattr(obj, attr, None)
        if not callable(obj):
            missing.append(f"{module}.{attr_path}")
    assert missing == []
