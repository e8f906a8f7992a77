"""Drift checks: every repository path and every `reachrrt.cli` subcommand
that README.md names must exist, every name its examples import and every
entry of `reachrrt.__all__` must resolve, the third-party modules the code imports
must be the ones pyproject.toml and README's "Requires" line name, every
function the benchmark's tracer wraps must still exist by name, every
function, method and property in src/ must have a caller outside the tests,
every defaulted parameter in src/ must be set by one of those callers,
no src/ module but reachability.py may use BOX_MARGIN, only cli.main may
catch the planner's refusals and only planner.check_query may call
check_init_clearance."""

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


def test_readme_imports_and_package_exports_resolve():
    # only imports: the examples themselves plan nothing here
    imported = []
    for block in re.findall(r"```python\n(.*?)```", README, re.S):
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.module.startswith("reachrrt"):
                imported += [(node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                imported += [(alias.name, None) for alias in node.names
                             if alias.name.startswith("reachrrt")]
    assert imported
    package = importlib.import_module("reachrrt")
    imported += [("reachrrt", name) for name in package.__all__]
    missing = [f"{module}.{name}" for module, name in imported
               if name is not None and not hasattr(importlib.import_module(module), name)]
    assert missing == []


def _third_party_imports(directory):
    names = set()
    paths = glob.glob(os.path.join(ROOT, directory, "**", "*.py"), recursive=True)
    local = {os.path.splitext(os.path.basename(p))[0] for p in paths}
    for path in paths:
        for node in ast.walk(ast.parse(open(path).read())):
            if isinstance(node, ast.Import):
                names.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"reachrrt"} - local


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


def _load_tracer():
    path = os.path.join(ROOT, "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_targets_resolve():
    # perfbench/tracer.py wraps its targets by module and attribute name; a
    # rename in src/ would break the benchmark's traced run (`--trace 1`)
    tracer = _load_tracer()
    assert tracer.TARGETS
    missing = []
    for _, module, attr_path, _ in tracer.TARGETS:
        obj = importlib.import_module(f"{tracer.PACKAGE}.{module}")
        for attr in attr_path.split("."):
            obj = getattr(obj, attr, None)
        if not callable(obj):
            missing.append(f"{module}.{attr_path}")
    assert missing == []


def _referenced_names(path, skip_own_body=False):
    """Names and attributes a Python file uses; with skip_own_body, a
    module-level function's references to itself do not count."""
    names = set()
    for top in ast.parse(open(path).read()).body:
        own = top.name if skip_own_body and isinstance(top, ast.FunctionDef) else None
        for node in ast.walk(top):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute) else None)
            if name is not None and name != own:
                names.add(name)
    return names


def _defined(path):
    """(label, name) of each module-level function and of each method and
    property of a module-level class, dunders left out."""
    for top in ast.parse(open(path).read()).body:
        if isinstance(top, ast.FunctionDef):
            yield top.name, top.name
        elif isinstance(top, ast.ClassDef):
            for item in top.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{top.name}.{item.name}", item.name


SRC = sorted(glob.glob(os.path.join(ROOT, "src", "reachrrt", "*.py")))
LIBRARY = README[README.index("## Library"):]
LIBRARY = LIBRARY[:LIBRARY.index("\n## ")]


def test_every_src_function_has_a_caller():
    # code only the tests use belongs in tests/ (oracles.py, bounds.py), not
    # in the package; a method counts as called when any src/ or perfbench/
    # file or a tracer target uses an attribute of its name
    callers = set()
    for path in SRC:
        callers |= _referenced_names(path, skip_own_body=True)
    for path in glob.glob(os.path.join(ROOT, "perfbench", "*.py")):
        callers |= _referenced_names(path)
    callers |= {attr.split(".")[-1] for _, _, attr, _ in _load_tracer().TARGETS}
    assert sorted(f"{os.path.basename(path)}:{label}" for path in SRC
                  for label, name in _defined(path) if name not in callers) == []


def test_box_margin_lives_in_reachability_alone():
    # one box-pruning rule (reachability.box_near): no other module
    # prunes obstacles by box with its own margin
    users = sorted(os.path.basename(path) for path in SRC
                   if "BOX_MARGIN" in _referenced_names(path))
    assert users == ["reachability.py"]


def _owned_nodes(path):
    """(name of the innermost enclosing function, or "<module>", node) of
    every AST node of a Python file."""
    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            name = child.name if isinstance(child, ast.FunctionDef) else owner
            yield name, child
            yield from walk(child, name)
    yield from walk(ast.parse(open(path).read()), "<module>")


def test_one_refusal_path():
    # planner.check_query holds every rule a query must meet before plan()
    # draws, and cli.main alone turns the library's refusals into messages
    cli = os.path.join(ROOT, "src", "reachrrt", "cli.py")
    refusals = {"ParamError", "InitClearanceError"}
    catchers = {owner for owner, node in _owned_nodes(cli)
                if isinstance(node, ast.ExceptHandler) and node.type is not None
                and refusals & {n.id if isinstance(n, ast.Name) else n.attr
                                for n in ast.walk(node.type)
                                if isinstance(n, (ast.Name, ast.Attribute))}}
    assert catchers == {"main"}
    callers = {f"{os.path.basename(path)}:{owner}" for path in SRC
               for owner, node in _owned_nodes(path)
               if isinstance(node, ast.Call) and "check_init_clearance" in (
                   getattr(node.func, "id", None), getattr(node.func, "attr", None))}
    assert callers == {"planner.py:check_query"}


def _options(path):
    """(label, names a call may use, defaulted parameters with their
    positional index or None when keyword-only) of each module-level
    function and each method of a module-level class; a call of the class
    name reaches its __init__."""
    for top in ast.parse(open(path).read()).body:
        if isinstance(top, ast.FunctionDef):
            items, skip = [(top.name, {top.name}, top)], 0
        elif isinstance(top, ast.ClassDef):
            items, skip = [(f"{top.name}.{f.name}",
                            {top.name, f.name} if f.name == "__init__" else {f.name}, f)
                           for f in top.body if isinstance(f, ast.FunctionDef)], 1
        else:
            continue
        for label, names, f in items:
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in f.decorator_list)
            a = f.args
            positional = (a.posonlyargs + a.args)[0 if static else skip:]
            defaulted = [(p.arg, i) for i, p in enumerate(positional)
                         if i >= len(positional) - len(a.defaults)]
            defaulted += [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                          if d is not None]
            if defaulted:
                yield label, names, defaulted


def _calls(source):
    """Called name -> list of (positional count, keywords, passes * or **)."""
    calls = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            f = node.func
            name = (f.id if isinstance(f, ast.Name)
                    else f.attr if isinstance(f, ast.Attribute) else None)
            spread = (any(isinstance(x, ast.Starred) for x in node.args)
                      or any(k.arg is None for k in node.keywords))
            calls.setdefault(name, []).append(
                (len(node.args), {k.arg for k in node.keywords}, spread))
    return calls


def test_every_src_option_is_set_by_a_caller():
    # a defaulted parameter that no caller sets is a constant in disguise;
    # the callers are those of test_every_src_function_has_a_caller plus
    # README's library examples, since the CLI calls plan() as run_plan
    sources = [open(p).read() for p in SRC + glob.glob(os.path.join(ROOT, "perfbench", "*.py"))]
    sources += re.findall(r"```python\n(.*?)```", LIBRARY, re.S)
    calls = {}
    for source in sources:
        for name, found in _calls(source).items():
            calls.setdefault(name, []).extend(found)
    unset = []
    for path in SRC:
        for label, names, defaulted in _options(path):
            seen = [c for name in names for c in calls.get(name, [])]
            for param, index in defaulted:
                if not any(spread or param in keywords
                           or (index is not None and index < n)
                           for n, keywords, spread in seen):
                    unset.append(f"{os.path.basename(path)}:{label}({param})")
    assert sorted(unset) == []
