"""Loader fuzz: any JSON object is a scenario or a keyed ScenarioError.

Inputs are arbitrary JSON objects and mutated copies of the shipped
scenarios: keys dropped, values replaced by nulls, values of the wrong
type, and huge, negative, subnormal or non-finite numbers (Python's json
reads and writes NaN and Infinity).  The loader must answer each with a
Scenario whose system builds, or with a ScenarioError naming the key at
fault; any other exception is a bug.  Mutated copies of the stored plans
must likewise load or raise ScenarioError.  A sweep sets every field of the
shipped scenarios and stored plans in turn to a string: each error it
raises must name the line of that field.  The planner-parameter rules live
in PlannerParams.validated alone; the loader adds the file's own rules
(types, finite numbers) and forwards validated's refusals keyed by the
file key, so on numeric planner blocks it must refuse exactly the ones
validated refuses, naming the field validated names.
"""

import json
import math
import os

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from reachrrt.dynamics import MAX_SUBSTEPS
from reachrrt.geometry import GoalRegion
from reachrrt.planner import ParamError, PlannerParams
from reachrrt.scenario import (
    Scenario,
    ScenarioError,
    error_line,
    load_plan,
    load_scenario,
    plan_from_dict,
)
from reachrrt.tree import Plan

ROOT = os.path.join(os.path.dirname(__file__), "..")


def _read(directory, names):
    out = {}
    for name in names:
        with open(os.path.join(ROOT, directory, name)) as f:
            out[name] = json.load(f)
    return out


SHIPPED = _read("scenarios", ("corridor.json", "jumper.json", "quadrotor.json"))
PLANS = _read(os.path.join("perfbench", "data"),
              ("jumper-vault.plan.json", "quadrotor-gate.plan.json"))

KEYS = sorted({k for raw in SHIPPED.values() for k in raw}
              | {k for raw in SHIPPED.values() for v in raw.values()
                 if isinstance(v, dict) for k in v})

numbers = (st.integers(-10, 10) | st.integers() | st.sampled_from([
    0, -1, 10**400, -10**400, 2**63, 1e308, -1e308, 1e-320, -0.0,
    math.inf, -math.inf, math.nan]) | st.floats())
scalars = st.none() | st.booleans() | numbers | st.text(max_size=6) | st.sampled_from(
    ["box", "ball", "contact", "flight", "linear1d", "quadrotor", "jumper"])
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=6), inner, max_size=5),
    max_leaves=12)


@st.composite
def mutated(draw, sources):
    raw = json.loads(json.dumps(sources[draw(st.sampled_from(sorted(sources)))]))
    for _ in range(draw(st.integers(1, 3))):
        # walk down from the root, one uniformly drawn key or index at a time
        parent = raw
        key = draw(st.sampled_from(sorted(raw)))
        while isinstance(parent[key], (dict, list)) and parent[key] and draw(st.booleans()):
            parent = parent[key]
            key = draw(st.sampled_from(sorted(parent) if isinstance(parent, dict)
                                       else range(len(parent))))
        old = parent[key]
        if draw(st.booleans()):
            new = draw(json_values)
        elif isinstance(old, (int, float)) and not isinstance(old, bool):
            scaled = ([old * 10**300, old // 7] if isinstance(old, int)
                      else [old * 1e300, old * 1e-300])
            new = draw(st.sampled_from([-old, old * 3, 10**400, -1, 0, None, *scaled]))
        else:
            new = draw(st.sampled_from([None, "", [], {}, 0, -1.5, True]))
        if isinstance(parent, dict) and draw(st.integers(0, 3)) == 0:
            del parent[key]
        else:
            parent[key] = new
        if not raw:
            break
    return raw


def _check(raw, path):
    with open(path, "w") as f:
        json.dump(raw, f)
    try:
        sc = load_scenario(path)
    except ScenarioError as e:
        assert e.key is not None, str(e)
        return
    assert isinstance(sc, Scenario)
    sys_ = sc.build_system()
    for box in (sys_.bounds.control, sys_.bounds.disturbance, sys_.bounds.param):
        assert np.all(np.isfinite(box.lo)) and np.all(np.isfinite(box.hi))
    sc.params.validated(sc.goal)


FUZZ = settings(max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture,
                                       HealthCheck.too_slow])


@FUZZ
@given(raw=st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=6), json_values,
                           max_size=8))
def test_arbitrary_objects_load_or_name_a_key(tmp_path, raw):
    _check(raw, tmp_path / "fuzz.json")


@FUZZ
@given(raw=mutated(SHIPPED))
def test_mutated_scenarios_load_or_name_a_key(tmp_path, raw):
    _check(raw, tmp_path / "fuzz.json")


@FUZZ
@given(raw=mutated(PLANS))
def test_mutated_plans_load_or_raise_a_scenario_error(raw):
    try:
        assert isinstance(plan_from_dict(raw), Plan)
    except ScenarioError:
        pass


def test_the_shipped_scenarios_load(tmp_path):
    for raw in SHIPPED.values():
        _check(raw, tmp_path / "fuzz.json")


MARKER = "not-a-value"


def _fields(raw, path=""):
    """Path (as loader error keys spell it) and parent of every object
    member, at any depth."""
    if isinstance(raw, dict):
        for key, value in raw.items():
            yield f"{path}{key}", raw, key
            yield from _fields(value, f"{path}{key}.")
    elif isinstance(raw, list):
        for i, value in enumerate(raw):
            yield from _fields(value, f"{path[:-1]}[{i}].")


def _sweep(sources, load, tmp_path):
    """Fields that load with a string value, per source; for every other
    field, assert that the error names the field's line."""
    accepted = {}
    for name, source in sources.items():
        for path, parent, key in list(_fields(source)):
            old, parent[key] = parent[key], MARKER
            text = json.dumps(source, indent=1)
            parent[key] = old
            file = tmp_path / name
            file.write_text(text)
            try:
                load(file)
            except ScenarioError as e:
                line = text[:text.index(f'"{MARKER}"')].count("\n") + 1
                assert error_line(file, e.key) == line, (name, path, e.key, str(e))
                continue
            accepted.setdefault(name, []).append(path)
    return accepted


def test_every_scenario_error_names_the_line_of_its_field(tmp_path):
    assert _sweep(SHIPPED, load_scenario, tmp_path) == {
        name: ["name"] for name in SHIPPED}


def test_every_plan_error_names_the_line_of_its_field(tmp_path):
    unchecked = ["meta.epsilon", "meta.nominal_kind", "meta.zeta", "scenario_sha256",
                 "system", "version"]
    accepted = _sweep(PLANS, load_plan, tmp_path)
    assert {name: sorted(paths) for name, paths in accepted.items()} == {
        name: unchecked for name in PLANS}


CORRIDOR = SHIPPED["corridor.json"]
RADIUS = CORRIDOR["goal"]["radius"]


def planner_edges(tau_max):
    """Edge values of each numeric planner field, given tau_max.  NaN fails
    every comparison, so both sides must refuse it.  +-inf is left out:
    validated has no finiteness rule (an infinite zeta selects among every
    node), while a scenario file holds finite numbers."""
    real = [0.0, -0.0, -1.0, -1e-300, math.nan]
    count = [0, -1, 1.5]
    return {
        "i_max": count + [1, 2**63],
        "tau_max": real + [1e-12, 1.0],
        "zeta": real + [1e-300],
        "particles": count + [1],
        "epsilon": real + [RADIUS, math.nextafter(RADIUS, 0.0), math.nextafter(RADIUS, 1.0)],
        # tiny sub-steps, and tau_max / MAX_SUBSTEPS and tau_max, the legal ends
        "substep": real + [5e-324, 1e-4] + [tau_max * (1 + d) / k for d in (-1e-9, 0.0, 1e-9)
                                            for k in (1, MAX_SUBSTEPS)],
        "seed": count + [2**64],
    }


@st.composite
def planner_blocks(draw):
    """Numeric planner blocks: one or two fields drawn from their edges and
    the rest from their legal ranges."""
    edges = planner_edges(1.0)
    at_edge = {draw(st.sampled_from(sorted(edges))), draw(st.sampled_from(sorted(edges)))}

    def field(name, legal):
        return draw(st.sampled_from(edges[name]) if name in at_edge else legal)

    tau_max = field("tau_max", st.floats(1e-3, 3.0))
    edges = planner_edges(tau_max)
    return {
        "i_max": field("i_max", st.integers(0, 10**6)),
        "tau_max": tau_max,
        "zeta": field("zeta", st.floats(0.0, 3.0)),
        "particles": field("particles", st.integers(1, 10**6)),
        "epsilon": field("epsilon", st.floats(0.0, 2 * RADIUS)),
        "substep": field("substep", st.floats(1.0, 1.0 * MAX_SUBSTEPS).map(
            lambda k: tau_max / k) if tau_max > 0 else st.just(0.1)),
        "seed": field("seed", st.integers(0, 2**63)),
    }


# PlannerParams field -> its key in a planner block, in the order the loader
# reads them
FILE_KEYS = {"i_max": "i_max", "tau_max": "tau_max", "zeta": "zeta",
             "n_particles": "particles", "epsilon": "epsilon", "h": "substep", "seed": "seed"}


def _loader_agrees_with_validated(block, path):
    """The loader refuses the block exactly when PlannerParams.validated
    does, keyed by the file key of the field validated names; a NaN, which
    a scenario file may not hold, is refused first, at the first NaN key."""
    path.write_text(json.dumps({**CORRIDOR, "planner": block}))
    try:
        load_scenario(path)
        key = None
    except ScenarioError as e:
        key = e.key
    params = PlannerParams(**{field: block[k] for field, k in FILE_KEYS.items()})
    try:
        params.validated(GoalRegion(CORRIDOR["goal"]["projection"], CORRIDOR["goal"]["center"],
                                    RADIUS))
        expected = None
    except ParamError as e:
        expected = f"planner.{FILE_KEYS[e.field]}"
    nans = [k for k in FILE_KEYS.values() if block[k] != block[k]]
    if nans:
        assert expected is not None, block
        expected = f"planner.{nans[0]}"
    assert key == expected, (block, key)


@FUZZ
@given(block=planner_blocks())
def test_the_loader_refuses_the_planner_blocks_validated_refuses(tmp_path, block):
    _loader_agrees_with_validated(block, tmp_path / "planner.json")


def test_the_loader_and_validated_agree_on_every_planner_edge(tmp_path):
    shipped = CORRIDOR["planner"]
    for name, values in planner_edges(shipped["tau_max"]).items():
        for value in values:
            _loader_agrees_with_validated({**shipped, name: value}, tmp_path / "planner.json")
