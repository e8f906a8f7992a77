"""Scenario files and deterministic result serialization.

A scenario is a JSON file naming a benchmark system and the planning query:
initial region, goal, obstacles, sampling box, planner parameters.  Every
loader error is keyed by the full path of the offending entry, and
error_line finds that entry's line, so messages are actionable.  Every JSON
result file is written by write_result, which owns the file's format tag
and header; plan_from_dict owns the rules a plan file must meet, and
check_plan_fits those a plan must meet to be validated on a scenario.
Writers sort keys and render floats via repr, making output files
byte-identical for identical inputs.
"""

import hashlib
import json
import math
import os
import re
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__, planner
from .benchmarks import make_benchmark
from .dynamics import MAX_SUBSTEPS
from .geometry import Ball, Box, GoalRegion, box_obstacle_clearance
from .planner import ParamError, PlannerParams
from .tree import Plan, PlanStep
from .validation import check_settings

# result file name -> format tag written into it
RESULT_FORMATS = {
    "plan.json": "reachrrt-plan/1",
    "stats.json": "reachrrt-stats/1",
    "report.json": "reachrrt-validation/1",
    "study.json": "reachrrt-study/1",
    "compare.json": "reachrrt-compare/1",
}


class ScenarioError(ValueError):
    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key


def planner_key(field):
    """The scenario-file key of a PlannerParams field."""
    return "planner." + {"n_particles": "particles", "h": "substep"}.get(field, field)


def _forward(check, *args, key):
    """Call check(*args); a ParamError is raised as a ScenarioError keyed by
    key(field)."""
    try:
        check(*args)
    except ParamError as e:
        raise ScenarioError(f"{key(e.field)} {e.rule}", key=key(e.field)) from e


def check_init_clearance(name, value, init_region, projection, obstacles):
    """planner.check_init_clearance, its refusal raised as a ScenarioError
    keyed `init`."""
    try:
        planner.check_init_clearance(name, value, init_region, projection, obstacles)
    except planner.InitClearanceError as e:
        raise ScenarioError(str(e), key="init") from e


@dataclass
class Scenario:
    name: str
    system_name: str
    init_region: object
    goal: GoalRegion
    obstacles: list
    sampling_box: Box
    params: PlannerParams
    init_mode: int | None        # index into the system's modes
    baseline_padding: float
    validation_rollouts: int
    validation_seed: int
    sha256: str
    path: str
    _system: object = field(repr=False)

    def build_system(self):
        """The system the loader built from `system` and `system_options`."""
        return self._system


def _finite(x):
    """math.isfinite, False also for an integer too large for a float."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _option_ok(v):
    """System options are booleans, finite numbers and lists of them."""
    if isinstance(v, list):
        return all(_option_ok(x) for x in v)
    return isinstance(v, (bool, int, float)) and _finite(v)


def _want(raw, key, kind, where=""):
    """Required entry of a kind (str, list, dict).  Like every loader error,
    a violation is keyed by the entry's full path, e.g. "obstacles[2].lo"."""
    path = f"{where}{key}"
    if key not in raw:
        raise ScenarioError(f"missing required key {path}", key=path)
    if not isinstance(raw[key], kind):
        raise ScenarioError(f"{path} must be {kind.__name__}", key=path)
    return raw[key]


def _number(raw, key, default, where, kinds=(int, float), positive=False, nonneg=False):
    """Numeric entry, required when default is None; kinds=int demands an
    integer."""
    path = f"{where}{key}"
    if default is None and key not in raw:
        raise ScenarioError(f"missing required key {path}", key=path)
    v = raw.get(key, default)
    if isinstance(v, bool) or not isinstance(v, kinds):
        kind = "an integer" if kinds is int else "a number"
        raise ScenarioError(f"{path} must be {kind}", key=path)
    if not _finite(v):
        raise ScenarioError(f"{path} must be finite", key=path)
    if positive and v <= 0:
        raise ScenarioError(f"{path} must be positive", key=path)
    if nonneg and v < 0:
        raise ScenarioError(f"{path} must be nonnegative", key=path)
    return v


def _vector(raw, key, where=""):
    path = f"{where}{key}"
    v = _want(raw, key, list, where)
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in v):
        raise ScenarioError(f"{path} must be a list of numbers", key=path)
    if not all(_finite(x) for x in v):
        raise ScenarioError(f"{path} must hold finite numbers", key=path)
    return np.asarray(v, dtype=float)


def _shape(raw, where, dim, kinds=("box", "ball")):
    """The Box or Ball of dimension dim that the object at `where`
    describes; it names its kind unless only one kind is allowed."""
    kind = _want(raw, "kind", str, f"{where}.") if len(kinds) > 1 else kinds[0]
    name = f"{where} {kind}" if len(kinds) > 1 else where
    if kind == "box":
        lo, hi = _vector(raw, "lo", f"{where}."), _vector(raw, "hi", f"{where}.")
        if lo.shape != (dim,) or hi.shape != (dim,):
            raise ScenarioError(f"{name} must have dimension {dim}", key=where)
        if np.any(hi < lo):
            raise ScenarioError(f"{name} needs lo <= hi", key=where)
        return Box(lo, hi)
    if kind == "ball":
        center = _vector(raw, "center", f"{where}.")
        radius = _number(raw, "radius", None, f"{where}.", nonneg=True)
        if center.shape != (dim,):
            raise ScenarioError(f"{name} must have dimension {dim}", key=f"{where}.center")
        return Ball(center, float(radius))
    raise ScenarioError(f"unknown {where} kind {kind!r}", key=f"{where}.kind")


def _obstacle(raw, where):
    if not isinstance(raw, dict):
        raise ScenarioError(f"{where} must be an object", key=where)
    shape = _shape(raw, where, 2)
    # the planner handles flat and point obstacles, but in a scenario file
    # an obstacle without interior is a typo
    if isinstance(shape, Ball) and not shape.radius > 0:
        raise ScenarioError("obstacle radius must be positive", key=f"{where}.radius")
    if isinstance(shape, Box) and not np.all(shape.hi > shape.lo):
        raise ScenarioError("obstacle box needs lo < hi", key=where)
    return shape


def _parse_json(data):
    try:
        return json.loads(data)
    except ValueError as e:  # not JSON, or not text at all
        raise ScenarioError(f"not valid JSON: {e}") from e


def load_scenario(path):
    with open(path, "rb") as f:
        data = f.read()
    sha = hashlib.sha256(data).hexdigest()
    raw = _parse_json(data)
    if not isinstance(raw, dict):
        raise ScenarioError("scenario must be a JSON object")

    name = _want(raw, "name", str)
    system_name = _want(raw, "system", str)
    system_options = raw.get("system_options", {})
    if not isinstance(system_options, dict):
        raise ScenarioError("system_options must be an object", key="system_options")
    for key, value in system_options.items():
        if not _option_ok(value):
            raise ScenarioError(f"system_options.{key} must hold finite numbers or booleans",
                                key=f"system_options.{key}")

    try:
        sys = make_benchmark(system_name, **system_options)
    except (ValueError, TypeError) as e:
        raise ScenarioError(str(e), key="system") from e
    dim = sys.state_dim

    init_region = _shape(_want(raw, "init", dict), "init", dim)

    goal_raw = _want(raw, "goal", dict)
    proj = _want(goal_raw, "projection", list, "goal.")
    if not all(isinstance(i, int) and not isinstance(i, bool) and 0 <= i < dim for i in proj):
        raise ScenarioError(f"goal.projection must index states 0..{dim - 1}",
                            key="goal.projection")
    ball = _shape(goal_raw, "goal", len(proj), kinds=("ball",))
    if not ball.radius > 0:
        raise ScenarioError("goal.radius must be positive", key="goal.radius")
    goal = GoalRegion(tuple(proj), ball.center, ball.radius)

    obstacles_raw = raw.get("obstacles", [])
    if not isinstance(obstacles_raw, list):
        raise ScenarioError("obstacles must be a list", key="obstacles")
    obstacles = [_obstacle(o, f"obstacles[{i}]") for i, o in enumerate(obstacles_raw)]

    sampling_box = _shape(_want(raw, "sampling_box", dict), "sampling_box", dim,
                          kinds=("box",))
    # the tree grows toward samples from this box; a goal that shares no
    # point with it would burn the budget
    goal_axes = list(goal.projection)
    if box_obstacle_clearance(sampling_box.lo[goal_axes], sampling_box.hi[goal_axes],
                              ball) > 0:
        raise ScenarioError("the goal ball lies entirely outside the sampling box",
                            key="goal")

    p = _want(raw, "planner", dict)

    def num(key, default):
        return _number(p, key, default, "planner.")

    nn_weights = None
    if p.get("nn_weights") is not None:
        nn_weights = tuple(float(w) for w in _vector(p, "nn_weights", "planner."))
        if len(nn_weights) != dim:
            raise ScenarioError("planner.nn_weights must match the state dimension",
                                key="planner.nn_weights")

    params = PlannerParams(
        i_max=num("i_max", 1000),
        tau_max=float(num("tau_max", 1.0)),
        zeta=float(num("zeta", 0.0)),
        n_particles=num("particles", 100),
        epsilon=float(num("epsilon", 0.0)),
        h=float(num("substep", 0.1)),
        seed=num("seed", 0),
        nn_weights=nn_weights,
    )
    _forward(params.validated, goal, key=planner_key)

    init_mode = raw.get("init_mode")
    if sys.hybrid and init_mode is None:
        raise ScenarioError("hybrid system scenarios must set init_mode", key="init_mode")
    if init_mode is not None and init_mode not in getattr(sys, "modes", ()):
        raise ScenarioError(f"init_mode {init_mode!r} is not a mode of {system_name}",
                            key="init_mode")

    baseline_padding = float(_number(raw, "baseline_padding", 0.0, ""))
    _forward(params.as_baseline(baseline_padding).validated, goal,
             key=lambda field: "baseline_padding")

    val = raw.get("validation", {})
    if not isinstance(val, dict):
        raise ScenarioError("validation must be an object", key="validation")
    rollouts = _number(val, "rollouts", 1000, "validation.", kinds=int)
    val_seed = _number(val, "seed", 1, "validation.", kinds=int)
    _forward(check_settings, rollouts, val_seed, key=lambda field: "validation." + field)

    return Scenario(
        name=name,
        system_name=system_name,
        init_region=init_region,
        goal=goal,
        obstacles=obstacles,
        sampling_box=sampling_box,
        params=params,
        init_mode=None if init_mode is None else sys.modes.index(init_mode),
        baseline_padding=baseline_padding,
        validation_rollouts=rollouts,
        validation_seed=val_seed,
        sha256=sha,
        path=str(path),
        _system=sys,
    )


_SEPARATORS = re.compile(r"[\s,:]*")  # between the tokens of a JSON text
_DECODER = json.JSONDecoder()


def _child(text, pos, part):
    """Offsets of child `part` (a key, or an index) of the JSON object or
    list at offset pos and of its value; None when there is no such child."""
    if text[pos] not in "[{":
        return None
    is_list, i = text[pos] == "[", 0
    pos = _SEPARATORS.match(text, pos + 1).end()
    while text[pos] not in "]}":
        start = pos
        if not is_list:
            name, pos = _DECODER.raw_decode(text, pos)
            pos = _SEPARATORS.match(text, pos).end()
        if (i if is_list else name) == part:
            return start, pos
        pos = _SEPARATORS.match(text, _DECODER.raw_decode(text, pos)[1]).end()
        i += 1
    return None


def error_line(path, key):
    """Line of the entry a key such as "obstacles[2].radius" names, found by
    walking the file's JSON, for error messages; when part of the key is
    missing, the line of the deepest part found."""
    text, found = "", 0
    try:
        with open(path, "r") as f:
            text = f.read()
        pos = _SEPARATORS.match(text).end()
        for name, index in re.findall(r"([^.\[\]]+)|\[(\d+)\]", key or ""):
            hit = _child(text, pos, int(index) if index else name)
            if hit is None:
                break
            found, pos = hit
    except (OSError, ValueError, IndexError):  # unreadable, or changed since loaded
        pass
    return text.count("\n", 0, found) + 1


def _numpy_value(value):
    """json's default hook (np.float64 is a float and never reaches it)."""
    if isinstance(value, (np.generic, np.ndarray)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def write_json(path, obj):
    # strict JSON (RFC 8259): a NaN or an infinity raises instead of
    # writing a token that strict parsers refuse
    text = json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False,
                      allow_nan=False, default=_numpy_value)
    with open(path, "w") as f:
        f.write(text)
        f.write("\n")


def write_result(out_dir, name, scenario_sha, **fields):
    """Write the result file `name` into out_dir: the fields under a header
    of the file's format tag, the tool version and the content hash of the
    scenario it was computed from.  Returns the file's path."""
    path = os.path.join(out_dir, name)
    write_json(path, {"format": RESULT_FORMATS[name], "version": __version__,
                      "scenario_sha256": scenario_sha, **fields})
    return path


def plan_to_dict(plan_obj):
    """plan.json fields of a plan, the header left to write_result."""
    fields = asdict(plan_obj)
    del fields["scenario_sha256"]  # a header field
    return fields


def _count(raw, key, where):
    """Required nonnegative integer entry."""
    return _number(raw, key, None, where, kinds=int, nonneg=True)


def _plan_step(raw, i, tau_max):
    where = f"steps[{i}]."
    u = tuple(float(v) for v in _vector(raw, "u", where))
    tau = _number(raw, "tau", None, where, nonneg=True)
    if tau > tau_max:
        # the planner draws tau from [0, tau_max]; a longer step would
        # replay as an unbounded number of sub-steps
        raise ScenarioError(f"{where}tau {tau!r} exceeds meta.tau_max {tau_max!r}",
                            key=f"{where}tau")
    mode = None if raw.get("mode") is None else _count(raw, "mode", where)
    return PlanStep(u=u, tau=float(tau), ext_id=_count(raw, "ext_id", where),
                    node_id=_count(raw, "node_id", where), mode=mode)


def plan_from_dict(raw):
    """Plan of a parsed plan.json.  Every rule a plan file must meet is
    checked here: a violation raises ScenarioError naming the key."""
    if not isinstance(raw, dict):
        raise ScenarioError("a plan file must hold a JSON object")
    if raw.get("format") != RESULT_FORMATS["plan.json"]:
        raise ScenarioError(f"not a plan file (format {raw.get('format')!r})", key="format")
    raw_steps = _want(raw, "steps", list)
    if not all(isinstance(s, dict) for s in raw_steps):
        raise ScenarioError("steps must be a list of objects", key="steps")
    meta = _want(raw, "meta", dict)
    h = _number(meta, "h", None, "meta.", positive=True)
    tau_max = _number(meta, "tau_max", None, "meta.", positive=True)
    if tau_max / h > MAX_SUBSTEPS:
        raise ScenarioError(f"meta.h {h!r} makes more than {MAX_SUBSTEPS} sub-steps "
                            "per meta.tau_max", key="meta.h")
    if meta.get("init_mode") is not None:
        _count(meta, "init_mode", "meta.")
    _number(meta, "n_particles", None, "meta.", kinds=int, positive=True)
    if "baseline" in meta:
        _want(meta, "baseline", bool, "meta.")
    return Plan(
        steps=tuple(_plan_step(s, i, tau_max) for i, s in enumerate(raw_steps)),
        seed=_count(raw, "seed", ""),
        system=_want(raw, "system", str),
        solved_node=_count(raw, "solved_node", ""),
        meta=dict(meta),
        scenario_sha256=raw.get("scenario_sha256"),
    )


def load_plan(path):
    with open(path, "rb") as f:
        return plan_from_dict(_parse_json(f.read()))


def check_plan_fits(plan_obj, scenario, allow_mismatch=False):
    """Refuse a plan the scenario cannot validate: a plan made for another
    system, a step control of another dimension than the system's, a step
    mode or meta.init_mode that is no mode index of the system (a smooth one
    has none), or, unless allow_mismatch, a plan made for another scenario
    file or init mode."""
    if plan_obj.system != scenario.system_name:
        raise ScenarioError(f"the plan was made for system {plan_obj.system!r}, but "
                            f"{scenario.path} runs {scenario.system_name!r}", key="system")
    system = scenario.build_system()
    m = system.bounds.control.dim
    n_modes = len(system.modes) if system.hybrid else 0
    made_for, plan_mode = plan_obj.scenario_sha256, plan_obj.meta.get("init_mode")
    if made_for not in (None, scenario.sha256) and not allow_mismatch:
        raise ScenarioError(f"the plan was made for the scenario with sha256 {made_for}, but "
                            f"{scenario.path} has sha256 {scenario.sha256}; pass "
                            "--allow-scenario-mismatch to validate it anyway",
                            key="scenario_sha256")
    modes = [("meta.init_mode", plan_mode)]
    for i, s in enumerate(plan_obj.steps):
        if len(s.u) != m:
            raise ScenarioError(f"steps[{i}].u has dimension {len(s.u)}, but {system.name} "
                                f"controls have dimension {m}", key=f"steps[{i}].u")
        modes.append((f"steps[{i}].mode", s.mode))
    for key, mode in modes:
        if mode is not None and mode >= n_modes:
            raise ScenarioError(f"{key} {mode!r} is not a mode index of {system.name} "
                                f"({n_modes} modes)", key=key)
    if plan_mode != scenario.init_mode and not allow_mismatch:
        raise ScenarioError(f"meta.init_mode {plan_mode!r} differs from the scenario's "
                            f"init_mode index {scenario.init_mode!r}; pass "
                            "--allow-scenario-mismatch to validate it anyway",
                            key="meta.init_mode")


def stats_to_dict(result, params):
    """stats.json fields of a planner result, the header left to
    write_result."""
    return {
        "seed": params.seed,
        "status": result.status,
        "solved": result.solved,
        "tree_size": len(result.tree),
        "plan_length": None if result.plan is None else len(result.plan),
        "epsilon": params.epsilon,
        "n_particles": params.n_particles,
        "baseline": params.baseline,
        **result.stats.as_dict(),
    }
