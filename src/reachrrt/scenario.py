"""Scenario files and deterministic result serialization.

A scenario is a JSON file naming a benchmark system and the planning query:
initial region, goal, obstacles, sampling box, planner parameters.  Loader
errors carry the offending key and the line it first appears on, so messages
are actionable.  Every JSON result file is written by write_result, which
owns the file's format tag and header; plan_from_dict owns the rules a plan
file must meet.  Writers sort keys and render floats via repr, making
output files byte-identical for identical inputs.
"""

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .benchmarks import make_benchmark
from .dynamics import BallRegion, Box
from .geometry import AxisAlignedBox, Ball, GoalRegion, box_obstacle_clearance
from .planner import PlannerParams
from .tree import Plan, PlanStep

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


def check_padding(name, value, goal):
    """Refuse a padding (epsilon, baseline_padding) of at least the goal
    radius: the goal shrunk by it is empty, so no plan could be accepted."""
    if value >= goal.radius:
        raise ScenarioError(f"{name} {value!r} must be smaller than the goal "
                            f"radius {goal.radius!r}", key=name)


def check_init_clearance(name, value, init_region, projection, obstacles):
    """Refuse an initial region whose collision projection comes within a
    padding (epsilon, baseline_padding) of an obstacle: every extension's
    trace starts with the root set, so the planner would reject every
    extension and burn its budget.

    Region and obstacle are each a box [lo, hi] grown by a radius (zero for
    a box, a ball's radius for a ball, except that a ball seen through a 1-D
    projection is the interval it covers); their clearance is the signed
    distance between the two boxes minus both radii.
    """
    proj = list(projection)
    if isinstance(init_region, BallRegion):
        c, r = init_region.center[proj], init_region.radius
        lo, hi = c, c
        if len(proj) == 1:
            lo, hi, r = c - r, c + r, 0.0
    else:
        lo, hi, r = init_region.lo[proj], init_region.hi[proj], 0.0
    if len(proj) == 1:  # zero-padded to the plane, as the planner does
        lo, hi = np.append(lo, 0.0), np.append(hi, 0.0)
    for i, obstacle in enumerate(obstacles):
        clearance = box_obstacle_clearance(lo, hi, obstacle, radius=r)
        if clearance <= value:
            raise ScenarioError(
                f"the initial set comes within {name} {value!r} of obstacles[{i}] "
                f"(clearance {clearance!r}): every extension would be rejected",
                key="init")


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


def _want(raw, key, types, where=""):
    if key not in raw:
        raise ScenarioError(f"missing required key {where}{key}", key=key)
    v = raw[key]
    if not isinstance(v, types):
        names = types.__name__ if isinstance(types, type) else "/".join(t.__name__ for t in types)
        raise ScenarioError(f"{where}{key} must be {names}", key=key)
    if isinstance(v, (int, float)) and not _finite(v):
        raise ScenarioError(f"{where}{key} must be finite", key=key)
    return v


def _number(raw, key, default, where, kinds=(int, float), positive=False, nonneg=False):
    """Numeric entry, required when default is None; kinds=int demands an
    integer.  The error key is the dotted path, so its line is looked up
    inside the right block."""
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
    v = _want(raw, key, list, where)
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in v):
        raise ScenarioError(f"{where}{key} must be a list of numbers", key=key)
    if not all(_finite(x) for x in v):
        raise ScenarioError(f"{where}{key} must hold finite numbers", key=key)
    return np.asarray(v, dtype=float)


def _parse_init(raw, dim):
    kind = _want(raw, "kind", str, "init.")
    if kind == "box":
        lo = _vector(raw, "lo", "init.")
        hi = _vector(raw, "hi", "init.")
        if lo.shape != (dim,) or hi.shape != (dim,):
            raise ScenarioError(f"init box must have dimension {dim}", key="init")
        if np.any(hi < lo):
            raise ScenarioError("init box needs lo <= hi", key="init")
        return Box(lo, hi)
    if kind == "ball":
        center = _vector(raw, "center", "init.")
        radius = _want(raw, "radius", (int, float), "init.")
        if center.shape != (dim,):
            raise ScenarioError(f"init ball must have dimension {dim}", key="init")
        if radius < 0:
            raise ScenarioError("init ball radius must be nonnegative", key="init")
        return BallRegion(center, float(radius))
    raise ScenarioError(f"unknown init kind {kind!r}", key="init")


def _parse_obstacle(raw, idx):
    if not isinstance(raw, dict):
        raise ScenarioError(f"obstacles[{idx}] must be an object", key="obstacles")
    kind = _want(raw, "kind", str, f"obstacles[{idx}].")
    if kind == "ball":
        center = _vector(raw, "center", f"obstacles[{idx}].")
        radius = _want(raw, "radius", (int, float), f"obstacles[{idx}].")
        if center.shape != (2,):
            raise ScenarioError("obstacle ball center must be planar", key="obstacles")
        if not radius > 0:
            raise ScenarioError("obstacle radius must be positive", key="obstacles")
        return Ball(center, float(radius))
    if kind == "box":
        lo = _vector(raw, "lo", f"obstacles[{idx}].")
        hi = _vector(raw, "hi", f"obstacles[{idx}].")
        if lo.shape != (2,) or hi.shape != (2,):
            raise ScenarioError("obstacle box must be planar", key="obstacles")
        if not np.all(hi > lo):
            raise ScenarioError("obstacle box needs lo < hi", key="obstacles")
        return AxisAlignedBox(lo, hi)
    raise ScenarioError(f"unknown obstacle kind {kind!r}", key="obstacles")


def load_scenario(path):
    with open(path, "rb") as f:
        data = f.read()
    sha = hashlib.sha256(data).hexdigest()
    try:
        raw = json.loads(data)
    except json.JSONDecodeError as e:
        raise ScenarioError(f"not valid JSON: {e}") from e
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

    init_region = _parse_init(_want(raw, "init", dict), dim)

    goal_raw = _want(raw, "goal", dict)
    proj = _want(goal_raw, "projection", list, "goal.")
    if not all(isinstance(i, int) and not isinstance(i, bool) and 0 <= i < dim for i in proj):
        raise ScenarioError(f"goal.projection must index states 0..{dim - 1}", key="goal")
    center = _vector(goal_raw, "center", "goal.")
    radius = _want(goal_raw, "radius", (int, float), "goal.")
    if not radius > 0:
        raise ScenarioError("goal.radius must be positive", key="goal")
    if center.shape != (len(proj),):
        raise ScenarioError("goal.center must match goal.projection length", key="goal")
    goal = GoalRegion(tuple(proj), center, float(radius))

    obstacles_raw = raw.get("obstacles", [])
    if not isinstance(obstacles_raw, list):
        raise ScenarioError("obstacles must be a list", key="obstacles")
    obstacles = [_parse_obstacle(o, i) for i, o in enumerate(obstacles_raw)]

    sb_raw = _want(raw, "sampling_box", dict)
    lo = _vector(sb_raw, "lo", "sampling_box.")
    hi = _vector(sb_raw, "hi", "sampling_box.")
    if lo.shape != (dim,) or hi.shape != (dim,):
        raise ScenarioError(f"sampling_box must have dimension {dim}", key="sampling_box")
    if np.any(hi < lo):
        raise ScenarioError("sampling_box needs lo <= hi", key="sampling_box")
    sampling_box = Box(lo, hi)
    # the tree grows toward samples from this box; a goal that shares no
    # point with it would burn the budget
    goal_axes = list(goal.projection)
    if box_obstacle_clearance(lo[goal_axes], hi[goal_axes], Ball(goal.center, goal.radius)) > 0:
        raise ScenarioError("the goal ball lies entirely outside the sampling box",
                            key="goal")

    p = _want(raw, "planner", dict)

    def num(key, default, **kw):
        return _number(p, key, default, "planner.", **kw)

    nn_weights = None
    if p.get("nn_weights") is not None:
        nn_weights = tuple(float(w) for w in _vector(p, "nn_weights", "planner."))
        if len(nn_weights) != dim:
            raise ScenarioError("planner.nn_weights must match the state dimension",
                                key="planner.nn_weights")

    params = PlannerParams(
        i_max=num("i_max", 1000, kinds=int, nonneg=True),
        tau_max=float(num("tau_max", 1.0, positive=True)),
        zeta=float(num("zeta", 0.0, nonneg=True)),
        n_particles=num("particles", 100, kinds=int, positive=True),
        epsilon=float(num("epsilon", 0.0, nonneg=True)),
        h=float(num("substep", 0.1, positive=True)),
        seed=num("seed", 0, kinds=int, nonneg=True),
        nn_weights=nn_weights,
    )
    if params.h > params.tau_max:
        raise ScenarioError("planner.substep must not exceed planner.tau_max",
                            key="planner.substep")

    init_mode = raw.get("init_mode")
    if sys.hybrid and init_mode is None:
        raise ScenarioError("hybrid system scenarios must set init_mode", key="init_mode")
    if init_mode is not None and init_mode not in getattr(sys, "modes", ()):
        raise ScenarioError(f"init_mode {init_mode!r} is not a mode of {system_name}",
                            key="init_mode")

    baseline_padding = float(_number(raw, "baseline_padding", 0.0, "", nonneg=True))
    check_padding("baseline_padding", baseline_padding, goal)

    val = raw.get("validation", {})
    if not isinstance(val, dict):
        raise ScenarioError("validation must be an object", key="validation")

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
        validation_rollouts=_number(val, "rollouts", 1000, "validation.",
                                    kinds=int, positive=True),
        validation_seed=_number(val, "seed", 1, "validation.", kinds=int, nonneg=True),
        sha256=sha,
        path=str(path),
        _system=sys,
    )


def error_line(path, key):
    """Line of a key in the file, for error messages.  A dotted key such as
    "validation.seed" is looked up part by part, each part at or after the
    line of the one before; the deepest part found gives the line."""
    if key is None:
        return 1
    try:
        with open(path, "r") as f:
            lines = f.readlines()
    except OSError:
        return 1
    found, start = 1, 0
    for part in key.split("."):
        hit = next((i for i in range(start, len(lines)) if f'"{part}"' in lines[i]), None)
        if hit is None:
            break
        found, start = hit + 1, hit
    return found


def _plain(value):
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def write_json(path, obj):
    text = json.dumps(_plain(obj), sort_keys=True, indent=2, ensure_ascii=False)
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
    return {
        "seed": plan_obj.seed,
        "system": plan_obj.system,
        "solved_node": plan_obj.solved_node,
        "meta": dict(plan_obj.meta),
        "steps": [
            {
                "u": list(s.u),
                "tau": s.tau,
                "ext_id": s.ext_id,
                "node_id": s.node_id,
                "mode": s.mode,
            }
            for s in plan_obj.steps
        ],
    }


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
        raise ScenarioError(f"not a plan file (format {raw.get('format')!r})")
    raw_steps = _want(raw, "steps", list)
    if not all(isinstance(s, dict) for s in raw_steps):
        raise ScenarioError("steps must be a list of objects", key="steps")
    meta = _want(raw, "meta", dict)
    _number(meta, "h", None, "meta.", positive=True)
    tau_max = _number(meta, "tau_max", None, "meta.", positive=True)
    return Plan(
        steps=tuple(_plan_step(s, i, tau_max) for i, s in enumerate(raw_steps)),
        seed=_count(raw, "seed", ""),
        system=_want(raw, "system", str),
        solved_node=_count(raw, "solved_node", ""),
        meta=dict(meta),
        scenario_sha256=raw.get("scenario_sha256"),
    )


def load_plan(path):
    with open(path, "r") as f:
        raw = json.load(f)
    return plan_from_dict(raw)


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
