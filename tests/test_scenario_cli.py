"""Scenario files and the command-line front end: schema errors with line
anchors, exit codes, output files, and byte-determinism."""

import hashlib
import json
import os
import re
import warnings

import numpy as np
import pytest

from reachrrt.cli import _parser, main
from reachrrt.geometry import Ball, Box, GoalRegion
from reachrrt.planner import InitClearanceError, PlannerParams, check_init_clearance
from reachrrt.scenario import ScenarioError, load_scenario, write_json

BASE = {
    "name": "corridor",
    "system": "linear1d",
    "system_options": {"theta_lo": 0.45, "theta_hi": 0.55},
    "init": {"kind": "box", "lo": [0.0], "hi": [0.1]},
    "goal": {"projection": [0], "center": [2.0], "radius": 0.55},
    "obstacles": [],
    "sampling_box": {"lo": [-0.5], "hi": [3.5]},
    "planner": {"i_max": 300, "tau_max": 1.0, "zeta": 0.3, "particles": 60,
                "epsilon": 0.05, "substep": 0.1, "seed": 23},
    "validation": {"rollouts": 200, "seed": 7},
}


def _write(tmp_path, name="sc.json", **mods):
    raw = json.loads(json.dumps(BASE))
    for key, value in mods.items():
        if value is None:
            raw.pop(key, None)
        else:
            raw[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(raw, indent=1))
    return str(path)


def _line_of(path, key):
    """Line of a key; "parent.child" is the first child line after the
    parent's, and "name[0]" the line after name's, where json.dumps with an
    indent starts a list's first element."""
    if key.endswith("[0]"):
        return _line_of(path, key[:-3]) + 1
    parent, _, child = key.rpartition(".")
    lines = open(path).read().splitlines()
    start = _line_of(path, parent) if parent else 1
    for i, line in enumerate(lines[start - 1:], start=start):
        if f'"{child}"' in line:
            return i
    return 1


# -------------------------------------------------------------- the loader


def test_scenario_loads_and_hashes(tmp_path):
    path = _write(tmp_path, obstacles=[
        {"kind": "ball", "center": [1.0, 10.0], "radius": 0.5},
        {"kind": "box", "lo": [5.0, 5.0], "hi": [6.0, 7.0]},
    ])
    sc = load_scenario(path)
    assert sc.name == "corridor"
    assert sc.system_name == "linear1d"
    assert isinstance(sc.obstacles[0], Ball)
    assert isinstance(sc.obstacles[1], Box)
    assert sc.goal.projection == (0,)
    assert sc.params.n_particles == 60
    assert sc.params.h == 0.1
    assert sc.validation_rollouts == 200
    assert len(sc.sha256) == 64
    assert sc.build_system() is sc.build_system()


def test_scenario_defaults(tmp_path):
    path = _write(tmp_path, planner={"seed": 1}, validation=None)
    sc = load_scenario(path)
    assert sc.params.i_max == 1000
    assert sc.params.n_particles == 100
    assert sc.validation_rollouts == 1000
    assert sc.baseline_padding == 0.0


@pytest.mark.parametrize("mods,key,fragment", [
    ({"goal": {"projection": [0], "center": [2.0], "radius": 0.0}},
     "goal.radius", "goal.radius must be positive"),
    ({"planner": None}, "planner", "missing required key planner"),
    ({"sampling_box": {"lo": [0.0, 0.0], "hi": [1.0, 1.0]}},
     "sampling_box", "sampling_box must have dimension 1"),
    ({"obstacles": [{"kind": "box", "lo": [1.0, 1.0], "hi": [1.0, 2.0]}]},
     "obstacles[0]", "obstacle box needs lo < hi"),
    ({"init": {"kind": "cone", "lo": [0.0], "hi": [0.1]}},
     "init.kind", "unknown init kind 'cone'"),
    ({"system": "warp_drive"}, "system", "unknown benchmark"),
    ({"validation": {"rollouts": "abc", "seed": 7}},
     "validation.rollouts", "validation.rollouts must be an integer"),
    ({"validation": {"rollouts": 0, "seed": 7}},
     "validation.rollouts", "validation.rollouts must be positive"),
    ({"validation": {"rollouts": 200, "seed": 1.5}},
     "validation.seed", "validation.seed must be an integer"),
    ({"planner": {**BASE["planner"], "nn_weights": ["x"]}},
     "planner.nn_weights", "planner.nn_weights must be a list of numbers"),
    ({"planner": {**BASE["planner"], "nn_weights": 3}},
     "planner.nn_weights", "planner.nn_weights must be list"),
    ({"goal": {"projection": [0], "center": [float("nan")], "radius": 0.55}},
     "goal.center", "goal.center must hold finite numbers"),
    ({"goal": {"projection": [0], "center": [2.0], "radius": float("inf")}},
     "goal.radius", "goal.radius must be finite"),
    ({"planner": {**BASE["planner"], "tau_max": float("inf")}},
     "planner.tau_max", "planner.tau_max must be finite"),
    ({"planner": {**BASE["planner"], "epsilon": float("nan")}},
     "planner.epsilon", "planner.epsilon must be finite"),
    ({"baseline_padding": 0.55}, "baseline_padding",
     "baseline_padding 0.55 must be smaller than the goal radius 0.55"),
    ({"goal": {"projection": [0], "center": [4.1], "radius": 0.55}},
     "goal", "the goal ball lies entirely outside the sampling box"),
    # integers too large for a float, nulls and non-objects (loader fuzz)
    ({"planner": {**BASE["planner"], "seed": 10**400}},
     "planner.seed", "planner.seed must be finite"),
    ({"goal": {"projection": [0], "center": [2.0], "radius": 10**400}},
     "goal.radius", "goal.radius must be finite"),
    ({"goal": {"projection": [0], "center": [-10**400], "radius": 0.55}},
     "goal.center", "goal.center must hold finite numbers"),
    ({"system_options": {"theta_lo": None, "theta_hi": 0.55}}, "system_options.theta_lo",
     "system_options.theta_lo must hold finite numbers or booleans"),
    ({"system_options": {"theta_lo": 10**400, "theta_hi": 0.55}}, "system_options.theta_lo",
     "system_options.theta_lo must hold finite numbers or booleans"),
    ({"obstacles": [None]}, "obstacles[0]", "obstacles[0] must be an object"),
    ({"goal": {"projection": [False], "center": [2.0], "radius": 0.55}},
     "goal.projection", "goal.projection must index states 0..0"),
    ({"planner": {**BASE["planner"], "substep": 1.5}},
     "planner.substep", "planner.substep 1.5 must lie in [tau_max / 10000, tau_max]"),
    ({"obstacles": [{"kind": "ball", "center": [1.0, 10.0], "radius": 0.0}]},
     "obstacles[0].radius", "obstacle radius must be positive"),
    # each rollout would ask for a trace row per sub-step
    ({"planner": {**BASE["planner"], "substep": 1e-300}},
     "planner.substep", "planner.substep 1e-300 must lie in [tau_max / 10000, tau_max]"),
    ({"planner": {**BASE["planner"], "substep": 1e-9}},
     "planner.substep", "planner.substep 1e-09 must lie in [tau_max / 10000, tau_max]"),
    ({"planner": {**BASE["planner"], "epsilon": 0.6}}, "planner.epsilon",
     "planner.epsilon 0.6 must be smaller than the goal radius 0.55"),
    ({"init": {"kind": "ball", "center": [0.0, 0.0], "radius": 0.1}},
     "init.center", "init ball must have dimension 1"),
    ({"planner": {**BASE["planner"], "nn_weights": [1.0, 1.0]}},
     "planner.nn_weights", "planner.nn_weights must match the state dimension"),
    # a whole file that is not a JSON object
    (["corridor"], "", "scenario must be a JSON object"),
    # an empty projection died in the sampling-box check with a TypeError
    ({"goal": {"projection": [], "center": [], "radius": 0.55}},
     "goal.projection", "goal.projection must name at least one state"),
])
def test_loader_errors_are_line_anchored(tmp_path, capsys, mods, key, fragment):
    if isinstance(mods, dict):
        path = _write(tmp_path, **mods)
    else:
        (tmp_path / "sc.json").write_text(json.dumps(mods))
        path = str(tmp_path / "sc.json")
    out = tmp_path / "out"
    assert main(["run", "--scenario", path, "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{path}:{_line_of(path, key)}: ")
    assert fragment in err
    assert not out.exists()


@pytest.mark.parametrize("gain_substep,fragment", [
    (0, "gain_substep 0 must be positive"),
    (-0.1, "gain_substep -0.1 must be positive"),
    (1e200, "gain must be a finite (2, 4) matrix"),
    (1e50, "gain_substep 1e+50: Riccati iteration did not converge"),
])
def test_quadrotor_gain_substep_must_give_a_finite_gain(tmp_path, gain_substep, fragment):
    # without a stored gain the loader solves for one at gain_substep
    path = _write(
        tmp_path, name="quad.json", system="quadrotor",
        system_options={"gain_substep": gain_substep},
        init={"kind": "box", "lo": [0.0] * 4, "hi": [0.1, 0.1, 0.0, 0.0]},
        goal={"projection": [0, 1], "center": [5.0, 0.0], "radius": 1.0},
        sampling_box={"lo": [-1.0, -5.0, -3.0, -3.0], "hi": [8.0, 5.0, 3.0, 3.0]})
    with pytest.raises(ScenarioError, match=re.escape(fragment)) as e:
        load_scenario(path)
    assert e.value.key == "system"


def test_an_overflowing_gain_is_refused_without_numpy_warnings(tmp_path, capsys):
    # the Riccati iterates overflow at gain_substep 1e200; the refusal is the
    # keyed error alone, with no RuntimeWarning printed on the way
    path = _write(
        tmp_path, name="quad.json", system="quadrotor",
        system_options={"gain_substep": 1e200},
        init={"kind": "box", "lo": [0.0] * 4, "hi": [0.1, 0.1, 0.0, 0.0]},
        goal={"projection": [0, 1], "center": [5.0, 0.0], "radius": 1.0},
        sampling_box={"lo": [-1.0, -5.0, -3.0, -3.0], "hi": [8.0, 5.0, 3.0, 3.0]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--scenario", path, "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{path}:{_line_of(path, 'system')}: ")
    assert "gain must be a finite (2, 4) matrix" in err


def test_bad_json_reports_cleanly(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    assert main(["run", "--scenario", str(path)]) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_non_text_scenario_reports_cleanly(tmp_path, capsys):
    # json.loads raised UnicodeDecodeError, not JSONDecodeError, on this
    path = tmp_path / "binary.json"
    path.write_bytes(b'{"name": "\xff"}')
    assert main(["run", "--scenario", str(path), "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"{path}:1: not valid JSON: ")
    assert not (tmp_path / "out").exists()


def test_missing_file_reports_cleanly(tmp_path, capsys):
    assert main(["run", "--scenario", str(tmp_path / "nope.json")]) == 1
    assert "nope.json" in capsys.readouterr().err
    missing = tmp_path / "no-plan.json"
    assert main(["validate", "--scenario", _write(tmp_path), "--plan", str(missing)]) == 1
    assert capsys.readouterr().err == f"{missing}: cannot load plan: No such file or directory\n"


def test_hybrid_scenario_requires_mode(tmp_path, capsys):
    path = _write(
        tmp_path, system="jumper", system_options={},
        init={"kind": "box", "lo": [0.0] * 4, "hi": [0.05, 0.0, 0.0, 0.0]},
        goal={"projection": [0, 2], "center": [1.5, 0.0], "radius": 0.5},
        sampling_box={"lo": [-0.5, -2.0, 0.0, -1.0], "hi": [3.0, 2.0, 0.1, 1.0]},
        planner={"i_max": 50, "tau_max": 0.21, "substep": 0.03, "seed": 5,
                 "particles": 20, "zeta": 0.5, "epsilon": 0.02})
    assert main(["run", "--scenario", path]) == 1
    assert "init_mode" in capsys.readouterr().err


# ------------------------------------------------------------------- run


def _run(path, out, *extra):
    return main(["run", "--scenario", path, "--out-dir", str(out), *extra])


def test_run_solves_and_writes_outputs(tmp_path, capsys):
    path = _write(tmp_path)
    out = tmp_path / "out"
    assert _run(path, out) == 0
    assert "solved" in capsys.readouterr().out
    stats = json.loads((out / "stats.json").read_text())
    assert stats["format"] == "reachrrt-stats/1"
    assert stats["solved"] is True
    assert stats["iterations"] >= 1
    assert "wall_time" not in stats
    plan = json.loads((out / "plan.json").read_text())
    assert plan["format"] == "reachrrt-plan/1"
    assert plan["scenario_sha256"] == stats["scenario_sha256"]
    assert len(plan["steps"]) == stats["plan_length"]
    svg = (out / "tree.svg").read_text()
    assert svg.startswith("<svg") or svg.startswith("<?xml")


def test_run_budget_exhaustion_exit(tmp_path, capsys):
    path = _write(tmp_path)
    out = tmp_path / "out"
    assert _run(path, out, "--max-iters", "2") == 2
    assert "budget exhausted" in capsys.readouterr().out
    assert not (out / "plan.json").exists()
    stats = json.loads((out / "stats.json").read_text())
    assert stats["status"] == "budget_exhausted"
    assert stats["iterations"] == 2


def test_run_outputs_are_byte_deterministic(tmp_path):
    path = _write(tmp_path)
    outs = [tmp_path / "a", tmp_path / "b"]
    assert _run(path, outs[0]) == 0
    assert _run(path, outs[1]) == 0
    for fname in ("stats.json", "plan.json", "tree.svg"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes(), fname


def test_run_flag_overrides_land_in_outputs(tmp_path):
    path = _write(tmp_path)
    out = tmp_path / "out"
    assert _run(path, out, "--seed", "99", "--epsilon", "0.01",
                "--particles", "40") == 0
    stats = json.loads((out / "stats.json").read_text())
    assert stats["seed"] == 99
    assert stats["epsilon"] == 0.01
    assert stats["n_particles"] == 40
    plan = json.loads((out / "plan.json").read_text())
    assert plan["seed"] == 99
    assert plan["meta"]["epsilon"] == 0.01


def test_baseline_flag_collapses_particles(tmp_path):
    path = _write(tmp_path)
    out = tmp_path / "out"
    assert _run(path, out, "--baseline-padding", "0.3") == 0
    stats = json.loads((out / "stats.json").read_text())
    assert stats["baseline"] is True
    assert stats["n_particles"] == 1
    assert stats["epsilon"] == 0.3


def test_out_dir_env_fallback(tmp_path, monkeypatch):
    path = _write(tmp_path)
    target = tmp_path / "from_env"
    monkeypatch.setenv("REACHRRT_OUT_DIR", str(target))
    assert main(["run", "--scenario", path]) == 0
    assert (target / "plan.json").exists()


def test_a_tau_max_of_too_many_substeps_exits_one(tmp_path, capsys):
    path = _write(tmp_path)
    out = tmp_path / "out"
    assert _run(path, out, "--tau-max", "1e9") == 1
    assert "invalid parameters: planner.substep 0.1 must lie in [tau_max / 10000, tau_max]" \
        in capsys.readouterr().err
    assert not out.exists()
    goal = GoalRegion((0,), (2.0,), 0.55)
    with pytest.raises(ValueError, match=r"h 1e-09 must lie in \[tau_max / 10000, tau_max\]"):
        PlannerParams(tau_max=1.0, h=1e-9).validated(goal)
    assert PlannerParams(tau_max=1.0, h=1e-4).validated(goal).h == 1e-4


@pytest.mark.parametrize("flags,message", [
    # the goal-radius rule's flags are named in test_epsilon_at_least_goal_radius_exits_one
    (("--epsilon", "-1"), "--epsilon must be nonnegative"),
    (("--max-iters", "-1"), "--max-iters must be nonnegative"),
    (("--particles", "0"), "--particles must be positive"),
    (("--zeta", "-1"), "--zeta must be nonnegative"),
    (("--tau-max", "0"), "--tau-max must be positive"),
    (("--seed", "-1"), "--seed must be nonnegative"),
    # the refused value is the file's sub-step, longer than the flag's tau_max
    (("--tau-max", "0.05"), "planner.substep 0.1 must lie in [tau_max / 10000, tau_max]"),
])
def test_a_refused_parameter_names_the_flag_it_came_from(tmp_path, capsys, flags, message):
    path = _write(tmp_path)
    out = tmp_path / "out"
    assert _run(path, out, *flags) == 1
    assert capsys.readouterr().err == f"invalid parameters: {message}\n"
    assert not out.exists()


def test_invalid_flag_values_exit_one(tmp_path, capsys):
    path = _write(tmp_path)
    assert _run(path, tmp_path / "o", "--epsilon", "-1.0") == 1
    assert "invalid parameters" in capsys.readouterr().err
    assert _run(path, tmp_path / "o", "--no-such-flag") == 1
    assert "--no-such-flag" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    assert main(["study", "--scenario", path, "--out-dir", str(tmp_path / "s"),
                 "--budgets", "5", "--epsilon", "-1"]) == 1
    assert "invalid parameters" in capsys.readouterr().err
    assert not (tmp_path / "s" / "study.json").exists()
    out = tmp_path / "out"
    assert _run(path, out) == 0
    capsys.readouterr()
    assert main(["validate", "--scenario", path, "--plan", str(out / "plan.json"),
                 "--out-dir", str(out), "--rollouts", "0"]) == 1
    assert "--rollouts" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_back_to_back_commands_share_no_parsed_state(tmp_path, capsys):
    # the parser is built once per process (cli._parser); a call's flags
    # must not reach the next call, whatever its subcommand
    assert _parser() is _parser()
    path = _write(tmp_path)
    ref, again, other = tmp_path / "ref", tmp_path / "again", tmp_path / "other"
    assert _run(path, ref) == 0
    assert _run(path, other, "--max-iters", "3", "--epsilon", "0.01", "--seed", "5") == 2
    assert main(["study", "--scenario", path, "--out-dir", str(other), "--budgets", "2",
                 "--repeats", "1", "--zeta", "0.2", "--tau-max", "0.3"]) == 0
    assert main(["validate", "--scenario", path, "--plan", str(ref / "plan.json"),
                 "--out-dir", str(other), "--rollouts", "3", "--seed", "4"]) == 0
    assert _run(path, again) == 0
    capsys.readouterr()
    for name in ("plan.json", "stats.json", "tree.svg"):
        assert (again / name).read_bytes() == (ref / name).read_bytes()
    flagged = vars(_parser().parse_args(["run", "--scenario", "a", "--max-iters", "3"]))
    plain = vars(_parser().parse_args(["run", "--scenario", "b"]))
    validate = vars(_parser().parse_args(["validate", "--scenario", "c", "--plan", "p",
                                          "--rollouts", "9"]))
    assert flagged["max_iters"] == 3 and plain["max_iters"] is None
    assert plain["scenario"] == "b" and "rollouts" not in plain
    assert "max_iters" not in validate and validate["rollouts"] == 9


def test_validate_refuses_a_negative_seed(tmp_path, capsys):
    # refused before it reaches rng.substream, whose numpy ValueError would
    # end in a traceback
    path = _write(tmp_path)
    out = tmp_path / "out"
    assert _run(path, out) == 0
    capsys.readouterr()
    assert main(["validate", "--scenario", path, "--plan", str(out / "plan.json"),
                 "--out-dir", str(out), "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert err == "invalid parameters: --seed must be nonnegative\n"
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("flags,validation,want", [
    (("--rollouts", "0"), None, "invalid parameters: --rollouts must be positive\n"),
    ((), {"rollouts": 0, "seed": 7}, "validation.rollouts must be positive\n"),
    ((), {"rollouts": 200, "seed": -1}, "validation.seed must be nonnegative\n"),
])
def test_validate_names_the_flag_or_file_key_of_a_bad_setting(tmp_path, capsys, flags,
                                                              validation, want):
    # a flag's value is refused by monte_carlo_validate's own rules, a file's
    # by the loader, which forwards the same rules under the file key
    path = _write(tmp_path)
    out = tmp_path / "out"
    assert _run(path, out) == 0
    capsys.readouterr()
    if validation is not None:
        path = _write(tmp_path, name="val.json", validation=validation)
        want = f"{path}:{_line_of(path, want.split()[0])}: {want}"
    assert main(["validate", "--scenario", path, "--plan", str(out / "plan.json"),
                 "--out-dir", str(out), *flags]) == 1
    assert capsys.readouterr().err == want
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("command,mods,extra", [
    ("run", {"planner": {**BASE["planner"], "epsilon": 0.55}}, ()),
    ("run", {}, ("--epsilon", "0.6")),
    ("run", {}, ("--baseline-padding", "0.55")),
    ("study", {}, ("--epsilon", "0.55", "--budgets", "5")),
])
def test_epsilon_at_least_goal_radius_exits_one(tmp_path, capsys, command, mods, extra):
    # the goal shrunk by epsilon is empty: fail before planning, write nothing;
    # the message names the flag, or else the file key, the value came from
    path = _write(tmp_path, **mods)
    out = tmp_path / "out"
    assert main([command, "--scenario", path, "--out-dir", str(out), *extra]) == 1
    err = capsys.readouterr().err
    name = " ".join(extra[:2]) if extra else "planner.epsilon 0.55"
    assert f"{name} must be smaller than the goal radius 0.55" in err
    assert not out.exists()


# the FOUND query: the initial interval [0, 0.05] lies within epsilon = 0.05
# of a ball, so every extension's trace starts in collision
NEAR_INIT = {"kind": "box", "lo": [0.0], "hi": [0.05]}
NEAR_BALL = [{"kind": "ball", "center": [0.02, 0.0], "radius": 0.01}]


@pytest.mark.parametrize("command,extra", [
    ("run", ()),
    ("study", ("--budgets", "5")),
    ("compare", ("--seeds", "1")),
])
def test_init_within_epsilon_of_obstacle_exits_one(tmp_path, capsys, command, extra):
    path = _write(tmp_path, init=NEAR_INIT, obstacles=NEAR_BALL)
    out = tmp_path / "out"
    assert main([command, "--scenario", path, "--out-dir", str(out), *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{path}:{_line_of(path, 'init')}: ")
    assert "epsilon 0.05" in err and "obstacles[0]" in err
    assert not out.exists()


@pytest.mark.parametrize("init", [
    {"kind": "box", "lo": [0.0], "hi": [0.1]},
    {"kind": "ball", "center": [0.05], "radius": 0.05},
], ids=["box", "ball"])
@pytest.mark.parametrize("extra,code", [
    ((), 2),
    (("--epsilon", "0.08"), 2),
    (("--epsilon", "0.12"), 1),
    # the baseline plans from the center, 0.15 from the ball
    (("--baseline-padding", "0.12"), 2),
    (("--baseline-padding", "0.16"), 1),
])
def test_init_clearance_uses_the_effective_epsilon(tmp_path, capsys, init, extra, code):
    # the initial interval [0, 0.1] clears the ball by 0.1
    path = _write(tmp_path, init=init,
                  obstacles=[{"kind": "ball", "center": [0.25, 0.0], "radius": 0.05}])
    out = tmp_path / "out"
    assert _run(path, out, "--max-iters", "2", *extra) == code
    assert (out / "stats.json").exists() == (code == 2)
    if code == 1:
        assert capsys.readouterr().err.startswith(f"{path}:{_line_of(path, 'init')}: ")


def test_compare_rejects_baseline_start_within_its_padding(tmp_path, capsys):
    # the ball is 0.16 off the corridor: clear of epsilon 0.05, but within
    # the baseline's padding of 0.2, so every baseline seed would burn its
    # whole budget
    path = _write(tmp_path, baseline_padding=0.2,
                  obstacles=[{"kind": "ball", "center": [0.05, 0.18], "radius": 0.02}])
    out = tmp_path / "out"
    assert main(["compare", "--scenario", path, "--out-dir", str(out),
                 "--seeds", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{path}:{_line_of(path, 'init')}: ")
    assert "baseline_padding 0.2" in err
    assert not out.exists()
    assert _run(path, out, "--max-iters", "2") == 2


@pytest.mark.parametrize("region,proj,obstacle,clearance", [
    (Box([0.0, 0.0, -9.0, -9.0], [1.0, 1.0, 9.0, 9.0]), (0, 1), Ball([2.0, 2.0], 0.5),
     2.0 ** 0.5 - 0.5),
    (Box([0.0, 0.0, -9.0, -9.0], [1.0, 1.0, 9.0, 9.0]), (0, 1),
     Box([1.5, -1.0], [3.0, 0.5]), 0.5),
    (Ball([0.0, 0.0, 5.0, 5.0], 1.0), (0, 1),
     Box([2.0, -1.0], [3.0, 1.0]), 1.0),
    (Ball([0.0, 0.0, 5.0, 5.0], 1.0), (0, 1), Ball([3.0, 4.0], 1.0), 3.0),
    # through a 1-D projection a ball is the interval [0, 0.1] on the axis
    (Ball([0.05], 0.05), (0,), Ball([0.05, 0.1], 0.02), 0.08),
], ids=["box-ball", "box-box", "ball-box", "ball-ball", "1d-ball-ball"])
def test_init_clearance_is_the_planar_distance(region, proj, obstacle, clearance):
    check_init_clearance("epsilon", clearance - 1e-9, region, proj, [obstacle])
    with pytest.raises(InitClearanceError, match=r"obstacles\[0\]") as e:
        check_init_clearance("epsilon", clearance + 1e-9, region, proj, [obstacle])
    assert e.value.key == "init"


def test_init_clearance_tie_is_refused():
    # the planner rejects a hull whose clearance equals epsilon, so a region
    # exactly epsilon away is refused too
    region = Box([0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0])
    obstacle = Box([1.5, -1.0], [3.0, 0.5])  # 0.5 away, exactly
    check_init_clearance("epsilon", 0.25, region, (0, 1), [obstacle])
    with pytest.raises(InitClearanceError, match="epsilon 0.5 ") as e:
        check_init_clearance("epsilon", 0.5, region, (0, 1), [obstacle])
    assert e.value.key == "init"


@pytest.mark.parametrize("region", [
    Box([2.2, 0.1, 0.0, 0.0], [2.4, 0.2, 0.0, 0.0]),
    Ball([2.5, 0.0, 0.0, 0.0], 0.1),
], ids=["box", "ball"])
def test_init_overlapping_an_obstacle_is_refused_at_zero_epsilon(region):
    with pytest.raises(InitClearanceError) as e:
        check_init_clearance("epsilon", 0.0, region, (0, 1),
                             [Box([2.0, -1.0], [3.0, 1.0])])
    assert e.value.key == "init"


# -------------------------------------------------------------- validate


def test_validate_round_trip(tmp_path, capsys):
    path = _write(tmp_path)
    out = tmp_path / "out"
    assert _run(path, out) == 0
    capsys.readouterr()
    code = main(["validate", "--scenario", path, "--plan",
                 str(out / "plan.json"), "--out-dir", str(out)])
    assert code == 0
    assert "valid" in capsys.readouterr().out
    report = json.loads((out / "report.json").read_text())
    assert report["format"] == "reachrrt-validation/1"
    assert report["valid"] is True
    assert report["rollouts"] == 200
    assert report["seed"] == 7  # scenario validation seed
    assert report["plan_seed"] == 23


def _strict(text):
    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_result_files_are_strict_json(tmp_path, capsys):
    # an obstacle-free run has no finite worst clearance: the report and
    # the comparison write null, since RFC 8259 has no Infinity
    path = _write(tmp_path)
    out = tmp_path / "out"
    assert _run(path, out) == 0
    assert main(["validate", "--scenario", path, "--plan", str(out / "plan.json"),
                 "--out-dir", str(out)]) == 0
    assert _compare(out) == 0
    capsys.readouterr()
    docs = {name: _strict((out / name).read_text())
            for name in ("stats.json", "plan.json", "report.json", "compare.json")}
    assert docs["report.json"]["worst_clearance"] is None
    assert [row["worst_clearance"] for row in docs["compare.json"]["rows"]] == [None] * 4
    # no other non-finite number reaches a file
    for bad in (float("nan"), float("inf"), float("-inf"), np.float64("nan"),
                np.array([1.0, np.inf]), np.float32("-inf")):
        with pytest.raises(ValueError):
            write_json(str(tmp_path / "bad.json"), {"x": bad})
    assert not (tmp_path / "bad.json").exists()


def test_numpy_values_are_written_as_their_python_values(tmp_path):
    as_numpy = {"f": np.float64(0.1), "i": np.int64(-3), "b": np.bool_(True),
                "a": np.array([[1.5, -0.0], [2.0, 1e-300]]), "n": np.arange(3, dtype=np.int32),
                "t": (np.float32(0.1), np.uint8(7))}
    as_python = {"f": 0.1, "i": -3, "b": True, "a": [[1.5, -0.0], [2.0, 1e-300]],
                 "n": [0, 1, 2], "t": [float(np.float32(0.1)), 7]}
    write_json(str(tmp_path / "numpy.json"), as_numpy)
    write_json(str(tmp_path / "python.json"), as_python)
    assert (tmp_path / "numpy.json").read_bytes() == (tmp_path / "python.json").read_bytes()
    with pytest.raises(TypeError):
        write_json(str(tmp_path / "bad.json"), {"x": object()})


def test_validate_flags_override_scenario(tmp_path):
    path = _write(tmp_path)
    out = tmp_path / "out"
    assert _run(path, out) == 0
    assert main(["validate", "--scenario", path, "--plan",
                 str(out / "plan.json"), "--out-dir", str(out),
                 "--rollouts", "50", "--seed", "3"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["rollouts"] == 50
    assert report["seed"] == 3


def test_validate_flags_invalid_plan(tmp_path, capsys):
    path = _write(tmp_path)
    out = tmp_path / "out"
    assert _run(path, out) == 0
    # same plan judged against a world with a wall across the corridor
    walled = _write(tmp_path, name="walled.json", obstacles=[
        {"kind": "ball", "center": [1.0, 0.0], "radius": 0.3}])
    capsys.readouterr()
    code = main(["validate", "--scenario", walled, "--plan",
                 str(out / "plan.json"), "--out-dir", str(out),
                 "--allow-scenario-mismatch"])
    assert code == 2
    assert "invalid" in capsys.readouterr().out
    report = json.loads((out / "report.json").read_text())
    assert report["valid"] is False
    assert report["collisions"] == report["rollouts"]


def test_validate_control_dimension_mismatch(tmp_path, capsys):
    path = _write(tmp_path)
    out = tmp_path / "out"
    assert _run(path, out) == 0
    quad = _write(
        tmp_path, name="quad.json", system="quadrotor", system_options={},
        init={"kind": "box", "lo": [0.0] * 4, "hi": [0.1, 0.1, 0.0, 0.0]},
        goal={"projection": [0, 1], "center": [5.0, 0.0], "radius": 1.0},
        sampling_box={"lo": [-1.0, -5.0, -3.0, -3.0], "hi": [8.0, 5.0, 3.0, 3.0]},
        planner={"i_max": 10, "seed": 1})
    # relabelled, so the system check passes and the control dimension is judged
    plan = json.loads((out / "plan.json").read_text())
    relabelled = tmp_path / "relabelled.json"
    relabelled.write_text(json.dumps({**plan, "system": "quadrotor"}))
    assert main(["validate", "--scenario", quad, "--plan", str(relabelled),
                 "--out-dir", str(out), "--allow-scenario-mismatch"]) == 1
    err = capsys.readouterr().err
    assert "dimension" in err and "quadrotor" in err


def test_validate_refuses_a_plan_made_for_another_scenario(tmp_path, capsys):
    path = _write(tmp_path)
    out = tmp_path / "out"
    assert _run(path, out) == 0
    made_for = json.loads((out / "plan.json").read_text())["scenario_sha256"]
    # the same query with one more validation rollout is another file
    other = _write(tmp_path, name="other.json", validation={"rollouts": 201, "seed": 7})
    other_sha = hashlib.sha256(open(other, "rb").read()).hexdigest()
    assert other_sha != made_for
    capsys.readouterr()
    val = tmp_path / "val"
    args = ["validate", "--scenario", other, "--plan", str(out / "plan.json"),
            "--out-dir", str(val)]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert made_for in err and other_sha in err and "--allow-scenario-mismatch" in err
    assert not val.exists()
    assert main(args + ["--allow-scenario-mismatch"]) == 0
    assert json.loads((val / "report.json").read_text())["rollouts"] == 201
    # a plan without the hash is validated as before
    plan = json.loads((out / "plan.json").read_text())
    del plan["scenario_sha256"]
    (tmp_path / "bare.json").write_text(json.dumps(plan))
    assert main(["validate", "--scenario", other, "--plan", str(tmp_path / "bare.json"),
                 "--out-dir", str(val)]) == 0


def _with_step(plan, **fields):
    return {**plan, "steps": [{**plan["steps"][0], **fields}]}


def _with_meta(plan, **fields):
    return {**plan, "meta": {**plan["meta"], **fields}}


@pytest.mark.parametrize("corrupt", [
    lambda plan: [],
    lambda plan: {**plan, "format": "something-else"},
    lambda plan: {**plan, "steps": 3},
    lambda plan: {**plan, "steps": [5]},
    lambda plan: _with_step(plan, u=5),
    lambda plan: {**plan, "meta": 3},
    lambda plan: _with_step(plan, tau=-1.0),
    lambda plan: _with_step(plan, tau=float("nan")),
    lambda plan: _with_step(plan, tau=2 * plan["meta"]["tau_max"]),
    lambda plan: _with_meta(plan, h=0),
    lambda plan: _with_meta(plan, h=-0.03),
    lambda plan: _with_meta(plan, h="0.03"),
    lambda plan: {**plan, "meta": {k: v for k, v in plan["meta"].items() if k != "h"}},
    lambda plan: _with_meta(plan, h=1e-300),
    lambda plan: _with_meta(plan, h=1e-9),
    lambda plan: _with_meta(plan, init_mode="contact"),
    lambda plan: _with_meta(plan, n_particles="x"),
    lambda plan: _with_meta(plan, baseline="no"),
], ids=["list", "wrong-format", "steps-int", "step-int", "u-int", "meta-int",
        "tau-negative", "tau-nan", "tau-above-tau-max", "h-zero", "h-negative",
        "h-string", "h-missing", "h-1e-300", "h-1e-9", "init-mode-string",
        "n-particles-string", "baseline-string"])
def test_validate_rejects_non_plan_file(tmp_path, capsys, corrupt):
    path = _write(tmp_path)
    out = tmp_path / "out"
    assert _run(path, out) == 0
    plan = json.loads((out / "plan.json").read_text())
    bogus = tmp_path / "bogus.json"
    bogus.write_text(json.dumps(corrupt(plan)))
    capsys.readouterr()
    assert main(["validate", "--scenario", path, "--plan", str(bogus),
                 "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert re.match(rf"{re.escape(str(bogus))}:\d+: cannot load plan: ", err)
    assert not (out / "report.json").exists()


ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
CORRIDOR = os.path.join(ROOT, "scenarios", "corridor.json")
JUMPER = os.path.join(ROOT, "scenarios", "jumper.json")
JUMPER_PLAN = os.path.join(ROOT, "perfbench", "data", "jumper-vault.plan.json")
QUADROTOR_PLAN = os.path.join(ROOT, "perfbench", "data", "quadrotor-gate.plan.json")


def _smooth_step(plan, mode):
    """One linear1d step of the given mode in place of the jumper steps."""
    plan.update(system="linear1d", steps=[
        {"u": [0.0], "tau": 0.1, "ext_id": 1, "node_id": 1, "mode": mode}])


@pytest.mark.parametrize("scenario,edit,marker,fragment", [
    (JUMPER, lambda plan: plan["steps"][0].update(mode=7), '"mode": 7',
     "steps[0].mode 7 is not a mode index of jumper (2 modes)"),
    (JUMPER, lambda plan: plan["meta"].update(init_mode=9), '"init_mode": 9',
     "meta.init_mode 9 is not a mode index of jumper (2 modes)"),
    (JUMPER, lambda plan: plan["meta"].update(init_mode=1), '"init_mode": 1',
     "meta.init_mode 1 differs from the scenario's init_mode index 0"),
    (JUMPER, lambda plan: plan["meta"].pop("init_mode"), '"meta"',
     "meta.init_mode None differs from the scenario's init_mode index 0"),
    (CORRIDOR, lambda plan: _smooth_step(plan, None), '"init_mode": 0',
     "meta.init_mode 0 is not a mode index of linear1d (0 modes)"),
    (CORRIDOR, lambda plan: (plan["meta"].pop("init_mode"), _smooth_step(plan, 0)),
     '"mode": 0', "steps[0].mode 0 is not a mode index of linear1d (0 modes)"),
    (JUMPER, lambda plan: plan.update(json.loads(open(QUADROTOR_PLAN).read())),
     '"system"', "the plan was made for system 'quadrotor', but"),
], ids=["step-mode-7", "init-mode-9", "init-mode-other", "init-mode-missing",
        "smooth-init-mode", "smooth-step-mode", "other-system"])
def test_validate_refuses_plan_modes_the_system_lacks(tmp_path, capsys, scenario, edit,
                                                      marker, fragment):
    plan = json.loads(open(JUMPER_PLAN).read())
    edit(plan)
    plan["scenario_sha256"] = hashlib.sha256(open(scenario, "rb").read()).hexdigest()
    bogus = tmp_path / "plan.json"
    text = json.dumps(plan, indent=2)
    bogus.write_text(text)
    line = 1 + text[:text.index(marker)].count("\n")
    out = tmp_path / "out"
    args = ["validate", "--scenario", scenario, "--plan", str(bogus), "--out-dir", str(out),
            "--rollouts", "10"]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{bogus}:{line}: {fragment}")
    assert not out.exists()
    if "differs" in fragment:
        assert main(args + ["--allow-scenario-mismatch"]) in (0, 2)
        assert (out / "report.json").exists()
    else:
        assert main(args + ["--allow-scenario-mismatch"]) == 1
        assert not out.exists()


# ----------------------------------------------------------------- study


def test_study_writes_monotone_rows(tmp_path, capsys):
    path = _write(tmp_path)
    out = tmp_path / "out"
    code = main(["study", "--scenario", path, "--out-dir", str(out),
                 "--budgets", "0,20,200", "--repeats", "4"])
    assert code == 0
    study = json.loads((out / "study.json").read_text())
    assert study["format"] == "reachrrt-study/1"
    assert [r["budget"] for r in study["rows"]] == [0, 20, 200]
    rates = [r["rate"] for r in study["rows"]]
    assert rates[0] == 0.0
    assert all(b >= a for a, b in zip(rates, rates[1:]))
    assert "budget 200" in capsys.readouterr().out


def test_study_rejects_bad_budgets(tmp_path, capsys):
    path = _write(tmp_path)
    assert main(["study", "--scenario", path, "--budgets", "10,x"]) == 1
    assert "--budgets" in capsys.readouterr().err
    assert main(["study", "--scenario", path, "--budgets", "-5"]) == 1
    out = tmp_path / "out"
    assert main(["study", "--scenario", path, "--out-dir", str(out),
                 "--budgets", "5", "--repeats", "-1"]) == 1
    assert "--repeats" in capsys.readouterr().err
    assert not (out / "study.json").exists()
    # every row sets its own budget, so study has no --max-iters; a usage
    # error exits 1, not the 2 of an honest negative
    assert main(["study", "--scenario", path, "--out-dir", str(out),
                 "--budgets", "5", "--max-iters", "3"]) == 1
    assert "--max-iters" in capsys.readouterr().err
    assert not (out / "study.json").exists()


@pytest.mark.parametrize("flags,want", [
    (("--budgets", "-5"), "--budgets must be a nonempty list of nonnegative integers"),
    (("--budgets", "5,-1"), "--budgets must be a nonempty list of nonnegative integers"),
    (("--budgets", ","), "--budgets must be a nonempty list of nonnegative integers"),
    (("--budgets", "5", "--repeats", "0"), "--repeats must be an integer at least 1"),
    (("--budgets", "5", "--repeats", "-1"), "--repeats must be an integer at least 1"),
])
def test_study_names_the_flag_of_a_bad_setting(tmp_path, capsys, flags, want):
    # success_rate_study's own rules, forwarded under the flag
    path = _write(tmp_path)
    out = tmp_path / "out"
    assert main(["study", "--scenario", path, "--out-dir", str(out), *flags]) == 1
    assert capsys.readouterr().err == f"invalid parameters: {want}\n"
    assert not (out / "study.json").exists()


# --------------------------------------------------------------- compare


def _compare(out, *extra):
    return main(["compare", "--scenario", CORRIDOR, "--out-dir", str(out),
                 "--seeds", "2", *extra])


def test_compare_is_byte_deterministic(tmp_path, capsys):
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert _compare(out) == 0
    text = (outs[0] / "compare.json").read_bytes()
    assert text == (outs[1] / "compare.json").read_bytes()
    doc = json.loads(text)
    assert doc["format"] == "reachrrt-compare/1"
    assert [(r["method"], r["seed"]) for r in doc["rows"]] == [
        ("reach-set", 23), ("reach-set", 24), ("baseline", 23), ("baseline", 24)]
    assert "baseline  valid 2/2" in capsys.readouterr().out


def test_compare_matches_the_retired_script(tmp_path):
    # rows the former scripts/compare_methods.py wrote for
    # `--scenario scenarios/corridor.json --seeds 2`, plan_time dropped and
    # the obstacle-free worst clearance null rather than Infinity
    def row(seed, method, iterations):
        return {"seed": seed, "method": method, "solved": True,
                "iterations": iterations, "valid": True, "collisions": 0,
                "goal_misses": 0, "worst_clearance": None}

    assert _compare(tmp_path, "--seed", "0") == 0
    rows = json.loads((tmp_path / "compare.json").read_text())["rows"]
    assert rows == [row(0, "reach-set", 12), row(1, "reach-set", 16),
                    row(0, "baseline", 12), row(1, "baseline", 72)]


def test_compare_rejects_baseline_padding_at_goal_radius(tmp_path, capsys):
    # the baseline's shrunken goal would be empty: refuse at load instead of
    # reporting every baseline seed UNSOLVED after a full budget
    path = _write(tmp_path, baseline_padding=0.6)
    out = tmp_path / "out"
    assert main(["compare", "--scenario", path, "--out-dir", str(out),
                 "--seeds", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{path}:{_line_of(path, 'baseline_padding')}: ")
    assert "baseline_padding 0.6" in err and "goal radius 0.55" in err
    assert not (out / "compare.json").exists()


@pytest.mark.parametrize("extra,fragment", [
    (("--seeds", "0"), "--seeds"),
    (("--seed", "-1"), "seed must be nonnegative"),
])
def test_compare_rejects_bad_seeds(tmp_path, capsys, extra, fragment):
    assert main(["compare", "--scenario", CORRIDOR, "--out-dir", str(tmp_path),
                 *extra]) == 1
    assert fragment in capsys.readouterr().err
    assert not (tmp_path / "compare.json").exists()


def test_version_flag():
    with pytest.raises(SystemExit):
        main(["--version"])
