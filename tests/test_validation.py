"""Validation-harness tests: Monte-Carlo plan checks, deviation-bound
checks, and the budget study."""

import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from reachrrt import rng, validation
from reachrrt.benchmarks import GRAVITY, Jumper, make_benchmark
from reachrrt.dynamics import rollout_batch
from reachrrt.geometry import Ball, Box, GoalRegion, goal_contains
from reachrrt.planner import InitClearanceError, ParamError, PlannerParams, plan
from reachrrt.reachability import (compute_reach_set, init_particles, padded_collision_free,
                                   padded_goal_contained, project_to_plane)
from reachrrt.scenario import load_plan, load_scenario
from reachrrt.tree import PlanStep
from reachrrt.validation import (
    ValidityRecord,
    compare_methods,
    monte_carlo_validate,
    quadrotor_lipschitz_constant,
    replay_validate,
    success_rate_study,
)

from bounds import (
    lipschitz_bound_check,
    quadrotor_flow_sup,
    reachset_lipschitz_check,
    trajectory_bound_factor,
)
from oracles import reference_points_obstacle_clearance

SEED = 29


def _solved_linear(obstacles=(), seed=23, i_max=300):
    sys_ = make_benchmark("linear1d", theta_lo=0.45, theta_hi=0.55)
    init = Box([0.0], [0.1])
    goal = GoalRegion((0,), (2.0,), 0.55)
    sampling = Box([-0.5], [3.5])
    params = PlannerParams(i_max=i_max, tau_max=1.0, zeta=0.3, n_particles=60,
                           epsilon=0.05, h=0.1, seed=seed)
    result = plan(sys_, init, goal, list(obstacles), sampling, params)
    assert result.solved
    return sys_, result, init, goal


# ----------------------------------------------------------- monte carlo


def test_valid_plan_passes_monte_carlo():
    sys_, result, init, goal = _solved_linear()
    rec = monte_carlo_validate(sys_, result.plan, init, goal, [], 200, SEED)
    assert rec.valid
    assert rec.rollouts == 200
    assert rec.collisions == 0 and rec.goal_misses == 0
    assert rec.worst_clearance == np.inf
    d = rec.as_dict()
    assert d["valid"] is True and d["rollouts"] == 200
    assert d["worst_clearance"] is None  # the report's JSON has no Infinity


def test_unforeseen_obstacle_collides_every_rollout():
    sys_, result, init, goal = _solved_linear()
    # planted after planning, squarely on the corridor
    wall = Ball((1.0, 0.0), 0.3)
    rec = monte_carlo_validate(sys_, result.plan, init, goal, [wall], 150, SEED)
    assert not rec.valid
    assert rec.collisions == 150
    assert rec.goal_misses == 0  # collisions swallow goal accounting
    assert rec.worst_clearance <= 0.0


def test_initial_state_clearance_is_checked():
    sys_, result, init, goal = _solved_linear()
    on_start = Ball((0.05, 0.0), 0.2)
    rec = monte_carlo_validate(sys_, result.plan, init, goal, [on_start],
                               50, SEED)
    assert rec.collisions == 50


def test_goal_misses_counted_without_collisions():
    sys_, result, init, _ = _solved_linear()
    far_goal = GoalRegion((0,), (50.0,), 0.1)
    rec = monte_carlo_validate(sys_, result.plan, init, far_goal, [], 80, SEED)
    assert not rec.valid
    assert rec.collisions == 0
    assert rec.goal_misses == 80


def test_validation_is_deterministic_and_seeded():
    sys_, result, init, goal = _solved_linear()
    near = Ball((1.0, 1.0), 0.6)  # grazes the corridor, never blocks it
    a = monte_carlo_validate(sys_, result.plan, init, goal, [near], 100, SEED)
    b = monte_carlo_validate(sys_, result.plan, init, goal, [near], 100, SEED)
    assert a.as_dict() == b.as_dict()
    c = monte_carlo_validate(sys_, result.plan, init, goal, [near], 100,
                             SEED + 1)
    assert c.worst_clearance != a.worst_clearance


def test_validation_rejects_empty_budget():
    sys_, result, init, goal = _solved_linear()
    with pytest.raises(ValueError):
        monte_carlo_validate(sys_, result.plan, init, goal, [], 0, SEED)


@pytest.mark.parametrize("rollouts,seed,field,rule", [
    (2.5, SEED, "rollouts", "must be an integer"),
    (True, SEED, "rollouts", "must be an integer"),
    (0, SEED, "rollouts", "must be positive"),
    (10, -1, "seed", "must be nonnegative"),
    (10, 1.5, "seed", "must be an integer"),
])
def test_validation_settings_are_refused_before_any_draw(monkeypatch, rollouts, seed,
                                                         field, rule):
    sys_, result, init, goal = _solved_linear()
    drawn = []
    monkeypatch.setattr(rng, "substream", lambda *key: drawn.append(key))
    with pytest.raises(ParamError, match=f"^{field} {rule}$") as e:
        monte_carlo_validate(sys_, result.plan, init, goal, [], rollouts, seed)
    assert (e.value.field, e.value.rule) == (field, rule)
    assert drawn == []


def test_hybrid_validation_needs_mode():
    sys_, result, init, goal = _solved_linear()
    jumper = make_benchmark("jumper")
    result.plan.meta.pop("init_mode", None)
    with pytest.raises(ValueError):
        monte_carlo_validate(jumper, result.plan,
                             Box([0.0] * 4, [0.0] * 4),
                             GoalRegion((0, 2), (0.0, 0.0), 1.0), [], 10, SEED)


def test_replay_validate_round_trip():
    sys_, result, init, goal = _solved_linear()
    assert replay_validate(sys_, result.plan, init, goal, [])
    wall = Ball((1.0, 0.0), 0.3)
    assert not replay_validate(sys_, result.plan, init, goal, [wall])
    assert not replay_validate(sys_, result.plan, init,
                               GoalRegion((0,), (50.0,), 0.1), [])


def reference_replay_validate(sys, plan_obj, init_region, goal, obstacles):
    """replay_validate on one whole trace per step, each with the slice 0
    that repeats the previous set, and on the root alone."""
    meta = plan_obj.meta
    cur = init_particles(sys, init_region, meta["n_particles"], plan_obj.seed,
                         init_mode=meta.get("init_mode"),
                         nominal_only=meta.get("baseline", False))
    traces = [cur.states[None]]
    for step in plan_obj.steps:
        cur, r = compute_reach_set(sys, cur, np.asarray(step.u, dtype=float), step.tau,
                                   meta["h"], plan_obj.seed, step.ext_id)
        traces.append(r.states)
    return (all(padded_collision_free(t, sys.collision_projection, obstacles, 0.0)
                for t in traces)
            and padded_goal_contained(cur, goal, 0.0))


def test_replay_checks_the_root_of_a_zero_step_plan():
    sys_, result, init, _ = _solved_linear()
    stay = replace(result.plan, steps=())
    goal = GoalRegion((0,), (0.05,), 0.5)  # holds the whole root set
    assert replay_validate(sys_, stay, init, goal, [])
    assert replay_validate(sys_, stay, init, goal, [Ball((0.5, 0.0), 0.01)])
    assert not replay_validate(sys_, stay, init, goal, [Ball((0.05, 0.0), 0.01)])


def test_both_validators_refuse_a_plan_that_diverges():
    sys_, result, init, goal = _solved_linear()
    blow = make_benchmark("linear1d", theta_lo=0.45, theta_hi=0.55)
    blow.step_batch = lambda X, U, W, Th, h, out: np.add(X * 1e200, 1.0, out=out)
    with pytest.raises(RuntimeError, match="plan rollout diverged"):
        monte_carlo_validate(blow, result.plan, init, goal, [], 10, SEED)
    with pytest.raises(RuntimeError, match="plan rollout diverged"):
        replay_validate(blow, result.plan, init, goal, [])


def test_replay_walks_zero_duration_steps():
    # each zero-duration step adds an empty block of sub-steps, the first
    # one right after the root
    sys_, plan_obj, init, goal, obstacles, _, _ = _zero_duration_linear()
    cases = [[], obstacles, [Box((1.0, 0.05), (1.01, 0.1))], [Ball((0.05, 0.0), 0.01)]]
    got = [replay_validate(sys_, plan_obj, init, goal, obs) for obs in cases]
    assert got == [reference_replay_validate(sys_, plan_obj, init, goal, obs)
                   for obs in cases]
    assert got == [True, False, True, False]


def _min_clearance(pts, obstacles):
    """Per-point minimum signed clearance over obstacles; +inf without any."""
    out = np.full(len(pts), np.inf)
    for obstacle in obstacles:
        np.minimum(out, reference_points_obstacle_clearance(pts, obstacle), out=out)
    return out


def reference_monte_carlo_validate(sys, plan_obj, init_region, goal, obstacles,
                                   m_rollouts, seed, init_mode=None):
    """The validator as it was before it shared init_particles and
    compute_reach_set with the planner: its own draws, its own rollout loop,
    and a clearance check of every obstacle on every slice of every step's
    trace, with the block form of the point clearance."""
    m = int(m_rollouts)
    h = plan_obj.meta["h"]
    obstacles = list(obstacles)
    proj = sys.collision_projection

    X = init_region.sample(rng.substream(seed, rng.DOMAIN_VALIDATE, 0), m)
    Th = sys.bounds.param.sample(rng.substream(seed, rng.DOMAIN_VALIDATE, 1), m)
    modes = None
    mu_mode = None
    if sys.hybrid:
        if init_mode is None:
            init_mode = plan_obj.meta.get("init_mode")
        modes = np.full(m, int(init_mode), dtype=np.int64)
        mu_mode = int(init_mode)
    mu = np.asarray(init_region.center, dtype=float)

    worst = _min_clearance(project_to_plane(X, proj), obstacles)
    collided = worst <= 0.0

    box = sys.bounds.disturbance
    for k, step in enumerate(plan_obj.steps):

        def w_source(j, out, _k=k):
            gen = rng.substream(seed, rng.DOMAIN_VALIDATE, 2, _k, int(j))
            out[...] = box.sample(gen, len(out))

        r = rollout_batch(sys, X, np.asarray(step.u, dtype=float), step.tau, h,
                          Th, w_source, mu0=mu, modes0=modes, mu_mode0=mu_mode)
        assert not r.diverged
        pts = project_to_plane(r.states, proj)          # (S+1, m, 2)
        clear = np.full(m, np.inf)
        for sl in pts:
            np.minimum(clear, _min_clearance(sl, obstacles), out=clear)
        np.minimum(worst, clear, out=worst)
        collided |= clear <= 0.0
        X = r.final_states
        mu = r.mu[-1]
        if sys.hybrid:
            modes = r.final_modes
            mu_mode = int(r.mu_modes[-1])

    in_goal = goal_contains(goal, X, shrink=0.0)
    collisions = int(collided.sum())
    goal_misses = int((~collided & ~in_goal).sum())
    return ValidityRecord(
        rollouts=m,
        collisions=collisions,
        goal_misses=goal_misses,
        valid=(collisions == 0 and goal_misses == 0),
        worst_clearance=float(worst.min()),
    )


def _colliding_linear():
    sys_, result, init, goal = _solved_linear()
    # hit by some rollouts, jumped over by others between sub-steps
    return sys_, result.plan, init, goal, [Ball((1.0, 0.0), 0.005)], 300, None


def _zero_duration_linear():
    sys_, result, init, goal = _solved_linear()
    steps = list(result.plan.steps)
    zero = PlanStep(u=(0.0,), tau=0.0, ext_id=99, node_id=99)
    steps = [zero, *steps[:3], zero, *steps[3:], zero]
    obstacles = [Box((1.0, -0.1), (1.01, 0.1))]
    return sys_, replace(result.plan, steps=tuple(steps)), init, goal, obstacles, 300, None


def _grazing_ball_linear():
    sys_, result, init, goal = _solved_linear()
    # touches the line the rollouts move on at x = 1 from above
    return sys_, result.plan, init, goal, [Ball((1.0, 0.6), 0.6)], 300, None


def _box_at_the_worst_linear():
    sys_, result, init, goal = _solved_linear()
    # spans every slice in x, 0.25 above the line: every point and every
    # slice's box clear it by exactly 0.25, so each box ties the running
    # worst; the far ball is pruned on every slice once the box is measured
    obstacles = [Box((-5.0, 0.25), (5.0, 1.25)), Ball((1.0, 3.0), 0.5)]
    return sys_, result.plan, init, goal, obstacles, 300, None


def _obstacle_free_linear():
    sys_, result, init, goal = _solved_linear()
    return sys_, result.plan, init, goal, [], 300, None


def _stored(name, scenario):
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    sc = load_scenario(os.path.join(root, "scenarios", scenario))
    plan_obj = load_plan(os.path.join(root, "perfbench", "data", f"{name}.plan.json"))
    return (sc.build_system(), plan_obj, sc.init_region, sc.goal, sc.obstacles,
            sc.validation_rollouts, sc.init_mode)


def _touching_after_deep_linear():
    sys_, result, init, goal = _solved_linear()
    # the first box swallows the start of some rollouts (clearance down to
    # -0.02); the line then runs along the second box's face, where
    # rollouts touch it at clearance 0 inside slices whose boxes touch it
    # too (box clearance 0, above the worst so far)
    obstacles = [Box((-1.0, -1.0), (0.02, 1.0)), Box((1.0, 0.0), (1.01, 0.5))]
    return sys_, result.plan, init, goal, obstacles, 300, None


def _pinned_quadrotor(step, substep, m=300):
    """The stored quadrotor plan with a pin-sized ball planted where the
    fastest validation rollout is after `substep` sub-steps of step `step`
    (step None: its initial state): exactly one rollout collides, on that
    one slice."""
    sys_, plan_obj, init, goal, obstacles, _, init_mode = _stored(
        "quadrotor-gate", "quadrotor.json")
    h = plan_obj.meta["h"]
    cur = init_particles(sys_, init, m, SEED, stream=(rng.DOMAIN_VALIDATE,))
    states = cur.states
    if step is not None:
        for k, s in enumerate(plan_obj.steps[:step + 1]):
            cur, r = compute_reach_set(sys_, cur, np.asarray(s.u, dtype=float), s.tau,
                                       h, SEED, k, stream=(rng.DOMAIN_VALIDATE, 2))
        states = r.states[substep]
    fastest = np.argmax(np.hypot(states[:, 2], states[:, 3]))
    pin = Ball(project_to_plane(states[fastest], sys_.collision_projection), 1e-3)
    return sys_, plan_obj, init, goal, [*obstacles, pin], m, init_mode


_PINS = {"pin-initial": (None, 0), "pin-mid-step": (5, 3), "pin-step-end": (5, -1)}


@pytest.mark.parametrize("case", [
    _colliding_linear,
    _zero_duration_linear,
    _grazing_ball_linear,
    _box_at_the_worst_linear,
    _touching_after_deep_linear,
    _obstacle_free_linear,
    *[lambda where=where: _pinned_quadrotor(*where) for where in _PINS.values()],
    lambda: _stored("quadrotor-gate", "quadrotor.json"),
    lambda: _stored("jumper-vault", "jumper.json"),
], ids=["colliding-linear1d", "zero-duration-step", "grazing-ball", "box-at-the-worst",
        "touching-after-deep", "obstacle-free-linear1d", *_PINS, "quadrotor-gate",
        "jumper-vault"])
def test_validation_matches_its_reference(case):
    sys_, plan_obj, init, goal, obstacles, m, init_mode = case()
    got = monte_carlo_validate(sys_, plan_obj, init, goal, obstacles, m, SEED,
                               init_mode=init_mode)
    want = reference_monte_carlo_validate(sys_, plan_obj, init, goal, obstacles, m,
                                          SEED, init_mode=init_mode)
    assert got.as_dict() == want.as_dict()
    # bitwise, not just ==: the clearance is the same float
    assert np.float64(got.worst_clearance).tobytes() == \
        np.float64(want.worst_clearance).tobytes()


@pytest.mark.parametrize("where", list(_PINS.values()), ids=list(_PINS))
def test_a_pin_on_one_slice_collides_once(where):
    # only the pinned slice reaches the pin: the initial states, a sub-step
    # inside a step, or a step's last sub-step (the next step's slice 0,
    # which the validator does not measure again)
    sys_, plan_obj, init, goal, obstacles, m, init_mode = _pinned_quadrotor(*where)
    rec = monte_carlo_validate(sys_, plan_obj, init, goal, obstacles, m, SEED,
                               init_mode=init_mode)
    assert rec.collisions == 1
    assert -1e-3 <= rec.worst_clearance < 0.0


def test_box_prune_measures_few_slices(monkeypatch):
    # the stored quadrotor plan has 87 sub-steps and 3 obstacles: 264
    # (obstacle, slice) pairs with the initial slice, of which the slices'
    # bounding boxes rule out all but a few
    calls = []

    def counting(pts, obstacle):
        calls.append(len(pts))
        return reference_points_obstacle_clearance(pts, obstacle)

    monkeypatch.setattr(validation, "points_obstacle_clearance", counting)
    sys_, plan_obj, init, goal, obstacles, _, init_mode = _stored(
        "quadrotor-gate", "quadrotor.json")
    got = monte_carlo_validate(sys_, plan_obj, init, goal, obstacles, 10_000, 1,
                               init_mode=init_mode)
    assert got.valid
    assert 0 < len(calls) <= 20
    assert set(calls) == {10_000}


# ------------------------------------------------------- deviation bounds


def test_bound_factor_frozen_values():
    assert trajectory_bound_factor(0.0, 5.0) == pytest.approx(np.sqrt(2.0))
    assert trajectory_bound_factor(1.0, 1.0) == pytest.approx(2.0 * np.e)
    # 2 (tK)^2 = 72 beats 1, sqrt(144) = 12
    assert trajectory_bound_factor(3.0, 2.0) == pytest.approx(
        12.0 * np.exp(6.0))
    got = trajectory_bound_factor(np.array([0.0, 1.0]), 1.0)
    assert got.shape == (2,)
    assert got[0] == pytest.approx(np.sqrt(2.0))


def test_bound_factor_monotone_in_time():
    ts = np.linspace(0.0, 3.0, 50)
    vals = trajectory_bound_factor(ts, 1.7)
    assert np.all(np.diff(vals) >= 0.0)


def test_quadrotor_lipschitz_constant_shape():
    quad = make_benchmark("quadrotor", feedback=False)
    K, meta = quadrotor_lipschitz_constant(quad, v_max=6.3, h=0.1, grid=256)
    assert K > 9.81  # the gravity gain alone contributes g to the norm
    assert K == pytest.approx(meta["grid_max"] + meta["cell_slack"])
    K_small, _ = quadrotor_lipschitz_constant(quad, v_max=1.0, h=0.1, grid=256)
    assert K_small <= K  # drag term grows with speed


def test_trajectory_bound_holds_for_linear1d():
    sys_ = make_benchmark("linear1d", theta_lo=0.45, theta_hi=0.55)
    # flow has zero state Jacobian, so K = 0 and the factor is sqrt(2)
    out = lipschitz_bound_check(sys_, 0.0, Box([-1.0], [1.0]), 400,
                                tau_max=1.0, h=0.1, seed=SEED)
    assert out["trials"] == 400
    assert out["violations"] == 0
    assert out["worst_ratio"] <= 1.0 + 1e-9


def test_trajectory_bound_holds_for_quadrotor():
    quad = make_benchmark("quadrotor", feedback=False)
    box = Box([-1.0, -1.0, -3.0, -3.0], [1.0, 1.0, 3.0, 3.0])
    # speeds stay below the drag-invariant ceiling the constant was built for
    K, _ = quadrotor_lipschitz_constant(quad, v_max=6.3, h=0.1, grid=512)
    out = lipschitz_bound_check(quad, K, box, 600, tau_max=0.5, h=0.1,
                                seed=SEED)
    assert out["violations"] == 0


def test_undersized_constant_is_caught():
    quad = make_benchmark("quadrotor", feedback=False)
    box = Box([-1.0, -1.0, -3.0, -3.0], [1.0, 1.0, 3.0, 3.0])
    out = lipschitz_bound_check(quad, 0.01, box, 400, tau_max=0.5, h=0.1,
                                seed=SEED)
    assert out["violations"] > 0
    assert out["worst_ratio"] > 1.0


def test_reach_set_bound_holds_for_quadrotor():
    quad = make_benchmark("quadrotor", feedback=False)
    box = Box([-1.0, -1.0, -3.0, -3.0], [1.0, 1.0, 3.0, 3.0])
    tau_max = 0.5
    K, _ = quadrotor_lipschitz_constant(quad, v_max=6.3, h=0.1, grid=512)
    L = max(float(trajectory_bound_factor(tau_max, K)),
            quadrotor_flow_sup(quad, box))
    out = reachset_lipschitz_check(quad, L, box, 150, 40, tau_max, 0.1, SEED)
    assert out["trials"] == 150
    assert out["violations"] == 0


def test_reach_set_bound_check_runs_on_feedback_wrapped_quadrotor():
    # the check rolls out the open-loop plant, so the wrapper the planner
    # uses gives the bare quadrotor's result and meets the same constant
    wrapped = make_benchmark("quadrotor")
    bare = make_benchmark("quadrotor", feedback=False)
    box = Box([-1.0, -1.0, -3.0, -3.0], [1.0, 1.0, 3.0, 3.0])
    tau_max = 0.5
    K, _ = quadrotor_lipschitz_constant(wrapped, v_max=6.3, h=0.1, grid=512)
    L = max(float(trajectory_bound_factor(tau_max, K)),
            quadrotor_flow_sup(wrapped, box))
    out = reachset_lipschitz_check(wrapped, L, box, 150, 40, tau_max, 0.1, SEED)
    assert out["trials"] == 150
    assert out["violations"] == 0
    assert out == reachset_lipschitz_check(bare, L, box, 150, 40, tau_max, 0.1, SEED)


def reference_quadrotor_lipschitz_constant(quad, v_max, h, grid=1000):
    """quadrotor_lipschitz_constant as it was before only the border was
    evaluated: the operator norm on every point of the g x g grid."""
    base = quad.base if hasattr(quad, "base") else quad
    a_hi = float(base.bounds.param.hi.max())
    s_max = 2.0 * a_hi * float(v_max)
    g = int(grid)
    s = np.linspace(0.0, s_max, g)
    S1, S2 = np.meshgrid(s, s, indexing="ij")
    G = g * g

    J = np.zeros((G, 4, 6))
    J[:, 0, 2] = 1.0
    J[:, 1, 3] = 1.0
    J[:, 2, 2] = -S1.ravel()
    J[:, 3, 3] = -S2.ravel()
    J[:, 0, 4] = h * GRAVITY / 4.0
    J[:, 1, 5] = -h * GRAVITY / 4.0
    J[:, 2, 4] = GRAVITY
    J[:, 3, 5] = -GRAVITY

    JJt = J @ np.swapaxes(J, 1, 2)
    eig = np.linalg.eigvalsh(JJt)[:, -1]
    k_grid = float(np.sqrt(eig.max()))
    spacing = s_max / max(g - 1, 1)
    K = k_grid + spacing
    return K, {"grid": g, "grid_max": k_grid, "cell_slack": spacing}


def _quad(wrapped):
    return make_benchmark("quadrotor") if wrapped else make_benchmark("quadrotor", feedback=False)


@settings(max_examples=60, deadline=None)
@given(v_max=st.one_of(st.just(0.0), st.floats(1e-9, 30.0)),
       h=st.floats(0.005, 2.0), grid=st.integers(1, 400), wrapped=st.booleans())
def test_border_lipschitz_equals_full_grid(v_max, h, grid, wrapped):
    quad = _quad(wrapped)
    # dict equality compares the meta floats with ==
    assert (quadrotor_lipschitz_constant(quad, v_max, h, grid)
            == reference_quadrotor_lipschitz_constant(quad, v_max, h, grid))


@settings(max_examples=60, deadline=None)
@given(v_max=st.floats(0.0, 1e-9), h=st.floats(0.005, 2.0),
       grid=st.integers(1, 400), wrapped=st.booleans())
@example(v_max=2.43e-13, h=1.001, grid=118, wrapped=False)
def test_border_lipschitz_near_zero_speed_within_rounding(v_max, h, grid, wrapped):
    # below about 1e-10 the norm is flat across the grid to within eigvalsh's
    # rounding, and an interior point can read one ulp above the border
    # (the example above); the bound then differs from the full grid's by
    # that rounding only
    quad = _quad(wrapped)
    K, meta = quadrotor_lipschitz_constant(quad, v_max, h, grid)
    K_ref, meta_ref = reference_quadrotor_lipschitz_constant(quad, v_max, h, grid)
    tol = 4 * np.finfo(float).eps
    assert K == pytest.approx(K_ref, rel=tol, abs=0.0)
    assert meta["grid_max"] == pytest.approx(meta_ref["grid_max"], rel=tol, abs=0.0)
    assert (meta["grid"], meta["cell_slack"]) == (meta_ref["grid"], meta_ref["cell_slack"])


@pytest.mark.parametrize("grid", [1, 2, 512])
def test_border_lipschitz_evaluates_only_the_border(monkeypatch, grid):
    counted = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kw):
        counted.append(int(np.prod(np.shape(a)[:-2])))
        return eigvalsh(a, *args, **kw)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    quadrotor_lipschitz_constant(make_benchmark("quadrotor"), 12.3, 0.1, grid)
    assert 0 < sum(counted) <= 4 * grid


def test_flow_sup_dominates_sampled_flow_norms():
    quad = make_benchmark("quadrotor", feedback=False)
    box = Box([-1.0, -1.0, -3.0, -3.0], [1.0, 1.0, 3.0, 3.0])
    sup = quadrotor_flow_sup(quad, box)
    gen = np.random.default_rng(3)
    X = box.sample(gen, 2000)
    U = quad.bounds.control.sample(gen, 2000)
    Th = quad.bounds.param.sample(gen, 2000)
    W = quad.bounds.disturbance.sample(gen, 2000)
    g, ax, ay = 9.81, Th[:, 0], Th[:, 1]
    vx, vy = X[:, 2], X[:, 3]
    F = np.stack([vx, vy,
                  g * U[:, 0] - ax * vx * np.abs(vx) + W[:, 0],
                  -g * U[:, 1] - ay * vy * np.abs(vy) + W[:, 1]], axis=1)
    assert np.linalg.norm(F, axis=1).max() <= sup + 1e-9


# ------------------------------------------------------------ budget study


def test_success_rate_study_monotone():
    sys_ = make_benchmark("linear1d", theta_lo=0.45, theta_hi=0.55)
    init = Box([0.0], [0.1])
    goal = GoalRegion((0,), (2.0,), 0.55)
    sampling = Box([-0.5], [3.5])
    base = PlannerParams(i_max=1, tau_max=1.0, zeta=0.3, n_particles=40,
                         epsilon=0.05, h=0.1, seed=100)
    rows = success_rate_study(sys_, init, goal, [], sampling, base,
                              budgets=[0, 4, 40, 200], repeats=8)
    assert [r["budget"] for r in rows] == [0, 4, 40, 200]
    assert rows[0]["rate"] == 0.0  # nothing solves without iterating
    rates = [r["rate"] for r in rows]
    assert all(b >= a for a, b in zip(rates, rates[1:]))
    assert rates[-1] >= 0.9
    assert all(r["successes"] <= r["repeats"] for r in rows)


@pytest.mark.parametrize("budgets,repeats,field", [
    ([24.9], 1, "budgets"),
    ([-5], 1, "budgets"),
    ([], 1, "budgets"),
    ([True], 1, "budgets"),
    ([5], 2.5, "repeats"),
    ([5], True, "repeats"),
    ([5], 0, "repeats"),
])
def test_success_rate_study_refuses_bad_settings_before_planning(monkeypatch, budgets,
                                                                  repeats, field):
    def no_plan(*args, **kwargs):
        raise AssertionError("planned before refusing the settings")

    monkeypatch.setattr(validation, "run_plan", no_plan)
    sys_ = make_benchmark("linear1d", theta_lo=0.45, theta_hi=0.55)
    base = PlannerParams(i_max=1, tau_max=1.0, n_particles=4, h=0.1)
    with pytest.raises(ParamError) as e:
        success_rate_study(sys_, Box([0.0], [0.1]), GoalRegion((0,), (2.0,), 0.55), [],
                           Box([-0.5], [3.5]), base, budgets, repeats)
    assert e.value.field == field


def test_compare_methods_refuses_a_query_before_planning(monkeypatch):
    # every (method, seed) query passes planner.check_query before the
    # first plan, so a refused one costs no seed's budget
    def no_plan(*args, **kwargs):
        raise AssertionError("planned before refusing the query")

    monkeypatch.setattr(validation, "run_plan", no_plan)
    sc = load_scenario(os.path.join(os.path.dirname(__file__), os.pardir, "scenarios",
                                    "corridor.json"))
    # the ball is 0.16 off the corridor: clear of epsilon 0.05, but within
    # the baseline's padding of 0.2 around the region's center
    near = replace(sc, obstacles=[Ball([0.025, 0.18], 0.02)])
    with pytest.raises(InitClearanceError, match=r"baseline_padding 0.2 of obstacles\[0\]"):
        compare_methods(near, range(3))
    with pytest.raises(ParamError, match="n_particles must be positive"):
        compare_methods(replace(sc, params=replace(sc.params, n_particles=0)), range(3))
    # seed 0's queries pass; seed -1's is refused before seed 0 is planned
    with pytest.raises(ParamError, match="seed must be nonnegative"):
        compare_methods(sc, [0, -1])


def test_compare_methods_reads_a_one_pass_iterator_of_seeds():
    # the seeds are read once per method; an iterator once gave the
    # reach-set rows alone
    sc = load_scenario(os.path.join(os.path.dirname(__file__), os.pardir, "scenarios",
                                    "corridor.json"))
    sc = replace(sc, params=replace(sc.params, i_max=30))
    rows = compare_methods(sc, iter([23, 24]))
    assert rows == compare_methods(sc, [23, 24])
    assert [(r["method"], r["seed"]) for r in rows] == [
        ("reach-set", 23), ("reach-set", 24), ("baseline", 23), ("baseline", 24)]


def _replanning_study(sys_, init, goal, sampling, base, budgets, repeats,
                      init_mode=None):
    """Reference budget study: plans every (budget, seed) pair afresh."""
    rows = []
    for budget in budgets:
        successes = sum(
            plan(sys_, init, goal, [], sampling,
                 replace(base, i_max=budget, seed=base.seed + j),
                 init_mode=init_mode).solved
            for j in range(repeats))
        rows.append({"budget": budget, "repeats": repeats,
                     "successes": successes, "rate": successes / repeats})
    return rows


@pytest.mark.parametrize("goal_radius", [0.55, 2.5], ids=["iterating", "root-solve"])
def test_study_matches_replanning_reference_linear1d(goal_radius):
    sys_ = make_benchmark("linear1d", theta_lo=0.45, theta_hi=0.55)
    init = Box([0.0], [0.1])
    goal = GoalRegion((0,), (2.0,), goal_radius)
    sampling = Box([-0.5], [3.5])
    base = PlannerParams(i_max=1, tau_max=1.0, zeta=0.3, n_particles=40,
                         epsilon=0.05, h=0.1, seed=100)
    # seeds 100..107 solve in 5 to 17 iterations
    budgets = [40, 0, 8, 11, 8, 10]
    rows = success_rate_study(sys_, init, goal, [], sampling, base, budgets, 8)
    assert rows == _replanning_study(sys_, init, goal, sampling, base, budgets, 8)
    if goal_radius > 2.0:
        assert all(r["rate"] == 1.0 for r in rows)  # budget 0 included
    else:
        assert 0.0 < rows[2]["rate"] < rows[3]["rate"] < rows[0]["rate"]


def test_study_matches_replanning_reference_hybrid():
    sys_ = make_benchmark("jumper")
    init = Box([0.0, 0.0, 0.0, 0.0], [0.05, 0.0, 0.0, 0.0])
    goal = GoalRegion((0, 2), (1.5, 0.0), 0.5)
    sampling = Box([-0.5, -2.0, 0.0, -1.0], [3.0, 2.0, 0.1, 1.0])
    base = PlannerParams(i_max=1, tau_max=0.21, zeta=0.5, n_particles=30,
                         epsilon=0.02, h=0.03, seed=7)
    # seeds 7 and 8 solve at iterations 183 and 52
    budgets = [60, 0, 200, 52, 60, 51]
    rows = success_rate_study(sys_, init, goal, [], sampling, base, budgets, 2,
                              init_mode=Jumper.CONTACT)
    assert rows == _replanning_study(sys_, init, goal, sampling, base, budgets, 2,
                                     init_mode=Jumper.CONTACT)
    assert [r["successes"] for r in rows] == [1, 0, 2, 1, 1, 0]
