"""Plan validation and the paper's two experiments.

monte_carlo_validate executes a plan on fresh uncertainty draws against the
unpadded constraints: a rollout fails on obstacle contact at any sub-step or
by ending outside the goal, collision taking precedence and counted once.
The rollouts are one particle set from the planner's own init_particles,
stepped by walk_plan (which replay_validate shares), with every draw in the
validation stream domain, so they are independent of everything the planner
consumed even under the same numeric seed.  Obstacles are pruned per
sub-step by reachability.box_near.

The paper's two experiments live here as well, each in one function that
the command line and the acceptance tests share: success_rate_study
(success rate against the iteration budget) and compare_methods (the
robust planner against the nominal padded baseline).
"""

from dataclasses import asdict, dataclass, replace

import numpy as np

from . import rng
from .benchmarks import GRAVITY, Quadrotor
from .geometry import goal_contains, points_obstacle_clearance
from .reachability import (
    box_near,
    compute_reach_set,
    init_particles,
    padded_collision_free,
    padded_goal_contained,
    project_to_plane,
    substep_boxes,
)
from .planner import ParamError, check_query, plan as run_plan


@dataclass(frozen=True)
class ValidityRecord:
    rollouts: int
    collisions: int
    goal_misses: int
    valid: bool
    worst_clearance: float

    def as_dict(self):
        """The report.json fields."""
        return {**asdict(self), "worst_clearance": _json_clearance(self.worst_clearance)}


def _json_clearance(c):
    """A worst clearance as result files hold it: JSON has no infinity, so
    the +inf of a run without obstacles is null."""
    return None if c == np.inf else c


def _fold_clearance(worst, states, proj, obstacles):
    """Fold the clearances of the sub-step slices states (S, m, n) into the
    per-rollout minimum `worst`, in place.

    An obstacle is measured on a slice only when the slice's box is near it
    (reachability.box_near) within max(worst so far, 0): a skipped pair can
    neither collide nor lower the reported minimum.  Slices and obstacles
    are folded in order, and numpy's minimum keeps the later of equal
    values, so each rollout keeps the sign of a zero minimum.
    """
    if not obstacles:
        return
    pts = project_to_plane(states, proj)
    bound = float(worst.min())
    for sl, lo, hi in zip(pts, *substep_boxes(pts)):
        for obstacle in obstacles:
            if not box_near(lo, hi, obstacle, max(bound, 0.0)):
                continue
            clear = points_obstacle_clearance(sl, obstacle)
            np.minimum(worst, clear, out=worst)
            bound = min(bound, float(clear.min()))


def walk_plan(sys, plan_obj, root, seed, stream, keys):
    """Propagate the particle set `root` along a plan, one step at a time.

    Yields (root.states[None], root) first, then for each step the sub-step
    slices it adds and the set it ends in, (states[1:], set): slice 0 of a
    step's trace repeats the previous set, so every state along the plan is
    yielded once.  A zero-duration step adds an empty (0, N, n) block.  Step
    k draws its disturbances from the substreams (seed, *stream, keys[k],
    substep).  Raises RuntimeError when a step's rollout diverges.
    """
    yield root.states[None], root
    h = plan_obj.meta["h"]
    cur, root = root, None  # hold no set but the current one, as a plain loop does
    for step, key in zip(plan_obj.steps, keys):
        cur, r = compute_reach_set(sys, cur, np.asarray(step.u, dtype=float), step.tau,
                                   h, seed, key, stream=stream)
        if cur is None:
            raise RuntimeError("plan rollout diverged; plan and system disagree")
        yield r.states[1:], cur


def _is_integer(value):
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_settings(rollouts, seed):
    """The rules on the Monte-Carlo settings, which the loader and the
    command line forward under their key or flag: rollouts and seed must be
    integers, rollouts at least 1 and seed at least 0.  Raises
    planner.ParamError naming "rollouts" or "seed"."""
    for field, value, least, rule in (("rollouts", rollouts, 1, "must be positive"),
                                      ("seed", seed, 0, "must be nonnegative")):
        if not _is_integer(value):
            raise ParamError(field, "must be an integer")
        if value < least:
            raise ParamError(field, rule)


def check_study(budgets, repeats):
    """The rules on the budget-study settings, which the command line
    forwards under its flag: budgets must be a nonempty list of nonnegative
    integers, repeats an integer at least 1.  Raises planner.ParamError
    naming "budgets" or "repeats"."""
    if len(budgets) == 0 or not all(_is_integer(b) and b >= 0 for b in budgets):
        raise ParamError("budgets", "must be a nonempty list of nonnegative integers")
    if not (_is_integer(repeats) and repeats >= 1):
        raise ParamError("repeats", "must be an integer at least 1")


def monte_carlo_validate(sys, plan_obj, init_region, goal, obstacles,
                         m_rollouts, seed, init_mode=None):
    """Execute a plan m_rollouts times under fresh uncertainty draws.

    The m rollouts are one particle set, sampled by init_particles and
    propagated step by step by compute_reach_set, so the plan's commanded
    controls go through the system's own control resolution (feedback stays
    active).  Initial states and parameters come from the substreams
    (seed, DOMAIN_VALIDATE, 0 | 1), the disturbances of step k, sub-step j
    from (seed, DOMAIN_VALIDATE, 2, k, j).  Checks run against the unpadded
    obstacles and goal, at the initial states and after every sub-step, each
    sub-step pruned by reachability.box_near.  Settings that
    check_settings refuses raise its ParamError before any draw.
    """
    check_settings(m_rollouts, seed)
    m = int(m_rollouts)
    obstacles = list(obstacles)
    proj = sys.collision_projection
    if init_mode is None:
        init_mode = plan_obj.meta.get("init_mode")

    cur = init_particles(sys, init_region, m, seed, init_mode=init_mode,
                         stream=(rng.DOMAIN_VALIDATE,))
    worst = np.full(m, np.inf)  # per rollout
    for block, cur in walk_plan(sys, plan_obj, cur, seed, (rng.DOMAIN_VALIDATE, 2),
                                range(len(plan_obj.steps))):
        _fold_clearance(worst, block, proj, obstacles)

    collided = worst <= 0.0
    in_goal = goal_contains(goal, cur.states, shrink=0.0)
    collisions = int(collided.sum())
    goal_misses = int((~collided & ~in_goal).sum())
    return ValidityRecord(
        rollouts=m,
        collisions=collisions,
        goal_misses=goal_misses,
        valid=(collisions == 0 and goal_misses == 0),
        worst_clearance=float(worst.min()),
    )


def replay_validate(sys, plan_obj, init_region, goal, obstacles):
    """Check a plan on the planner's own particle draws (exact replay).

    A correctly produced plan always passes: growth required strictly more
    clearance and goal margin than the unpadded constraints ask for.
    """
    meta = plan_obj.meta
    cur = init_particles(sys, init_region, meta["n_particles"], plan_obj.seed,
                         init_mode=meta.get("init_mode"),
                         nominal_only=meta.get("baseline", False))
    proj = sys.collision_projection
    for block, cur in walk_plan(sys, plan_obj, cur, plan_obj.seed, (rng.DOMAIN_EXTEND,),
                                [step.ext_id for step in plan_obj.steps]):
        if not padded_collision_free(block, proj, obstacles, 0.0):
            return False
    return padded_goal_contained(cur, goal, 0.0)


def _open_loop_quadrotor(sys):
    """The quadrotor plant under sys (a feedback wrapper's open-loop base),
    or None when sys is no quadrotor."""
    base = getattr(sys, "base", sys)
    return base if isinstance(base, Quadrotor) else None


def quadrotor_lipschitz_constant(quad, v_max, h, grid=1000):
    """Valid Lipschitz constant of the quadrotor sub-step increment map.

    The (state, control) Jacobian J depends only on s_i = 2 a_i |v_i|, and
    its operator norm is maximized over a g x g grid on the rectangle
    [0, s_max]^2, s_max = 2 a_max v_max, then padded by the Jacobian's own
    per-cell drift, giving an upper bound rather than a sample maximum.

    Only the grid's border (s_1 or s_2 in {0, s_max}, 4g matrices) is
    evaluated, because every maximizer of the full grid lies on it.  J
    splits into two 2 x 2 blocks, rows {0, 2} and {1, 3}:
    A_1(s_1) = [[1, h g / 4], [-s_1, g]] and A_2(s_2) = A_1(s_2) diag(1, -1),
    which has the singular values of A_1(s_2).  So |J| is the larger of
    |A_1(s_1)| and |A_1(s_2)|.  s -> |A_1(s)| is the norm of an affine map,
    hence convex, and attains its maximum over [0, s_max] at an endpoint.
    The result equals the full grid's bit for bit, except where the norm is
    flat across the grid to within eigvalsh's rounding (s_max below about
    1e-10): there an interior point can read one ulp above the border.
    Returns (K, meta).
    """
    base = _open_loop_quadrotor(quad)
    if base is None:
        raise TypeError("closed-form Lipschitz constant is quadrotor-specific")
    a_hi = float(base.bounds.param.hi.max())
    s_max = 2.0 * a_hi * float(v_max)
    g = int(grid)
    s = np.linspace(0.0, s_max, g)
    ends = s[[0, -1]]
    # border rows (s_1 at an end, every s_2), then border columns
    S1 = np.concatenate([np.repeat(ends, g), np.tile(s, 2)])
    S2 = np.concatenate([np.tile(s, 2), np.repeat(ends, g)])

    J = np.zeros((len(S1), 4, 6))
    J[:, 0, 2] = 1.0
    J[:, 1, 3] = 1.0
    J[:, 2, 2] = -S1
    J[:, 3, 3] = -S2
    J[:, 0, 4] = h * GRAVITY / 4.0
    J[:, 1, 5] = -h * GRAVITY / 4.0
    J[:, 2, 4] = GRAVITY
    J[:, 3, 5] = -GRAVITY

    JJt = J @ np.swapaxes(J, 1, 2)
    eig = np.linalg.eigvalsh(JJt)[:, -1]
    k_grid = float(np.sqrt(eig.max()))
    spacing = s_max / max(g - 1, 1)
    K = k_grid + spacing  # Jacobian entries are 1-Lipschitz in s
    return K, {"grid": g, "grid_max": k_grid, "cell_slack": spacing}


def lipschitz_stats(sys, sampling_box, h):
    """stats.json extras: the quadrotor's Lipschitz constant over every
    speed its trajectories can reach; {} for other systems."""
    base = _open_loop_quadrotor(sys)
    if base is None:
        return {}
    # bound must hold along trajectories: drag self-limits speed where
    # a_lo v^2 = g u_max + w_max, plus one sub-step of forcing overshoot
    u_max = float(base.bounds.control.hi.max())
    w_max = float(max(np.abs(base.bounds.disturbance.lo).max(),
                      np.abs(base.bounds.disturbance.hi).max()))
    a_lo = float(base.bounds.param.lo.min())
    v_box = float(max(abs(sampling_box.lo[2:4]).max(),
                      abs(sampling_box.hi[2:4]).max()))
    force = GRAVITY * u_max + w_max
    v_inv = max(v_box, (force / a_lo) ** 0.5) + h * force
    K, kmeta = quadrotor_lipschitz_constant(sys, v_inv, h, grid=512)
    return {"lipschitz_constant": K, "lipschitz_meta": {"v_max": v_inv, **kmeta}}


def success_rate_study(sys, init_region, goal, obstacles, sampling_box,
                       base_params, budgets, repeats, init_mode=None):
    """Planner success fraction per iteration budget.

    plan() draws nothing that depends on i_max, so the run with budget B is
    a prefix of the run with any larger budget.  Each seed is therefore
    planned once, at the largest budget, and counts as solved within B when
    it solved in at most B iterations (a root solve takes 0).  The same
    seeds serve every budget, so the curve is nondecreasing by construction.
    Settings that check_study refuses raise its ParamError before any plan.
    """
    check_study(budgets, repeats)
    budgets, repeats = [int(b) for b in budgets], int(repeats)
    solved_at = []
    for j in range(repeats):
        params = replace(base_params, i_max=max(budgets),
                         seed=base_params.seed + j)
        result = run_plan(sys, init_region, goal, obstacles, sampling_box,
                          params, init_mode=init_mode)
        if result.solved:
            solved_at.append(result.stats.iterations)
    rows = []
    for budget in budgets:
        successes = sum(it <= budget for it in solved_at)
        rows.append({
            "budget": budget,
            "repeats": repeats,
            "successes": successes,
            "rate": successes / repeats,
        })
    return rows


def compare_methods(scenario, seeds):
    """Robust planner vs the nominal padded baseline over a seed sweep.

    Each seed is planned with the scenario's particle reach sets and again
    with the single-particle baseline padded by its baseline_padding; every
    solved plan is Monte-Carlo validated with the scenario's validation
    rollouts and seed.  Returns one row per (method, seed), the reach-set
    rows first.  Rows hold no wall time, so they repeat byte for byte.  A
    row's worst_clearance is None when the scenario has no obstacle.  Every
    run's query passes planner.check_query before the first plan, so a
    refused one raises before any seed is planned.
    """
    sys = scenario.build_system()
    seeds = list(seeds)  # read once per method and once for the checks

    def runs():
        for method in ("reach-set", "baseline"):
            for seed in seeds:
                params = replace(scenario.params, seed=seed)
                if method == "baseline":
                    params = params.as_baseline(scenario.baseline_padding)
                yield method, seed, params

    for _, _, params in runs():
        check_query(scenario.init_region, scenario.goal, scenario.obstacles,
                    sys.collision_projection, params)
    rows = []
    for method, seed, params in runs():
        result = run_plan(sys, scenario.init_region, scenario.goal,
                          scenario.obstacles, scenario.sampling_box, params,
                          init_mode=scenario.init_mode)
        row = {"seed": seed, "method": method, "solved": result.solved,
               "iterations": result.stats.iterations, "valid": False,
               "collisions": None, "goal_misses": None, "worst_clearance": None}
        if result.solved:
            rec = monte_carlo_validate(
                sys, result.plan, scenario.init_region, scenario.goal,
                scenario.obstacles, scenario.validation_rollouts,
                scenario.validation_seed, init_mode=scenario.init_mode)
            row.update(valid=rec.valid, collisions=rec.collisions,
                       goal_misses=rec.goal_misses,
                       worst_clearance=_json_clearance(round(rec.worst_clearance, 4)))
        rows.append(row)
    return rows
