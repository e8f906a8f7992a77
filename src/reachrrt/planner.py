"""RRT over reachable sets.

Each iteration samples a state, picks a tree node (nearest nominal, or
uniform among nominals within zeta of the sample), samples a constant
control and a duration, and propagates the node's particle set.  Extensions
whose hull comes within epsilon of an obstacle at any sub-step are discarded;
a new node whose particles all reach the shrunken goal solves the query.

Hybrid systems additionally sample a target mode among those reachable from
the chosen node and reject extensions whose nominal ends in a different mode
or whose particles straddle modes.  The nominal rides along as row N of the
particle rollout, so one rollout answers both gates.  The reachable modes
come from deterministic probing that depends only on the node, so plan()
probes each node once, the first time it is selected, and keeps the result
for the rest of the run.

The collision test prunes obstacles by the bounding box of the whole trace,
then of each sub-step (see padded_collision_free), so an extension hulls
only the sub-steps near an obstacle.  A node keeps a copy of its own
particle states, not a view into the rollout trace it came from.
"""

import time
from dataclasses import dataclass, replace

import numpy as np

from . import rng
from .dynamics import MAX_SUBSTEPS, in_range, reachable_modes, rollout
from .geometry import Box, box_obstacle_clearance
from .reachability import (
    ParticleSet,
    compute_reach_set,
    init_particles,
    padded_collision_free,
    padded_goal_contained,
)
from .tree import DualTree, PlanStep, build_path


class ParamError(ValueError):
    """A broken rule of PlannerParams.validated, validation.check_settings or
    validation.check_study: the message is `field`, then `rule`."""
    def __init__(self, field, rule):
        super().__init__(f"{field} {rule}")
        self.field, self.rule = field, rule


class InitClearanceError(ValueError):
    """The set a plan starts from comes within the planning padding of an
    obstacle (check_init_clearance)."""


def check_init_clearance(name, value, init_region, projection, obstacles):
    """Refuse an initial region whose collision projection comes within a
    padding (epsilon, baseline_padding) of an obstacle: every extension's
    trace starts with the root set, so the planner would reject every
    extension and burn its budget.  The region, not the particles drawn
    from it, is tested: a root set that happens to clear the obstacle says
    nothing of the rollouts a validator draws from the same region.

    Region and obstacle are each a core box [lo, hi] grown by a radius
    (geometry.Box and Ball), except that a region seen through a 1-D
    projection is the interval it covers; their clearance is the signed
    distance between the two core boxes minus both radii.
    """
    proj = list(projection)
    lo, hi, r = init_region.lo[proj], init_region.hi[proj], init_region.radius
    if len(proj) == 1:  # zero-padded to the plane, as the planner does
        lo, hi, r = np.append(lo - r, 0.0), np.append(hi + r, 0.0), 0.0
    for i, obstacle in enumerate(obstacles):
        clearance = box_obstacle_clearance(lo, hi, obstacle, radius=r)
        if clearance <= value:
            raise InitClearanceError(
                f"the initial set comes within {name} {value!r} of obstacles[{i}] "
                f"(clearance {clearance!r}): every extension would be rejected")


def root_region(init_region, params):
    """(padding name, padding, region) that check_init_clearance tests for
    the root set plan() starts from: the initial region within epsilon, or
    for the baseline the region's center within its padding."""
    if params.baseline:
        center = init_region.center
        return "baseline_padding", params.epsilon, Box(center, center)
    return "epsilon", params.epsilon, init_region


@dataclass(frozen=True)
class PlannerParams:
    i_max: int = 1000
    tau_max: float = 1.0
    zeta: float = 0.0            # node-selection radius; 0 recovers pure nearest
    n_particles: int = 100
    epsilon: float = 0.0         # obstacle inflation / goal shrink
    h: float = 0.1               # sub-step
    seed: int = 0
    nn_weights: tuple | None = None
    baseline: bool = False       # one particle: region center, nominal parameter

    def validated(self, goal):
        # each test is written so that a NaN fails it
        for field in ("i_max", "n_particles", "seed"):
            value = getattr(self, field)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ParamError(field, "must be an integer")
        if self.i_max < 0:
            raise ParamError("i_max", "must be nonnegative")
        if not self.tau_max > 0:
            raise ParamError("tau_max", "must be positive")
        if not self.zeta >= 0:
            raise ParamError("zeta", "must be nonnegative")
        if self.n_particles < 1:
            raise ParamError("n_particles", "must be positive")
        if not self.epsilon >= 0:
            raise ParamError("epsilon", "must be nonnegative")
        if not (0 < self.h <= self.tau_max and self.tau_max / self.h <= MAX_SUBSTEPS):
            raise ParamError("h", f"{self.h!r} must lie in [tau_max / {MAX_SUBSTEPS}, tau_max]")
        if self.seed < 0:
            raise ParamError("seed", "must be nonnegative")
        if self.nn_weights is not None and not np.all(np.isfinite(self.nn_weights)):
            raise ParamError("nn_weights", "must hold finite numbers")
        if not self.epsilon < goal.radius:
            raise ParamError("epsilon", f"{self.epsilon!r} must be smaller than the goal "
                             f"radius {goal.radius!r}")
        return self

    def as_baseline(self, padding):
        """The padded baseline: one particle from the initial region's
        center with the nominal parameter, obstacles and goal padded by
        `padding`.  The particle still draws every sub-step disturbance, as
        each particle does, so it is not the nominal trajectory."""
        return replace(self, baseline=True, n_particles=1, epsilon=padding)


@dataclass
class PlanStats:
    iterations: int = 0
    nodes_added: int = 0
    rejected_collision: int = 0
    rejected_divergence: int = 0
    rejected_mode: int = 0
    wall_time: float = 0.0

    def as_dict(self):
        # wall time stays out: stats files must be byte-identical across runs
        return {
            "iterations": self.iterations,
            "nodes_added": self.nodes_added,
            "rejected_collision": self.rejected_collision,
            "rejected_divergence": self.rejected_divergence,
            "rejected_mode": self.rejected_mode,
        }


@dataclass
class PlanResult:
    status: str          # "solved" | "budget_exhausted"
    plan: object | None
    stats: PlanStats
    tree: DualTree

    @property
    def solved(self):
        return self.status == "solved"


@dataclass(frozen=True)
class ExtendOutcome:
    reach: object | None
    rollout: object | None
    reject: str | None   # None | "nominal_mode" | "mode_straddle" | "diverged"


def sample_node(tree, x_s, zeta, gen):
    """Node selection: the unique nearest nominal when the sample is farther
    than zeta from the tree, otherwise uniform among all nominals within
    zeta.  The spread keeps dense regions from absorbing every extension."""
    nid, d = tree.nearest_nominal(x_s)
    if d > zeta:
        return nid
    cands = tree.range_nominal(x_s, zeta)
    return cands[int(gen.integers(len(cands)))]


def sample_control(control_box, tau_max, gen):
    """Uniform commanded control and duration; tau = 0 is legal and yields a
    duplicate of the parent.  Draw order (u then tau) is part of the
    replayable stream contract."""
    u = control_box.sample(gen)
    tau = float(gen.uniform(0.0, tau_max))
    return u, tau


def sample_control_hybrid(control_box, tau_max, modes, gen):
    """Hybrid control draw: (u, tau) as in the smooth case, then a target
    mode uniform over `modes`, the modes a segment from the chosen node can
    reach (dynamics.reachable_modes; probing consumes no randomness)."""
    u, tau = sample_control(control_box, tau_max, gen)
    sigma = int(modes[int(gen.integers(len(modes)))])
    return u, tau, sigma


def extend_hybrid(sys, reach, u, tau, sigma_s, h, seed, ext_id):
    """One hybrid extension attempt against a target mode sigma_s.

    Gates in order: the nominal rollout must end in sigma_s, the particle
    rollout must stay finite, and every particle must end in sigma_s (no
    straddling the guard).  The nominal is row N of the particle rollout,
    so the first gate reads its final mode there.  Only when the particles
    diverged (which cuts the trace) or the nominal left the finite range
    (dynamics.in_range) is the nominal rolled out alone with
    dynamics.rollout, so that each reject keeps its reason.
    """
    pset, r = compute_reach_set(sys, reach, u, tau, h, seed, ext_id)
    if pset is not None and in_range(r.mu):
        end_mode = r.mu_modes[-1]
    else:
        lone = rollout(sys, reach.mu, u, tau, h, mode=reach.mu_mode)
        if lone.diverged:
            return ExtendOutcome(None, None, "diverged")
        end_mode = lone.modes[-1, 0]
    if int(end_mode) != int(sigma_s):
        return ExtendOutcome(None, None, "nominal_mode")
    if pset is None:
        return ExtendOutcome(None, r, "diverged")
    if np.any(pset.modes != int(sigma_s)):
        return ExtendOutcome(None, r, "mode_straddle")
    return ExtendOutcome(pset, r, None)


def plan(sys, init_region, goal, obstacles, sampling_box, params, init_mode=None):
    """Grow the tree until some node's particles all reach the shrunken goal
    or the iteration budget runs out.

    Every iteration consumes budget whether or not its extension is kept.
    All randomness derives from params.seed; a run is reproducible from the
    seed alone.  Nodes are represented by their particle mean; meta records
    that as "nominal_kind" so plan files keep their format.  An epsilon of
    at least the goal radius leaves no goal to reach (ParamError), and an
    initial region within epsilon of an obstacle (for the baseline: its
    center) leaves no extension to keep, since every trace starts with its
    parent's states (InitClearanceError, see check_init_clearance): both
    raise before the first draw.
    """
    params = params.validated(goal)
    meta = {
        "n_particles": int(params.n_particles),
        "epsilon": float(params.epsilon),
        "h": float(params.h),
        "tau_max": float(params.tau_max),
        "zeta": float(params.zeta),
        "nominal_kind": "mean",
        "baseline": bool(params.baseline),
    }
    if init_mode is not None:
        meta["init_mode"] = int(init_mode)

    obstacles = list(obstacles)
    proj = sys.collision_projection
    check_init_clearance(*root_region(init_region, params), proj, obstacles)

    t0 = time.perf_counter()
    root = init_particles(
        sys, init_region, params.n_particles, params.seed,
        init_mode=init_mode, nominal_only=params.baseline,
    )
    tree = DualTree(root, weights=params.nn_weights)
    stats = PlanStats()

    root_solved = padded_goal_contained(root, goal, params.epsilon)
    solved_id = 0 if root_solved else None

    gen = rng.substream(params.seed, rng.DOMAIN_PLANNER)
    modes_of = {}   # node id -> its reachable modes, probed on first selection

    for i in range(0 if root_solved else params.i_max):
        stats.iterations = i + 1
        x_s = sampling_box.sample(gen)
        nid = sample_node(tree, x_s, params.zeta, gen)
        reach = tree.nodes[nid].reach

        if sys.hybrid:
            if nid not in modes_of:
                modes_of[nid] = reachable_modes(sys, reach.mu, reach.mu_mode,
                                                params.tau_max, params.h)
            u, tau, sigma = sample_control_hybrid(
                sys.bounds.control, params.tau_max, modes_of[nid], gen)
            out = extend_hybrid(sys, reach, u, tau, sigma, params.h,
                                params.seed, i)
            if out.reject in ("nominal_mode", "mode_straddle"):
                stats.rejected_mode += 1
                continue
            if out.reject == "diverged":
                stats.rejected_divergence += 1
                continue
            pset, r = out.reach, out.rollout
            edge_mode = sigma
        else:
            u, tau = sample_control(sys.bounds.control, params.tau_max, gen)
            pset, r = compute_reach_set(sys, reach, u, tau, params.h,
                                        params.seed, i)
            if pset is None:
                stats.rejected_divergence += 1
                continue
            edge_mode = None

        if not padded_collision_free(r.states, proj, obstacles, params.epsilon):
            stats.rejected_collision += 1
            continue

        # the node keeps its own slice, not a view that pins the whole trace
        pset = ParticleSet(pset.states.copy(), pset.thetas, pset.mu.copy(),
                           None if pset.modes is None else pset.modes.copy(), pset.mu_mode)
        new_id = tree.add_node(nid, pset, PlanStep(
            u=tuple(float(v) for v in u), tau=float(tau), ext_id=i,
            node_id=len(tree), mode=edge_mode))
        stats.nodes_added += 1
        if padded_goal_contained(pset, goal, params.epsilon):
            solved_id = new_id
            break

    plan_obj = (None if solved_id is None else
                build_path(tree, solved_id, params.seed, sys.name, meta=meta))
    stats.wall_time = time.perf_counter() - t0
    return PlanResult("budget_exhausted" if plan_obj is None else "solved",
                      plan_obj, stats, tree)

