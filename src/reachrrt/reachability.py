"""Particle-based reachable sets.

A reachable set is approximated by N forward-simulated particles: initial
states and frozen parameters are sampled once, disturbances are resampled
every sub-step.  The planar footprint of a set is the convex hull of the
particles' collision projection.  Robustness padding (epsilon) never touches
the hull itself; it inflates obstacles and shrinks the goal instead.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import rng
from .dynamics import constant_w_source, rollout_batch
from .geometry import (
    box_obstacle_clearance,
    convex_hull_2d,
    goal_contains,
    hull_obstacle_clearance,
    points_obstacle_clearance,
)

# Slack on the bounding-box pruning of box_near: an obstacle the box clears
# by less goes to the exact test.
BOX_MARGIN = 1e-9


def project_to_plane(states, projection):
    """Collision-projection of a state batch, zero-padded to 2-D for scalar
    projections.

    An increasing pair (a, b) is the basic slice a:b + 1:b - a, a view of
    `states` that copies nothing; any other projection is a copy.
    """
    states = np.asarray(states, dtype=float)
    if len(projection) == 2 and 0 <= projection[0] < projection[1] < states.shape[-1]:
        a, b = projection
        return states[..., a:b + 1:b - a]
    pts = states[..., list(projection)]
    if pts.shape[-1] == 1:
        pts = np.concatenate([pts, np.zeros_like(pts)], axis=-1)
    if pts.shape[-1] != 2:
        raise ValueError("collision projection must be 1-D or 2-D")
    return pts


@dataclass(frozen=True)
class ParticleSet:
    """Reachable-set approximation at a fixed time.

    states and thetas are row-aligned; thetas never change after the initial
    draw.  mu is the deterministically tracked nominal state (the feedback
    reference), nominal the particle mean, used for tree distances.  The
    set's planar hull is not stored: the collision test hulls each sub-step
    of a trace, and rendering hulls `states` itself.
    """

    states: np.ndarray            # (N, n)
    thetas: np.ndarray            # (N, p)
    mu: np.ndarray                # (n,)
    modes: np.ndarray | None = None
    mu_mode: int | None = None

    @cached_property
    def nominal(self):
        # computed on first use: only sets that become tree nodes need it
        # over a C-order block: numpy sums a contiguous axis pairwise, so a
        # channel-major view (a rollout's final_states) would round differently
        return np.mean(np.ascontiguousarray(self.states), axis=0)


def init_particles(sys, init_region, n_particles, seed, init_mode=None,
                   nominal_only=False, stream=(rng.DOMAIN_INIT,)):
    """Sample the initial particle set.

    Initial states and parameters come from the substreams (seed, *stream, 0)
    and (seed, *stream, 1), and both shapes draw row-major blocks, so
    growing n_particles extends the set without disturbing existing rows.
    With nominal_only=True the set is a single-point baseline: every row is
    the region center with the nominal parameter.
    """
    n = int(n_particles)
    if n < 1:
        raise ValueError("need at least one particle")
    center = np.asarray(init_region.center, dtype=float)
    if nominal_only:
        states = np.tile(center, (n, 1))
        thetas = np.tile(sys.nominal_param, (n, 1))
    else:
        states = init_region.sample(rng.substream(seed, *stream, 0), n)
        thetas = sys.bounds.param.sample(rng.substream(seed, *stream, 1), n)
    modes = None
    mu_mode = None
    if sys.hybrid:
        if init_mode is None:
            raise ValueError("hybrid system needs an initial mode")
        mu_mode = int(init_mode)
        modes = np.full(n, mu_mode, dtype=np.int64)
    return ParticleSet(
        states=states,
        thetas=thetas,
        mu=center.copy(),
        modes=modes,
        mu_mode=mu_mode,
    )


def disturbance_source(box, seed, *key):
    """Disturbance draws from `box` for one rollout, in the form
    rollout_batch takes: source(j, out) writes sub-step j's (count, dim)
    block into out, drawn from the substream (seed, *key, j).

    Each sub-step gets its own substream, so draws are independent of how
    many particles other rollouts used and the first m rows of a block are
    stable as the particle count grows.  The uniform doubles go row-major
    into one (count, dim) buffer that the source reuses, and each column is
    scaled from it straight into out.  A zero-width box (lo == hi on every
    axis) creates no substream: a uniform draw is lo + (hi - lo) u, which
    is lo + 0.0 for every u, and nothing else reads the sub-step's private
    generator.  Its block never changes, so it is written at sub-step 0
    only (rollout_batch hands the source the same block every sub-step).
    """
    if np.array_equal(box.lo, box.hi) and np.all(np.isfinite(box.lo)):
        return constant_w_source(box.lo + 0.0)

    u = np.empty((0, box.dim))

    def source(j, out):
        nonlocal u
        if u.shape != out.shape:
            u = np.empty(out.shape)
        box.sample_into(rng.substream(seed, *key, j), out, u)

    return source


def compute_reach_set(sys, pset, nu, tau, h, seed, ext_id, stream=(rng.DOMAIN_EXTEND,)):
    """Propagate a particle set under commanded control nu for duration tau,
    with disturbances from the substreams (seed, *stream, ext_id, substep).

    Returns (new_set, rollout); new_set is None when the rollout left the
    finite range (the caller should reject the extension).
    """
    r = rollout_batch(
        sys,
        pset.states,
        nu,
        tau,
        h,
        pset.thetas,
        disturbance_source(sys.bounds.disturbance, seed, *stream, ext_id),
        mu0=pset.mu,
        modes0=pset.modes,
        mu_mode0=pset.mu_mode,
    )
    if r.diverged:
        return None, r
    new = ParticleSet(
        states=r.final_states,
        thetas=pset.thetas,
        mu=r.mu[-1],
        modes=None if r.modes is None else r.final_modes,
        mu_mode=None if r.mu_modes is None else int(r.mu_modes[-1]),
    )
    return new, r


def substep_boxes(pts):
    """Bounding boxes (los, his), each (S, 2), of the slices of projected
    points pts (S, N, 2), reduced column by column (along the rows of an
    (N, 2) block numpy loops once per row); ValueError on a non-finite point."""
    x, y = pts[..., 0], pts[..., 1]
    boxes = np.array([x.min(axis=1), y.min(axis=1), x.max(axis=1), y.max(axis=1)])
    if not np.all(np.isfinite(boxes)):
        raise ValueError("trace must be finite")
    return boxes[:2].T, boxes[2:].T


def box_near(lo, hi, obstacle, bound):
    """True when the box [lo, hi] comes within bound + BOX_MARGIN of the
    obstacle: the one box-pruning rule of every clearance test.  No point is
    nearer an obstacle than its box (geometry.box_obstacle_clearance), and a
    hull of points in the box lies in it, so an obstacle the box is not near
    is farther than bound from all of them.  The margin hands rounding ties
    to the exact test."""
    return box_obstacle_clearance(lo, hi, obstacle) <= bound + BOX_MARGIN


def padded_collision_free(traces, projection, obstacles, epsilon):
    """True when the particle hull clears every obstacle by more than epsilon
    at every sub-step of the trace.

    The hull is left alone; the padding inflates obstacles.  Obstacles are
    pruned by box_near against the box of the whole trace, which accepts a
    trace with none near without a hull, then against each sub-step's box,
    so only the sub-steps with a near obstacle are hulled.  In between, a
    per-point prefilter rejects early (a particle within epsilon puts the
    hull within epsilon too).  The exact hull check also covers the region
    the hull spans between particles.  A trace without a sub-step (a
    zero-duration step's new slices) has nothing to clear.
    """
    traces = np.asarray(traces, dtype=float)
    if not obstacles or traces.size == 0:
        return True
    pts = project_to_plane(traces, projection)
    los, his = substep_boxes(pts)
    lo, hi = los.min(axis=0), his.max(axis=0)
    near = [o for o in obstacles if box_near(lo, hi, o, epsilon)]
    if not near:
        return True
    for obstacle in near:
        if points_obstacle_clearance(pts, obstacle).min() <= epsilon:
            return False
    for slice_pts, slice_lo, slice_hi in zip(pts, los, his):
        nearby = [o for o in near if box_near(slice_lo, slice_hi, o, epsilon)]
        if nearby:
            hull = convex_hull_2d(slice_pts)
            if any(hull_obstacle_clearance(hull, o) <= epsilon for o in nearby):
                return False
    return True


def padded_goal_contained(pset, goal, epsilon):
    """True when every particle's projection lies in the goal shrunk by
    epsilon."""
    return bool(np.all(goal_contains(goal, pset.states, shrink=epsilon)))
