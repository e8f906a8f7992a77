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
from .dynamics import rollout_batch
from .geometry import (
    box_obstacle_clearance,
    convex_hull_2d,
    goal_contains,
    hull_obstacle_clearance,
    points_obstacle_clearance,
)

# Slack on the bounding-box shortcut of padded_collision_free: an obstacle
# the box clears by less goes to the exact per-sub-step test.
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
    """Disturbance draws from `box` for one rollout: sub-step j reads the
    substream (seed, *key, j).

    Each sub-step gets its own substream, so draws are independent of how
    many particles other rollouts used and the first m rows of a block are
    stable as the particle count grows.  A zero-width box (lo == hi on every
    axis) creates no substream: a uniform draw is lo + (hi - lo) u, which is
    lo + 0.0 for every u, and nothing else reads the sub-step's private
    generator.  Its rows are one read-only broadcast of lo + 0.0.
    """
    if np.array_equal(box.lo, box.hi) and np.all(np.isfinite(box.lo)):
        w = box.lo + 0.0
        return lambda j, count: np.broadcast_to(w, (int(count), box.dim))

    def source(j, count):
        return box.sample(rng.substream(seed, *key, j), count)

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


def padded_collision_free(traces, projection, obstacles, epsilon):
    """True when the particle hull clears every obstacle by more than epsilon
    at every sub-step of the trace.

    The hull is left alone; the padding inflates obstacles.  Obstacles that
    the bounding box of the whole projected trace clears by more than
    epsilon + BOX_MARGIN are dropped first: every particle lies in that box,
    and so does every sub-step hull, whose vertices are particles, so such an
    obstacle cannot change the decision.  The margin hands rounding ties to
    the exact path.  When no obstacle is left the trace is accepted without
    building a hull.  For the rest, a per-point prefilter rejects early (any
    particle within epsilon of an obstacle puts the hull within epsilon too);
    surviving traces get the exact hull check at each sub-step, which also
    covers the region the hull spans between particles.  A trace without a
    sub-step (a zero-duration step's new slices) has nothing to clear.
    """
    traces = np.asarray(traces, dtype=float)
    if not obstacles or traces.size == 0:
        return True
    pts = project_to_plane(traces, projection)
    # the points as an (M, 2) view of a copy that holds each coordinate in
    # one contiguous row: the box and the prefilter reduce along those rows,
    # and along the rows of a C-order (M, 2) block numpy would run its inner
    # loop once per point
    flat = np.ascontiguousarray(pts.transpose(2, 0, 1)).reshape(2, -1).T
    lo, hi = flat.min(axis=0), flat.max(axis=0)
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ValueError("trace must be finite")
    near = [o for o in obstacles
            if box_obstacle_clearance(lo, hi, o) <= epsilon + BOX_MARGIN]
    if not near:
        return True
    for obstacle in near:
        if points_obstacle_clearance(flat, obstacle).min() <= epsilon:
            return False
    for k in range(pts.shape[0]):
        hull = convex_hull_2d(pts[k])
        for obstacle in near:
            if hull_obstacle_clearance(hull, obstacle) <= epsilon:
                return False
    return True


def padded_goal_contained(pset, goal, epsilon):
    """True when every particle's projection lies in the goal shrunk by
    epsilon."""
    return bool(np.all(goal_contains(goal, pset.states, shrink=epsilon)))
