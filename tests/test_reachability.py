"""Particle reachability tests.

The 1-D benchmark admits a closed-form reachable interval, which serves as
the oracle: sampled sets must always be contained in it and approach it
from inside as the particle count grows.
"""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from reachrrt import reachability, rng
from reachrrt.benchmarks import Jumper, make_benchmark
from reachrrt.geometry import (
    Ball,
    Box,
    GoalRegion,
    convex_hull_2d,
    hull_obstacle_clearance,
    points_obstacle_clearance,
)
from reachrrt.reachability import (
    ParticleSet,
    compute_reach_set,
    disturbance_source,
    init_particles,
    padded_collision_free,
    padded_goal_contained,
    project_to_plane,
)

from oracles import exact_interval_reach, point_in_hull

SEED = 17


def _linear(theta_lo=0.4, theta_hi=0.6, w_lo=-0.1, w_hi=0.1):
    return make_benchmark("linear1d", theta_lo=theta_lo, theta_hi=theta_hi,
                          w_lo=w_lo, w_hi=w_hi)


# ------------------------------------------------------------------ init


def test_init_draws_land_in_their_boxes():
    sys_ = _linear()
    region = Box([0.0], [0.1])
    pset = init_particles(sys_, region, 500, SEED)
    assert pset.states.shape == (500, 1)
    assert np.all(pset.states >= 0.0) and np.all(pset.states <= 0.1)
    assert np.all(pset.thetas >= 0.4) and np.all(pset.thetas <= 0.6)
    assert np.array_equal(pset.mu, region.center)


def test_init_parameter_marginal_is_uniform():
    sys_ = _linear()
    pset = init_particles(sys_, Box([0.0], [0.1]), 2000, SEED)
    scaled = (pset.thetas[:, 0] - 0.4) / 0.2
    p = stats.kstest(scaled, "uniform").pvalue
    assert p > 0.01


def test_init_state_and_parameter_streams_are_separate():
    sys_ = _linear()
    pset = init_particles(sys_, Box([0.0], [1.0]), 4000, SEED)
    r = np.corrcoef(pset.states[:, 0], pset.thetas[:, 0])[0, 1]
    assert abs(r) < 0.05


@pytest.mark.parametrize("region", [Box([0.0], [0.1]), Ball([0.05], 0.05)],
                         ids=["box", "ball"])
def test_init_prefix_stability_in_particle_count(region):
    sys_ = _linear()
    small = init_particles(sys_, region, 50, SEED)
    large = init_particles(sys_, region, 400, SEED)
    assert np.array_equal(small.states, large.states[:50])
    assert np.array_equal(small.thetas, large.thetas[:50])


# (box, ball) initial regions per system; the jumper starts in contact
PREFIX_REGIONS = {
    "linear1d": (Box([0.0], [0.1]), Ball([0.05], 0.05)),
    "quadrotor": (Box([0.0, -0.1, -0.1, -0.1], [0.2, 0.1, 0.1, 0.1]),
                  Ball([0.1, 0.0, 0.0, 0.0], 0.1)),
    "jumper": (Box([0.0, 0.0, 0.0, 0.0], [0.1, 0.1, 0.0, 0.0]),
               Ball([0.05, 0.0, 0.0, 0.0], 0.05)),
}


@pytest.mark.parametrize("kind", ["box", "ball"])
@pytest.mark.parametrize("name", sorted(PREFIX_REGIONS))
def test_reach_set_rows_are_prefix_stable_in_particle_count(name, kind):
    # the first N rows of a kN-row reach set are the N-row set at every
    # sub-step, so a replay with more particles contains the planner's
    sys_ = make_benchmark(name)
    region = PREFIX_REGIONS[name][kind == "ball"]
    mode = Jumper.CONTACT if sys_.hybrid else None
    u = sys_.bounds.control.sample(np.random.default_rng(4))
    if sys_.hybrid:
        u[1] = 1.0  # command a jump, so rows fire at their own latencies
    small, large = (compute_reach_set(sys_, init_particles(sys_, region, n, SEED, init_mode=mode),
                                      u, 0.75, 0.1, SEED, 3)[1] for n in (10, 40))
    assert len(small.lengths) == 8 and not (small.diverged or large.diverged)
    assert small.states.tobytes() == np.ascontiguousarray(large.states[:, :10]).tobytes()
    assert small.mu.tobytes() == large.mu.tobytes()
    if sys_.hybrid:
        assert small.modes.tobytes() == np.ascontiguousarray(large.modes[:, :10]).tobytes()
        assert (small.modes[-1] == Jumper.FLIGHT).any()


def test_init_nominal_only_baseline():
    sys_ = _linear()
    pset = init_particles(sys_, Box([0.0], [0.1]), 5, SEED, nominal_only=True)
    assert np.all(pset.states == 0.05)
    assert np.all(pset.thetas == sys_.nominal_param)


def test_hybrid_init_requires_mode():
    jumper = make_benchmark("jumper")
    region = Box([0.0, 0.0, 0.0, 0.0], [0.1, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        init_particles(jumper, region, 10, SEED)
    pset = init_particles(jumper, region, 10, SEED, init_mode=Jumper.CONTACT)
    assert pset.modes.tolist() == [0] * 10
    assert pset.mu_mode == 0


def test_projection_pads_scalars_and_rejects_3d():
    pts = project_to_plane(np.array([[1.0, 2.0], [3.0, 4.0]]), (1,))
    assert np.array_equal(pts, np.array([[2.0, 0.0], [4.0, 0.0]]))
    with pytest.raises(ValueError):
        project_to_plane(np.zeros((2, 5)), (0, 1, 2))
    with pytest.raises(IndexError):
        project_to_plane(np.zeros((2, 4)), (0, 4))


@pytest.mark.parametrize("projection", [(0, 1), (0, 2), (1, 3), (2, 0), (0,)])
def test_projection_of_a_trace_matches_fancy_indexing(projection):
    sys_ = make_benchmark("quadrotor")
    pset = init_particles(sys_, Box([0.0] * 4, [0.5] * 4), 40, SEED)
    _, r = compute_reach_set(sys_, pset, np.array([0.3, -0.2]), 0.37, 0.1, SEED, 0)
    want = r.states[..., list(projection)]
    if len(projection) == 1:
        want = np.concatenate([want, np.zeros_like(want)], axis=-1)
    got = project_to_plane(r.states, projection)
    assert got.shape == want.shape == r.states.shape[:-1] + (2,)
    assert got.tobytes() == want.tobytes()
    # an increasing pair is a view of the trace, anything else a copy
    assert np.shares_memory(got, r.states) == (projection in [(0, 1), (0, 2), (1, 3)])


# ------------------------------------------------------- exact containment


def test_sampled_interval_contained_in_exact():
    sys_ = _linear()
    exact = exact_interval_reach(sys_, (0.0, 0.1), 1.0)
    assert exact == pytest.approx((0.3, 0.8), abs=1e-12)
    root = init_particles(sys_, Box([0.0], [0.1]), 300, SEED)
    pset, _ = compute_reach_set(sys_, root, np.zeros(1), 1.0, 0.1, SEED, 0)
    assert pset.states.min() >= exact[0] - 1e-12
    assert pset.states.max() <= exact[1] + 1e-12


def test_containment_across_random_configurations():
    gen = rng.substream(SEED, rng.DOMAIN_CHECK, 0)
    for trial in range(40):
        lo = float(gen.uniform(-1.0, 0.0))
        hi = lo + float(gen.uniform(0.01, 0.5))
        wmag = float(gen.uniform(0.0, 0.3))
        sys_ = _linear(theta_lo=lo, theta_hi=hi, w_lo=-wmag, w_hi=wmag)
        x0 = Box([float(gen.uniform(-1, 1))], [float(gen.uniform(1.01, 2.0))])
        tau = float(gen.uniform(0.0, 2.0))
        root = init_particles(sys_, x0, 64, SEED + trial)
        pset, _ = compute_reach_set(sys_, root, np.zeros(1), tau, 0.1,
                                    SEED + trial, trial)
        exact = exact_interval_reach(sys_, (x0.lo[0], x0.hi[0]), tau)
        assert pset.states.min() >= exact[0] - 1e-9
        assert pset.states.max() <= exact[1] + 1e-9


def test_sampled_interval_tightens_with_more_particles():
    sys_ = _linear(w_lo=0.0, w_hi=0.0)
    exact = exact_interval_reach(sys_, (0.0, 0.1), 1.0)
    gaps = []
    for n in (20, 2000):
        root = init_particles(sys_, Box([0.0], [0.1]), n, SEED)
        pset, _ = compute_reach_set(sys_, root, np.zeros(1), 1.0, 0.1, SEED, 0)
        gaps.append(max(pset.states.min() - exact[0], exact[1] - pset.states.max()))
    assert gaps[1] < gaps[0]


def test_exact_interval_is_linear1d_only():
    with pytest.raises(TypeError):
        exact_interval_reach(make_benchmark("quadrotor"), (0.0, 1.0), 1.0)


# -------------------------------------------------------------- extension


def test_extension_keeps_parameters_frozen():
    sys_ = _linear()
    root = init_particles(sys_, Box([0.0], [0.1]), 100, SEED)
    pset, _ = compute_reach_set(sys_, root, np.zeros(1), 0.5, 0.1, SEED, 3)
    assert np.array_equal(pset.thetas, root.thetas)
    child, _ = compute_reach_set(sys_, pset, np.zeros(1), 0.25, 0.1, SEED, 4)
    assert np.array_equal(child.thetas, root.thetas)


def test_extension_monotone_in_particle_count():
    sys_ = _linear()
    small_root = init_particles(sys_, Box([0.0], [0.1]), 40, SEED)
    large_root = init_particles(sys_, Box([0.0], [0.1]), 160, SEED)
    small, _ = compute_reach_set(sys_, small_root, np.zeros(1), 0.8, 0.1, SEED, 7)
    large, _ = compute_reach_set(sys_, large_root, np.zeros(1), 0.8, 0.1, SEED, 7)
    assert np.array_equal(small.states, large.states[:40])
    small_hull, large_hull = (
        convex_hull_2d(project_to_plane(s.states, sys_.collision_projection))
        for s in (small, large))
    for v in small_hull:
        assert point_in_hull(large_hull, v)


def _written(source, j, count, dim, layout="C"):
    """The (count, dim) block source writes at sub-step j, called once.
    A channel-major layout is the transposed view a rollout hands it."""
    out = np.full((count, dim), np.nan) if layout == "C" else np.full((dim, count), np.nan).T
    source(j, out)
    return out


def _substep_block(source, j, count, dim, layout="C"):
    """The block at sub-step j of a rollout: the source is handed the
    same block at sub-steps 0, 1, ..., j, as rollout_batch does."""
    out = _written(source, 0, count, dim, layout)
    for i in range(1, j + 1):
        source(i, out)
    return out


def test_extension_draws_differ_by_id_and_substep():
    sys_ = _linear()
    box = sys_.bounds.disturbance
    src = disturbance_source(box, SEED, rng.DOMAIN_EXTEND, 5)
    a = _written(src, 0, 50, 1)
    b = _written(src, 1, 50, 1)
    c = _written(disturbance_source(box, SEED, rng.DOMAIN_EXTEND, 6), 0, 50, 1)
    again = _written(disturbance_source(box, SEED, rng.DOMAIN_EXTEND, 5), 0, 50, 1)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.array_equal(a, again)
    assert np.array_equal(a[:10], _written(src, 0, 10, 1))


@pytest.mark.parametrize("layout", ["C", "channel-major"])
@pytest.mark.parametrize("count", [0, 1, 7, 10_001])
def test_source_writes_the_bytes_of_a_box_sample(count, layout):
    # the draws go row-major into the source's own buffer and are scaled
    # column by column into the block it is handed, whatever its layout
    box = Box([-0.5, 0.0, 2.0], [0.5, 1e-300, 2.0])
    src = disturbance_source(box, SEED, rng.DOMAIN_EXTEND, 5)
    for j in (0, 4, 4):  # the reused buffer leaves no trace in a later draw
        got = _written(src, j, count, 3, layout)
        want = box.sample(rng.substream(SEED, rng.DOMAIN_EXTEND, 5, j), count)
        assert np.ascontiguousarray(got).tobytes() == want.tobytes()


# signed zeros, subnormals, huge magnitudes and ordinary values
_EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310,
                                1e300, -1e300, 1.5, -0.7])


@settings(max_examples=200, deadline=None)
@given(lo=st.lists(_EDGE_FLOATS | st.floats(allow_nan=False, allow_infinity=False),
                   min_size=1, max_size=3),
       count=st.integers(0, 64), j=st.integers(0, 40), key=st.integers(0, 1000))
def test_zero_width_source_equals_the_substream_draw(lo, count, j, key):
    box = Box(lo, lo)
    got = _substep_block(disturbance_source(box, SEED, rng.DOMAIN_EXTEND, key), j, count,
                         box.dim, "channel-major" if key % 2 else "C")
    want = box.sample(rng.substream(SEED, rng.DOMAIN_EXTEND, key, j), count)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.ascontiguousarray(got).tobytes() == want.tobytes()


def _counting_substreams(monkeypatch):
    keys = []
    real = rng.substream

    def spy(seed, *key):
        keys.append(key)
        return real(seed, *key)

    monkeypatch.setattr(rng, "substream", spy)
    return keys


def test_zero_width_source_reads_no_substream(monkeypatch):
    keys = _counting_substreams(monkeypatch)
    block = _substep_block(disturbance_source(Box([0.25, -0.0], [0.25, -0.0]), SEED, 9),
                           3, 5, 2)
    assert keys == []
    assert np.array_equal(block, np.tile([0.25, 0.0], (5, 1)))
    assert not np.signbit(block).any()  # lo + 0.0, as a draw gives


def test_zero_width_source_writes_its_block_at_substep_0_only():
    # the block is the same one at every sub-step and nothing else writes
    # it, so the later sub-steps have nothing to write
    src = disturbance_source(Box([0.25], [0.25]), SEED, 9)
    block = _written(src, 0, 4, 1)
    assert (block == 0.25).all()
    block[...] = np.nan
    for j in range(1, 6):
        src(j, block)
    assert np.isnan(block).all()


def test_one_wide_axis_still_reads_its_substream(monkeypatch):
    keys = _counting_substreams(monkeypatch)
    box = Box([0.25, 0.0], [0.25, 1e-300])
    got = _written(disturbance_source(box, SEED, 9), 3, 5, 2)
    assert keys == [(9, 3)]
    assert np.array_equal(got, box.sample(rng.substream(SEED, 9, 3), 5))


def test_extension_mean_nominal_is_particle_mean():
    sys_ = _linear()
    root = init_particles(sys_, Box([0.0], [0.1]), 100, SEED)
    assert np.array_equal(root.nominal, root.states.mean(axis=0))
    pset, _ = compute_reach_set(sys_, root, np.zeros(1), 0.5, 0.1, SEED, 0)
    assert np.array_equal(pset.nominal, pset.states.mean(axis=0))


@given(rows=st.integers(1, 300), dim=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1.0, 1e-300, 1e300]))
@settings(max_examples=200, deadline=None)
def test_nominal_is_the_mean_of_a_c_order_copy(rows, dim, seed, scale):
    # nominal sums over the count itself; np.mean over a C-order copy is
    # the reference, on the channel-major blocks a rollout hands out
    gen = np.random.default_rng(seed)
    states = np.empty((dim, rows)).T
    states[...] = gen.uniform(-1.0, 1.0, (rows, dim)) * scale
    got = ParticleSet(states=states, thetas=np.zeros((rows, 1)), mu=states[0]).nominal
    assert got.tobytes() == np.mean(np.ascontiguousarray(states), axis=0).tobytes()


def test_divergent_extension_returns_none():
    class Blow:
        name = "blow"
        hybrid = False
        reads_substep_disturbance = True
        state_dim = 1
        collision_projection = (0,)
        bounds = make_benchmark("linear1d").bounds
        nominal_param = np.array([0.5])
        nominal_disturbance = np.array([0.0])

        def resolve_control(self, nu, X, mu, out):
            out[...] = nu

        def step_batch(self, X, U, W, Th, h, out):
            np.multiply(X, 1e8, out=out)

    root = init_particles(Blow(), Box([1.0], [2.0]), 8, SEED)
    pset, r = compute_reach_set(Blow(), root, np.zeros(1), 1.0, 0.1, SEED, 0)
    assert pset is None
    assert r.diverged


# ------------------------------------------------------ padded constraints


def _point_set(points):
    """Particle set around explicit 2-D states (projection is identity)."""
    states = np.atleast_2d(np.asarray(points, dtype=float))
    return ParticleSet(
        states=states,
        thetas=np.zeros((len(states), 1)),
        mu=states[0],
    )


def test_collision_padding_is_strict():
    ball = Ball((0.0, 0.0), 1.0)
    eps = 0.25
    # single-point trace exactly eps away from the inflated obstacle: rejected
    at_eps = np.array([[[1.0 + eps, 0.0]]])
    beyond = np.array([[[1.0 + eps + 1e-6, 0.0]]])
    assert not padded_collision_free(at_eps, (0, 1), [ball], eps)
    assert padded_collision_free(beyond, (0, 1), [ball], eps)
    assert padded_collision_free(at_eps, (0, 1), [], eps)


def test_collision_checks_every_substep():
    ball = Ball((0.0, 0.0), 1.0)
    # passes through the obstacle at the middle sub-step only
    trace = np.array([[[-3.0, 0.0]], [[0.0, 0.0]], [[3.0, 0.0]]])
    assert not padded_collision_free(trace, (0, 1), [ball], 0.0)


def test_collision_sees_hull_between_particles():
    ball = Ball((0.0, 0.0), 0.5)
    # two particles straddling the obstacle; segment between them crosses it
    trace = np.array([[[-2.0, 0.0], [2.0, 0.0]]])
    assert not padded_collision_free(trace, (0, 1), [ball], 0.0)


def reference_padded_collision_free(traces, projection, obstacles, epsilon):
    """The collision test without the bounding-box shortcut: the point
    prefilter, then every sub-step hull, against every obstacle."""
    traces = np.asarray(traces, dtype=float)
    if not obstacles:
        return True
    pts = project_to_plane(traces, projection)
    flat = pts.reshape(-1, 2)
    for obstacle in obstacles:
        if points_obstacle_clearance(flat, obstacle).min() <= epsilon:
            return False
    for k in range(pts.shape[0]):
        hull = convex_hull_2d(pts[k])
        for obstacle in obstacles:
            if hull_obstacle_clearance(hull, obstacle) <= epsilon:
                return False
    return True


# Offsets from epsilon at which obstacles are placed against the bounding box
# of the trace or of one sub-step: rounding ties on either side of the
# pruning margin.
TIE_OFFSETS = [0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-9, -1e-9]


# axes of a box obstacle flattened to zero width in the degenerate cases
FLAT_AXES = st.sampled_from([[0], [1], [0, 1]])


@st.composite
def _placed_obstacle(draw, lo, hi, eps, degenerate=False):
    """A ball or box whose clearance from the box [lo, hi] is eps plus a
    tie offset, facing one side or one corner of the box.  A degenerate one
    is a zero-radius ball or a box flat on one axis or both."""
    d = eps + draw(st.sampled_from(TIE_OFFSETS))
    signs = np.array([draw(st.sampled_from([-1.0, 1.0])) for _ in range(2)])
    if draw(st.booleans()):   # a corner, approached at angle alpha
        alpha = draw(st.floats(0.05, np.pi / 2 - 0.05))
        anchor = np.where(signs > 0, hi, lo)
        direction = signs * np.array([np.cos(alpha), np.sin(alpha)])
        spans = [1, 1]        # the box extends away from the corner on both axes
    else:                     # a face: anchor anywhere along it
        axis = draw(st.integers(0, 1))
        t = draw(st.floats(0.0, 1.0))
        anchor = lo + t * (hi - lo)
        anchor[axis] = hi[axis] if signs[axis] > 0 else lo[axis]
        direction = np.zeros(2)
        direction[axis] = signs[axis]
        spans = [0, 0]
        spans[axis] = 1
    if draw(st.booleans()):
        r = 0.0 if degenerate else draw(st.floats(0.01, 1.0))
        return Ball(anchor + (d + r) * direction, r)
    q = anchor + d * direction
    size = np.array([draw(st.floats(0.01, 1.0)) for _ in range(2)])
    if degenerate:
        size[draw(FLAT_AXES)] = 0.0
    b_lo, b_hi = q - size / 2, q + size / 2   # straddles q on a face's axis
    for i in range(2):
        if spans[i]:
            b_lo[i], b_hi[i] = (q[i], q[i] + size[i]) if signs[i] > 0 else (q[i] - size[i], q[i])
    return Box(b_lo, b_hi)


@st.composite
def _random_obstacle(draw, degenerate=False):
    c = np.array([draw(st.floats(-4.0, 4.0)) for _ in range(2)])
    size = draw(st.floats(0.01, 1.5))
    if draw(st.booleans()):
        return Ball(c, 0.0 if degenerate else size)
    size = np.array([size, draw(st.floats(0.01, 1.5))])
    if degenerate:
        size[draw(FLAT_AXES)] = 0.0
    return Box(c, c + size)


@st.composite
def _collision_cases(draw, degenerate=False):
    """(traces, projection, obstacles, epsilon) over single particles, one
    slice or one sub-step, flat clouds, tiny clouds and 1-D projections,
    with obstacles placed against the box of the whole trace or of one
    sub-step, or anywhere."""
    slices = draw(st.integers(1, 4))        # 1: a root set; 2: one sub-step
    n = draw(st.integers(1, 6))
    projection = draw(st.sampled_from([(0, 1), (1, 0), (0, 2), (0,)]))
    dim = max(projection) + 1
    coord = st.floats(-2.0, 2.0, allow_subnormal=False)
    traces = np.array(draw(st.lists(coord, min_size=slices * n * dim,
                                    max_size=slices * n * dim))).reshape(slices, n, dim)
    flat_axis = draw(st.sampled_from([None, 0, 1]))
    if flat_axis is not None and flat_axis < len(projection):
        traces[..., projection[flat_axis]] = traces[0, 0, projection[flat_axis]]
    # area below the hull builder's collinearity tolerance
    scale = draw(st.sampled_from([1.0, 1.0, 1e-5]))
    traces = traces * scale
    eps = draw(st.sampled_from([0.0, 0.05, 0.3]))
    pts = project_to_plane(traces, projection)
    lo, hi = pts.reshape(-1, 2).min(axis=0), pts.reshape(-1, 2).max(axis=0)
    one = pts[draw(st.integers(0, slices - 1))]
    obstacles = draw(st.lists(st.one_of(_placed_obstacle(lo, hi, eps, degenerate),
                                        _random_obstacle(degenerate),
                                        _placed_obstacle(one.min(axis=0), one.max(axis=0),
                                                         eps, degenerate)),
                              min_size=1, max_size=3))
    return traces, projection, obstacles, eps


@settings(max_examples=400, deadline=None)
@given(case=_collision_cases())
# the bounding box of a cloud with area under the hull builder's collinearity
# tolerance has a degenerate hull (its diagonal), which clears a ball that a
# particle at the box's corner does not
@example(case=(np.array([[[0.0, 0.0], [0.0, 3e-5], [3e-5, 0.0]]]), (0, 1),
               [Ball(np.array([3e-5, 0.0]) + (0.55 - 1e-6) * np.array([1.0, -1.0]) / np.sqrt(2),
                     0.5)], 0.05))
def test_collision_decision_matches_reference(case):
    traces, projection, obstacles, eps = case
    assert padded_collision_free(traces, projection, obstacles, eps) == \
        reference_padded_collision_free(traces, projection, obstacles, eps)


@settings(max_examples=400, deadline=None)
@given(case=_collision_cases(degenerate=True))
def test_degenerate_obstacle_decision_matches_reference(case):
    # flat boxes, point boxes and zero-radius balls: a library caller may
    # pass them as obstacles
    traces, projection, obstacles, eps = case
    assert padded_collision_free(traces, projection, obstacles, eps) == \
        reference_padded_collision_free(traces, projection, obstacles, eps)


# barycentric grid of a triangle cut into MESH**2 similar triangles
MESH = 24
_BARY = np.array([(a, b, MESH - a - b) for a in range(MESH + 1)
                  for b in range(MESH + 1 - a)], dtype=float) / MESH


def sampled_hull(pts):
    """Dense samples of the convex hull of a planar point set, and their
    mesh spacing: every point of the hull lies in a triangle of three of the
    points (Caratheodory), whose barycentric grid holds a sample within the
    triangle's longest edge over MESH, at most the set's diameter over MESH."""
    tri = pts[list(itertools.combinations_with_replacement(range(len(pts)), 3))]
    samples = (_BARY @ tri).reshape(-1, 2)
    diameter = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=-1)).max()
    return samples, diameter / MESH


def sampled_clearance(samples, obstacle):
    """Distance from each sample to an obstacle (a ball's may be negative),
    by nearest points: the clipped point for a box, the center for a ball."""
    if isinstance(obstacle, Ball):
        return np.hypot(*(samples - obstacle.center).T) - obstacle.radius
    return np.hypot(*(samples - np.clip(samples, obstacle.lo, obstacle.hi)).T)


@st.composite
def _near_the_hull(draw, degenerate=False):
    """A collision case plus an obstacle placed within epsilon, give or take
    a tie offset, of a point of one sub-step's hull, on an edge or inside:
    there the hull, not a particle, may come nearest, or overlap."""
    traces, projection, obstacles, eps = draw(_collision_cases(degenerate))
    pts = project_to_plane(traces, projection)[draw(st.integers(0, len(traces) - 1))]
    picks = pts[[draw(st.integers(0, len(pts) - 1)) for _ in range(draw(st.integers(2, 3)))]]
    w = np.array([draw(st.floats(0.0, 1.0)) for _ in picks])
    w = w / w.sum() if w.sum() > 0 else np.full(len(w), 1 / len(w))
    d = eps + draw(st.sampled_from([0.0, 1e-9, -1e-9, 0.02, -0.02]))
    signs = np.array([draw(st.sampled_from([-1.0, 1.0])) for _ in range(2)])
    alpha = draw(st.floats(0.0, np.pi / 2))
    u = signs * np.array([np.cos(alpha), np.sin(alpha)])
    q = w @ picks + d * u
    if draw(st.booleans()):
        r = 0.0 if degenerate else draw(st.floats(0.01, 1.0))
        return traces, projection, obstacles + [Ball(q + r * u, r)], eps
    far = q + signs * np.array([draw(st.floats(0.0 if degenerate else 0.01, 1.0))
                                for _ in range(2)])   # u points into the box
    return traces, projection, obstacles + [Box(np.minimum(q, far), np.maximum(q, far))], eps


@settings(max_examples=300, deadline=None)
@given(case=st.one_of(_collision_cases(), _collision_cases(degenerate=True),
                      _near_the_hull(), _near_the_hull(degenerate=True)))
def test_collision_decision_matches_dense_hull_sampling(case):
    # an oracle that shares no code with the collision test: a free trace
    # keeps every hull sample beyond epsilon; a colliding one has a sample
    # within epsilon plus the mesh spacing
    traces, projection, obstacles, eps = case
    free = padded_collision_free(traces, projection, obstacles, eps)
    nearest = []  # (smallest sample clearance, mesh spacing) per sub-step
    for pts in project_to_plane(traces, projection):
        samples, spacing = sampled_hull(pts)
        nearest.append((min(sampled_clearance(samples, o).min() for o in obstacles), spacing))
    if free:
        assert all(d > eps - 1e-9 for d, _ in nearest)
    else:
        assert any(d <= eps + spacing + 1e-9 for d, spacing in nearest)


def test_obstacle_far_from_the_trace_builds_no_hull(monkeypatch):
    hulled = []

    def spy(points):
        hulled.append(len(points))
        return convex_hull_2d(points)

    monkeypatch.setattr(reachability, "convex_hull_2d", spy)
    diamond = np.array([[0.5, 0.0], [1.0, 0.5], [0.5, 1.0], [0.0, 0.5]])
    trace = np.tile(diamond, (5, 1, 1))     # bounding box [0, 1]^2
    far = [Ball((5.0, 0.5), 1.0), Box((-3.0, -3.0), (-1.0, 3.0))]
    assert padded_collision_free(trace, (0, 1), far, 0.35)
    assert hulled == []
    # within epsilon of the box's empty corner, clear of every hull: the
    # shortcut keeps it, and the exact test hulls every sub-step
    corner = Ball((1.3, 1.3), 0.1)
    assert padded_collision_free(trace, (0, 1), [*far, corner], 0.35)
    assert hulled == [4] * 5


def test_only_the_sub_steps_near_an_obstacle_build_a_hull(monkeypatch):
    hulled = []

    def spy(points):
        hulled.append(points.copy())
        return convex_hull_2d(points)

    monkeypatch.setattr(reachability, "convex_hull_2d", spy)
    diamond = np.array([[0.5, 0.0], [1.0, 0.5], [0.5, 1.0], [0.0, 0.5]])
    trace = np.stack([diamond + [10.0 * k, 0.0] for k in range(5)])
    # within epsilon of sub-step 2's empty box corner, clear of its hull
    corner = Ball((21.3, 1.3), 0.1)
    assert padded_collision_free(trace, (0, 1), [corner], 0.35)
    assert len(hulled) == 1 and np.array_equal(hulled[0], trace[2])
    # 0.2 off the middle of that hull's edge and over 0.35 from every
    # particle: the prefilter passes it and sub-step 2's hull rejects it
    edge = Ball(np.array([20.75, 0.75]) + 0.2 / np.sqrt(2), 0.0)
    assert not padded_collision_free(trace, (0, 1), [edge], 0.35)
    assert len(hulled) == 2 and np.array_equal(hulled[1], trace[2])


def test_collision_refuses_a_nonfinite_trace():
    trace = np.array([[[0.0, 0.0], [np.nan, 0.0]]])
    with pytest.raises(ValueError):
        padded_collision_free(trace, (0, 1), [Ball((5.0, 0.0), 1.0)], 0.1)


def test_goal_shrink_boundary():
    goal = GoalRegion((0, 1), (0.0, 0.0), 0.5)
    eps = 0.1
    inside = _point_set([[0.39, 0.0]])
    outside = _point_set([[0.41, 0.0]])
    assert padded_goal_contained(inside, goal, eps)
    assert not padded_goal_contained(outside, goal, eps)
    # every particle must make it, not just the bulk
    mixed = _point_set([[0.0, 0.0], [0.41, 0.0]])
    assert not padded_goal_contained(mixed, goal, eps)


def test_goal_check_uses_projection_dims():
    goal = GoalRegion((2, 3), (1.0, 1.0), 0.5)
    sys_ = make_benchmark("quadrotor")
    # positions scattered, velocities pinned 0.1*sqrt(2) from the goal center
    region = Box([0.0, 0.0, 0.9, 0.9], [9.0, 9.0, 0.9, 0.9])
    pset = init_particles(sys_, region, 20, SEED)
    assert padded_goal_contained(pset, goal, 0.3)
    assert not padded_goal_contained(pset, goal, 0.4)
