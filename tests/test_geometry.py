"""Geometry tests.

The oracles here are deliberately different algorithms from the library:
Hausdorff by exhaustive pairwise enumeration, hull membership by an
all-pairs half-plane test, hull vertices by leave-one-out membership, and
clearance by dense boundary sampling.  Frozen numbers below were produced
by these oracles.  The pairwise edge-against-edge loop that the library's
separated-box clearance replaced is kept here as its bitwise reference.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from reachrrt.benchmarks import make_benchmark
from reachrrt.geometry import (
    COLLINEAR_TOL,
    Ball,
    Box,
    GoalRegion,
    convex_hull_2d,
    goal_contains,
    hull_obstacle_clearance,
    points_obstacle_clearance,
    _hull_edges,
    _point_segments_distance,
    box_obstacle_clearance,
)

from reachrrt.reachability import compute_reach_set, init_particles
from reachrrt.svg import _Frame, _hull_elements

from bounds import hausdorff_distance
from oracles import (
    point_hull_distance,
    point_in_hull,
    reference_box_obstacle_clearance,
    reference_convex_hull_2d,
    reference_goal_contains,
    reference_points_obstacle_clearance,
)


# ---------------------------------------------------------------- oracles


def oracle_hausdorff(a, b):
    """Exhaustive pairwise min/max enumeration, plain Python."""
    a = [tuple(map(float, p)) for p in np.atleast_2d(a)]
    b = [tuple(map(float, p)) for p in np.atleast_2d(b)]
    fwd = max(min(math.dist(p, q) for q in b) for p in a)
    bwd = max(min(math.dist(p, q) for p in a) for q in b)
    return max(fwd, bwd)


def oracle_hull_edges(pts):
    """Directed edges (i, j) with every point on or left of the line i->j."""
    pts = np.asarray(pts, dtype=float)
    n = len(pts)
    edges = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            d = pts[j] - pts[i]
            w = pts - pts[i]
            cr = d[0] * w[:, 1] - d[1] * w[:, 0]
            if np.all(cr >= -1e-12):
                edges.append((i, j))
    return edges


def oracle_member(pts, p, tol=1e-9):
    """Half-plane membership against the brute-force edge set.

    Only meaningful when the point set is not all collinear.
    """
    pts = np.asarray(pts, dtype=float)
    p = np.asarray(p, dtype=float)
    edges = oracle_hull_edges(pts)
    assert edges, "degenerate input handed to the half-plane oracle"
    for i, j in edges:
        d = pts[j] - pts[i]
        w = p - pts[i]
        cr = d[0] * w[1] - d[1] * w[0]
        if cr < -tol * float(np.hypot(d[0], d[1])):
            return False
    return True


def oracle_vertices(pts):
    """Hull vertices by leave-one-out membership (general position or
    collinear-on-edge inputs; duplicates removed first)."""
    uniq = np.unique(np.asarray(pts, dtype=float), axis=0)
    if len(uniq) <= 2:
        return {tuple(p) for p in uniq}
    out = set()
    for k in range(len(uniq)):
        rest = np.delete(uniq, k, axis=0)
        if _all_collinear(rest):
            # removing the point left a line; it is a vertex iff it is off
            # that line or beyond the segment ends
            a, b = _line_extremes(rest)
            if _dist_to_segment(uniq[k], a, b) > 1e-12:
                out.add(tuple(uniq[k]))
            continue
        if not oracle_member(rest, uniq[k], tol=1e-12):
            out.add(tuple(uniq[k]))
    return out


def _all_collinear(pts):
    if len(pts) < 3:
        return True
    d = pts - pts[0]
    base = None
    for row in d[1:]:
        if np.any(row != 0):
            base = row
            break
    if base is None:
        return True
    cr = d[:, 0] * base[1] - d[:, 1] * base[0]
    return bool(np.all(np.abs(cr) <= 1e-12))


def _line_extremes(pts):
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    return pts[order[0]], pts[order[-1]]


def _dist_to_segment(p, a, b):
    ab = b - a
    denom = float(ab @ ab)
    t = 0.0 if denom == 0 else float(np.clip((p - a) @ ab / denom, 0.0, 1.0))
    return float(np.linalg.norm(p - (a + t * ab)))


def _boundary_samples(hull_vertices, per_edge):
    """per_edge evenly spaced points on every hull edge, ends included."""
    v = np.asarray(hull_vertices, dtype=float)
    if len(v) == 1:
        return v
    ends = np.roll(v, -1, axis=0) if len(v) > 2 else v[1:2]
    starts = v if len(v) > 2 else v[0:1]
    t = np.linspace(0.0, 1.0, per_edge)[:, None]
    return np.concatenate([
        s[None, :] * (1 - t) + e[None, :] * t for s, e in zip(starts, ends)
    ])


def oracle_ball_clearance(hull_vertices, center, radius, per_edge=4097):
    """Min distance from densely sampled hull boundary to the ball."""
    pts = _boundary_samples(hull_vertices, per_edge)
    d = np.linalg.norm(pts - np.asarray(center, dtype=float), axis=1)
    return float(d.min() - radius)


def oracle_box_clearance(hull_vertices, box, per_edge=4097):
    """Min distance from densely sampled hull boundary to the box, each
    sample measured to its clamp onto the box."""
    pts = _boundary_samples(hull_vertices, per_edge)
    return float(np.linalg.norm(pts - np.clip(pts, box.lo, box.hi), axis=1).min())


def _orient(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _on_segment(a, b, c):
    # assumes a, b, c collinear; is c within the bounding box of a--b
    return (
        min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= c[1] <= max(a[1], b[1])
    )


def _segments_intersect(p1, p2, q1, q2):
    d1 = _orient(q1, q2, p1)
    d2 = _orient(q1, q2, p2)
    d3 = _orient(p1, p2, q1)
    d4 = _orient(p1, p2, q2)
    if ((d1 > 0) != (d2 > 0) and d1 != 0 and d2 != 0) and (
        (d3 > 0) != (d4 > 0) and d3 != 0 and d4 != 0
    ):
        return True
    if d1 == 0 and _on_segment(q1, q2, p1):
        return True
    if d2 == 0 and _on_segment(q1, q2, p2):
        return True
    if d3 == 0 and _on_segment(p1, p2, q1):
        return True
    if d4 == 0 and _on_segment(p1, p2, q2):
        return True
    return False


def _segment_segment_distance(p1, p2, q1, q2):
    if _segments_intersect(p1, p2, q1, q2):
        return 0.0
    cands = [
        _point_segments_distance(np.asarray(p1), q1[None], q2[None])[0],
        _point_segments_distance(np.asarray(p2), q1[None], q2[None])[0],
        _point_segments_distance(np.asarray(q1), p1[None], p2[None])[0],
        _point_segments_distance(np.asarray(q2), p1[None], p2[None])[0],
    ]
    return float(min(cands))


def reference_box_clearance(v, box):
    """Slow reference for hull/box clearance: the closest approach over every
    (hull edge, box edge) pair, with 0.0 when a pair intersects or one
    polygon holds the other; a point hull uses the per-point clearance, as
    the library does.  Positive exactly when the two are disjoint."""
    if len(v) == 1:
        return float(points_obstacle_clearance(v, box)[0])
    if np.all((box.lo <= v[0]) & (v[0] <= box.hi)):
        return 0.0
    if len(v) >= 3:
        e = np.roll(v, -1, axis=0) - v
        w = box.corners[0][None, :] - v
        if np.all(e[:, 0] * w[:, 1] - e[:, 1] * w[:, 0] >= 0.0):
            return 0.0
    corners = box.corners
    best = np.inf
    for s, e in zip(*_hull_edges(v)):
        for bs, be in zip(corners, np.roll(corners, -1, axis=0)):
            best = min(best, _segment_segment_distance(s, e, bs, be))
    return float(best)


# ------------------------------------------------------- frozen examples


def test_hausdorff_frozen_pairwise_example():
    a = np.array([[0.0, 0.0], [2.0, 0.0]])
    b = np.array([[0.0, 0.0], [0.0, 1.0]])
    assert oracle_hausdorff(a, b) == 2.0
    assert hausdorff_distance(a, b) == pytest.approx(2.0, abs=1e-12)


def test_hausdorff_more_frozen_values():
    a = np.array([[0.0, 0.0]])
    b = np.array([[3.0, 4.0]])
    assert hausdorff_distance(a, b) == pytest.approx(5.0, abs=1e-12)
    c = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.2]])
    assert hausdorff_distance(c, c) == 0.0


def test_ball_clearance_frozen_unit_square():
    # unit square with a corner at the origin vs a far disk
    square = convex_hull_2d(np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float))
    ball = Ball((5.0, 0.0), 1.0)
    want = oracle_ball_clearance(square, ball.center, ball.radius)
    assert want == pytest.approx(3.0, abs=1e-12)
    assert hull_obstacle_clearance(square, ball) == pytest.approx(3.0, abs=1e-6)


def test_ball_clearance_tangent_is_zero():
    square = convex_hull_2d(np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float))
    ball = Ball((2.0, 0.5), 1.0)
    assert abs(hull_obstacle_clearance(square, ball)) <= 1e-9


def test_box_clearance_frozen_overlap():
    square = convex_hull_2d(np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float))
    box = Box((0.5, 0.0), (1.5, 1.0))
    assert hull_obstacle_clearance(square, box) == pytest.approx(-0.5, abs=1e-12)


def test_box_clearance_frozen_separated():
    square = convex_hull_2d(np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float))
    box = Box((3.0, 0.0), (4.0, 1.0))
    assert hull_obstacle_clearance(square, box) == pytest.approx(2.0, abs=1e-12)
    # diagonal separation: nearest approach is corner to corner
    far = Box((4.0, 4.0), (5.0, 5.0))
    assert hull_obstacle_clearance(square, far) == pytest.approx(
        math.sqrt(2) * 3.0, abs=1e-12)


def test_box_clearance_frozen_corner_to_edge():
    # nearest approach from the box corner (2, 2) to the interior of the
    # diamond's edge x + y = 1: (2 + 2 - 1) / sqrt(2)
    diamond = convex_hull_2d(np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=float))
    box = Box((2.0, 2.0), (3.0, 3.0))
    want = oracle_box_clearance(diamond, box)
    assert want == pytest.approx(3.0 / math.sqrt(2), abs=1e-6)
    assert hull_obstacle_clearance(diamond, box) == pytest.approx(3.0 / math.sqrt(2),
                                                                  abs=1e-12)


def test_box_clearance_matches_boundary_sampling_oracle():
    gen = np.random.default_rng(5)
    separated = 0
    for _ in range(200):
        pts = gen.uniform(-3.0, 3.0, size=(int(gen.integers(1, 12)), 2))
        v = convex_hull_2d(pts)
        lo = gen.uniform(-5.0, 5.0, size=2)
        box = Box(lo, lo + gen.uniform(0.1, 3.0, size=2))
        got = hull_obstacle_clearance(v, box)
        if got <= 0.0:
            continue
        separated += 1
        longest = float(np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1).max())
        # sampled boundary points lie within half a spacing of any boundary point
        tol = 0.5 * longest / 4096 + 1e-12
        assert got == pytest.approx(oracle_box_clearance(v, box), abs=tol)
    assert separated >= 50


def test_ball_center_inside_hull_is_negative():
    square = convex_hull_2d(np.array([[0, 0], [4, 0], [4, 4], [0, 4]], dtype=float))
    assert hull_obstacle_clearance(square, Ball((2.0, 2.0), 0.5)) == pytest.approx(-0.5)


def test_point_clearance_signs():
    ball = Ball((0.0, 0.0), 1.0)
    pts = np.array([[2.0, 0.0], [0.5, 0.0], [1.0, 0.0]])
    got = points_obstacle_clearance(pts, ball)
    assert got == pytest.approx([1.0, -0.5, 0.0], abs=1e-12)
    box = Box((0.0, 0.0), (2.0, 2.0))
    got = points_obstacle_clearance(np.array([[3.0, 1.0], [1.0, 1.0], [1.0, 1.5]]), box)
    assert got == pytest.approx([1.0, -1.0, -0.5], abs=1e-12)


# zeros of both signs, coordinates shared between points and obstacles, and
# ordinary values
_coords = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0]) | st.floats(-4, 4)


@st.composite
def _clearance_obstacles(draw):
    kind = draw(st.sampled_from(["box", "flat-box", "point-box", "ball", "point-ball"]))
    c = np.array(draw(st.lists(_coords, min_size=2, max_size=2)))
    if kind.endswith("ball"):
        r = 0.0 if kind == "point-ball" else draw(st.sampled_from([0.5, 1.0]) | st.floats(0, 3))
        return Ball(c, r)
    w = np.array(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0, 3),
                               min_size=2, max_size=2)))
    if kind == "flat-box":
        w[draw(st.integers(0, 1))] = 0.0
    elif kind == "point-box":
        w[:] = 0.0
    return Box(c, c + w)


@given(obstacle=_clearance_obstacles(),
       rows=st.sampled_from([1, 2, 101, 10_001]),
       layout=st.sampled_from(["c", "fortran", "strided", "one-point"]),
       pool=st.lists(_coords, min_size=1, max_size=6),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_point_clearance_is_the_reference_bytes(obstacle, rows, layout, pool, seed):
    # the column-wise clearance against the block form on every byte, with
    # points on a box face, edge or corner, at a ball's center and at +-0.0
    gen = np.random.default_rng(seed)
    pts = gen.uniform(-4.0, 4.0, size=(rows, 2))
    if isinstance(obstacle, Ball):
        special = np.concatenate([obstacle.center, obstacle.center + obstacle.radius, pool])
    else:
        special = np.concatenate([obstacle.lo, obstacle.hi, pool])
    hit = gen.random(pts.shape) < 0.6
    pts[hit] = gen.choice(special, size=int(hit.sum()))
    if layout == "fortran":
        pts = np.asfortranarray(pts)
    elif layout == "strided":
        wide = np.zeros((rows, 4))
        wide[:, ::2] = pts
        pts = wide[:, ::2]
    elif layout == "one-point":
        pts = pts[0]
    before = pts.tobytes()
    got = points_obstacle_clearance(pts, obstacle)
    # a zero-radius ball is the point box at its center, also in the sign
    # of a zero at the center, where the ball's block form reads +0.0
    want = reference_points_obstacle_clearance(
        pts, Box(obstacle.lo, obstacle.hi) if obstacle.radius == 0 else obstacle)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert pts.tobytes() == before


@given(obstacle=_clearance_obstacles(),
       pool=st.lists(_coords, min_size=1, max_size=6),
       scale=st.sampled_from([1.0, 1e-6, 1e3, 1e6]),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=1000, deadline=None)
@example(obstacle=Ball((1.5, 1.0), 0.0), pool=[0.0], scale=1e-6, seed=0)
def test_box_clearance_bounds_every_point_in_the_box(obstacle, pool, scale, seed):
    # the validator skips an obstacle on a sub-step whose bounding box clears
    # it by more than the worst clearance so far; that is exact only if no
    # point of the box is nearer than the box, in floating point (the
    # explicit example read one ulp nearer when the box took np.linalg.norm)
    gen = np.random.default_rng(seed)
    pts = gen.uniform(-4.0, 4.0, size=(64, 2))
    hit = gen.random(pts.shape) < 0.5
    pts[hit] = gen.choice(pool, size=int(hit.sum()))
    pts *= scale
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    corners = np.array([[lo[0], lo[1]], [lo[0], hi[1]], [hi[0], lo[1]], [hi[0], hi[1]]])
    pts = np.concatenate([pts, corners])
    box = box_obstacle_clearance(lo, hi, obstacle)
    assert box <= points_obstacle_clearance(pts, obstacle).min()


# bounds that tie, sign a zero, lie at infinity or overflow a gap
_bound_values = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, math.inf, -math.inf,
                                 1e308, -1e308]) | st.floats(-4, 4)


@st.composite
def _box_clearance_queries(draw):
    """(lo, hi, obstacle, radius): a 1-D or 2-D query box and an obstacle
    (a box, flat box or point, or a ball), their bounds drawn from a small
    shared pool so that they tie."""
    dim = draw(st.sampled_from([1, 2]))
    pool = draw(st.lists(_bound_values, min_size=1, max_size=4))
    coord = st.sampled_from(pool) | _bound_values
    radius = st.sampled_from([0.0, 0.5, math.inf]) | st.floats(0, 3)

    def bounds(kind):
        a = [draw(coord) for _ in range(dim)]
        b = a if kind == "point" else [draw(coord) for _ in range(dim)]
        pairs = [sorted(p) for p in zip(a, b)]  # stable: ties keep both zero orders
        if kind == "flat":
            axis = draw(st.integers(0, dim - 1))
            pairs[axis] = [pairs[axis][0]] * 2
        return np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])

    lo, hi = bounds(draw(st.sampled_from(["box", "flat", "point"])))
    kind = draw(st.sampled_from(["box", "flat", "point", "ball"]))
    if kind == "ball":
        obstacle = Ball(np.array([draw(coord) for _ in range(dim)]), draw(radius))
    else:
        obstacle = Box(*bounds(kind))
    return lo, hi, obstacle, draw(radius)


@given(query=_box_clearance_queries())
@settings(max_examples=2000, deadline=None)
# a tie in the running max of the gaps, (-0.0, 0.0) and (0.0, -0.0), and
# one between an axis's two gaps, 0.0 and -0.0
@example(query=(np.zeros(2), np.zeros(2), Box([-0.0, 0.0], [1.0, 1.0]), 0.0))
@example(query=(np.zeros(2), np.zeros(2), Box([0.0, -0.0], [1.0, 1.0]), 0.0))
@example(query=(np.array([-0.0]), np.array([0.0]), Box([0.0], [0.0]), 0.0))
def test_box_clearance_is_the_reference_bytes(query):
    # the Python-float clearance against the numpy form, on the repr of
    # the result: zero signs, infinities and NaN from inf - inf included
    lo, hi, obstacle, radius = query
    with np.errstate(all="ignore"):
        want = reference_box_obstacle_clearance(lo, hi, obstacle, radius)
    assert repr(box_obstacle_clearance(lo, hi, obstacle, radius)) == repr(want)


# ------------------------------------------------ hull/membership oracles


def test_membership_agrees_with_half_plane_oracle():
    gen = np.random.default_rng(7)
    pts = gen.uniform(-1.0, 1.0, size=(50, 2))
    hull = convex_hull_2d(pts)
    queries = np.concatenate([
        gen.uniform(-1.3, 1.3, size=(120, 2)),
        pts[:20],                                   # inputs are members
        pts.mean(axis=0, keepdims=True),            # centroid is a member
    ])
    for q in queries:
        assert point_in_hull(hull, q) == oracle_member(pts, q)


def test_vertices_agree_with_leave_one_out_oracle():
    gen = np.random.default_rng(11)
    for trial in range(20):
        pts = gen.uniform(-5.0, 5.0, size=(gen.integers(3, 40), 2))
        got = {tuple(p) for p in convex_hull_2d(pts)}
        assert got == oracle_vertices(pts)


def test_collinear_points_reduce_to_extremes():
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    hull = convex_hull_2d(pts)
    assert len(hull) == 2
    assert {tuple(v) for v in hull} == {(0.0, 0.0), (3.0, 3.0)}
    assert point_in_hull(hull, np.array([1.5, 1.5]))
    assert not point_in_hull(hull, np.array([1.5, 1.6]))
    assert not point_in_hull(hull, np.array([4.0, 4.0]))
    assert point_hull_distance(hull, np.array([4.0, 4.0])) == pytest.approx(math.sqrt(2))


def test_singleton_and_pair_hulls():
    one = convex_hull_2d(np.array([[2.0, 3.0]]))
    assert len(one) == 1
    assert point_in_hull(one, np.array([2.0, 3.0]))
    assert point_hull_distance(one, np.array([2.0, 0.0])) == pytest.approx(3.0)
    two = convex_hull_2d(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]))
    assert len(two) == 2
    assert point_in_hull(two, np.array([0.5, 0.0]))


def test_hull_input_validation():
    with pytest.raises(ValueError):
        convex_hull_2d(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        convex_hull_2d(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        convex_hull_2d(np.array([[0.0, np.nan]]))


def test_hausdorff_input_validation():
    with pytest.raises(ValueError, match="empty set"):
        hausdorff_distance(np.zeros((0, 2)), np.zeros((1, 2)))
    with pytest.raises(ValueError):
        hausdorff_distance(np.zeros((1, 2)), np.zeros((1, 3)))


def test_mid_edge_point_is_not_a_vertex():
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.0], [1.0, 2.0]])
    got = {tuple(v) for v in convex_hull_2d(pts)}
    assert got == {(0.0, 0.0), (2.0, 0.0), (1.0, 2.0)}


# ------------------------------------------------------------ properties

coord = st.integers(-100, 100).map(lambda v: v / 2.0)
point = st.tuples(coord, coord)
point_sets = st.lists(point, min_size=1, max_size=40)
float_coord = st.floats(-50, 50, allow_nan=False, allow_infinity=False)
float_sets = st.lists(st.tuples(float_coord, float_coord), min_size=1, max_size=12)


@given(a=float_sets)
def test_hausdorff_identity(a):
    a = np.array(a)
    assert hausdorff_distance(a, a) == 0.0


@given(a=float_sets, b=float_sets)
def test_hausdorff_symmetry(a, b):
    a, b = np.array(a), np.array(b)
    assert hausdorff_distance(a, b) == hausdorff_distance(b, a)


@given(a=float_sets, b=float_sets, c=float_sets)
def test_hausdorff_triangle_inequality(a, b, c):
    a, b, c = np.array(a), np.array(b), np.array(c)
    dab = hausdorff_distance(a, b)
    assert dab <= hausdorff_distance(a, c) + hausdorff_distance(c, b) + 1e-9


@given(a=float_sets, b=float_sets)
def test_hausdorff_union_order_invariance(a, b):
    a, b = np.array(a), np.array(b)
    ab = np.concatenate([a, b])
    ba = np.concatenate([b, a])
    assert hausdorff_distance(ab, ba) == 0.0
    assert hausdorff_distance(a, b) >= 0.0


@given(pts=point_sets)
def test_hull_contains_all_inputs(pts):
    pts = np.array(pts, dtype=float)
    hull = convex_hull_2d(pts)
    for p in pts:
        assert point_in_hull(hull, p)
        assert point_hull_distance(hull, p) <= 1e-9


@given(pts=point_sets)
def test_hull_vertices_are_inputs(pts):
    pts = np.array(pts, dtype=float)
    rows = {tuple(p) for p in pts}
    for v in convex_hull_2d(pts):
        assert tuple(v) in rows


@given(pts=point_sets, extra=point_sets)
def test_hull_monotone_under_union(pts, extra):
    pts = np.array(pts, dtype=float)
    both = np.concatenate([pts, np.array(extra, dtype=float)])
    big = convex_hull_2d(both)
    for v in convex_hull_2d(pts):
        assert point_in_hull(big, v)


@given(pts=point_sets, seed=st.integers(0, 2**31))
def test_hull_permutation_invariance(pts, seed):
    pts = np.array(pts, dtype=float)
    perm = np.random.default_rng(seed).permutation(len(pts))
    a = {tuple(v) for v in convex_hull_2d(pts)}
    b = {tuple(v) for v in convex_hull_2d(pts[perm])}
    assert a == b


@given(pts=point_sets)
def test_hull_idempotent(pts):
    pts = np.array(pts, dtype=float)
    first = convex_hull_2d(pts)
    again = convex_hull_2d(first)
    assert {tuple(v) for v in first} == {tuple(v) for v in again}


@given(pts=point_sets)
def test_hull_orientation_is_counterclockwise(pts):
    v = convex_hull_2d(np.array(pts, dtype=float))
    if len(v) < 3:
        return
    nxt = np.roll(v, -1, axis=0)
    area2 = float(np.sum(v[:, 0] * nxt[:, 1] - nxt[:, 0] * v[:, 1]))
    assert area2 > 0.0


@given(pts=st.lists(point, min_size=1, max_size=20),
       cx=coord, cy=coord, r=st.integers(1, 40).map(lambda v: v / 4.0))
def test_hull_clearance_bounded_by_vertex_clearance(pts, cx, cy, r):
    hull = convex_hull_2d(np.array(pts, dtype=float))
    ball = Ball((cx, cy), r)
    per_vertex = points_obstacle_clearance(hull, ball).min()
    assert hull_obstacle_clearance(hull, ball) <= per_vertex + 1e-9


@given(pts=st.lists(point, min_size=1, max_size=20), dx=coord, dy=coord)
@settings(max_examples=50)
def test_clearance_translation_invariance(pts, dx, dy):
    pts = np.array(pts, dtype=float)
    shift = np.array([dx, dy])
    ball = Ball((60.0, 0.0), 2.0)
    moved = Ball((60.0 + dx, 0.0 + dy), 2.0)
    before = hull_obstacle_clearance(convex_hull_2d(pts), ball)
    after = hull_obstacle_clearance(convex_hull_2d(pts + shift), moved)
    assert after == pytest.approx(before, abs=1e-9)


quarter = st.integers(-80, 80).map(lambda v: v / 4.0)


@given(pts=st.lists(st.tuples(quarter, quarter), min_size=1, max_size=8),
       lo=st.tuples(quarter, quarter),
       size=st.tuples(st.integers(1, 40), st.integers(1, 40)))
@settings(max_examples=300)
def test_box_clearance_matches_pairwise_reference(pts, lo, size):
    # quarter-unit coordinates keep every cross product exact, so touching
    # and collinear configurations are decided the same way by both sides
    hull = convex_hull_2d(np.array(pts, dtype=float))
    box = Box(lo, (lo[0] + size[0] / 4.0, lo[1] + size[1] / 4.0))
    got = hull_obstacle_clearance(hull, box)
    want = reference_box_clearance(hull, box)
    if want > 0.0:
        assert got == want
    else:
        assert got <= 0.0


@given(pts=st.lists(st.tuples(quarter, quarter), min_size=1, max_size=8),
       lo=st.tuples(quarter, quarter),
       size=st.tuples(st.integers(0, 40), st.integers(0, 40)),
       r_flat=st.booleans())
@settings(max_examples=300)
# a point on a vertical hull segment: the separating-axis test reads it as
# touching (-0.0), as the exact reference does; point_hull_distance's
# projection reads 1.8e-15
@example(pts=[(0.0, -0.25), (0.0, -19.75)], lo=(0.0, -4.25), size=(0, 0), r_flat=False)
def test_degenerate_obstacle_clearance_matches_the_references(pts, lo, size, r_flat):
    # flat boxes, point boxes and zero-radius balls: a library caller may
    # pass them as obstacles
    if r_flat:
        size = (size[0], 0)
    hull = convex_hull_2d(np.array(pts, dtype=float))
    box = Box(lo, (lo[0] + size[0] / 4.0, lo[1] + size[1] / 4.0))
    got = hull_obstacle_clearance(hull, box)
    want = reference_box_clearance(hull, box)
    if want > 0.0:
        assert got == want
    else:
        assert got <= 0.0
    # a zero-radius ball is the point box at its center
    want = reference_box_clearance(hull, Box(lo, lo))
    got = hull_obstacle_clearance(hull, Ball(lo, 0.0))
    assert got == pytest.approx(point_hull_distance(hull, lo), rel=1e-12, abs=1e-12)
    assert (got > 0.0) == (want > 0.0)
    assert got == pytest.approx(want, rel=1e-12)


# ------------------------------------------- monotone chain vs its reference


@st.composite
def chain_cases(draw):
    """Point sets that stress the chain's pop test: repeats, collinear runs
    on an integer grid, runs within COLLINEAR_TOL of a line, cross products
    of exactly COLLINEAR_TOL, and coordinates so large that a cross product
    overflows to NaN."""
    kind = draw(st.sampled_from(["duplicates", "grid-line", "near-line", "at-tol", "huge",
                                 "axis-line", "huge-axis-line"]))
    if kind == "duplicates":
        pool = draw(st.lists(point, min_size=1, max_size=6))
        idx = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=30))
        return np.array([pool[i] for i in idx], dtype=float)
    if kind == "grid-line":
        ox, oy, dx, dy = draw(st.tuples(*[st.integers(-20, 20)] * 4))
        ts = draw(st.lists(st.integers(-15, 15), min_size=1, max_size=30))
        extra = draw(st.lists(st.tuples(st.integers(-40, 40), st.integers(-40, 40)), max_size=3))
        pts = [(ox + t * dx, oy + t * dy) for t in ts] + extra
        return np.array(pts, dtype=float)
    if kind == "near-line":
        # offsets across the line of 0 to 10 COLLINEAR_TOL put cross products
        # on both sides of the tolerance
        ang = draw(st.floats(0.0, 2.0 * np.pi))
        ts = draw(st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=30))
        offs = draw(st.lists(st.floats(-10.0, 10.0), min_size=len(ts), max_size=len(ts)))
        d = np.array([np.cos(ang), np.sin(ang)])
        nrm = np.array([-d[1], d[0]])
        return (np.array(ts)[:, None] * d + COLLINEAR_TOL * np.array(offs)[:, None] * nrm)
    if kind == "at-tol":
        # integer x and y in {-tol, 0, tol}: many cross products are exactly
        # COLLINEAR_TOL, where the chain must pop
        ys = st.sampled_from([-COLLINEAR_TOL, 0.0, COLLINEAR_TOL])
        return np.array(draw(st.lists(st.tuples(st.integers(-3, 3), ys),
                                      min_size=1, max_size=12)), dtype=float)
    if kind in ("axis-line", "huge-axis-line"):
        # one vertical or horizontal line, with repeats and zeros of either
        # sign, where the package skips the chain; spans that overflow make
        # NaN crosses, which keep points, so there the chain must run
        zero = st.sampled_from([0.0, -0.0])
        if kind == "axis-line":
            value = zero | coord | st.floats(-1e300, 1e300)
        else:
            value = zero | st.sampled_from([-1.7e308, -9e307, 9e307, 1.7e308])
        c = draw(value)
        ts = draw(st.lists(value, min_size=1, max_size=30))
        if draw(st.booleans()):
            return np.array([(c, t) for t in ts], dtype=float)
        return np.array([(t, c) for t in ts], dtype=float)
    big = st.floats(-1.7e308, 1.7e308)
    return np.array(draw(st.lists(st.tuples(big, big), min_size=1, max_size=12)), dtype=float)


@given(pts=chain_cases())
@settings(max_examples=1000)
@example(pts=np.array([[0.0, -0.0], [-0.0, 0.0], [0.0, 1.0]]))
# an overflowing span on a horizontal line: NaN crosses keep the middle row
@example(pts=np.array([[-1.7e308, 5.0], [0.0, 5.0], [1.7e308, 5.0]]))
def test_hull_vertices_equal_the_reference_chain(pts):
    want = reference_convex_hull_2d(pts)
    got = convex_hull_2d(pts)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert not np.signbit(got[got == 0.0]).any()


def test_an_overflowing_axis_line_runs_the_chain():
    v = convex_hull_2d(np.array([[-1.7e308, 5.0], [0.0, 5.0], [1.7e308, 5.0]]))
    assert v.tolist() == [[-1.7e308, 5.0], [0.0, 5.0], [1.7e308, 5.0], [0.0, 5.0]]


signed_quarter = st.sampled_from([0.0, -0.0]) | st.integers(-8, 8).map(lambda v: v / 4.0)


@given(pts=st.lists(st.tuples(signed_quarter, signed_quarter), min_size=1, max_size=10),
       flip=st.lists(st.booleans(), min_size=20, max_size=20),
       lo=st.tuples(signed_quarter, signed_quarter),
       size=st.tuples(st.integers(0, 8), st.integers(0, 8)),
       radius=st.sampled_from([0.0, 0.25, 1.0]),
       eps=st.sampled_from([0.0, COLLINEAR_TOL, 0.25]))
@settings(max_examples=300)
def test_the_sign_of_a_zero_vertex_changes_no_decision(pts, flip, lo, size, radius, eps):
    # hull vertices hold +0.0 only; the -0.0 the dedupe once let through
    # would have given the same clearance decisions and the same drawing
    v = convex_hull_2d(np.array(pts, dtype=float))
    w = v.copy()
    flipped = (w == 0.0) & np.array(flip[:w.size]).reshape(w.shape)
    w[flipped] = -0.0
    for obstacle in (Box(lo, (lo[0] + size[0] / 4.0, lo[1] + size[1] / 4.0)),
                     Ball(lo, radius)):
        assert (hull_obstacle_clearance(v, obstacle) <= eps) == \
            (hull_obstacle_clearance(w, obstacle) <= eps)
    frame = _Frame(np.array([-2.0, -1.0]), np.array([2.0, 1.0]))
    assert _hull_elements(frame, [v]) == _hull_elements(frame, [w])


# ------------------------------------------------------------------ goal


def test_goal_containment_with_shrink():
    goal = GoalRegion((0, 1), (0.0, 0.0), 1.0)
    x = np.array([[0.5, 0.0, 9.0, 9.0], [0.95, 0.0, 0.0, 0.0]])
    assert goal_contains(goal, x).tolist() == [True, True]
    assert goal_contains(goal, x, shrink=0.1).tolist() == [True, False]
    # shrink swallowing the whole radius leaves nothing contained
    assert goal_contains(goal, x, shrink=1.0).tolist() == [False, False]
    assert bool(goal_contains(goal, x[0])) is True


def test_goal_projection_picks_state_dims():
    goal = GoalRegion((2, 3), (1.0, 1.0), 0.5)
    inside = np.array([9.0, 9.0, 1.1, 1.1])
    outside = np.array([1.0, 1.0, 9.0, 9.0])
    assert bool(goal_contains(goal, inside)) is True
    assert bool(goal_contains(goal, outside)) is False


_GOAL_PROJECTIONS = [(0,), (0, 2), (2, 0)]
# finite floats up to a magnitude whose squared offsets cannot overflow
_COORD = st.one_of(st.floats(-4.0, 4.0), st.sampled_from([0.0, -0.0]),
                   st.floats(-1e150, 1e150))


def _states(values, shape, layout):
    """A (*shape, 3) state block from flat values: C order, or channel-major
    like a rollout trace (Rollout.states is a transposed (S+1, n, N) block,
    and Rollout.final_states its last, non-contiguous slice)."""
    x = np.array(values, dtype=float).reshape(shape + (3,))
    if layout == "channel-major" and x.ndim > 1:
        block = np.ascontiguousarray(np.moveaxis(x, -1, -2))
        x = np.moveaxis(block, -2, -1)
        assert not x.flags.c_contiguous or x.shape[-2] == 1
    return x


def _assert_goal_fold(goal, x, shrink):
    got = goal_contains(goal, x, shrink=shrink)
    if x.ndim == 1:
        assert type(got) is bool
    else:
        assert got.shape == x.shape[:-1] and got.dtype == bool
    if shrink >= goal.radius:
        # an empty goal holds nothing, not even its center
        assert not np.any(got)
    else:
        assert np.array_equal(got, reference_goal_contains(goal, x, shrink=shrink))


@settings(max_examples=400, deadline=None)
@given(proj=st.sampled_from(_GOAL_PROJECTIONS), data=st.data())
def test_goal_fold_matches_the_fancy_index_form(proj, data):
    center = data.draw(st.tuples(*[_COORD] * len(proj)))
    goal = GoalRegion(proj, center, data.draw(st.floats(1e-3, 8.0)))
    shrink = data.draw(st.one_of(st.just(0.0), st.floats(0.0, 10.0),
                                 st.just(goal.radius)))
    shape = data.draw(st.sampled_from([(), (1,), (6,), (3, 4)]))
    m = int(np.prod(shape))
    values = data.draw(st.lists(_COORD, min_size=3 * m, max_size=3 * m))
    x = np.array(values).reshape(m, 3)
    # half the states near the goal, so both answers come up
    near = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=len(proj) * m,
                              max_size=len(proj) * m))
    offsets = np.array(near).reshape(m, len(proj)) * goal.radius
    x[: m // 2 + 1, list(proj)] = goal.center + offsets[: m // 2 + 1]
    x = _states(x.ravel(), shape, data.draw(st.sampled_from(["C", "channel-major"])))
    _assert_goal_fold(goal, x, shrink)


# exact offsets of length 5 along the projection: the squares and their sum
# are exact in binary, so these points lie on the boundary to the last bit
_ON_BOUNDARY = {1: [(5.0,), (-5.0,)],
                2: [(3.0, 4.0), (-4.0, 3.0), (0.0, -5.0), (5.0, -0.0)]}


@settings(max_examples=200, deadline=None)
@given(proj=st.sampled_from(_GOAL_PROJECTIONS),
       eighths=st.lists(st.integers(-32, 32), min_size=2, max_size=2),
       k=st.integers(-6, 6), shrink_eighths=st.integers(0, 8),
       layout=st.sampled_from(["C", "channel-major"]))
def test_goal_fold_on_the_shrunk_boundary(proj, eighths, k, shrink_eighths, layout):
    scale, shrink = 2.0 ** k, shrink_eighths / 8.0
    center = np.array(eighths[: len(proj)]) / 8.0
    goal = GoalRegion(proj, center, 5.0 * scale + shrink)
    rows = []   # each boundary point between its neighbours along proj[0]
    for off in _ON_BOUNDARY[len(proj)]:
        row = np.array([9.0, -0.0, 9.0])
        row[list(proj)] = center + np.array(off) * scale
        below, above = row.copy(), row.copy()
        below[proj[0]] = np.nextafter(row[proj[0]], -np.inf)
        above[proj[0]] = np.nextafter(row[proj[0]], np.inf)
        rows += [below, row, above]
    x = _states(np.ravel(rows), (len(rows),), layout)
    _assert_goal_fold(goal, x, shrink)
    # the shrunk ball is closed: every exact boundary point is inside
    assert goal_contains(goal, x[1::3], shrink=shrink).all()
    for row in np.asarray(rows)[1::3]:
        assert goal_contains(goal, row, shrink=shrink) is True


def test_goal_fold_on_a_rollout_trace():
    sys_ = make_benchmark("quadrotor")
    pset = init_particles(sys_, Box([0.0] * 4, [0.5] * 4), 40, 17)
    _, r = compute_reach_set(sys_, pset, np.array([0.3, -0.2]), 0.37, 0.1, 17, 0)
    assert not r.final_states.flags.c_contiguous
    for proj in _GOAL_PROJECTIONS:
        goal = GoalRegion(proj, r.final_states[0, list(proj)], 0.05)
        for x in (r.states, r.final_states, r.final_states[3]):
            for shrink in (0.0, 0.01, 0.05):
                _assert_goal_fold(goal, x, shrink)
        assert 0 < goal_contains(goal, r.final_states).sum() < len(r.final_states)


def test_region_validation():
    # a zero radius and a flat box are shapes; the scenario loader refuses
    # them as obstacles (tests/test_scenario_cli.py)
    Ball((0.0, 0.0), 0.0)
    Box((0.0, 0.0), (1.0, 0.0))
    for radius in (-1e-12, float("nan")):
        with pytest.raises(ValueError):
            Ball((0.0, 0.0), radius)
    with pytest.raises(ValueError):
        Box((0.0, 0.0), (1.0, -1e-12))
    with pytest.raises(ValueError):
        GoalRegion((0, 1), (0.0, 0.0), 0.0)
    with pytest.raises(ValueError, match="dimension must match projection"):
        GoalRegion((0, 1), (0.0, 0.0, 0.0), 0.5)
    with pytest.raises(ValueError, match="at least one state"):
        GoalRegion((), (), 0.5)
    # a NaN bound fails every comparison, so its clearance would be NaN and
    # the collision test (clearance <= epsilon) would drop the obstacle;
    # infinite bounds stay legal
    nan = float("nan")
    for lo, hi in (((nan, -1.0), (1.2, 1.0)), ((1.0, -1.0), (1.2, nan))):
        with pytest.raises(ValueError):
            Box(lo, hi)
    with pytest.raises(ValueError):
        Ball((0.0, nan), 1.0)
    with pytest.raises(ValueError):
        GoalRegion((0, 1), (nan, 0.0), 0.5)
    box = Box((-np.inf, 0.0), (np.inf, 0.0))
    assert np.array_equal(box.hi - box.lo, [np.inf, 0.0])


def test_box_corner_order_is_a_cycle():
    box = Box((0.0, 0.0), (2.0, 1.0))
    c = box.corners
    assert len(c) == 4
    # consecutive corners share exactly one coordinate
    for i in range(4):
        shared = np.isclose(c[i], c[(i + 1) % 4]).sum()
        assert shared == 1
