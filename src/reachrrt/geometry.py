"""Planar geometry: convex hulls, clearances and goal regions.

Reachable sets live in full state space but collision and goal checks happen
on a 2-D (or 1-D, zero-padded) projection, so everything here is planar.
Box and Ball are the shapes of every set in a query: bounds, initial
regions, the sampling box and obstacles (a planar Box or Ball, possibly
flat or a point).  Both are a core box [lo, hi] grown by a radius: a Box is
its own core with radius 0.0, and a Ball's lo and hi are its center.  Every
clearance is computed for the core box, less the radius.  Clearances are
signed where it matters: a nonpositive clearance means contact or overlap.
"""

from dataclasses import dataclass

import numpy as np

# Cross products below this magnitude count as collinear.
COLLINEAR_TOL = 1e-9


class _Shape:
    """What Box and Ball share: the core box [lo, hi], grown by radius."""

    @property
    def dim(self):
        return self.lo.shape[0]

    @property
    def corners(self):
        (x0, y0), (x1, y1) = self.lo, self.hi
        return np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]])


@dataclass(frozen=True)
class Box(_Shape):
    """Axis-aligned box in R^d, possibly degenerate (lo == hi)."""

    lo: np.ndarray
    hi: np.ndarray
    radius = 0.0  # a box is its own core

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        # NaN fails every comparison: a NaN bound is refused, +-inf kept
        if lo.shape != hi.shape or not np.all(lo <= hi):
            raise ValueError("box needs lo <= hi componentwise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def center(self):
        return 0.5 * (self.lo + self.hi)

    def sample(self, gen, n=None):
        """Uniform draws; an (n, dim) block fills row-major, so the first m
        rows match an m-row block from the same generator state.

        The same bytes as gen.uniform(lo, hi, size), which computes
        lo + (hi - lo) * u from the same doubles u, without its broadcasting
        cost; like it, refuses a width that is not finite."""
        if n is None:
            return self.lo + self._width() * gen.random(self.dim)
        u = np.empty((int(n), self.dim))
        self.sample_into(gen, u, u)
        return u

    def sample_into(self, gen, out, u):
        """Write an (n, dim) block of uniform draws into out, with the bytes
        of sample(gen, n).  The doubles go row-major into u, a C-order
        (n, dim) buffer that may be out itself, and each column of out is
        then u * width + lo.  out may have any layout: a channel-major out
        gets each column in one contiguous row."""
        width = self._width()
        gen.random(out=u)
        # column by column: a (d,) vector broadcast across (n, d) rows makes
        # numpy run its inner loop once per row
        for dst, col, w, lo in zip(out.T, u.T, width.tolist(), self.lo.tolist()):
            np.multiply(col, w, out=dst)
            np.add(dst, lo, out=dst)

    def _width(self):
        width = self.hi - self.lo
        if not np.isfinite(width).all():
            raise OverflowError("Range exceeds valid bounds")
        return width


@dataclass(frozen=True)
class Ball(_Shape):
    """Closed ball in R^d, possibly a point (radius 0)."""

    center: np.ndarray
    radius: float
    lo = hi = property(lambda self: self.center)  # the core is the center

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if np.isnan(self.center).any():
            raise ValueError("ball center must not be NaN")
        if not self.radius >= 0:
            raise ValueError("ball radius must be nonnegative")

    def sample(self, gen, n=None):
        """Uniform draws by dropped coordinates (Voelker, Gosmann & Stewart
        2017): the first dim coordinates of a uniform point on the unit
        sphere in R^(dim+2) are uniform in the unit ball.  One
        standard_normal((m, dim + 2)) block fills row-major, so, as for
        Box.sample, the first m rows match an m-row block."""
        g = gen.standard_normal((1 if n is None else int(n), self.dim + 2))
        pts = self.center + self.radius * g[:, :self.dim] / np.sqrt((g * g).sum(axis=1))[:, None]
        return pts[0] if n is None else pts


@dataclass(frozen=True)
class GoalRegion:
    """Ball goal on a projection of the state."""

    projection: tuple
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "projection", tuple(int(i) for i in self.projection))
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if np.isnan(self.center).any():
            raise ValueError("goal center must not be NaN")
        if not self.radius > 0:
            raise ValueError("goal radius must be positive")
        if self.center.shape != (len(self.projection),):
            raise ValueError("goal center dimension must match projection")


def goal_contains(goal, x, shrink=0.0):
    """True where the projected state lies in the goal ball shrunk by `shrink`.

    Accepts a single state or a batch (leading axes).  A shrink larger than
    the radius leaves an empty goal, so nothing is contained.
    """
    r = goal.radius - shrink
    x = np.asarray(x, dtype=float)
    p = x[..., list(goal.projection)] - goal.center
    d = np.sqrt((p * p).sum(axis=-1))
    out = d <= r
    return out if d.ndim else bool(out)


def convex_hull_2d(points):
    """Convex hull of a planar point cloud (monotone chain) as its (k, 2)
    float vertex array: counterclockwise, with no three rows collinear
    (points along an edge are dropped).  One or two rows mark a degenerate
    hull (a point or a segment); those come up routinely, e.g. a singleton
    initial set or 1-D dynamics embedded in the plane, and every hull
    function here accepts them.  Duplicate input points are fine.  No
    vertex holds -0.0: the input's zeros are made +0.0 first, so of equal
    points it does not matter which one survives the dedupe.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("expected an (n, 2) array of points")
    if len(pts) == 0:
        raise ValueError("hull of an empty point set is undefined")
    if not np.isfinite(pts).all():
        raise ValueError("hull input must be finite")
    # Adding 0.0 turns -0.0 into +0.0 and keeps every other value.  Then,
    # with each row (x, y) viewed as the complex x + iy, numpy's complex
    # sort is lexicographic (x first) and != compares both parts, so a sort
    # and a row-difference mask give np.unique(pts, axis=0) without its sort
    # of a structured view.
    z = np.sort(np.add(pts, 0.0, order="C").view(complex)[:, 0])
    new = np.empty(len(z), dtype=bool)
    new[0] = True
    np.not_equal(z[1:], z[:-1], out=new[1:])
    uniq = z[new].view(float).reshape(-1, 2)
    if len(uniq) <= 2:
        return uniq
    # on one vertical or horizontal line every cross product below is +-0,
    # so the chain keeps the two ends; a span that overflows makes NaN
    # crosses, which the chain keeps, so it runs then
    (x0, y0), (x1, y1) = uniq[0].tolist(), uniq[-1].tolist()
    on_axis_line = x0 == x1 or y0 == y1 and uniq[:, 1].min() == uniq[:, 1].max()
    if on_axis_line and abs(x1 - x0) + abs(y1 - y0) < np.inf:
        return uniq[[0, -1]]

    # the cross product (a - o) x (p - o) of the chain's last two points o, a
    # and the new point p is inlined: a call per point costs more than the
    # arithmetic
    rows = uniq.tolist()
    chains = []
    for seq in (rows, rows[::-1]):
        chain = []
        for p in seq:
            px, py = p
            while len(chain) >= 2:
                (ox, oy), (ax, ay) = chain[-2], chain[-1]
                # pop unless strictly left; a NaN cross (from overflow) keeps
                if (ax - ox) * (py - oy) - (ay - oy) * (px - ox) <= COLLINEAR_TOL:
                    chain.pop()
                else:
                    break
            chain.append(p)
        chains.append(chain)
    lower, upper = chains
    verts = lower[:-1] + upper[:-1]
    if len(verts) < 3:
        # everything within collinearity tolerance of one line
        return np.array([rows[0], rows[-1]])
    return np.array(verts)


def _point_segments_distance(p, a, b):
    """Distances from point p to each segment a[i]--b[i].

    p may carry leading axes, e.g. (k, 1, 2) for k points, giving a (k, m)
    table; every entry is computed with the same arithmetic as a single point.
    """
    a = np.atleast_2d(a)
    b = np.atleast_2d(b)
    ab = b - a
    denom = (ab * ab).sum(axis=-1)
    t = ((p - a) * ab).sum(axis=-1)
    t = np.where(denom > 0, t / np.where(denom > 0, denom, 1.0), 0.0)
    t = np.clip(t, 0.0, 1.0)
    proj = a + t[..., None] * ab
    d = p - proj
    return np.sqrt((d * d).sum(axis=-1))


def _hull_edges(v):
    """Boundary of the hull with vertex array v as (starts, ends) segment
    arrays; a point maps to a zero-length segment."""
    if len(v) == 1:
        return v, v
    if len(v) == 2:
        return v[:1], v[1:]
    return v, np.roll(v, -1, axis=0)


def points_obstacle_clearance(pts, obstacle):
    """Signed clearance from each point to an obstacle; negative means inside.

    Works column by column, whatever the layout of pts: a (d,) vector
    broadcast across (N, d) rows, or a reduction along a row, makes numpy
    run its inner loop once per row.  The columns are summed and maxed left
    to right, as numpy's row reductions do for d < 8, so the bytes match.
    For a ball, max(c - x, x - c) is exactly |x - c|, so this is the
    distance to its center less the radius.
    """
    cols = np.atleast_2d(np.asarray(pts, dtype=float)).T
    q = [np.maximum(lo - c, c - hi)
         for c, lo, hi in zip(cols, obstacle.lo.tolist(), obstacle.hi.tolist())]
    outside = np.sqrt(_fold(np.add, [np.maximum(qi, 0.0) ** 2 for qi in q]))
    inside = _fold(np.maximum, q)  # <= 0 iff inside or on the boundary
    return np.where(inside > 0, outside, inside) - obstacle.radius


def _fold(ufunc, cols):
    """Left fold of a binary ufunc over equal-length columns, accumulating
    in place into the first one."""
    acc = cols[0]
    for c in cols[1:]:
        ufunc(acc, c, out=acc)
    return acc


def box_obstacle_clearance(lo, hi, obstacle, radius=0.0):
    """Signed clearance from the box [lo, hi] grown by `radius` to an
    obstacle.

    The box may be flat or a single point.  A positive result is exactly
    the distance between the box and the obstacle's core box minus both
    radii; a nonpositive one means they touch or overlap (minus the
    smallest per-axis overlap).

    No point of a planar box [lo, hi] has a smaller points_obstacle_clearance,
    also in floating point: each gap is at most the point's per-axis
    distance, since rounding is monotone, and the distance is the same sum of
    squares (two columns add in either order to the same double).
    """
    gap = np.maximum(obstacle.lo - hi, lo - obstacle.hi)
    g = np.maximum(gap, 0.0)
    boxes = np.sqrt((g * g).sum()) if gap.max() > 0 else gap.max()
    return float(boxes - radius - obstacle.radius)


def _project(axis, pts):
    s = pts @ axis if pts.ndim == 2 else np.array([pts @ axis])
    return s.min(), s.max()


def _sat_overlap(hull_pts, box_pts, axes):
    """Smallest projected overlap across axes, or None if separated."""
    best = np.inf
    for axis in axes:
        norm = float(np.hypot(axis[0], axis[1]))
        if norm == 0.0:
            continue
        lo_a, hi_a = _project(axis, hull_pts)
        lo_b, hi_b = _project(axis, box_pts)
        overlap = min(hi_a, hi_b) - max(lo_a, lo_b)
        if overlap < 0:
            return None
        best = min(best, overlap / norm)
    return best


def hull_obstacle_clearance(v, obstacle):
    """Signed clearance between the hull with vertex array v and an obstacle.

    Positive when disjoint, and <= 0 exactly when they touch or overlap.  It
    is the clearance of the obstacle's core box less its radius; the
    negative branch is a penetration proxy (the smallest separating-axis
    overlap with the core box, less the radius), good enough for reject
    decisions.
    """
    if len(v) == 1:
        return float(points_obstacle_clearance(v, obstacle)[0])
    corners = obstacle.corners
    axes = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    a, b = _hull_edges(v)
    for s, e in zip(a, b):
        d = e - s
        axes.append(np.array([-d[1], d[0]]))
    overlap = _sat_overlap(v, corners, axes)
    if overlap is not None:
        return -overlap - obstacle.radius
    # strictly separated convex polygons: the distance is attained between a
    # vertex of one and an edge of the other
    to_box = _point_segments_distance(v[:, None], corners, np.roll(corners, -1, axis=0))
    to_hull = _point_segments_distance(corners[:, None], a, b)
    return float(min(to_box.min(), to_hull.min())) - obstacle.radius

