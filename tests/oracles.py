"""Reference helpers that only the tests use.

Single-state stepping wrappers, hull membership with slack, the distance
from a point to a hull, the closed form reachable interval of linear1d,
and the straightforward forms of code that the package runs in a faster
form (the monotone chain with a function call per point, the steps as
expressions that allocate and return a fresh block, the jumper step with
every mask built on every call and its own countdown, and the feedback
law and the point clearances on whole (N, d) blocks rather than column by
column, the box clearance in numpy rather than Python floats, the SVG hull
elements formatted one vertex at a time, the Riccati iteration with no
early refusal of a stalled run, node selection as two tree scans, and the
goal test on a fancy-index copy of the projected columns).  The package
itself works on batches and clearances, so these live next to the tests
that check it.
"""

import numpy as np

from reachrrt.benchmarks import GRAVITY, Linear1D
from reachrrt.geometry import (
    COLLINEAR_TOL,
    Ball,
    _hull_edges,
    _point_segments_distance,
)
from reachrrt.svg import _H, _MARGIN

# default slack for membership tests
DEFAULT_TOL = 1e-9


def point_in_hull(v, p, tol=DEFAULT_TOL):
    """Membership with slack: within signed distance `tol` of the hull with
    vertex array v."""
    p = np.asarray(p, dtype=float)
    if len(v) < 3:
        a, b = _hull_edges(v)
        return bool(_point_segments_distance(p, a, b).min() <= tol)
    e = np.roll(v, -1, axis=0) - v
    w = p[None, :] - v
    cross = e[:, 0] * w[:, 1] - e[:, 1] * w[:, 0]
    lengths = np.sqrt((e * e).sum(axis=1))
    return bool(np.all(cross >= -tol * lengths))


def point_hull_distance(v, p):
    """Euclidean distance from p to the hull with vertex array v (zero
    inside): the hull/ball clearance the package computed before a ball
    became its center grown by its radius."""
    p = np.asarray(p, dtype=float)
    if len(v) >= 3:
        e = np.roll(v, -1, axis=0) - v
        w = p[None, :] - v
        cross = e[:, 0] * w[:, 1] - e[:, 1] * w[:, 0]
        if np.all(cross >= 0.0):
            return 0.0
    a, b = _hull_edges(v)
    return float(_point_segments_distance(p, a, b).min())


def step(sys, x, u, w, theta, h):
    """Single-state convenience wrapper around step_batch."""
    X = np.asarray(x, dtype=float)[None, :]
    U = np.asarray(u, dtype=float)[None, :]
    W = np.asarray(w, dtype=float)[None, :]
    Th = np.asarray(theta, dtype=float)[None, :]
    out = np.empty_like(X)
    sys.step_batch(X, U, W, Th, h, out)
    if not np.all(np.isfinite(out)):
        raise RuntimeError("dynamics diverged")
    return out[0]


def hybrid_step(sys, x, mode, u, w, theta, h):
    """Single-state hybrid step: sub-step 0 of a fresh segment."""
    X = np.asarray(x, dtype=float)[None, :]
    U = np.asarray(u, dtype=float)[None, :]
    W = np.asarray(w, dtype=float)[None, :]
    Th = np.asarray(theta, dtype=float)[None, :]
    M = np.array([int(mode)], dtype=np.int64)
    out = np.empty_like(X)
    Mn = sys.hybrid_step_batch(X, M, U, W, Th, h, sys.begin_segment(U[0], M, W), 0, out)
    return out[0], int(Mn[0])


def resolved(sys, nu, X, mu):
    """sys.resolve_control into a fresh (N, m) block, returned."""
    out = np.empty((len(X), sys.bounds.control.dim))
    sys.resolve_control(nu, X, mu, out)
    return out


def nan_blind_bytes(a):
    """The C-order bytes of a with every NaN made one positive NaN.  Of two
    NaN operands, numpy's add and multiply keep the first one's sign in the
    body of a vector loop but the second one's in its tail, so below a few
    thousand rows the sign of a NaN tells the element's position, not the
    operand order; zero signs and every other byte still count."""
    return np.where(np.isnan(a), np.nan, a).tobytes()


def reference_linear1d_step(X, U, W, Th, h):
    """Linear1D's Euler step as the expression it was before steps wrote
    in place: X + h * flow, with the flow theta + w a fresh block."""
    return X + h * (Th[:, :1] + W[:, :1])


def reference_quadrotor_step(X, U, W, Th, h):
    """Quadrotor.step_batch as it was before it wrote in place: each column
    one numpy expression over fresh temporaries."""
    px, py, vx, vy = X[:, 0], X[:, 1], X[:, 2], X[:, 3]
    u1, u2 = U[:, 0], U[:, 1]
    ax, ay = Th[:, 0], Th[:, 1]
    g = GRAVITY
    quarter = h * h * g / 4.0
    out = np.empty_like(X)
    out[:, 0] = px + h * vx + quarter * u1
    out[:, 1] = py + h * vy - quarter * u2
    out[:, 2] = vx + h * (g * u1 - ax * vx * np.abs(vx) + W[:, 0])
    out[:, 3] = vy + h * (-g * u2 - ay * vy * np.abs(vy) + W[:, 1])
    return out


def exact_interval_reach(sys, x0_interval, tau):
    """Exact reachable interval for the 1-D benchmark.

    Only linear1d admits this closed form; anything else is a usage error.
    """
    if not isinstance(sys, Linear1D):
        raise TypeError("exact interval reach is defined for linear1d only")
    lo, hi = float(x0_interval[0]), float(x0_interval[1])
    th = sys.bounds.param
    w = sys.bounds.disturbance
    return (lo + (th.lo[0] + w.lo[0]) * tau, hi + (th.hi[0] + w.hi[0]) * tau)


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def reference_convex_hull_2d(points):
    """geometry.convex_hull_2d with np.unique for the dedupe, one _cross
    call per chain test and no shortcut for axis-parallel lines; the package
    inlines the same float operations in the same order.  Zeros are made
    +0.0 first, as in the package (a decision: np.unique keeps whichever
    signed zero its unstable sort puts first)."""
    pts = np.asarray(points, dtype=float) + 0.0
    uniq = np.unique(pts, axis=0)
    if len(uniq) <= 2:
        return uniq

    rows = [(float(p[0]), float(p[1])) for p in uniq]
    lower = []
    for p in rows:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= COLLINEAR_TOL:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(rows):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= COLLINEAR_TOL:
            upper.pop()
        upper.append(p)
    verts = lower[:-1] + upper[:-1]
    if len(verts) < 3:
        return np.array([rows[0], rows[-1]])
    return np.array(verts)


def reference_jumper_step(sys, X, mode_arr, U, W, Th, h, cd):
    """Jumper.hybrid_step_batch building every mask on every call and
    returning a fresh copy of the modes.  It keeps its own countdown: cd
    starts a segment as Jumper.begin_segment's firing sub-steps, a row in
    contact fires when its countdown reads 0, and the step burns cd in
    place, where the package reads its context against the sub-step index."""
    x, xdot, y, ydot = X[:, 0], X[:, 1], X[:, 2], X[:, 3]
    mass = Th[:, 0]

    modes = mode_arr.copy()
    fire = (modes == sys.CONTACT) & (cd == 0)
    ydot = np.where(fire, sys.v_takeoff / mass, ydot)
    modes[fire] = sys.FLIGHT
    cd[cd >= 0] -= 1

    accel = np.clip(sys.kp * (U[:, 0] - x) - sys.kd * xdot,
                    -sys.a_max, sys.a_max) / mass
    flight = modes == sys.FLIGHT

    out = np.empty_like(X)
    out[:, 0] = x + h * xdot
    out[:, 1] = xdot + h * accel
    out[:, 2] = np.where(flight, y + h * ydot, y)
    out[:, 3] = np.where(flight, ydot - h * GRAVITY, 0.0)

    landed = flight & (out[:, 2] <= sys.ground) & (out[:, 3] <= 0.0)
    out[landed, 2] = sys.ground
    out[landed, 3] = 0.0
    modes[landed] = sys.CONTACT
    return out, modes


def reference_dlqr_gain(A, B, Q, R):
    """dlqr_gain's Riccati iteration with only its 100 000-step cap."""
    P = np.array(Q, dtype=float)
    for _ in range(100000):
        BtP = B.T @ P
        K = np.linalg.solve(R + BtP @ B, BtP @ A)
        Pn = Q + A.T @ P @ (A - B @ K)
        Pn = 0.5 * (Pn + Pn.T)
        if not np.all(np.isfinite(Pn)) or np.max(np.abs(Pn - P)) < 1e-13:
            P = Pn
            break
        P = Pn
    else:
        raise ValueError("Riccati iteration did not converge in 100000 steps")
    BtP = B.T @ P
    return -np.linalg.solve(R + BtP @ B, BtP @ A)


def reference_resolve_control(sys, nu, X, mu):
    """FeedbackWrapped.resolve_control on whole blocks: the commanded
    control tiled over the rows, the error X - mu broadcast, the gain
    expanded term by term and np.clip against the bound arrays."""
    U = np.tile(np.asarray(nu, dtype=float), (len(X), 1))
    err = X - mu[None, :]
    for j in range(sys.gain.shape[0]):
        for i in range(sys.gain.shape[1]):
            U[:, j] += sys.gain[j, i] * err[:, i]
    np.clip(U, sys.bounds.control.lo, sys.bounds.control.hi, out=U)
    return U


def reference_points_obstacle_clearance(pts, obstacle):
    """geometry.points_obstacle_clearance on whole (N, d) blocks, with
    numpy's row sum and row max."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if isinstance(obstacle, Ball):
        d = pts - obstacle.center
        return np.sqrt((d * d).sum(axis=1)) - obstacle.radius
    q = np.maximum(obstacle.lo - pts, pts - obstacle.hi)
    outside = np.sqrt((np.maximum(q, 0.0) ** 2).sum(axis=1))
    inside = q.max(axis=1)  # <= 0 iff inside or on the boundary
    return np.where(inside > 0, outside, inside)


def reference_box_obstacle_clearance(lo, hi, obstacle, radius=0.0):
    """geometry.box_obstacle_clearance in numpy: the per-axis gaps as one
    np.maximum, their squares summed by numpy and np.sqrt."""
    gap = np.maximum(obstacle.lo - hi, lo - obstacle.hi)
    g = np.maximum(gap, 0.0)
    boxes = np.sqrt((g * g).sum()) if gap.max() > 0 else gap.max()
    return float(boxes - radius - obstacle.radius)


def _fmt(v):
    s = f"{v:.4f}"
    return "0.0000" if s == "-0.0000" else s


def _pt(frame, p):
    x = _MARGIN + (p[0] - frame.lo[0]) * frame.s
    y = _H - _MARGIN - (p[1] - frame.lo[1]) * frame.s
    return x, y


def _xy(frame, p):
    x, y = _pt(frame, p)
    return f"{_fmt(x)},{_fmt(y)}"


def reference_points_text(frame, pts):
    """svg polygon/polyline points text the way render_svg once built it:
    each point mapped by scalar operations and each number formatted alone."""
    return " ".join(_xy(frame, p) for p in pts)


def reference_hull_element(frame, v):
    """The SVG element of one hull vertex array v, built point by point as
    render_svg once did."""
    if len(v) >= 3:
        return (f'<polygon points="{reference_points_text(frame, [tuple(p) for p in v])}" '
                f'fill="#2e86c1" fill-opacity="0.14" stroke="#2e86c1" stroke-width="0.4"/>')
    if len(v) == 2:
        a = _pt(frame, v[0])
        b = _pt(frame, v[1])
        return (f'<line x1="{_fmt(a[0])}" y1="{_fmt(a[1])}" '
                f'x2="{_fmt(b[0])}" y2="{_fmt(b[1])}" '
                f'stroke="#2e86c1" stroke-width="0.6"/>')
    cx, cy = _pt(frame, v[0])
    return f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="1.2" fill="#2e86c1"/>'


def reference_circle(frame, center, radius, fill, opacity, stroke, width, dash=None):
    """svg._circle formatting each number alone."""
    cx, cy = _pt(frame, center)
    extra = f' stroke-dasharray="{dash}"' if dash else ""
    return (f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(radius * frame.s)}" '
            f'fill="{fill}" fill-opacity="{opacity}" stroke="{stroke}" '
            f'stroke-width="{width}"{extra}/>')


def reference_sample_node(tree, x_s, zeta, gen):
    """planner.sample_node as two scans of the tree: nearest_nominal, then,
    when the sample lies within zeta, range_nominal's list of ids and one
    gen.integers draw over it."""
    nid, d = tree.nearest_nominal(x_s)
    if d > zeta:
        return nid
    cands = tree.range_nominal(x_s, zeta)
    return cands[int(gen.integers(len(cands)))]


def reference_goal_contains(goal, x, shrink=0.0):
    """geometry.goal_contains on a fancy-index copy of the projected
    columns, with numpy's row sum."""
    r = goal.radius - shrink
    x = np.asarray(x, dtype=float)
    p = x[..., list(goal.projection)] - goal.center
    d = np.sqrt((p * p).sum(axis=-1))
    out = d <= r
    return out if d.ndim else bool(out)
