"""Reference helpers that only the tests use.

Single-state stepping wrappers, hull membership with slack, and the closed
form reachable interval of linear1d.  The package itself works on batches
and clearances, so these live next to the tests that check it.
"""

import numpy as np

from reachrrt.benchmarks import Linear1D
from reachrrt.geometry import _hull_edges, _point_segments_distance

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


def step(sys, x, u, w, theta, h):
    """Single-state convenience wrapper around step_batch."""
    X = np.asarray(x, dtype=float)[None, :]
    U = np.asarray(u, dtype=float)[None, :]
    W = np.asarray(w, dtype=float)[None, :]
    Th = np.asarray(theta, dtype=float)[None, :]
    out = sys.step_batch(X, U, W, Th, h)[0]
    if not np.all(np.isfinite(out)):
        raise RuntimeError("dynamics diverged")
    return out


def hybrid_step(sys, x, mode, u, w, theta, h, ctx=None):
    """Single-state hybrid step; builds a fresh segment context if none given."""
    X = np.asarray(x, dtype=float)[None, :]
    U = np.asarray(u, dtype=float)[None, :]
    W = np.asarray(w, dtype=float)[None, :]
    Th = np.asarray(theta, dtype=float)[None, :]
    M = np.array([int(mode)], dtype=np.int64)
    if ctx is None:
        ctx = sys.begin_segment(U[0], M, W)
    Xn, Mn = sys.hybrid_step_batch(X, M, U, W, Th, h, ctx)
    return Xn[0], int(Mn[0])


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
