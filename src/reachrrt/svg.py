"""Static SVG rendering of a planning result.

Hand-rolled on purpose: output must be byte-identical across runs, so every
coordinate is formatted with a fixed precision and elements are emitted in a
fixed order (obstacles, goal, hulls, edges, solution path).  Points are
mapped into the frame as arrays and formatted from Python floats, since a
numpy scalar operation per point costs more than the arithmetic.
"""

import numpy as np

from . import __version__
from .geometry import Ball, Box, convex_hull_2d
from .reachability import project_to_plane

_W = 760.0
_H = 560.0
_MARGIN = 30.0


def _numbers(template, values):
    """template % values, where every number is a %.4f field, with -0.0000
    printed as 0.0000."""
    # a %.4f field holds "-0.0000" only as its whole text
    return (template % tuple(values)).replace("-0.0000", "0.0000")


class _Frame:
    def __init__(self, lo, hi):
        span_x = max(hi[0] - lo[0], 1e-9)
        span_y = max(hi[1] - lo[1], 1e-9)
        s = min((_W - 2 * _MARGIN) / span_x, (_H - 2 * _MARGIN) / span_y)
        self.s = s
        self.lo = lo
        self.hi = hi

    def coords(self, v):
        """The rows of a (k, 2) array in SVG coordinates, as a flat list
        x0, y0, x1, y1, ...; one array expression per axis."""
        out = np.empty((len(v), 2))
        out[:, 0] = _MARGIN + (v[:, 0] - self.lo[0]) * self.s
        out[:, 1] = _H - _MARGIN - (v[:, 1] - self.lo[1]) * self.s
        return out.ravel().tolist()


def _points(xy):
    """polygon/polyline points text of a flat coordinate list."""
    return _numbers(" ".join(["%.4f,%.4f"] * (len(xy) // 2)), xy)


def _polygon(frame, pts, fill, opacity, stroke, width):
    return (f'<polygon points="{_points(frame.coords(pts))}" fill="{fill}" '
            f'fill-opacity="{opacity}" stroke="{stroke}" stroke-width="{width}"/>')


def _circle(frame, center, radius, fill, opacity, stroke, width, dash=None):
    extra = f' stroke-dasharray="{dash}"' if dash else ""
    xyr = frame.coords(np.asarray(center)[None, :]) + [radius * frame.s]
    return (_numbers('<circle cx="%.4f" cy="%.4f" r="%.4f" ', xyr) +
            f'fill="{fill}" fill-opacity="{opacity}" stroke="{stroke}" '
            f'stroke-width="{width}"{extra}/>')


def _obstacle_elems(frame, obstacle, epsilon):
    out = []
    if isinstance(obstacle, Ball):
        if epsilon > 0:
            out.append(_circle(frame, obstacle.center, obstacle.radius + epsilon,
                               "#c0392b", "0.15", "none", "0"))
        out.append(_circle(frame, obstacle.center, obstacle.radius,
                           "#c0392b", "0.55", "#922b21", "1"))
    elif isinstance(obstacle, Box):
        if epsilon > 0:
            padded = Box(obstacle.lo - epsilon, obstacle.hi + epsilon)
            out.append(_polygon(frame, padded.corners, "#c0392b", "0.15", "none", "0"))
        out.append(_polygon(frame, obstacle.corners, "#c0392b", "0.55", "#922b21", "1"))
    return out


def _hull_elements(frame, hulls):
    """One element per hull vertex array: a polygon, a line for a segment
    and a dot for a point.  Every vertex is mapped through the frame in one
    array expression."""
    xy = frame.coords(np.concatenate(hulls))
    out = []
    at = 0
    for v in hulls:
        k = len(v)
        c = xy[at:at + 2 * k]
        at += 2 * k
        if k >= 3:
            out.append(f'<polygon points="{_points(c)}" fill="#2e86c1" '
                       f'fill-opacity="0.14" stroke="#2e86c1" stroke-width="0.4"/>')
        elif k == 2:
            out.append(_numbers('<line x1="%.4f" y1="%.4f" x2="%.4f" y2="%.4f" '
                                'stroke="#2e86c1" stroke-width="0.6"/>', c))
        else:
            out.append(_numbers('<circle cx="%.4f" cy="%.4f" r="1.2" fill="#2e86c1"/>', c))
    return out


def render_svg(result, sys, goal, obstacles, sampling_box, epsilon, seed, scenario_sha):
    """Render the grown tree: hulls, nominal edges, obstacles (with their
    inflation), goal (with its shrink), and the solution path if any."""
    proj = list(sys.collision_projection)
    if len(proj) == 1:
        lo = np.array([sampling_box.lo[proj[0]], -1.0])
        hi = np.array([sampling_box.hi[proj[0]], 1.0])
    else:
        lo = sampling_box.lo[proj]
        hi = sampling_box.hi[proj]
    frame = _Frame(lo, hi)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(_W)}" height="{int(_H)}" '
        f'viewBox="0 0 {int(_W)} {int(_H)}">',
        f"<!-- seed={seed} scenario={scenario_sha} version={__version__} -->",
        f'<rect x="0" y="0" width="{int(_W)}" height="{int(_H)}" fill="#fdfdfd"/>',
    ]

    for obstacle in obstacles:
        parts.extend(_obstacle_elems(frame, obstacle, epsilon))

    gc = np.asarray(goal.center, dtype=float)
    if gc.shape[0] == 1:
        gc = np.array([gc[0], 0.0])
    parts.append(_circle(frame, gc, goal.radius,
                         "#1e8449", "0.18", "#1e8449", "1.2"))
    if 0 < epsilon < goal.radius:
        parts.append(_circle(frame, gc, goal.radius - epsilon,
                             "none", "0", "#1e8449", "0.8", dash="4,3"))

    tree = result.tree
    parts.extend(_hull_elements(frame, [
        convex_hull_2d(project_to_plane(node.reach.states, proj)) for node in tree.nodes]))

    # every node's nominal, projected and mapped once for the edges and the path
    nominal = frame.coords(project_to_plane(
        np.array([node.reach.nominal for node in tree.nodes]), proj))
    for i, node in enumerate(tree.nodes):
        if node.parent is None:
            continue
        a, b = 2 * node.parent, 2 * i
        parts.append(_numbers('<line x1="%.4f" y1="%.4f" x2="%.4f" y2="%.4f" '
                              'stroke="#34495e" stroke-width="0.6" stroke-opacity="0.7"/>',
                              nominal[a:a + 2] + nominal[b:b + 2]))

    if result.plan is not None and len(result.plan.steps) > 0:
        ids = [0] + [s.node_id for s in result.plan.steps]
        path = [c for i in ids for c in nominal[2 * i:2 * i + 2]]
        parts.append(f'<polyline points="{_points(path)}" fill="none" stroke="#e67e22" '
                     f'stroke-width="2.2"/>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
