"""Static SVG rendering of a planning result.

Hand-rolled on purpose: output must be byte-identical across runs, so every
coordinate is formatted with a fixed precision and elements are emitted in a
fixed order (obstacles, goal, hulls, edges, solution path).
"""

import numpy as np

from .geometry import Ball, Box, convex_hull_2d
from .reachability import project_to_plane

_W = 760.0
_H = 560.0
_MARGIN = 30.0


def _fmt(v):
    s = f"{v:.4f}"
    return "0.0000" if s == "-0.0000" else s


class _Frame:
    def __init__(self, lo, hi):
        span_x = max(hi[0] - lo[0], 1e-9)
        span_y = max(hi[1] - lo[1], 1e-9)
        s = min((_W - 2 * _MARGIN) / span_x, (_H - 2 * _MARGIN) / span_y)
        self.s = s
        self.lo = lo
        self.hi = hi

    def pt(self, p):
        x = _MARGIN + (p[0] - self.lo[0]) * self.s
        y = _H - _MARGIN - (p[1] - self.lo[1]) * self.s
        return x, y

    def xy(self, p):
        x, y = self.pt(p)
        return f"{_fmt(x)},{_fmt(y)}"


def _polygon(frame, pts, fill, opacity, stroke, width):
    body = " ".join(frame.xy(p) for p in pts)
    return (f'<polygon points="{body}" fill="{fill}" fill-opacity="{opacity}" '
            f'stroke="{stroke}" stroke-width="{width}"/>')


def _circle(frame, center, radius, fill, opacity, stroke, width, dash=None):
    cx, cy = frame.pt(center)
    extra = f' stroke-dasharray="{dash}"' if dash else ""
    return (f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(radius * frame.s)}" '
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


def render_svg(result, sys, goal, obstacles, sampling_box, epsilon, seed,
               scenario_sha, version):
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
        f"<!-- seed={seed} scenario={scenario_sha} version={version} -->",
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
    for node in tree.nodes:
        v = convex_hull_2d(project_to_plane(node.reach.states, proj))
        if len(v) >= 3:
            parts.append(_polygon(frame, [tuple(p) for p in v],
                                  "#2e86c1", "0.14", "#2e86c1", "0.4"))
        elif len(v) == 2:
            a = frame.pt(v[0])
            b = frame.pt(v[1])
            parts.append(f'<line x1="{_fmt(a[0])}" y1="{_fmt(a[1])}" '
                         f'x2="{_fmt(b[0])}" y2="{_fmt(b[1])}" '
                         f'stroke="#2e86c1" stroke-width="0.6"/>')
        else:
            cx, cy = frame.pt(v[0])
            parts.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="1.2" '
                         f'fill="#2e86c1"/>')

    for node in tree.nodes:
        if node.parent is None:
            continue
        a = project_to_plane(tree.nodes[node.parent].reach.nominal[None, :], proj)[0]
        b = project_to_plane(node.reach.nominal[None, :], proj)[0]
        pa = frame.pt(a)
        pb = frame.pt(b)
        parts.append(f'<line x1="{_fmt(pa[0])}" y1="{_fmt(pa[1])}" '
                     f'x2="{_fmt(pb[0])}" y2="{_fmt(pb[1])}" '
                     f'stroke="#34495e" stroke-width="0.6" stroke-opacity="0.7"/>')

    if result.plan is not None and len(result.plan.steps) > 0:
        ids = [0] + [s.node_id for s in result.plan.steps]
        pts = [project_to_plane(tree.nodes[i].reach.nominal[None, :], proj)[0]
               for i in ids]
        body = " ".join(frame.xy(p) for p in pts)
        parts.append(f'<polyline points="{body}" fill="none" stroke="#e67e22" '
                     f'stroke-width="2.2"/>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
