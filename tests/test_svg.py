"""SVG text against the per-point reference in tests/oracles.py.

render_svg maps every hull vertex through the frame in one array expression
and formats an element's numbers in one go; the reference maps and formats
one point at a time with scalar operations.  The text must be the same,
byte for byte, including where a coordinate formats as -0.0000.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from reachrrt.geometry import convex_hull_2d
from reachrrt.reachability import project_to_plane
from reachrrt.svg import _MARGIN, _Frame, _circle, _hull_elements, _points

from oracles import reference_circle, reference_hull_element, reference_points_text

coord = st.sampled_from([0.0, -0.0]) | st.floats(-50.0, 50.0)


@st.composite
def frames(draw):
    """A sampling-box frame, as render_svg builds it; a 1-D projection's
    frame spans y in [-1, 1]."""
    lo_x = draw(st.floats(-20.0, 20.0))
    hi_x = lo_x + draw(st.sampled_from([0.0, 1e-12, 1.0]) | st.floats(0.0, 40.0))
    if draw(st.booleans()):
        return _Frame(np.array([lo_x, -1.0]), np.array([hi_x, 1.0]))
    lo_y = draw(st.floats(-20.0, 20.0))
    hi_y = lo_y + draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 40.0))
    return _Frame(np.array([lo_x, lo_y]), np.array([hi_x, hi_y]))


@st.composite
def vertex_arrays(draw, frame):
    """Hulls of 1, 2 and 3 or more rows, hulls of zero-padded 1-D
    projections, and raw arrays whose coordinates include either-signed
    zeros and points that map to within 5e-5 of a frame coordinate of 0."""
    kind = draw(st.sampled_from(["hull", "1-D", "raw"]))
    n = draw(st.integers(1, 12))
    if kind == "hull":
        pts = draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n))
        return convex_hull_2d(np.array(pts, dtype=float))
    if kind == "1-D":
        xs = draw(st.lists(coord, min_size=n, max_size=n))
        return convex_hull_2d(project_to_plane(np.array(xs)[:, None], [0]))
    near_zero = st.sampled_from([-5e-5, -4.9e-5, -1e-9, 0.0, 1e-9, 4.9e-5])
    x_at = st.builds(lambda m: frame.lo[0] + (m - _MARGIN) / frame.s, near_zero)
    k = draw(st.integers(1, 5))
    return np.array(draw(st.lists(st.tuples(coord | x_at, coord), min_size=k, max_size=k)),
                    dtype=float)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_hull_elements_are_the_per_point_text(data):
    frame = data.draw(frames())
    hulls = data.draw(st.lists(vertex_arrays(frame), min_size=1, max_size=4))
    assert _hull_elements(frame, hulls) == [reference_hull_element(frame, v) for v in hulls]
    for v in hulls:
        assert _points(frame.coords(v)) == reference_points_text(frame, v)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_circles_are_the_per_point_text(data):
    frame = data.draw(frames())
    near_zero = st.sampled_from([-5e-5, -1e-9, 0.0, 4.9e-5])
    x = data.draw(coord | st.builds(lambda m: frame.lo[0] + (m - _MARGIN) / frame.s, near_zero))
    center = np.array([x, data.draw(coord)])
    radius = data.draw(st.sampled_from([0.0, 0.5]) | st.floats(0.0, 10.0))
    dash = data.draw(st.sampled_from([None, "4,3"]))
    assert _circle(frame, center, radius, "#1e8449", "0.18", "#1e8449", "1.2", dash) == \
        reference_circle(frame, center, radius, "#1e8449", "0.18", "#1e8449", "1.2", dash)
