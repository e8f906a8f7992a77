"""Search-tree tests: queries must match a reference linear scan exactly."""

from dataclasses import dataclass

import numpy as np
import pytest

from reachrrt import rng
from reachrrt.tree import DualTree, PlanStep, build_path


@dataclass
class FakeReach:
    nominal: np.ndarray


def scan_nearest(points, weights, x):
    """Reference linear scan; ties to the lowest index."""
    w = np.ones(points.shape[1]) if weights is None else np.asarray(weights)
    d = np.sqrt((((points - x[None, :]) * w[None, :]) ** 2).sum(axis=1))
    best = d.min()
    return int(np.flatnonzero(d <= best).min()), float(best)


def scan_range(points, weights, x, radius):
    w = np.ones(points.shape[1]) if weights is None else np.asarray(weights)
    d = np.sqrt((((points - x[None, :]) * w[None, :]) ** 2).sum(axis=1))
    return [int(i) for i in np.flatnonzero(d <= radius)]


def _grow(points, weights=None):
    tree = DualTree(FakeReach(points[0]), weights=weights)
    for i, p in enumerate(points[1:], start=1):
        tree.add_node(i - 1, FakeReach(p), PlanStep(u=(0.0,), tau=0.0, ext_id=i, node_id=i))
    return tree


@pytest.mark.parametrize("n", [1, 5, 63, 64, 65, 200, 1000])
def test_nearest_matches_linear_scan(n):
    gen = rng.substream(1, rng.DOMAIN_CHECK, n)
    pts = gen.uniform(-10, 10, size=(n, 3))
    tree = _grow(pts)
    for _ in range(200):
        x = gen.uniform(-12, 12, size=3)
        assert tree.nearest_nominal(x) == scan_nearest(pts, None, x)


@pytest.mark.parametrize("n", [1, 63, 64, 200, 1000])
def test_range_matches_linear_scan(n):
    gen = rng.substream(2, rng.DOMAIN_CHECK, n)
    pts = gen.uniform(-10, 10, size=(n, 2))
    tree = _grow(pts)
    for _ in range(100):
        x = gen.uniform(-12, 12, size=2)
        r = float(gen.uniform(0.0, 8.0))
        got = tree.range_nominal(x, r)
        assert got == scan_range(pts, None, x, r)
        assert got == sorted(got)


def test_queries_exact_while_growing_through_rebuilds():
    gen = rng.substream(3, rng.DOMAIN_CHECK, 0)
    pts = gen.uniform(-5, 5, size=(300, 2))
    tree = DualTree(FakeReach(pts[0]))
    for i in range(1, 300):
        tree.add_node(i - 1, FakeReach(pts[i]),
                      PlanStep(u=(0.0,), tau=0.0, ext_id=i, node_id=i))
        x = gen.uniform(-6, 6, size=2)
        assert tree.nearest_nominal(x) == scan_nearest(pts[: i + 1], None, x)


def test_nearest_tie_breaks_to_lowest_id():
    dup = np.array([1.0, 1.0])
    pts = np.array([[0.0, 0.0], dup, [5.0, 5.0], dup, dup])
    tree = _grow(pts)
    nid, d = tree.nearest_nominal(np.array([1.0, 1.0]))
    assert (nid, d) == (1, 0.0)
    # symmetric equidistant pair
    pts2 = np.array([[0.0, 0.0], [-1.0, 0.0], [1.0, 0.0]])
    nid, d = _grow(pts2).nearest_nominal(np.array([0.0, 3.0]))
    assert nid == 0


def test_tie_break_survives_the_index_regime():
    dup = np.array([2.0, -1.0])
    gen = rng.substream(4, rng.DOMAIN_CHECK, 0)
    pts = np.concatenate([gen.uniform(5, 10, size=(100, 2)),
                          [dup], [dup], [dup]])
    tree = _grow(pts)
    nid, d = tree.nearest_nominal(dup)
    assert (nid, d) == (100, 0.0)


def test_range_includes_the_boundary():
    pts = np.array([[0.0, 0.0], [3.0, 0.0], [3.0 + 1e-9, 0.0]])
    got = _grow(pts).range_nominal(np.zeros(2), 3.0)
    assert got == [0, 1]


def test_weights_rescale_the_metric():
    pts = np.array([[0.0, 0.0], [1.0, 100.0], [2.0, 0.0]])
    plain = _grow(pts)
    ignore_y = _grow(pts, weights=(1.0, 0.0))
    q = np.array([1.0, 0.0])
    assert plain.nearest_nominal(q)[0] == 0
    assert ignore_y.nearest_nominal(q) == (1, 0.0)
    assert _grow(pts, weights=(1.0, 0.0)).range_nominal(q, 1.0) == [0, 1, 2]


def test_weights_shape_checked():
    with pytest.raises(ValueError):
        DualTree(FakeReach(np.zeros(3)), weights=(1.0, 2.0))


def test_parent_ids_validated():
    tree = DualTree(FakeReach(np.zeros(2)))
    with pytest.raises(ValueError):
        tree.add_node(5, FakeReach(np.ones(2)),
                      PlanStep(u=(0.0,), tau=0.0, ext_id=0, node_id=1))


def test_child_ids_follow_parents():
    gen = rng.substream(5, rng.DOMAIN_CHECK, 0)
    tree = DualTree(FakeReach(gen.uniform(size=2)))
    for i in range(1, 120):
        parent = int(gen.integers(0, i))
        nid = tree.add_node(parent, FakeReach(gen.uniform(size=2)),
                            PlanStep(u=(0.0,), tau=0.1, ext_id=i, node_id=i))
        assert nid == i
        assert tree.nodes[nid].parent == parent
        assert tree.nodes[nid].parent < nid


def test_build_path_walks_root_to_leaf():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [9.0, 9.0]])
    tree = DualTree(FakeReach(pts[0]))
    tree.add_node(0, FakeReach(pts[1]), PlanStep(u=(0.5,), tau=0.4, ext_id=2, node_id=1))
    tree.add_node(1, FakeReach(pts[2]), PlanStep(u=(-0.5,), tau=0.5, ext_id=7, node_id=2))
    tree.add_node(0, FakeReach(pts[3]), PlanStep(u=(0.0,), tau=0.1, ext_id=9, node_id=3))

    plan = build_path(tree, 2, seed=33, system_name="linear1d", meta={"h": 0.1})
    assert plan.solved_node == 2
    assert plan.seed == 33
    assert len(plan) == 2
    assert [s.node_id for s in plan.steps] == [1, 2]
    assert [s.ext_id for s in plan.steps] == [2, 7]
    assert [s.tau for s in plan.steps] == [0.4, 0.5]
    assert plan.steps[0].u == (0.5,)


def test_build_path_at_root_is_empty():
    tree = DualTree(FakeReach(np.zeros(2)))
    plan = build_path(tree, 0, seed=1, system_name="x")
    assert len(plan) == 0
