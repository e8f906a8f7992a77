"""Stream derivation tests: reproducibility, independence, prefix stability."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from reachrrt import rng
from reachrrt.geometry import Ball, Box


def test_same_key_same_stream():
    a = rng.substream(42, rng.DOMAIN_INIT, 0).uniform(size=100)
    b = rng.substream(42, rng.DOMAIN_INIT, 0).uniform(size=100)
    assert np.array_equal(a, b)


def test_different_domains_differ():
    a = rng.substream(42, rng.DOMAIN_INIT, 0).uniform(size=100)
    b = rng.substream(42, rng.DOMAIN_PLANNER, 0).uniform(size=100)
    c = rng.substream(43, rng.DOMAIN_INIT, 0).uniform(size=100)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_key_depth_matters():
    a = rng.substream(1, 2).uniform(size=10)
    b = rng.substream(1, 2, 0).uniform(size=10)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("region", [Box([-2.0, 1.0, 0.0], [2.0, 3.0, 0.5]),
                                    Ball([-2.0, 1.0, 0.0], 0.5)], ids=["box", "ball"])
def test_box_sample_prefix_property(region):
    small = region.sample(rng.substream(9, rng.DOMAIN_INIT, 0), 16)
    large = region.sample(rng.substream(9, rng.DOMAIN_INIT, 0), 64)
    assert small.tobytes() == large[:16].tobytes()
    one = region.sample(rng.substream(9, rng.DOMAIN_INIT, 0))
    assert one.tobytes() == large[0].tobytes()


@pytest.mark.parametrize("dim", [1, 2, 4])
def test_ball_sample_is_uniform_in_the_ball(dim):
    # dropped coordinates: (|x - c| / r)^dim is uniform on [0, 1], and the
    # draws sit symmetric about the center
    ball = Ball(np.arange(dim, dtype=float), 0.5)
    pts = ball.sample(rng.substream(3, rng.DOMAIN_INIT, 0), 20_000)
    rad = np.sqrt(((pts - ball.center) ** 2).sum(axis=1)) / ball.radius
    assert rad.max() <= 1.0
    assert stats.kstest(rad ** dim, "uniform").pvalue > 1e-3
    assert np.abs((pts - ball.center).mean(axis=0)).max() < 0.02


def test_degenerate_box_samples_are_constant():
    box = Box([0.0, -1.0], [0.0, -1.0])
    got = box.sample(rng.substream(0, 1), 8)
    assert np.array_equal(got, np.tile([0.0, -1.0], (8, 1)))


# widths 0, 1e-12, O(1) and 1e6, each axis on its own
widths = st.sampled_from([0.0, 1e-12]) | st.floats(0.25, 4.0) | st.just(1e6)


@given(seed=st.integers(0, 2**63 - 1),
       axes=st.lists(st.tuples(st.floats(-1e3, 1e3), widths), min_size=1, max_size=4),
       n=st.sampled_from([None, 1, 40, 10_000]))
@settings(max_examples=300)
def test_box_sample_is_the_uniform_draw(seed, axes, n):
    # Box.sample computes lo + (hi - lo) * u itself; numpy's uniform does the
    # same arithmetic on the same doubles, so the bytes must agree
    lo = np.array([a for a, _ in axes])
    hi = lo + np.array([w for _, w in axes])
    box = Box(lo, hi)
    got = box.sample(rng.substream(seed, rng.DOMAIN_CHECK), n)
    size = None if n is None else (n, box.dim)
    want = rng.substream(seed, rng.DOMAIN_CHECK).uniform(box.lo, box.hi, size=size)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("lo,hi", [
    ([0.0], [np.inf]), ([-np.inf], [0.0]), ([-1e308], [1e308]),
], ids=["inf-hi", "inf-lo", "overflow"])
def test_box_sample_refuses_a_width_uniform_refuses(lo, hi):
    box = Box(lo, hi)
    with np.errstate(over="ignore"):
        with pytest.raises(OverflowError):
            rng.substream(0, 1).uniform(box.lo, box.hi)
        with pytest.raises(OverflowError):
            box.sample(rng.substream(0, 1))
        with pytest.raises(OverflowError):
            box.sample(rng.substream(0, 1), 3)


def test_a_nan_bound_is_refused_when_the_box_is_built():
    # uniform refuses a NaN width when it draws; a Box refuses it earlier
    with pytest.raises(OverflowError):
        rng.substream(0, 1).uniform([np.nan], [1.0])
    for lo, hi in (([np.nan], [1.0]), ([0.0], [np.nan])):
        with pytest.raises(ValueError, match="lo <= hi"):
            Box(lo, hi)


@given(seed=st.integers(0, 2**63 - 1), key=st.lists(st.integers(0, 2**31), min_size=1, max_size=4))
def test_streams_are_pure_functions_of_seed_and_key(seed, key):
    a = rng.substream(seed, *key).integers(0, 2**32, size=8)
    b = rng.substream(seed, *key).integers(0, 2**32, size=8)
    assert np.array_equal(a, b)


def test_draws_elsewhere_do_not_shift_a_stream():
    before = rng.substream(5, rng.DOMAIN_VALIDATE, 1).uniform(size=32)
    rng.substream(5, rng.DOMAIN_VALIDATE, 0).uniform(size=10_000)
    rng.substream(5, rng.DOMAIN_PLANNER).uniform(size=10_000)
    after = rng.substream(5, rng.DOMAIN_VALIDATE, 1).uniform(size=32)
    assert np.array_equal(before, after)


def test_marginals_look_uniform():
    # coarse sanity: 20-bin chi-square under the 0.999 quantile
    x = rng.substream(123, rng.DOMAIN_CHECK, 0).uniform(size=20_000)
    counts, _ = np.histogram(x, bins=20, range=(0.0, 1.0))
    expected = len(x) / 20
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < 43.82  # chi2(19).ppf(0.999)
