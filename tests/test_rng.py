"""Stream derivation tests: reproducibility, independence, prefix stability."""

import numpy as np
from hypothesis import given, strategies as st

from reachrrt import rng
from reachrrt.geometry import Box


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


def test_box_sample_prefix_property():
    box = Box([-2.0, 1.0, 0.0], [2.0, 3.0, 0.5])
    small = box.sample(rng.substream(9, rng.DOMAIN_INIT, 0), 16)
    large = box.sample(rng.substream(9, rng.DOMAIN_INIT, 0), 64)
    assert np.array_equal(small, large[:16])


def test_degenerate_box_samples_are_constant():
    box = Box([0.0, -1.0], [0.0, -1.0])
    got = box.sample(rng.substream(0, 1), 8)
    assert np.array_equal(got, np.tile([0.0, -1.0], (8, 1)))


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
