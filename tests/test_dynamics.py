"""Dynamics tests.

The quadrotor sub-step oracle is an independent matrix-form evaluation with
plain Python floats: the linear part through (Ad, Bd) from the hover
linearization plus the drag and disturbance increments, which must equal the
vectorized map exactly.
"""

import math

import numpy as np
import pytest

from reachrrt import rng
from reachrrt.benchmarks import GRAVITY, Quadrotor, make_benchmark
from reachrrt.dynamics import (
    Box,
    ContinuousSystem,
    FeedbackWrapped,
    constant_w_source,
    rollout,
    rollout_batch,
    step,
    substep_lengths,
)

H = 0.1


def oracle_quad_step(x, u, w, alpha, h):
    """Matrix-form single step, scalar arithmetic only."""
    g = GRAVITY
    Ad = [
        [1.0, 0.0, h, 0.0],
        [0.0, 1.0, 0.0, h],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ]
    Bd = [
        [h * h * g / 4.0, 0.0],
        [0.0, -h * h * g / 4.0],
        [h * g, 0.0],
        [0.0, -h * g],
    ]
    lin = [
        sum(Ad[i][k] * x[k] for k in range(4)) + sum(Bd[i][k] * u[k] for k in range(2))
        for i in range(4)
    ]
    drag = [0.0, 0.0,
            -h * alpha[0] * x[2] * abs(x[2]),
            -h * alpha[1] * x[3] * abs(x[3])]
    dist = [0.0, 0.0, h * w[0], h * w[1]]
    return [lin[i] + drag[i] + dist[i] for i in range(4)]


def test_quadrotor_step_matches_matrix_oracle():
    quad = Quadrotor()
    x = (1.0, -2.0, 3.0, -1.5)
    u = (0.4, -0.2)
    w = (0.05, -0.1)
    alpha = (0.5, 0.4)
    want = oracle_quad_step(x, u, w, alpha, H)
    got = step(quad, np.array(x), np.array(u), np.array(w), np.array(alpha), H)
    assert got == pytest.approx(want, abs=1e-15)
    # frozen values from the oracle above
    assert got == pytest.approx([1.30981, -2.145095, 2.9474, -1.2238], abs=1e-12)


def test_quadrotor_step_random_agreement_with_oracle():
    quad = Quadrotor()
    gen = rng.substream(3, rng.DOMAIN_CHECK, 0)
    for _ in range(200):
        x = gen.uniform(-5, 5, size=4)
        u = gen.uniform(-1, 1, size=2)
        w = gen.uniform(-0.3, 0.3, size=2)
        al = gen.uniform(0.35, 0.65, size=2)
        want = oracle_quad_step(x, u, w, al, H)
        got = step(quad, x, u, w, al, H)
        assert got == pytest.approx(want, abs=1e-13)


def test_quadrotor_hover_is_an_equilibrium():
    quad = Quadrotor()
    x = np.array([2.0, -1.0, 0.0, 0.0])
    got = step(quad, x, np.zeros(2), np.zeros(2), np.array([0.5, 0.5]), H)
    assert np.array_equal(got, x)


def test_quadrotor_drag_opposes_motion():
    quad = Quadrotor()
    for v in (3.0, -3.0):
        x = np.array([0.0, 0.0, v, 0.0])
        out = step(quad, x, np.zeros(2), np.zeros(2), np.array([0.65, 0.65]), H)
        assert abs(out[2]) < abs(v)
        assert np.sign(out[2]) == np.sign(v)


# ------------------------------------------------------------ sub-steps


def test_substep_lengths_cover_tau_exactly():
    got = substep_lengths(0.25, 0.1)
    assert got[:2] == [0.1, 0.1] and len(got) == 3
    assert sum(got) == 0.25  # remainder by subtraction: the sum is exact
    assert substep_lengths(0.3, 0.1) == [0.1, 0.1, 0.1]
    assert substep_lengths(0.0, 0.1) == []
    got = substep_lengths(0.7300000001, 0.1)
    assert math.isclose(sum(got), 0.7300000001, rel_tol=0, abs_tol=1e-12)
    with pytest.raises(ValueError):
        substep_lengths(-0.1, 0.1)
    with pytest.raises(ValueError):
        substep_lengths(1.0, 0.0)


def test_trace_has_ceil_plus_one_entries():
    sys_ = make_benchmark("linear1d", theta_lo=0.4, theta_hi=0.6)
    for tau, want in [(0.25, 4), (0.3, 4), (0.0, 1), (0.05, 2)]:
        trace = rollout(sys_, np.array([0.0]), np.zeros(1), tau, 0.1)
        assert len(trace) == want


def test_zero_duration_keeps_the_state():
    sys_ = make_benchmark("linear1d")
    trace = rollout(sys_, np.array([1.5]), np.zeros(1), 0.0, 0.1)
    assert np.array_equal(trace, np.array([[1.5]]))


def test_linear1d_rollout_is_exact_integration():
    # flow is state-independent, so euler sub-steps integrate exactly
    sys_ = make_benchmark("linear1d", theta_lo=0.5, theta_hi=0.5)
    trace = rollout(sys_, np.array([1.0]), np.zeros(1), 0.73, 0.1)
    assert trace[-1, 0] == pytest.approx(1.0 + 0.5 * 0.73, abs=1e-12)


def test_zero_uncertainty_collapses_to_nominal():
    sys_ = make_benchmark("quadrotor", feedback=False,
                          alpha_lo=(0.5, 0.5), alpha_hi=(0.5, 0.5))
    X0 = np.tile([0.0, 0.0, 1.0, -1.0], (32, 1))
    Th = np.tile([0.5, 0.5], (32, 1))
    r = rollout_batch(sys_, X0, np.array([0.3, 0.1]), 0.5, H, Th,
                      constant_w_source(np.zeros(2)))
    nom = rollout(sys_, X0[0], np.array([0.3, 0.1]), 0.5, H)
    assert np.array_equal(r.states[:, 0, :], nom)
    assert np.all(r.states == r.states[:, :1, :])


# ------------------------------------------------------------- feedback


def test_feedback_control_matches_matmul_and_clips():
    quad = Quadrotor()
    K = np.array([[-0.9, 0.0, -1.0, 0.0], [0.0, 0.9, 0.0, 1.0]])
    fb = FeedbackWrapped(quad, K)
    gen = rng.substream(5, rng.DOMAIN_CHECK, 1)
    X = gen.uniform(-2, 2, size=(64, 4))
    mu = gen.uniform(-1, 1, size=4)
    nu = np.array([0.2, -0.3])
    got = fb.resolve_control(nu, X, mu)
    want = np.clip(nu + (X - mu) @ K.T, quad.bounds.control.lo, quad.bounds.control.hi)
    assert got == pytest.approx(want, abs=1e-12)
    assert np.all(got >= quad.bounds.control.lo) and np.all(got <= quad.bounds.control.hi)


def test_feedback_at_reference_returns_commanded():
    fb = make_benchmark("quadrotor")
    mu = np.array([1.0, 2.0, 0.5, -0.5])
    nu = np.array([0.3, 0.4])
    got = fb.resolve_control(nu, mu[None, :], mu)
    assert np.array_equal(got[0], nu)


def test_feedback_requires_reference():
    fb = make_benchmark("quadrotor")
    with pytest.raises(ValueError):
        fb.resolve_control(np.zeros(2), np.zeros((3, 4)), None)


def test_feedback_gain_shape_checked():
    with pytest.raises(ValueError):
        FeedbackWrapped(Quadrotor(), np.zeros((4, 2)))


# ------------------------------------------------------------ divergence


def _scalar_bounds():
    from reachrrt.dynamics import UncertaintyBounds

    z = Box([0.0], [0.0])
    return UncertaintyBounds(control=z, disturbance=z, param=z)


class Explode(ContinuousSystem):
    name = "explode"
    state_dim = 1
    collision_projection = (0,)

    def __init__(self):
        self.bounds = _scalar_bounds()
        self.nominal_param = np.array([0.0])
        self.nominal_disturbance = np.array([0.0])

    def flow_batch(self, X, U, W, Th):
        return X * X * 1e6


def test_divergence_raises_from_rollout():
    with pytest.raises(RuntimeError, match="dynamics diverged"):
        rollout(Explode(), np.array([10.0]), np.zeros(1), 2.0, 0.1)


def test_divergence_truncates_batch_trace():
    r = rollout_batch(Explode(), np.array([[10.0]]), np.zeros(1), 2.0, 0.1,
                      np.zeros((1, 1)), constant_w_source(np.zeros(1)))
    assert r.diverged
    assert len(r.lengths) < len(substep_lengths(2.0, 0.1))
    assert len(r.states) == len(r.lengths) + 1


def test_nonfinite_single_step_raises():
    class Nan(ContinuousSystem):
        name = "nan"
        state_dim = 1
        collision_projection = (0,)
        bounds = _scalar_bounds()
        nominal_param = np.array([0.0])
        nominal_disturbance = np.array([0.0])

        def flow_batch(self, X, U, W, Th):
            return np.full_like(X, np.nan)

    with pytest.raises(RuntimeError, match="dynamics diverged"):
        step(Nan(), np.array([0.0]), np.zeros(1), np.zeros(1), np.zeros(1), 0.1)
