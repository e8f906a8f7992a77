"""Dynamics tests.

The quadrotor sub-step oracle is an independent matrix-form evaluation with
plain Python floats: the linear part through (Ad, Bd) from the hover
linearization plus the drag and disturbance increments, which must equal the
vectorized map exactly.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reachrrt import rng
from reachrrt.benchmarks import GRAVITY, Jumper, Quadrotor, make_benchmark
from reachrrt.dynamics import (
    DIVERGENCE_LIMIT,
    ContinuousSystem,
    FeedbackWrapped,
    HybridSystem,
    Rollout,
    constant_w_source,
    reachable_modes,
    rollout,
    rollout_batch,
    substep_lengths,
)
from reachrrt.geometry import Box
from reachrrt.reachability import disturbance_source

from oracles import reference_resolve_control, resolved, step

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
        r = rollout(sys_, np.array([0.0]), np.zeros(1), tau, 0.1)
        assert len(r.states) == want


def test_zero_duration_keeps_the_state():
    sys_ = make_benchmark("linear1d")
    trace = rollout(sys_, np.array([1.5]), np.zeros(1), 0.0, 0.1).states[:, 0]
    assert np.array_equal(trace, np.array([[1.5]]))


def test_linear1d_rollout_is_exact_integration():
    # flow is state-independent, so euler sub-steps integrate exactly
    sys_ = make_benchmark("linear1d", theta_lo=0.5, theta_hi=0.5)
    trace = rollout(sys_, np.array([1.0]), np.zeros(1), 0.73, 0.1).states[:, 0]
    assert trace[-1, 0] == pytest.approx(1.0 + 0.5 * 0.73, abs=1e-12)


def test_zero_uncertainty_collapses_to_nominal():
    sys_ = make_benchmark("quadrotor", feedback=False,
                          alpha_lo=(0.5, 0.5), alpha_hi=(0.5, 0.5))
    X0 = np.tile([0.0, 0.0, 1.0, -1.0], (32, 1))
    Th = np.tile([0.5, 0.5], (32, 1))
    r = rollout_batch(sys_, X0, np.array([0.3, 0.1]), 0.5, H, Th,
                      constant_w_source(np.zeros(2)))
    nom = rollout(sys_, X0[0], np.array([0.3, 0.1]), 0.5, H).states[:, 0]
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
    got = resolved(fb, nu, X, mu)
    want = np.clip(nu + (X - mu) @ K.T, quad.bounds.control.lo, quad.bounds.control.hi)
    assert got == pytest.approx(want, abs=1e-12)
    assert np.all(got >= quad.bounds.control.lo) and np.all(got <= quad.bounds.control.hi)


# control bounds: zero of either sign, a bound pair that pins the control,
# or an ordinary interval
_bound_pairs = st.sampled_from([(-1.0, 1.0), (0.0, 1.0), (-1.0, -0.0), (-0.0, 0.0),
                                (0.0, 0.0), (-0.0, -0.0), (0.5, 0.5)]) | \
    st.tuples(st.floats(-3, 3), st.floats(-3, 3)).map(sorted)
# zeros of both signs, values the bounds take, and ordinary values
_entries = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]) | st.floats(-3, 3)


@given(rows=st.sampled_from([1, 2, 101, 10_001]),
       bounds=st.lists(_bound_pairs, min_size=2, max_size=2),
       gain=st.lists(_entries, min_size=8, max_size=8),
       nu=st.lists(_entries, min_size=2, max_size=2),
       mu=st.lists(_entries, min_size=4, max_size=4),
       nominal=st.sampled_from(["finite", "inf", "-inf", "nan"]),
       pool=st.lists(_entries, min_size=1, max_size=6),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_feedback_control_is_the_reference_bytes(rows, bounds, gain, nu, mu, nominal,
                                                 pool, seed):
    # the column-wise law against the block form on every byte: controls at
    # the clip bounds, errors of +-0.0, and a non-finite nominal row N
    quad = Quadrotor(control_box=tuple(zip(*bounds)))
    fb = FeedbackWrapped(quad, np.reshape(gain, (2, 4)))
    gen = np.random.default_rng(seed)
    X = gen.uniform(-3.0, 3.0, size=(rows, 4))
    mu = np.array(mu)
    # entries equal to mu (error +0.0) or drawn from the pool (bounds, zeros)
    hit = gen.random(X.shape)
    X = np.where(hit < 0.3, mu, X)
    X = np.where(hit > 0.7, gen.choice(pool, size=X.shape), X)
    if nominal != "finite":
        mu[gen.integers(4)] = float(nominal)
    X[-1] = mu  # the tracked nominal rides as the last row
    before = X.tobytes(), mu.tobytes()
    with np.errstate(invalid="ignore"):  # inf - inf in the nominal row
        got = resolved(fb, np.array(nu), X, mu)
        want = reference_resolve_control(fb, np.array(nu), X, mu)
    assert got.shape == want.shape == (rows, 2)
    assert got.tobytes() == want.tobytes()
    assert (X.tobytes(), mu.tobytes()) == before


@pytest.mark.parametrize("nu", [np.zeros((3, 2)), np.zeros(3), np.zeros((1, 2))],
                         ids=["per-row", "too-long", "one-row-block"])
def test_feedback_refuses_a_per_row_control(nu):
    fb = make_benchmark("quadrotor")
    with pytest.raises(ValueError, match=r"shape \(2,\)"):
        resolved(fb, nu, np.zeros((3, 4)), np.zeros(4))


def test_feedback_at_reference_returns_commanded():
    fb = make_benchmark("quadrotor")
    mu = np.array([1.0, 2.0, 0.5, -0.5])
    nu = np.array([0.3, 0.4])
    got = resolved(fb, nu, mu[None, :], mu)
    assert np.array_equal(got[0], nu)


def test_feedback_requires_reference():
    fb = make_benchmark("quadrotor")
    with pytest.raises(ValueError):
        resolved(fb, np.zeros(2), np.zeros((3, 4)), None)


def test_feedback_gain_shape_checked():
    with pytest.raises(ValueError):
        FeedbackWrapped(Quadrotor(), np.zeros((4, 2)))


def test_feedback_refuses_a_hybrid_base():
    # it forwards none of the mode machinery, and its control law takes one
    # (m,) control where probing rolls a (k, m) block
    with pytest.raises(ValueError, match="hybrid"):
        FeedbackWrapped(Jumper(), np.zeros((2, 4)))


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

    def flow_batch(self, X, U, W, Th, out):
        np.multiply(X, X, out=out)
        np.multiply(out, 1e6, out=out)


def test_divergence_is_flagged_by_rollout():
    r = rollout(Explode(), np.array([10.0]), np.zeros(1), 2.0, 0.1)
    assert r.diverged
    assert len(r.states) == len(r.lengths) + 1 < len(substep_lengths(2.0, 0.1)) + 1


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

        def flow_batch(self, X, U, W, Th, out):
            out.fill(np.nan)

    with pytest.raises(RuntimeError, match="dynamics diverged"):
        step(Nan(), np.array([0.0]), np.zeros(1), np.zeros(1), np.zeros(1), 0.1)


# ------------------------------------------- in-place trace vs list-and-stack


def reference_rollout_batch(sys, X0, nu, tau, h, thetas, w_source, mu0=None,
                            modes0=None, mu_mode0=None):
    """rollout_batch as it was before the traces were preallocated: every
    sub-step is copied into a list, the lists are stacked at the end, and
    divergence is tested with isfinite and abs.  Each step and control
    resolution writes a fresh block, and the nominal runs in its own
    one-row calls; the disturbances fill one (N, dw) block per rollout, as
    w_source expects."""
    X = np.array(X0, dtype=float)
    N = len(X)
    nu = np.asarray(nu, dtype=float)
    thetas = np.asarray(thetas, dtype=float)
    lengths = substep_lengths(tau, h)

    track_mu = mu0 is not None
    mu = np.asarray(mu0, dtype=float).copy() if track_mu else None
    th_hat = sys.nominal_param[None, :]
    w_hat = sys.nominal_disturbance[None, :]

    hyb = sys.hybrid
    modes = np.array(modes0, dtype=np.int64) if hyb else None
    mu_mode = np.array([mu_mode0], dtype=np.int64) if (hyb and track_mu) else None

    states_trace = [X.copy()]
    modes_trace = [modes.copy()] if hyb else None
    mu_trace = [mu.copy()] if track_mu else None
    mu_modes_trace = [mu_mode.copy()] if mu_mode is not None else None

    def resolve(X, mu):
        U = np.empty((len(X), nu.shape[-1]))
        sys.resolve_control(nu, X, mu, U)
        return U

    ctx = None
    mu_ctx = None
    bad = False
    W = np.empty((N, len(w_hat[0])))
    for j, hj in enumerate(lengths):
        w_source(j, W)
        if hyb and j == 0:
            ctx = sys.begin_segment(nu, modes, W)
            if track_mu:
                mu_ctx = sys.begin_segment(nu, mu_mode, w_hat)
        U = resolve(X, mu)

        Xn = np.empty_like(X)
        if hyb:
            modes = sys.hybrid_step_batch(X, modes, U, W, thetas, hj, ctx, j, Xn)
        else:
            sys.step_batch(X, U, W, thetas, hj, Xn)
        X = Xn

        if track_mu:
            U_mu = resolve(mu[None, :], mu)
            mu_b = np.empty((1, len(mu)))
            if hyb:
                mu_mode = sys.hybrid_step_batch(
                    mu[None, :], mu_mode, U_mu, w_hat, th_hat, hj, mu_ctx, j, mu_b)
            else:
                sys.step_batch(mu[None, :], U_mu, w_hat, th_hat, hj, mu_b)
            mu = mu_b[0]

        bad = not np.all(np.isfinite(X)) or np.any(np.abs(X) > DIVERGENCE_LIMIT)
        states_trace.append(X.copy())
        if hyb:
            modes_trace.append(modes.copy())
        if track_mu:
            mu_trace.append(mu.copy())
            if mu_mode is not None:
                mu_modes_trace.append(mu_mode.copy())
        if bad:
            lengths = lengths[: j + 1]
            break

    return Rollout(
        states=np.stack(states_trace),
        modes=np.stack(modes_trace) if hyb else None,
        mu=np.stack(mu_trace) if track_mu else None,
        mu_modes=np.concatenate(mu_modes_trace) if mu_modes_trace else None,
        lengths=lengths,
        diverged=bool(bad),
    )


def _assert_same_rollout(got, want):
    assert got.diverged == want.diverged
    assert got.lengths == want.lengths
    for name in ("states", "modes", "mu", "mu_modes"):
        a, b = getattr(got, name), getattr(want, name)
        if b is None:
            assert a is None, name
        else:
            assert a.dtype == b.dtype and a.shape == b.shape, name
            # equal_nan: a NaN injected into the trace must come back as NaN
            assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), name


class Additive(ContinuousSystem):
    """x+ = x + w on two states: the disturbance source writes the trace."""

    name = "additive"
    state_dim = 2
    collision_projection = (0, 1)

    def __init__(self):
        self.bounds = _scalar_bounds()
        self.nominal_param = np.array([0.0])
        self.nominal_disturbance = np.zeros(2)

    def step_batch(self, X, U, W, Th, h, out):
        np.add(X, W, out=out)


class AdditiveHybrid(HybridSystem):
    """x+ = x + w, and every particle flips mode each sub-step."""

    name = "additive-hybrid"
    state_dim = 2
    collision_projection = (0, 1)
    modes = ("a", "b")

    def __init__(self):
        self.bounds = _scalar_bounds()
        self.nominal_param = np.array([0.0])
        self.nominal_disturbance = np.zeros(2)

    def hybrid_step_batch(self, X, mode_arr, U, W, Th, h, ctx, j, out):
        np.add(X, W, out=out)
        return 1 - mode_arr


def _injecting_source(value):
    """Zero disturbances, except `value` in one entry at sub-step 3."""

    def source(j, out):
        out[...] = 0.0
        if j == 3:
            out[1, 1] = value

    return source


BIG = 1e12
NEXT = float(np.nextafter(BIG, np.inf))


@pytest.mark.parametrize("hybrid", [False, True], ids=["smooth", "hybrid"])
@pytest.mark.parametrize("value,diverges", [
    (np.nan, True), (np.inf, True), (-np.inf, True),
    (BIG, False), (-BIG, False), (NEXT, True), (-NEXT, True),
], ids=["nan", "+inf", "-inf", "+1e12", "-1e12", "+next", "-next"])
@pytest.mark.parametrize("tau", [0.75, 0.0], ids=["tau", "tau0"])
def test_inplace_trace_matches_stacked_reference(hybrid, value, diverges, tau):
    sys_ = AdditiveHybrid() if hybrid else Additive()
    X0 = np.zeros((3, 2))
    kw = {"mu0": np.zeros(2)}
    if hybrid:
        kw.update(modes0=np.array([0, 1, 0]), mu_mode0=1)
    args = (sys_, X0, np.zeros(1), tau, 0.1, np.zeros((3, 1)), _injecting_source(value))
    got = rollout_batch(*args, **kw)
    _assert_same_rollout(got, reference_rollout_batch(*args, **kw))
    assert got.diverged == (diverges and tau > 0)
    if got.diverged:
        assert len(got.lengths) == 4 and len(got.states) == 5  # cut at sub-step 3
    else:
        assert got.lengths == substep_lengths(tau, 0.1)


@pytest.mark.parametrize("name,options,tracked,n", [
    ("quadrotor", {}, True, 50),
    ("quadrotor", {}, True, 10_000),
    ("quadrotor", {"feedback": False}, False, 50),
    ("jumper", {}, True, 50),
    ("jumper", {}, False, 50),
    ("linear1d", {}, True, 50),
    ("linear1d", {}, False, 50),
    ("linear1d", {"w_lo": -0.1, "w_hi": 0.2}, True, 50),
    ("linear1d", {"w_lo": -0.1, "w_hi": 0.2}, False, 50),
], ids=["quadrotor", "quadrotor-10000", "quadrotor-open-loop", "jumper-tracked", "jumper",
        "linear1d-zero-width-tracked", "linear1d-zero-width", "linear1d-tracked",
        "linear1d"])
@pytest.mark.parametrize("tau", [0.73, 0.0], ids=["tau", "tau0"])
def test_inplace_trace_matches_stacked_reference_on_benchmarks(name, options, tracked, n, tau):
    # the reference stacks row-major blocks; rollout_batch's trace is
    # channel-major, so this also checks that the layout changes no byte
    sys_ = make_benchmark(name, **options)
    gen = np.random.default_rng(4)
    X0 = gen.uniform(-1.0, 1.0, (n, sys_.state_dim))
    if sys_.hybrid:
        X0[:, 2:] = 0.0  # on the ground, in contact
    kw = {"mu0": X0.mean(axis=0)} if tracked else {}
    if sys_.hybrid:
        kw["modes0"] = np.full(n, Jumper.CONTACT)
        if tracked:
            kw["mu_mode0"] = Jumper.CONTACT
    args = (sys_, X0, sys_.bounds.control.hi, tau, 0.05,
            sys_.bounds.param.sample(gen, n),
            disturbance_source(sys_.bounds.disturbance, 5, rng.DOMAIN_CHECK, 1))
    got = rollout_batch(*args, **kw)
    want = reference_rollout_batch(*args, **kw)
    _assert_same_rollout(got, want)
    for trace in ("states", "mu"):
        if getattr(want, trace) is not None:
            assert getattr(got, trace).tobytes() == getattr(want, trace).tobytes(), trace
    # each channel of each sub-step is one contiguous row
    assert all(got.states[k, :, c].flags.c_contiguous
               for k in range(len(got.states)) for c in range(sys_.state_dim))
    if sys_.hybrid and tau > 0:
        assert (got.modes == Jumper.FLIGHT).any()  # the jump command fired


# --------------------------------------- the tracked nominal as row N


@pytest.mark.parametrize("name,mu0", [
    ("linear1d", [np.nan]),
    ("linear1d", [2e12]),
    ("linear1d-fast", [0.0]),
    ("jumper", [np.nan, 0.0, 0.0, 0.0]),
    ("jumper", [-np.inf, 0.0, 0.0, 0.0]),
    ("jumper", [3e12, 0.0, 0.0, 0.0]),
], ids=["linear1d-nan", "linear1d-big", "linear1d-fast", "jumper-nan",
        "jumper-inf", "jumper-big"])
@pytest.mark.parametrize("tau", [0.73, 0.0], ids=["tau", "tau0"])
def test_only_the_nominal_diverging_keeps_the_particles(name, mu0, tau):
    # the nominal runs under the nominal parameter; a huge one sends it past
    # the limit while the particles, on their own parameters, stay put
    if name == "linear1d-fast":
        sys_ = make_benchmark("linear1d", theta_lo=0.0, theta_hi=1e14)
    else:
        sys_ = make_benchmark(name)
    n = 20
    gen = np.random.default_rng(8)
    X0 = np.zeros((n, sys_.state_dim))
    X0[:, 0] = gen.uniform(0.0, 1.0, n)
    kw = {"mu0": np.array(mu0, dtype=float)}
    if sys_.hybrid:
        kw.update(modes0=np.full(n, Jumper.CONTACT), mu_mode0=Jumper.CONTACT)
    args = (sys_, X0, sys_.bounds.control.hi, tau, 0.05, np.full((n, 1), 0.9),
            disturbance_source(sys_.bounds.disturbance, 5, rng.DOMAIN_CHECK, 2))
    got = rollout_batch(*args, **kw)
    _assert_same_rollout(got, reference_rollout_batch(*args, **kw))
    assert not got.diverged
    assert got.lengths == substep_lengths(tau, 0.05)
    assert np.isfinite(got.states).all()
    if tau > 0:
        last = got.mu[-1]
        assert not (np.isfinite(last).all() and np.abs(last).max() <= DIVERGENCE_LIMIT)


@pytest.mark.parametrize("name", ["additive", "additive-hybrid", "quadrotor", "jumper"])
@pytest.mark.parametrize("tau", [0.73, 0.0], ids=["tau", "tau0"])
def test_empty_batch_still_tracks_the_nominal(name, tau):
    if name.startswith("additive"):
        sys_ = AdditiveHybrid() if name == "additive-hybrid" else Additive()
    else:
        sys_ = make_benchmark(name)
    kw = {"mu0": np.full(sys_.state_dim, 0.25)}
    if sys_.hybrid:
        kw.update(modes0=np.zeros(0, dtype=np.int64), mu_mode0=0)
    args = (sys_, np.zeros((0, sys_.state_dim)), np.ones(2), tau, 0.1,
            np.zeros((0, len(sys_.nominal_param))),
            disturbance_source(sys_.bounds.disturbance, 5, rng.DOMAIN_CHECK, 3))
    got = rollout_batch(*args, **kw)
    _assert_same_rollout(got, reference_rollout_batch(*args, **kw))
    assert got.states.shape == (len(got.lengths) + 1, 0, sys_.state_dim)
    assert not got.diverged


class WritesDisturbance(ContinuousSystem):
    """A faulty step function that scribbles over its disturbance input."""

    name = "writes-disturbance"
    state_dim = 1
    collision_projection = (0,)

    def __init__(self):
        self.bounds = _scalar_bounds()
        self.nominal_param = np.array([0.0])
        self.nominal_disturbance = np.array([0.0])

    def flow_batch(self, X, U, W, Th, out):
        W[:] = 1.0
        out[...] = W


def test_a_shared_zero_width_block_is_read_only():
    src = disturbance_source(Box([0.5], [0.5]), 5, rng.DOMAIN_CHECK, 4)
    with pytest.raises(ValueError, match="read-only"):
        rollout_batch(WritesDisturbance(), np.zeros((3, 1)), np.zeros(1), 0.3, 0.1,
                      np.zeros((3, 1)), src)


class WritesInput(ContinuousSystem):
    """A faulty step function that writes one of its inputs."""

    name = "writes-input"
    state_dim = 1
    collision_projection = (0,)

    def __init__(self, target):
        self.target = target
        self.bounds = _scalar_bounds()
        self.nominal_param = np.array([0.0])
        self.nominal_disturbance = np.array([0.0])

    def flow_batch(self, X, U, W, Th, out):
        {"X": X, "U": U, "W": W, "Th": Th}[self.target][:] = 1.0
        out.fill(0.0)


@pytest.mark.parametrize("tracked", [True, False], ids=["tracked", "untracked"])
@pytest.mark.parametrize("box", [Box([0.5], [0.5]), Box([0.0], [1.0])],
                         ids=["zero-width", "wide"])
@pytest.mark.parametrize("target", ["X", "U", "W", "Th"])
def test_a_step_that_writes_an_input_raises(target, box, tracked):
    # every input of a step is a read-only view, whatever the box and
    # whether a nominal rides along; the caller's arrays stay as they were
    X0, Th = np.zeros((3, 1)), np.zeros((3, 1))
    kw = {"mu0": np.zeros(1)} if tracked else {}
    src = disturbance_source(box, 5, rng.DOMAIN_CHECK, 4)
    with pytest.raises(ValueError, match="read-only"):
        rollout_batch(WritesInput(target), X0, np.zeros(1), 0.3, 0.1, Th, src, **kw)
    assert not X0.any() and not Th.any()


# ------------------------------------------ sub-step draws only when read


@pytest.mark.parametrize("tracked", [True, False], ids=["tracked", "untracked"])
@pytest.mark.parametrize("tau", [0.73, 0.05, 0.0], ids=["tau", "one-substep", "tau0"])
def test_skipping_unread_draws_keeps_the_bytes(tracked, tau):
    # Jumper reads W only in begin_segment, so rollout_batch draws sub-step 0
    # alone; forcing every draw must give the same trace
    sys_ = make_benchmark("jumper")
    gen = np.random.default_rng(6)
    n = 30
    X0 = np.zeros((n, 4))
    X0[:, 0] = gen.uniform(0.0, 5.0, n)
    kw = {"modes0": np.full(n, Jumper.CONTACT)}
    if tracked:
        kw.update(mu0=X0.mean(axis=0), mu_mode0=Jumper.CONTACT)
    calls = []
    draws = disturbance_source(sys_.bounds.disturbance, 5, rng.DOMAIN_CHECK, 6)

    def source(j, out):
        calls.append(j)
        draws(j, out)

    args = (X0, np.array([3.0, 1.0]), tau, 0.05, sys_.bounds.param.sample(gen, n), source)
    got = rollout_batch(sys_, *args, **kw)
    assert calls == ([0] if tau > 0 else [])
    calls.clear()
    sys_.reads_substep_disturbance = True
    want = rollout_batch(sys_, *args, **kw)
    assert calls == list(range(len(substep_lengths(tau, 0.05))))
    _assert_same_rollout(got, want)


# ----------------------------------------------------- probing in one batch


def _lone(sys, x, nu, tau, h, mode=None):
    """One row from x under the (m,) control nu, at the nominal parameter
    and disturbance, by rollout_batch itself."""
    return rollout_batch(
        sys, np.asarray(x, dtype=float)[None, :], nu, tau, h, sys.nominal_param[None, :],
        constant_w_source(sys.nominal_disturbance),
        modes0=None if mode is None else np.array([int(mode)], dtype=np.int64),
    )


def reference_reachable_modes(sys, x, mode, tau_max, h):
    """reachable_modes with one single-row rollout per probe control."""
    out = {int(mode)}
    for nu in sys.probe_controls(x, int(mode)):
        out.update(int(v) for v in _lone(sys, x, nu, tau_max, h, mode).modes[:, 0])
    return sorted(out)


class ProbeBlow(HybridSystem):
    """x+ = x + h + 1e13 u: probe control 1 leaves the finite range at the
    first sub-step in mode a; probe control 0 enters mode b once x passes
    0.25."""

    name = "probe-blow"
    state_dim = 1
    collision_projection = (0,)
    modes = ("a", "b")

    def __init__(self):
        self.bounds = _scalar_bounds()
        self.nominal_param = np.array([0.0])
        self.nominal_disturbance = np.array([0.0])

    def hybrid_step_batch(self, X, mode_arr, U, W, Th, h, ctx, j, out):
        out[...] = X + h + 1e13 * U[:, :1]
        return np.where((out[:, 0] > 0.25) & (out[:, 0] < 1.0), 1, mode_arr)

    def probe_controls(self, x, mode):
        return [np.array([0.0]), np.array([1.0])]


def test_a_diverging_probe_keeps_the_modes_of_the_others():
    sys_ = ProbeBlow()
    batch = rollout_batch(sys_, np.zeros((2, 1)), np.array([[0.0], [1.0]]), 0.5, H,
                          np.zeros((2, 1)), constant_w_source(np.zeros(1)),
                          modes0=np.zeros(2, dtype=np.int64))
    assert batch.diverged and (batch.modes == 0).all()  # cut before the switch
    want = reference_reachable_modes(sys_, np.zeros(1), 0, 0.5, H)
    assert want == [0, 1]
    assert reachable_modes(sys_, np.zeros(1), 0, 0.5, H) == want


def test_batched_probes_match_one_probe_at_a_time():
    sys_ = make_benchmark("jumper")
    gen = np.random.default_rng(12)
    for _ in range(40):
        mode = int(gen.integers(2))
        x = np.array([gen.uniform(-0.5, 5.5), gen.uniform(-2.0, 2.0),
                      0.0 if mode == Jumper.CONTACT else gen.uniform(0.0, 1.0),
                      0.0 if mode == Jumper.CONTACT else gen.uniform(-3.0, 3.0)])
        tau_max = float(gen.uniform(0.0, 1.5))
        assert (reachable_modes(sys_, x, mode, tau_max, 0.05)
                == reference_reachable_modes(sys_, x, mode, tau_max, 0.05))


# ----------------------------------------------- nominal rollouts of a block


def _rollout_cases():
    """(system, x, (k, m) controls, tau, mode) for the jumper's probes, the
    open-loop quadrotor and ProbeBlow, whose second row diverges."""
    gen = np.random.default_rng(19)
    jumper = make_benchmark("jumper")
    for mode, x in ((Jumper.CONTACT, np.array([0.3, 0.5, 0.0, 0.0])),
                    (Jumper.FLIGHT, np.array([1.0, 1.5, 0.4, 2.0]))):
        yield jumper, x, np.array(jumper.probe_controls(x, mode)), 0.7, mode
    quad = make_benchmark("quadrotor", feedback=False)
    yield quad, np.array([0.5, 0.2, 1.0, -0.3]), quad.bounds.control.sample(gen, 5), 0.43, None
    yield ProbeBlow(), np.zeros(1), np.array([[0.0], [1.0]]), 0.5, 0


@pytest.mark.parametrize("case", list(_rollout_cases()), ids=lambda c: c[0].name)
def test_rollout_rows_are_one_row_rollouts(case):
    sys_, x, nus, tau, mode = case
    got = rollout(sys_, x, nus, tau, H, mode)
    lone = [_lone(sys_, x, nu, tau, H, mode) for nu in nus]
    # a diverging row cuts every row at its bad sub-step
    assert got.diverged == any(r.diverged for r in lone)
    assert len(got.states) == min(len(r.states) for r in lone)
    rows = len(got.states)
    for i, r in enumerate(lone):
        assert got.states[:, i].tobytes() == r.states[:rows, 0].tobytes()
        if mode is not None:
            assert got.modes[:, i].tobytes() == r.modes[:rows, 0].tobytes()
    assert got.mu is None and got.mu_modes is None


@pytest.mark.parametrize("case", list(_rollout_cases()), ids=lambda c: c[0].name)
def test_a_single_control_is_a_one_row_block(case):
    sys_, x, nus, tau, mode = case
    for nu in nus:
        got, want = rollout(sys_, x, nu, tau, H, mode), rollout(sys_, x, nu[None, :], tau, H, mode)
        assert (got.diverged, got.lengths) == (want.diverged, want.lengths)
        assert got.states.tobytes() == want.states.tobytes()
        if mode is not None:
            assert got.modes.tobytes() == want.modes.tobytes()


def test_hybrid_rollout_needs_a_mode():
    with pytest.raises(ValueError, match="initial mode"):
        rollout(make_benchmark("jumper"), np.zeros(4), np.zeros(2), 0.1, H)
