"""Benchmark system tests.

Jumper expectations come from a plain-Python replay of its update rules
(scalar arithmetic, no numpy); the tracking gain is checked against the
scipy discrete Riccati solver.  Frozen literals were produced by those
oracles.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_discrete_are

from reachrrt import benchmarks
from reachrrt.benchmarks import GRAVITY, Jumper, Quadrotor, dlqr_gain, make_benchmark, quadrotor_tracking_gain
from reachrrt.dynamics import (constant_w_source, reachable_modes, rollout_batch,
                               substep_lengths)

from oracles import (
    hybrid_step,
    nan_blind_bytes,
    reference_dlqr_gain,
    reference_jumper_step,
    reference_linear1d_step,
    reference_quadrotor_step,
    resolved,
)

H = 0.03


def euler_jump_apex(mass, h=H, steps=64):
    """Scalar replay of takeoff-then-ballistic flight; returns the peak."""
    v = 4.5 / mass
    y = 0.0
    apex = 0.0
    for _ in range(steps):
        y = y + h * v
        v = v - h * GRAVITY
        if y <= 0.0 and v <= 0.0:
            break
        apex = max(apex, y)
    return apex


def _disturbed(sys_, x, mode, u, tau, theta, w):
    """Hybrid trace under a given parameter and constant disturbance
    (dynamics.rollout holds both at their nominal values)."""
    r = rollout_batch(sys_, np.array(x, dtype=float)[None, :], np.array(u, dtype=float),
                      tau, H, np.asarray(theta, dtype=float)[None, :],
                      constant_w_source(np.asarray(w, dtype=float)),
                      modes0=np.array([int(mode)], dtype=np.int64))
    assert not r.diverged
    return r.states[:, 0, :], r.modes[:, 0]


def _jump(sys_, x, mode, u, tau, w):
    return _disturbed(sys_, x, mode, u, tau, sys_.nominal_param, [w])


def test_contact_pd_step_frozen():
    sys_ = Jumper()
    trace, modes = _jump(sys_, (0, 0, 0, 0), Jumper.CONTACT, (1.0, 0.0), H, 0.5)
    # acceleration saturates at 10, mass 1 nominal parameter
    assert trace[-1] == pytest.approx([0.0, 0.3, 0.0, 0.0], abs=1e-12)
    assert modes.tolist() == [Jumper.CONTACT, Jumper.CONTACT]


def test_zero_latency_takeoff_frozen():
    sys_ = Jumper()
    trace, modes = _jump(sys_, (0, 0, 0, 0), Jumper.CONTACT, (0.0, 1.0), H, 0.0)
    assert trace[-1] == pytest.approx([0.0, 0.0, 0.135, 4.2057], abs=1e-12)
    assert modes.tolist() == [Jumper.CONTACT, Jumper.FLIGHT]


def test_flight_ballistic_step_frozen():
    sys_ = Jumper()
    trace, modes = _jump(sys_, (0, 0, 1.0, 2.0), Jumper.FLIGHT, (0.0, 0.0), H, 0.0)
    assert trace[-1] == pytest.approx([0.0, 0.0, 1.06, 1.7057], abs=1e-12)
    assert modes.tolist() == [Jumper.FLIGHT, Jumper.FLIGHT]


def test_landing_resets_to_contact():
    sys_ = Jumper()
    trace, modes = _jump(sys_, (0, 0, 0.01, -1.0), Jumper.FLIGHT, (0.0, 0.0), H, 0.0)
    assert trace[-1] == pytest.approx([0.0, 0.0, 0.0, 0.0], abs=1e-12)
    assert modes.tolist() == [Jumper.FLIGHT, Jumper.CONTACT]


def test_upward_mover_at_ground_stays_airborne():
    sys_ = Jumper()
    _, modes = _jump(sys_, (0, 0, 0.0, 4.5), Jumper.FLIGHT, (0.0, 0.0), H, 0.0)
    assert modes.tolist() == [Jumper.FLIGHT, Jumper.FLIGHT]


def test_latency_mapping_from_disturbance():
    sys_ = Jumper()
    for w, want in [(0.0, 0), (0.1, 0), (0.34, 1), (0.67, 2), (0.99, 2), (1.0, 2)]:
        ctx = sys_.begin_segment(np.array([0.0, 1.0]),
                                 np.array([Jumper.CONTACT]),
                                 np.array([[w]]))
        assert ctx.tolist() == [want], w


def test_no_jump_command_means_no_countdown():
    sys_ = Jumper()
    ctx = sys_.begin_segment(np.array([0.0, 0.49]), np.array([Jumper.CONTACT]),
                             np.array([[0.0]]))
    assert ctx.tolist() == [-1]
    ctx = sys_.begin_segment(np.array([0.0, 1.0]), np.array([Jumper.FLIGHT]),
                             np.array([[0.0]]))
    assert ctx.tolist() == [-1]


def test_latency_delays_takeoff_by_substeps():
    sys_ = Jumper()

    def w_source(j, out):
        # only the segment-start draw sets the countdown
        out[...] = 0.99 if j == 0 else 0.0

    r = rollout_batch(sys_, np.zeros((1, 4)), np.array([0.0, 1.0]), 4 * H, H,
                      sys_.nominal_param[None, :], w_source,
                      modes0=np.array([Jumper.CONTACT]))
    assert r.modes[:, 0].tolist() == [0, 0, 0, 1, 1]


def test_latency_does_not_persist_across_segments():
    sys_ = Jumper()
    # segment too short for a latency-2 takeoff: ends still in contact
    trace, modes = _jump(sys_, (0, 0, 0, 0), Jumper.CONTACT, (0.0, 1.0), H, 0.9)
    assert modes[-1] == Jumper.CONTACT
    # a fresh segment with a zero draw fires immediately
    x, m = hybrid_step(sys_, trace[-1], Jumper.CONTACT, np.array([0.0, 1.0]),
                       np.array([0.0]), sys_.nominal_param, H)
    assert m == Jumper.FLIGHT


def test_takeoff_speed_is_set_not_added():
    sys_ = Jumper()
    x, m = hybrid_step(sys_, np.array([0.0, 0.0, 0.0, 0.0]), Jumper.CONTACT,
                       np.array([0.0, 1.0]), np.array([0.0]), np.array([0.9]), H)
    v0 = 4.5 / 0.9
    assert x[3] == pytest.approx(v0 - H * GRAVITY, abs=1e-12)


def test_apex_heights_match_scalar_replay():
    for mass, frozen in [(1.0, 1.10052), (0.8, 1.69749), (1.2, 0.773838)]:
        want = euler_jump_apex(mass)
        assert want == pytest.approx(frozen, abs=1e-9)
        sys_ = Jumper()
        trace, modes = _disturbed(sys_, np.zeros(4), Jumper.CONTACT, [0.0, 1.0], 1.5,
                                  [mass], [0.0])
        assert trace[:, 2].max() == pytest.approx(want, abs=1e-9)
        # lighter mass jumps higher
    assert euler_jump_apex(0.8) > euler_jump_apex(1.0) > euler_jump_apex(1.2)


def test_mass_scales_horizontal_acceleration():
    sys_ = Jumper()
    out = {}
    for mass in (0.8, 1.2):
        x, _ = hybrid_step(sys_, np.array([0.0, 0.0, 0.0, 0.0]), Jumper.CONTACT,
                           np.array([5.0, 0.0]), np.array([0.0]),
                           np.array([mass]), H)
        out[mass] = x[1]
    assert out[0.8] == pytest.approx(H * 10.0 / 0.8, abs=1e-12)
    assert out[1.2] == pytest.approx(H * 10.0 / 1.2, abs=1e-12)


def test_probing_finds_reachable_modes():
    sys_ = Jumper()
    tau = 0.21
    assert reachable_modes(sys_, np.zeros(4), Jumper.CONTACT, tau, H) == [0, 1]
    high = np.array([0.0, 0.0, 2.0, 1.0])
    assert reachable_modes(sys_, high, Jumper.FLIGHT, tau, H) == [1]
    descending = np.array([0.0, 0.0, 0.05, -2.0])
    assert reachable_modes(sys_, descending, Jumper.FLIGHT, tau, H) == [0, 1]


# ------------------------------------------- lean step vs its reference


def _jumper_batch(case, n, gen):
    """A batch of n rows, all in one situation: resting in contact, in
    flight, firing this sub-step (firing sub-step 0, some rows later),
    landing this sub-step, or a mix of all four; with the rows' firing
    sub-steps, a segment context."""
    X = np.zeros((n, 4))
    X[:, 0] = gen.uniform(-0.5, 5.5, n)
    X[:, 1] = gen.uniform(-2.0, 2.0, n)
    modes = np.full(n, Jumper.CONTACT, dtype=np.int64)
    cd = np.full(n, -1, dtype=np.int64)
    if case in ("flight", "landing", "mixed"):
        air = np.ones(n, bool) if case != "mixed" else gen.random(n) < 0.5
        modes[air] = Jumper.FLIGHT
        X[air, 2] = gen.uniform(0.5, 2.0, air.sum()) if case == "flight" else gen.uniform(0.0, 0.02, air.sum())
        X[air, 3] = gen.uniform(-1.0, 3.0, air.sum()) if case == "flight" else gen.uniform(-3.0, -1.0, air.sum())
    if case in ("firing", "mixed"):
        cd = np.where(modes == Jumper.CONTACT, gen.integers(0, 3, n), -1)
        if case == "firing" and n:
            cd[0] = 0
    return X, modes, cd


def _read_only(a):
    a = np.array(a)
    a.flags.writeable = False
    return a


def _trace_row(n, d):
    """An empty (n, d) block laid out as a rollout's trace row: each
    column one contiguous row of a (d, n) block."""
    return np.empty((d, n)).T


@pytest.mark.parametrize("case", ["contact", "flight", "firing", "landing", "mixed"])
@pytest.mark.parametrize("n", [0, 1, 41, 10_001])
def test_lean_jumper_step_matches_the_reference(case, n):
    # the in-place step against the allocating reference, written into a
    # trace row from read-only inputs
    sys_ = Jumper()
    gen = np.random.default_rng(11)
    X, modes, cd = _jumper_batch(case, n, gen)
    U = _read_only(np.column_stack([gen.uniform(-0.5, 5.5, n), np.ones(n)]))
    W = _read_only(gen.random((n, 1)))
    Th = _read_only(sys_.bounds.param.sample(gen, n))
    ctx, ref_cd = cd.copy(), cd.copy()
    ref_X, ref_modes = X, modes
    landed = False
    for j in range(3):  # the reference's countdown burns across sub-steps
        X, modes = _read_only(X), _read_only(modes)
        X_in, modes_in = X.copy(), modes.copy()
        X_out = _trace_row(n, 4)
        modes_out = sys_.hybrid_step_batch(X, modes, U, W, Th, H, ctx, j, X_out)
        # the inputs are rows of a rollout trace: the step must leave them be
        assert X.tobytes() == X_in.tobytes() and modes.tobytes() == modes_in.tobytes()
        assert ctx.tobytes() == cd.tobytes()  # the context is read-only
        X, modes = X_out, modes_out
        before = ref_modes
        ref_X, ref_modes = reference_jumper_step(sys_, ref_X, ref_modes, U, W, Th, H, ref_cd)
        landed |= bool(((before == Jumper.FLIGHT) & (ref_modes == Jumper.CONTACT)).any())
        assert X.dtype == ref_X.dtype and np.ascontiguousarray(X).tobytes() == ref_X.tobytes()
        assert modes.dtype == ref_modes.dtype and modes.tobytes() == ref_modes.tobytes()
    if case == "firing" and n:
        assert (ref_modes == Jumper.FLIGHT).any()
    if case == "landing" and n:
        assert (ref_modes == Jumper.CONTACT).any()
    if case == "mixed" and n > 1000:
        # rows that fire, fly and land on the way
        assert (ref_cd < 0).all() and (ref_modes == Jumper.FLIGHT).any() and landed


# entries that tie, sign a zero, overflow or are not numbers; a NaN of
# each sign shows the operand order, since of two NaN operands the result
# keeps the first one's sign
_STEP_EDGES = [0.0, -0.0, 1.0, -1.0, 0.5, 1e300, -1e-310, np.inf, -np.inf, np.nan,
               np.copysign(np.nan, -1.0)]


@pytest.mark.parametrize("layout", ["C", "channel-major"])
@pytest.mark.parametrize("name", ["linear1d", "quadrotor"])
def test_in_place_steps_are_the_reference_bytes(name, layout):
    # each step writes its output block in place; every byte, NaN payloads
    # and zero signs included, must be what the old expression computes
    if name == "linear1d":
        sys_, reference = make_benchmark("linear1d"), reference_linear1d_step
    else:
        sys_, reference = make_benchmark("quadrotor", feedback=False), reference_quadrotor_step
    n = 10_001
    gen = np.random.default_rng(21)

    def block(d):
        B = gen.uniform(-3.0, 3.0, (n, d))
        hit = gen.random(B.shape) < 0.3
        B[hit] = gen.choice(_STEP_EDGES, hit.sum())
        B[0] = -0.0  # a row whose step gives -0.0
        return _read_only(B)

    X, U, W, Th = (block(d) for d in (sys_.state_dim, sys_.bounds.control.dim,
                                      sys_.bounds.disturbance.dim, sys_.bounds.param.dim))
    for h in (H, 0.03):
        out = np.empty((n, sys_.state_dim)) if layout == "C" else _trace_row(n, sys_.state_dim)
        with np.errstate(all="ignore"):
            sys_.step_batch(X, U, W, Th, h, out)
            want = reference(X, U, W, Th, h)
        assert np.ascontiguousarray(out).tobytes() == want.tobytes()
        assert np.isnan(want).any() and (np.signbit(want) & (want == 0)).any()


@pytest.mark.parametrize("layout", ["C", "channel-major"])
@pytest.mark.parametrize("n", [1, 2, 41, 101])
def test_paired_quadrotor_step_is_the_reference_bytes_at_planner_sizes(n, layout):
    # the axis pair stepped as (2, N) blocks with (2, 1) coefficient columns,
    # at the planner's batch sizes: full sub-steps of H and a partial one in
    # turn, so the quarter column is rewritten between calls.  At these
    # sizes the sign of a NaN follows numpy's vector loops (nan_blind_bytes)
    sys_ = make_benchmark("quadrotor", feedback=False)
    partial = substep_lengths(2.5 * H, H)[-1]
    gen = np.random.default_rng(2400 + n)
    for _ in range(25):
        X, U, W, Th = (_read_only(np.where(gen.random((n, d)) < 0.3,
                                           gen.choice(_STEP_EDGES, (n, d)),
                                           gen.uniform(-3.0, 3.0, (n, d))))
                       for d in (4, 2, 2, 2))
        for h in (H, partial, H):
            out = np.empty((n, 4)) if layout == "C" else _trace_row(n, 4)
            with np.errstate(all="ignore"):
                sys_.step_batch(X, U, W, Th, h, out)
                want = reference_quadrotor_step(X, U, W, Th, h)
            assert nan_blind_bytes(out) == nan_blind_bytes(want)


@pytest.mark.parametrize("jump", [0.0, 1.0])
@pytest.mark.parametrize("seed", range(3))
def test_jumper_segments_match_the_reference_countdown(seed, jump):
    # whole segments: the package fires a row when the sub-step index
    # reaches its firing sub-step, the reference when its own countdown,
    # burnt once per sub-step, reads 0
    sys_ = Jumper()
    gen = np.random.default_rng(seed)
    X, modes, _ = _jumper_batch("mixed", 41, gen)
    nu = np.array([gen.uniform(-0.5, 5.5), jump])
    Th = sys_.bounds.param.sample(gen, 41)
    W0 = gen.random((41, 1))
    r = rollout_batch(sys_, X, nu, 0.2, H, Th, lambda j, out: np.copyto(out, W0),
                      modes0=modes)
    cd = sys_.begin_segment(nu, modes, W0).copy()
    U = np.tile(nu, (41, 1))
    for j, hj in enumerate(substep_lengths(0.2, H)):
        X, modes = reference_jumper_step(sys_, X, modes, U, W0, Th, hj, cd)
        assert r.states[j + 1].tobytes() == X.tobytes()
        assert r.modes[j + 1].tobytes() == modes.tobytes()
    assert j >= 2 and (cd < 0).all()  # every countdown ran out
    if jump:
        assert (r.modes[1:] != r.modes[:-1]).any()


@given(W=st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=5, max_size=5),
       step=st.integers(1, 4))
@settings(max_examples=200)
def test_jumper_steps_ignore_the_substep_draws(W, step):
    # Jumper declares reads_substep_disturbance = False: after begin_segment
    # a sub-step's bytes must not depend on its W
    sys_ = Jumper()
    assert not sys_.reads_substep_disturbance
    gen = np.random.default_rng(step)
    X, modes, cd = _jumper_batch("mixed", 5, gen)
    U = np.column_stack([gen.uniform(-0.5, 5.5, 5), np.ones(5)])
    Th = sys_.bounds.param.sample(gen, 5)
    outs = []
    for w in (np.zeros((5, 1)), np.array(W)[:, None]):
        Xk, mk = X, modes
        for j in range(step):
            Xn = np.empty_like(Xk)
            mk = sys_.hybrid_step_batch(Xk, mk, U, w, Th, H, cd, j, Xn)
            Xk = Xn
        outs.append((Xk.tobytes(), mk.tobytes()))
    assert outs[0] == outs[1]


# ------------------------------------------------------------------ gain


def test_tracking_gain_matches_riccati_oracle():
    quad = Quadrotor()
    Ad, Bd = quad.linearization(0.1)
    Q, R = np.eye(4), 0.1 * np.eye(2)
    P = solve_discrete_are(Ad, Bd, Q, R)
    want = -np.linalg.solve(R + Bd.T @ P @ Bd, Bd.T @ P @ Ad)
    got = dlqr_gain(Ad, Bd, Q, R)
    assert got == pytest.approx(want, abs=1e-9)
    # the shipped gain, bit for bit (signed zeros included), as it was before
    # dlqr_gain refused an unconverged iteration
    frozen = np.array([
        [-0.8866465102497785, -0.0, -1.0057296774493483, -0.0],
        [-0.0, 0.8866465102497785, -0.0, 1.0057296774493483],
    ])
    assert quadrotor_tracking_gain(0.1).tobytes() == frozen.tobytes()


@pytest.mark.parametrize("h", [1e-3, 0.1, 39.81071705534973])
def test_stall_refusal_keeps_every_converging_gain(h):
    # h = 1e-3 converges after 15 462 steps, with up to 488 steps between
    # new minima of the step; h = 39.8 after 38 steps, with up to 13
    Ad, Bd = Quadrotor().linearization(h)
    Q, R = np.eye(4), 0.1 * np.eye(2)
    assert dlqr_gain(Ad, Bd, Q, R).tobytes() == reference_dlqr_gain(Ad, Bd, Q, R).tobytes()


@pytest.mark.parametrize("h", [79.43282347242821, 1e3, 1e5, 1e50])
def test_a_stalled_riccati_iteration_is_refused_early(monkeypatch, h):
    # these cycle or wander from their first 50 steps on; without the stall
    # test each ran all 100 000 steps before the refusal
    solves = []
    real = np.linalg.solve

    def counting_solve(*args):
        solves.append(1)
        return real(*args)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    Ad, Bd = Quadrotor().linearization(h)
    with pytest.raises(ValueError, match="Riccati iteration did not converge"):
        dlqr_gain(Ad, Bd, np.eye(4), 0.1 * np.eye(2))
    assert benchmarks.RICCATI_STALL < len(solves) <= benchmarks.RICCATI_STALL + 50


def test_tracking_gain_stabilizes_hover():
    quad = Quadrotor()
    Ad, Bd = quad.linearization(0.1)
    K = quadrotor_tracking_gain()
    radius = np.abs(np.linalg.eigvals(Ad + Bd @ K)).max()
    assert radius < 1.0


def test_feedback_pulls_offset_state_back():
    fb = make_benchmark("quadrotor")
    x = np.array([[1.0, -1.0, 0.0, 0.0]])
    mu = np.zeros(4)
    for _ in range(200):
        u = resolved(fb, np.zeros(2), x, mu)
        xn = np.empty_like(x)
        fb.step_batch(x, u, np.zeros((1, 2)), np.array([[0.5, 0.5]]), 0.1, xn)
        x = xn
    assert np.linalg.norm(x) < 1e-2


# ----------------------------------------------------------------- names


def test_factory_names():
    assert make_benchmark("linear1d").name == "linear1d"
    assert make_benchmark("jumper").name == "jumper"
    quad = make_benchmark("quadrotor")
    assert quad.name == "quadrotor" and hasattr(quad, "gain")
    raw = make_benchmark("quadrotor", feedback=False)
    assert not hasattr(raw, "gain")
    with pytest.raises(ValueError, match="unknown benchmark"):
        make_benchmark("pendulum")


def test_factory_accepts_stored_gain():
    rows = [[-0.9, 0.0, -1.0, 0.0], [0.0, 0.9, 0.0, 1.0]]
    sys_ = make_benchmark("quadrotor", gain=rows)
    assert np.array_equal(sys_.gain, np.array(rows))
