"""Benchmark systems.

linear1d   scalar integrator with uncertain rate, the analytic test case
quadrotor  planar quadrotor under LQR tracking, uncertain quadratic drag
jumper     hybrid point jumper with contact and flight modes, uncertain mass
           and a random takeoff latency

The quadrotor uses an exact discretization of its (nilpotent) linear part,
so one sub-step of length h is the map

    px+ = px + h vx + (h^2 g / 4) u1
    py+ = py + h vy - (h^2 g / 4) u2
    vx+ = vx + h (g u1 - ax vx |vx| + w1)
    vy+ = vy + h (-g u2 - ay vy |vy| + w2)

with controls u = (tan of pitch, tan of roll) and drag coefficients
(ax, ay) frozen per particle.  The two axes differ only in the signs of
their control coefficients, so step_batch computes the pair as one block:
with p = (px, py), v = (vx, vy), a = (ax, ay) and c = (1, -1),

    p+ = p + h v + (h^2 g / 4) c u
    v+ = v + h (g c u - a v |v| + w)

each product with a (2, 1) column of coefficients.
"""

import math

import numpy as np

from .dynamics import (DIVERGENCE_LIMIT, ContinuousSystem, FeedbackWrapped, HybridSystem, System,
                       UncertaintyBounds, substep_lengths)
from .geometry import Box

GRAVITY = 9.81


class Linear1D(ContinuousSystem):
    """x' = theta + w; the control is a placeholder (degenerate box)."""

    name = "linear1d"
    state_dim = 1
    collision_projection = (0,)

    def __init__(self, theta_lo=0.0, theta_hi=1.0, w_lo=0.0, w_hi=0.0):
        self.bounds = UncertaintyBounds(
            control=Box([0.0], [0.0]),
            disturbance=Box([w_lo], [w_hi]),
            param=Box([theta_lo], [theta_hi]),
        )
        self.nominal_param = self.bounds.param.center
        self.nominal_disturbance = self.bounds.disturbance.center

    def flow_batch(self, X, U, W, Th, out):
        np.add(Th[:, :1], W[:, :1], out=out)


class Quadrotor(System):
    """Planar quadrotor, exactly discretized per sub-step; see module docs."""

    name = "quadrotor"
    state_dim = 4
    collision_projection = (0, 1)

    def __init__(self, alpha_lo=(0.35, 0.35), alpha_hi=(0.65, 0.65),
                 control_box=((-1.0, -1.0), (1.0, 1.0)),
                 w_box=((0.0, 0.0), (0.0, 0.0))):
        self.bounds = UncertaintyBounds(
            control=Box(*control_box),
            disturbance=Box(*w_box),
            param=Box(alpha_lo, alpha_hi),
        )
        self.nominal_param = self.bounds.param.center
        self.nominal_disturbance = self.bounds.disturbance.center
        # the (2, 1) coefficient columns (g, -g) and (quarter, -quarter) of
        # the axis pair; the second is rewritten for each sub-step length
        self._gravity = np.array([[GRAVITY], [-GRAVITY]])
        self._quarter = np.empty((2, 1))

    def step_batch(self, X, U, W, Th, h, out):
        # the x and y axes as one (2, N) block each for positions (channels
        # 0:2) and velocities (2:4), in place, each value with the operands
        # and order of
        #   px + h vx + quarter u1,  py + h vy + (-quarter) u2,
        #   vx + h (g u1 - ax vx |vx| + w1),  vy + h (-g u2 - ay vy |vy| + w2);
        # py's "- quarter u2" is "+ (-quarter) u2": a - b is a + (-b), zero
        # signs included.  A (2, 1) column runs numpy's inner loop once per
        # axis; the position block serves as a working block until it is
        # written, so one more (2, N) block t does
        P, V = X.T[:2], X.T[2:]
        p_out, v_out = out.T[:2], out.T[2:]
        quarter = h * h * GRAVITY / 4.0
        self._quarter[0, 0] = quarter
        self._quarter[1, 0] = -quarter
        t = self._work_rows(2, len(X))
        np.multiply(self._gravity, U.T, out=v_out)
        np.multiply(Th.T, V, out=t)
        np.abs(V, out=p_out)
        np.multiply(t, p_out, out=t)
        np.subtract(v_out, t, out=v_out)
        np.add(v_out, W.T, out=v_out)
        np.multiply(h, v_out, out=v_out)
        np.add(V, v_out, out=v_out)
        np.multiply(h, V, out=p_out)
        np.add(P, p_out, out=p_out)
        np.multiply(self._quarter, U.T, out=t)
        np.add(p_out, t, out=p_out)

    def linearization(self, h):
        """Exact hover linearization of the sub-step map (drag vanishes at
        v = 0): returns (Ad, Bd)."""
        g = GRAVITY
        Ad = np.eye(4)
        Ad[0, 2] = h
        Ad[1, 3] = h
        Bd = np.array([
            [h * h * g / 4.0, 0.0],
            [0.0, -h * h * g / 4.0],
            [h * g, 0.0],
            [0.0, -h * g],
        ])
        return Ad, Bd


# Steps without a new smallest max|P_next - P| after which dlqr_gain gives
# up.  Over the quadrotor's gain_substep in logspace(-4, 4, 81), an
# iteration that converges goes at most 3144 steps without a new minimum
# (h = 1.6e-4, converged at step 93 847); one that does not (h from 79 to
# 1e4) finds its last new minimum within 50 steps, then wanders or cycles.
RICCATI_STALL = 5000


def dlqr_gain(A, B, Q, R):
    """Tracking gain K for u = nu + K (x - mu) via Riccati iteration.

    Returned with the sign folded in, so K is what the feedback wrapper
    consumes directly.  Raises ValueError when the iterates neither settle
    to within 1e-13 nor overflow in 100 000 steps, or earlier, once the
    step max|P_next - P| has gone RICCATI_STALL steps without a new minimum.
    """
    P = np.array(Q, dtype=float)
    best, stalled = np.inf, 0
    # overflowing iterates end the loop with a non-finite gain, which the
    # caller refuses; numpy's warnings on the way there say nothing more
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(100000):
            BtP = B.T @ P
            K = np.linalg.solve(R + BtP @ B, BtP @ A)
            Pn = Q + A.T @ P @ (A - B @ K)
            Pn = 0.5 * (Pn + Pn.T)
            step = np.max(np.abs(Pn - P))
            # converged, or overflowed: the gain then comes out non-finite
            if not np.all(np.isfinite(Pn)) or step < 1e-13:
                P = Pn
                break
            P = Pn
            if step < best:
                best, stalled = step, 0
            else:
                stalled += 1
                if stalled == RICCATI_STALL:
                    raise ValueError(f"Riccati iteration did not converge: no smaller "
                                     f"step in {RICCATI_STALL} steps")
        else:
            raise ValueError("Riccati iteration did not converge in 100000 steps")
        BtP = B.T @ P
        K = np.linalg.solve(R + BtP @ B, BtP @ A)
    return -K


def quadrotor_tracking_gain(h=0.1):
    if not h > 0:
        raise ValueError(f"gain_substep {h!r} must be positive")
    Ad, Bd = Quadrotor().linearization(h)
    try:
        return dlqr_gain(Ad, Bd, np.eye(4), 0.1 * np.eye(2))
    except ValueError as e:
        raise ValueError(f"gain_substep {h!r}: {e}") from e


class Jumper(HybridSystem):
    """Point jumper: PD-driven horizontally, jumps on command.

    State (x, xdot, y, ydot); modes contact and flight.  The commanded
    control is (x setpoint, jump channel); a jump channel >= 0.5 at segment
    start triggers a takeoff after a per-particle latency of 0, 1, or 2
    sub-steps drawn from the disturbance channel.  Takeoff sets the vertical
    speed to v_takeoff / mass; mass is the frozen uncertain parameter.
    Landing (y back at ground level while descending) resets to contact.
    """

    name = "jumper"
    reads_substep_disturbance = False
    state_dim = 4
    collision_projection = (0, 2)
    modes = ("contact", "flight")
    CONTACT = 0
    FLIGHT = 1

    def __init__(self, kp=16.0, kd=8.0, a_max=10.0, v_takeoff=4.5,
                 mass_lo=0.8, mass_hi=1.2,
                 setpoint_lo=-0.5, setpoint_hi=5.5, ground=0.0):
        self.kp = kp
        self.kd = kd
        self.a_max = a_max
        self.v_takeoff = v_takeoff
        self.ground = ground
        self.bounds = UncertaintyBounds(
            control=Box([setpoint_lo, 0.0], [setpoint_hi, 1.0]),
            disturbance=Box([0.0], [1.0]),
            param=Box([mass_lo], [mass_hi]),
        )
        self.nominal_param = np.array([0.5 * (mass_lo + mass_hi)])
        # nominal latency draw of zero: the nominal jumper takes off
        # immediately on command
        self.nominal_disturbance = np.array([0.0])

    def begin_segment(self, nu, mode_arr, W0):
        """Each row's firing sub-step: its latency when the jump is
        commanded from contact, -1 otherwise.  Such a row stays in contact
        until it fires."""
        commanded = nu[..., 1] >= 0.5
        lat = np.minimum(2, np.floor(3.0 * W0[:, 0]).astype(np.int64))
        return np.where(commanded & (mode_arr == self.CONTACT), lat, -1)

    def hybrid_step_batch(self, X, mode_arr, U, W, Th, h, ctx, j, out):
        # W is read only by begin_segment; masks are built only for rows
        # that fire, fly or land, and mode_arr comes back unchanged (not a
        # copy) when no row switches mode.  The arithmetic runs in place,
        # each value with the operands and order of
        #   x + h xdot,  xdot + h min(max(kp (u - x) - kd xdot, -a), a) / mass,
        #   y + h ydot and ydot - h g in flight (y and 0.0 in contact),
        # with an output column not yet written as the working row
        x, xdot, y, ydot = X.T
        mass = Th[:, 0]
        o0, o1, o2, o3 = out.T

        modes = mode_arr
        fire = ctx == j
        if fire.any():
            ydot = np.where(fire, self.v_takeoff / mass, ydot)
            modes = np.where(fire, self.FLIGHT, mode_arr)

        np.multiply(h, xdot, out=o0)
        np.add(x, o0, out=o0)
        np.subtract(U[:, 0], x, out=o1)
        np.multiply(self.kp, o1, out=o1)
        np.multiply(self.kd, xdot, out=o2)
        np.subtract(o1, o2, out=o1)
        np.maximum(o1, -self.a_max, out=o1)
        np.minimum(o1, self.a_max, out=o1)
        np.divide(o1, mass, out=o1)
        np.multiply(h, o1, out=o1)
        np.add(xdot, o1, out=o1)

        flight = modes == self.FLIGHT
        o2[...] = y
        if not flight.any():
            o3.fill(0.0)
            return modes
        np.multiply(h, ydot, out=o3)
        np.add(y, o3, out=o2, where=flight)
        o3.fill(0.0)
        np.subtract(ydot, h * GRAVITY, out=o3, where=flight)

        landed = flight & (o2 <= self.ground) & (o3 <= 0.0)
        if landed.any():
            o2[landed] = self.ground
            o3[landed] = 0.0
            modes = np.where(landed, self.CONTACT, modes)
        return modes

    def nominal_modes(self, x, mode, nu, tau, h):
        # hybrid_step_batch on the one nominal row, in Python floats: a
        # sub-step costs about a microsecond instead of numpy's per-call
        # cost.  Each value has that method's operands and order, and
        # max/min that of np.maximum/np.minimum (NaN kept, a tie gives the
        # bound), so modes and flag are those of the rollout.  The firing
        # sub-step is begin_segment's rule on the (finite) nominal
        # disturbance; after each sub-step the four channels get in_range's
        # test, which NaN fails, and the trace is cut at the first failure
        mass = float(self.nominal_param[0])
        if mass == 0.0:  # Python's division would raise where numpy's gives inf
            return super().nominal_modes(x, mode, nu, tau, h)
        x, xdot, y, ydot = np.asarray(x, dtype=float).tolist()
        u, jump = np.asarray(nu, dtype=float).tolist()
        mode = int(mode)
        fire = -1
        if jump >= 0.5 and mode == self.CONTACT:
            fire = min(2, math.floor(3.0 * float(self.nominal_disturbance[0])))
        kp, kd, ground = float(self.kp), float(self.kd), float(self.ground)
        lo, hi = float(-self.a_max), float(self.a_max)
        lim = DIVERGENCE_LIMIT
        modes = [mode]
        for j, hj in enumerate(substep_lengths(tau, h)):
            if j == fire:
                ydot = float(self.v_takeoff) / mass
                mode = self.FLIGHT
            acc = kp * (u - x) - kd * xdot
            acc = acc if acc > lo or acc != acc else lo
            acc = acc if acc < hi or acc != acc else hi
            x, xdot = x + hj * xdot, xdot + hj * (acc / mass)
            if mode == self.FLIGHT:
                y, ydot = y + hj * ydot, ydot - hj * GRAVITY
                if y <= ground and ydot <= 0.0:
                    y, ydot, mode = ground, 0.0, self.CONTACT
            else:
                ydot = 0.0
            modes.append(mode)
            if not (-lim <= x <= lim and -lim <= xdot <= lim
                    and -lim <= y <= lim and -lim <= ydot <= lim):
                return modes, True
        return modes, False

    def probe_controls(self, x, mode):
        hold = float(x[0])
        return [np.array([hold, 0.0]), np.array([hold, 1.0])]


def make_benchmark(name, **kw):
    """Build a benchmark system by name.

    quadrotor accepts feedback=False for the raw plant and gain= to override
    the tracking gain (list of lists, as stored in scenario files).
    """
    if name == "linear1d":
        return Linear1D(**kw)
    if name == "quadrotor":
        feedback = kw.pop("feedback", True)
        gain = kw.pop("gain", None)
        gain_substep = kw.pop("gain_substep", 0.1)
        quad = Quadrotor(**kw)
        if not feedback:
            return quad
        if gain is None:
            gain = quadrotor_tracking_gain(gain_substep)
        return FeedbackWrapped(quad, gain)
    if name == "jumper":
        return Jumper(**kw)
    raise ValueError(f"unknown benchmark {name!r}")
