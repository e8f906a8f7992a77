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
(ax, ay) frozen per particle.
"""

import numpy as np

from .dynamics import ContinuousSystem, FeedbackWrapped, HybridSystem, System, UncertaintyBounds
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

    def flow_batch(self, X, U, W, Th):
        return Th[:, :1] + W[:, :1]


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

    def step_batch(self, X, U, W, Th, h):
        px, py, vx, vy = X[:, 0], X[:, 1], X[:, 2], X[:, 3]
        u1, u2 = U[:, 0], U[:, 1]
        ax, ay = Th[:, 0], Th[:, 1]
        g = GRAVITY
        quarter = h * h * g / 4.0
        # empty_like keeps X's layout: in a rollout every out[:, k] is then
        # one contiguous row of the channel-major trace
        out = np.empty_like(X)
        out[:, 0] = px + h * vx + quarter * u1
        out[:, 1] = py + h * vy - quarter * u2
        out[:, 2] = vx + h * (g * u1 - ax * vx * np.abs(vx) + W[:, 0])
        out[:, 3] = vy + h * (-g * u2 - ay * vy * np.abs(vy) + W[:, 1])
        return out

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

    def hybrid_step_batch(self, X, mode_arr, U, W, Th, h, ctx, j):
        # W is read only by begin_segment; masks are built only for rows
        # that fire, fly or land, and mode_arr comes back unchanged (not a
        # copy) when no row switches mode
        x, xdot, y, ydot = X[:, 0], X[:, 1], X[:, 2], X[:, 3]
        mass = Th[:, 0]

        modes = mode_arr
        fire = ctx == j
        if fire.any():
            ydot = np.where(fire, self.v_takeoff / mass, ydot)
            modes = np.where(fire, self.FLIGHT, mode_arr)

        accel = np.minimum(np.maximum(self.kp * (U[:, 0] - x) - self.kd * xdot,
                                      -self.a_max), self.a_max) / mass
        flight = modes == self.FLIGHT

        out = np.empty_like(X)
        out[:, 0] = x + h * xdot
        out[:, 1] = xdot + h * accel
        if not flight.any():
            out[:, 2] = y
            out[:, 3] = 0.0
            return out, modes
        out[:, 2] = np.where(flight, y + h * ydot, y)
        out[:, 3] = np.where(flight, ydot - h * GRAVITY, 0.0)

        landed = flight & (out[:, 2] <= self.ground) & (out[:, 3] <= 0.0)
        if landed.any():
            out[landed, 2] = self.ground
            out[landed, 3] = 0.0
            modes = np.where(landed, self.CONTACT, modes)
        return out, modes

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
