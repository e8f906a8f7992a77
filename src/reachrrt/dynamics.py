"""System abstractions and the batched rollout driver.

A system exposes a one-sub-step transition on a batch of states.  Rollouts
hold a piecewise-constant commanded control for a duration tau, integrating
in sub-steps of length h with a final partial sub-step when tau is not a
multiple of h.  Disturbances are redrawn every sub-step for a system whose
step reads them; the parameter vector theta is frozen per particle for the
whole rollout.
"""

from dataclasses import dataclass, field

import numpy as np

from .geometry import Box

DIVERGENCE_LIMIT = 1e12

# Most sub-steps a segment of the longest duration may take (tau_max / h):
# a rollout preallocates a trace row per sub-step.
MAX_SUBSTEPS = 10_000


@dataclass(frozen=True)
class UncertaintyBounds:
    """Admissible boxes for controls, sub-step disturbances, and parameters."""

    control: Box
    disturbance: Box
    param: Box


class System:
    """Base class: uncertain discrete-sub-step dynamics on state batches.

    Subclasses set name, dims, bounds, nominal_param, nominal_disturbance,
    collision_projection, and implement step_batch.  A system whose step
    functions read the disturbance only at sub-step 0 (in begin_segment)
    sets reads_substep_disturbance = False, and rollout_batch then draws no
    disturbance for the later sub-steps; each sub-step has its own keyed
    substream, so skipping a draw moves no other draw.
    """

    name = "system"
    hybrid = False
    reads_substep_disturbance = True

    def step_batch(self, X, U, W, Th, h, out):
        """Write the (N, n) batch X advanced one sub-step of length h into
        out, an (N, n) block that overlaps no input.

        U is the applied control per particle (already resolved), W a per-
        particle disturbance draw held constant over the sub-step, Th the
        frozen per-particle parameters.  X, U, W and Th are never written;
        in a rollout they are read-only views.
        """
        raise NotImplementedError

    def resolve_control(self, nu, X, mu, out):
        """Write the applied control per particle, given the commanded
        control nu, into out, an (N, m) block.

        Open loop by default: every particle applies nu, which may also be
        one row per particle.  Feedback wrappers override this with a
        tracking law around the nominal state mu.
        """
        out[...] = nu

    def _work_rows(self, rows, n):
        """A (rows, n) block of working rows for intermediate values, reused
        from call to call: it grows to the largest batch seen and never
        shrinks, so a rollout's sub-steps allocate nothing.  Its contents
        do not survive the call that uses it."""
        buf = self.__dict__.get("_work_block")
        if buf is None or buf.shape[0] < rows or buf.shape[1] < n:
            old = (0, 0) if buf is None else buf.shape
            buf = self._work_block = np.empty((max(rows, old[0]), max(n, old[1])))
        return buf[:rows, :n]


class ContinuousSystem(System):
    """System defined by a flow x' = f(x, u, w; theta), one Euler step per
    sub-step."""

    def flow_batch(self, X, U, W, Th, out):
        """Write the flow f(x, u, w; theta) of each row into out."""
        raise NotImplementedError

    def step_batch(self, X, U, W, Th, h, out):
        # X + h f, with the operands in that order
        self.flow_batch(X, U, W, Th, out)
        np.multiply(h, out, out=out)
        np.add(X, out, out=out)


class HybridSystem(System):
    """System with a finite mode set and guard/reset transitions.

    Mode arrays are integer-coded; `modes` names them.  Per-segment discrete
    state (e.g. the sub-step at which a delayed transition fires) lives in a
    context created at segment start from the first disturbance draw.  The
    context is read-only: each step gets it with its sub-step index j.
    """

    hybrid = True
    modes = ()

    def begin_segment(self, nu, mode_arr, W0):
        """Per-segment context from the commanded control and the sub-step 0
        draws.  nu is one (m,) control for the whole batch or an (N, m)
        block, one control per row (see rollout_batch), so read its
        channels per row, as nu[..., i]."""
        return None

    def hybrid_step_batch(self, X, mode_arr, U, W, Th, h, ctx, j, out):
        """Write sub-step j of the segment, X advanced by h, into out as
        step_batch does, and return the (N,) modes after it (mode_arr
        itself when no row switches).  Never writes X, mode_arr, U, W or
        Th."""
        raise NotImplementedError

    def probe_controls(self, x, mode):
        """Candidate controls used to probe which modes a segment can reach."""
        raise NotImplementedError

    def nominal_modes(self, x, mode, nu, tau, h):
        """(modes, diverged) of the nominal from (x, mode) under the (m,)
        commanded control nu for tau: the mode at each trace row of its
        rollout up to the cut, as a list of ints, and whether it left the
        finite range.  This is row 0 of dynamics.rollout; a subclass may
        compute the same list and flag another way."""
        r = rollout(self, x, nu, tau, h, mode)
        return r.modes[:, 0].tolist(), r.diverged


class FeedbackWrapped(System):
    """Wraps a system with control u = nu + K (x - mu), clipped to the
    control box.  The nominal state mu is the tracking reference carried by
    the caller; resolving at x = mu returns nu exactly."""

    def __init__(self, base, gain):
        self.base = base
        self.gain = np.asarray(gain, dtype=float)
        m, n = base.bounds.control.dim, base.state_dim
        if self.gain.shape != (m, n) or not np.all(np.isfinite(self.gain)):
            raise ValueError(f"gain must be a finite ({m}, {n}) matrix")
        if base.hybrid:  # no mode machinery is forwarded, and probing needs (k, m) controls
            raise ValueError("feedback wrapper takes a smooth system, not a hybrid one")
        self.name = base.name
        self.state_dim = base.state_dim
        self.bounds = base.bounds
        self.nominal_param = base.nominal_param
        self.nominal_disturbance = base.nominal_disturbance
        self.collision_projection = base.collision_projection
        # (m, 1) columns: the gain's column per state and the control
        # bounds, broadcast along the rows of the (m, N) control block
        self._gain_cols = [k[:, None] for k in self.gain.T]
        self._lo_col = self.bounds.control.lo[:, None]
        self._hi_col = self.bounds.control.hi[:, None]

    def resolve_control(self, nu, X, mu, out):
        """One commanded (m,) control for the whole batch; control j is
        clip(nu[j] + K[j, 0] e_0 + K[j, 1] e_1 + ..., lo[j], hi[j]) with
        e = x - mu, summed left to right, the same on any BLAS."""
        if mu is None:
            raise ValueError("feedback wrapper needs a tracked nominal state")
        nu = np.asarray(nu, dtype=float)
        m = self.gain.shape[0]
        if nu.shape != (m,):
            raise ValueError(f"feedback wrapper takes one commanded control of "
                             f"shape ({m},), got shape {nu.shape}")
        # one row of numbers per state and per control: a (d,) vector
        # broadcast across (N, d) rows makes numpy run its inner loop once
        # per row; in a rollout out.T is one C-order (m, N) block
        U = out.T
        U[...] = nu[:, None]
        work = self._work_rows(m + 1, len(X))
        e, term = work[0], work[1:]
        for x, c, k in zip(X.T, mu.tolist(), self._gain_cols):
            np.subtract(x, c, out=e)
            np.multiply(k, e, out=term)
            np.add(U, term, out=U)
        # a value equal to a bound becomes the bound, as in np.clip with
        # array bounds: maximum and minimum return their second argument on
        # a tie, which decides the sign of a zero
        np.maximum(U, self._lo_col, out=U)
        np.minimum(U, self._hi_col, out=U)

    def step_batch(self, X, U, W, Th, h, out):
        self.base.step_batch(X, U, W, Th, h, out)


def substep_lengths(tau, h):
    """Sub-step lengths covering [0, tau]: full steps of h plus one final
    partial step.  Lengths sum to tau exactly (the remainder is computed by
    subtraction)."""
    if tau < 0:
        raise ValueError("rollout duration must be nonnegative")
    if h <= 0:
        raise ValueError("sub-step must be positive")
    n_full = int(np.floor(tau / h + 1e-9))
    rem = tau - n_full * h
    if rem < 1e-9 * max(h, 1.0):
        rem = 0.0
    out = [float(h)] * n_full
    if rem > 0.0:
        out.append(float(rem))
    return out


def constant_w_source(w):
    """A disturbance source (see rollout_batch) whose every row is w; it
    writes its block at sub-step 0 only, since nothing changes it later."""
    w = np.asarray(w, dtype=float)

    def source(j, out):
        if j == 0:
            out[...] = w

    return source


def _read_only(a):
    """A view of a that raises on any write through it."""
    v = a.view()
    v.flags.writeable = False
    return v


@dataclass
class Rollout:
    """Trace of one constant-control segment over a particle batch.

    Row k of each trace is the state after k sub-steps.  The traces are
    preallocated for every sub-step; after a divergence they are the prefix
    that ends at the first bad sub-step (rollout_batch steps them all and
    cuts after one test of the whole trace).  A tracked nominal is row N of
    the batch: `states` and `modes` then view rows :N of the shared traces,
    and `mu` and `mu_modes` view row N.

    The state trace is stored channel-major: `states` is a transposed view
    whose `states[k, :, c]` is contiguous; with more than one row neither
    it nor `final_states` is C-contiguous.  Values do not depend on the
    layout, but numpy sums a contiguous axis pairwise, so a sum or mean
    along the particle axis (axis 0 of `final_states`) rounds differently
    from the same sum over a C-order copy; take such a reduction over
    np.ascontiguousarray(...) to get the row-major bytes.
    """

    states: np.ndarray            # (S+1, N, n) view of an (S+1, n, N) block
    modes: np.ndarray | None      # (S+1, N) int, hybrid only
    mu: np.ndarray | None         # (S+1, n) tracked nominal
    mu_modes: np.ndarray | None   # (S+1,) int
    lengths: list = field(default_factory=list)
    diverged: bool = False

    @property
    def final_states(self):
        return self.states[-1]

    @property
    def final_modes(self):
        return None if self.modes is None else self.modes[-1]


def in_range(X):
    """Every entry of X within [-DIVERGENCE_LIMIT, DIVERGENCE_LIMIT]; NaN
    fails both comparisons, so a non-finite entry is out of range."""
    return -DIVERGENCE_LIMIT <= X.min() and X.max() <= DIVERGENCE_LIMIT


def rollout_batch(sys, X0, nu, tau, h, thetas, w_source, mu0=None, modes0=None,
                  mu_mode0=None):
    """Roll a particle batch under commanded control nu for duration tau.

    Args:
        sys: the system.
        X0: (N, n) initial particle states.
        nu: (m,) commanded control, constant over the segment; an open-loop
            system without mu0 also takes (N, m), one control per particle.
        tau: segment duration; sub-steps of h with a final partial step.
        h: sub-step length.
        thetas: (N, p) frozen per-particle parameters.
        w_source: callable (substep_index, out) that writes the sub-step's
            (N, dw) disturbance draws for the whole batch into out; called
            for sub-step 0 only when sys.reads_substep_disturbance is false.
            out is the same block at every sub-step of a rollout and nothing
            else writes it, so a source whose draws never change may write
            it at sub-step 0 only.
        mu0: tracked nominal state, advanced under nominal parameter and
            disturbance alongside the batch (required by feedback systems).
        modes0: (N,) initial mode indices for hybrid systems.
        mu_mode0: initial mode of the tracked nominal.

    Returns a Rollout.  The traces are preallocated for every sub-step, and
    the step function writes sub-step j + 1 straight into its trace row;
    the control and disturbance blocks are allocated once per rollout, so
    the sub-step loop allocates nothing of batch size.  The state trace,
    the control and disturbance blocks, and with a tracked nominal the
    parameter block, are stored channel-major and passed on as transposed
    views, so each channel of a sub-step, which the step functions read and
    write column by column, is one contiguous row; see Rollout for the
    axis-0 reduction this makes layout-dependent.  The tracked nominal
    rides along as row N of the batch,
    with the nominal parameter and disturbance, so each sub-step makes one
    control resolution and one step call; the step functions act on each
    row alone, so row N is exactly what a one-row call would compute.
    `diverged` is set if any particle state (rows :N; the nominal is not
    tested) leaves [-DIVERGENCE_LIMIT, DIVERGENCE_LIMIT] or is not finite,
    in which case the traces are cut to the prefix that ends at the first
    bad sub-step.  Divergence is tested once per rollout, not per sub-step:
    every sub-step is stepped, with numpy's overflow and invalid-value
    warnings off, and one in_range then reads the whole trace; only a trace
    that fails is searched sub-step by sub-step for the cut.  A diverged
    rollout thus finishes its sub-steps before the cut and discards the
    rest; its lengths, flag and prefix are those of a per-sub-step test.
    The step functions and the control law get their inputs
    (states, modes, controls, disturbances, parameters) as read-only views:
    a step that writes one raises ValueError.
    """
    X0 = np.asarray(X0, dtype=float)
    N = len(X0)
    nu = np.asarray(nu, dtype=float)
    thetas = np.asarray(thetas, dtype=float)
    lengths = substep_lengths(tau, h)
    S = len(lengths)

    track_mu = mu0 is not None
    hyb = sys.hybrid
    M = N + track_mu

    # channel-major: each sub-step's channel is one contiguous row
    states = np.empty((S + 1, X0.shape[1], M)).transpose(0, 2, 1)
    states[0, :N] = X0
    U = np.empty((nu.shape[-1], M)).T
    W = np.empty((len(sys.nominal_disturbance), M)).T
    modes_trace = None
    if hyb:
        modes_trace = np.empty((S + 1, M), dtype=np.int64)
        modes_trace[0, :N] = modes0
    if track_mu:
        states[0, N] = mu0
        th = np.empty((len(sys.nominal_param), M)).T
        th[:N] = thetas
        th[N] = sys.nominal_param
        thetas = th
        W[N] = sys.nominal_disturbance
        if hyb:
            modes_trace[0, N] = mu_mode0
    trace_in = _read_only(states)
    modes_in = _read_only(modes_trace) if hyb else None
    U_in, W_in, Th_in = _read_only(U), _read_only(W), _read_only(thetas)
    W_draw = W[:N]

    redraw = sys.reads_substep_disturbance
    ctx = None
    # a diverging row overflows on its way past the limit; the one test
    # below catches it, so numpy's warnings would say nothing more
    with np.errstate(over="ignore", invalid="ignore"):
        for j, hj in enumerate(lengths):
            if j == 0 or redraw:
                w_source(j, W_draw)
            X = trace_in[j]
            if hyb and j == 0:
                ctx = sys.begin_segment(nu, modes_in[0], W_in)
            sys.resolve_control(nu, X, X[N] if track_mu else None, U)

            out = states[j + 1]
            if hyb:
                modes_trace[j + 1] = sys.hybrid_step_batch(X, modes_in[j], U_in, W_in, Th_in,
                                                           hj, ctx, j, out)
            else:
                sys.step_batch(X, U_in, W_in, Th_in, hj, out)

    # one test over every stepped sub-step: the whole block, nominal row
    # included, is one contiguous run, and the particle rows alone, a
    # strided block, are read only when it fails.  Only a trace whose
    # particles fail is searched for its first bad sub-step, where it is cut
    particles = states[1:, :N]
    diverged = particles.size > 0 and not (in_range(states[1:]) or in_range(particles))
    if diverged:
        lengths = lengths[: next(j for j, X in enumerate(particles) if not in_range(X)) + 1]

    rows = len(lengths) + 1
    return Rollout(
        states=states[:rows, :N],
        modes=modes_trace[:rows, :N] if hyb else None,
        mu=states[:rows, N] if track_mu else None,
        mu_modes=modes_trace[:rows, N] if hyb and track_mu else None,
        lengths=lengths,
        diverged=diverged,
    )


def rollout(sys, x0, nu, tau, h, mode=None):
    """Roll copies of the state x0 at the nominal parameter and disturbance.

    nu is one (m,) commanded control or a (k, m) block, one row each, open
    loop as rollout_batch takes it; x0 and the nominal parameter are tiled
    to one row per control, and a hybrid system starts every row in mode.
    Returns the Rollout; a row that leaves the finite range sets `diverged`
    and cuts the traces of every row.  Deterministic, no random draws.
    """
    nu = np.asarray(nu, dtype=float)
    k = len(nu) if nu.ndim == 2 else 1
    modes0 = None
    if sys.hybrid:
        if mode is None:
            raise ValueError("hybrid rollout needs an initial mode")
        modes0 = np.full(k, int(mode), dtype=np.int64)
    return rollout_batch(
        sys, np.tile(np.asarray(x0, dtype=float), (k, 1)), nu, tau, h,
        np.tile(sys.nominal_param, (k, 1)),
        constant_w_source(sys.nominal_disturbance), modes0=modes0,
    )


def reachable_modes(sys, x, mode, tau_max, h):
    """Mode indices a segment from (x, mode) can visit, found by probing.

    The union of the modes the nominal visits under each probe control for
    tau_max (sys.nominal_modes).  Deterministic, no random draws.  A
    diverging probe still contributes the modes seen up to its cut.
    """
    out = {int(mode)}
    for nu in sys.probe_controls(x, int(mode)):
        out.update(sys.nominal_modes(x, mode, nu, tau_max, h)[0])
    return sorted(out)
