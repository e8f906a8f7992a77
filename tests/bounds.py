"""Empirical checks of the paper's deviation bounds.

The checks probe two inequalities empirically: the trajectory-level
bound  |x1_t - x2_t| <= L_t (|x1_0 - x2_0| + |u1 - u2|)  with
L_t = sqrt(2 max(1, 2 t^2 K^2)) * exp(K t), and its set-level counterpart
d_H(X1, X2) <= L (d_H(X1_0, X2_0) + |t1 - t2| + |u1 - u2|) with
L = max(L_t2, sup |f|).

They are evidence for the completeness argument, not planner machinery, so
they live next to the tests that run them.  Every draw comes from the
rng.DOMAIN_CHECK stream domain.
"""

import numpy as np

from reachrrt import rng
from reachrrt.benchmarks import GRAVITY
from reachrrt.dynamics import rollout_batch
from reachrrt.reachability import disturbance_source
from reachrrt.validation import _open_loop_quadrotor


def hausdorff_distance(a, b):
    """Hausdorff distance between two finite point sets of equal dimension."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("empty set has no Hausdorff distance")
    if a.shape[1] != b.shape[1]:
        raise ValueError("point sets must share a dimension")
    d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    forward = d2.min(axis=1).max()
    backward = d2.min(axis=0).max()
    return float(np.sqrt(max(forward, backward)))


def trajectory_bound_factor(t, K):
    """L_t = sqrt(2 max(1, 2 t^2 K^2)) exp(K t)."""
    t = np.asarray(t, dtype=float)
    A = np.maximum(1.0, 2.0 * (t * K) ** 2)
    return np.sqrt(2.0 * A) * np.exp(K * t)


def lipschitz_bound_check(sys, K, box, n_trials, tau_max, h, seed):
    """Empirical check of the trajectory deviation bound.

    Rolls paired trajectories from random initial states and controls with
    shared parameters and disturbances, and tests the bound at every
    sub-step boundary (which dominates any single sampled time).  Returns a
    dict with the violation count and the worst observed ratio.
    """
    T = int(n_trials)
    X1 = box.sample(rng.substream(seed, rng.DOMAIN_CHECK, 0), T)
    X2 = box.sample(rng.substream(seed, rng.DOMAIN_CHECK, 1), T)
    U1 = sys.bounds.control.sample(rng.substream(seed, rng.DOMAIN_CHECK, 2), T)
    U2 = sys.bounds.control.sample(rng.substream(seed, rng.DOMAIN_CHECK, 3), T)
    Th = sys.bounds.param.sample(rng.substream(seed, rng.DOMAIN_CHECK, 4), T)

    w_source = disturbance_source(sys.bounds.disturbance, seed, rng.DOMAIN_CHECK, 5)
    # both rollouts see identical parameter and disturbance realizations;
    # the controls are applied open loop, one commanded control per row
    base = getattr(sys, "base", sys)
    r1 = rollout_batch(base, X1, U1, tau_max, h, Th, w_source)
    r2 = rollout_batch(base, X2, U2, tau_max, h, Th, w_source)

    times = np.concatenate([[0.0], np.cumsum(r1.lengths)])
    du = np.linalg.norm(U1 - U2, axis=1)
    dx0 = np.linalg.norm(X1 - X2, axis=1)
    L = trajectory_bound_factor(times, K)               # (S+1,)
    lhs = np.linalg.norm(r1.states - r2.states, axis=2)  # (S+1, T)
    rhs = L[:, None] * (dx0 + du)[None, :]
    bad = lhs > rhs + 1e-9
    ratio = np.where(rhs > 0, lhs / np.where(rhs > 0, rhs, 1.0), 0.0)
    return {
        "trials": T,
        "violations": int(np.any(bad, axis=0).sum()),
        "worst_ratio": float(ratio.max()),
    }


def quadrotor_flow_sup(quad, box):
    """Analytic sup of the sub-step increment magnitude over a state box.

    Componentwise worst cases are attained at box corners (each component is
    monotone in the relevant coordinates), so the bound is exact up to the
    conservative combination across components.
    """
    base = _open_loop_quadrotor(quad)
    if base is None:
        raise TypeError("flow sup bound is quadrotor-specific")
    v_abs = np.maximum(np.abs(box.lo), np.abs(box.hi))[2:4]
    u_abs = np.maximum(np.abs(base.bounds.control.lo), np.abs(base.bounds.control.hi))
    w_abs = np.maximum(np.abs(base.bounds.disturbance.lo),
                       np.abs(base.bounds.disturbance.hi))
    a_hi = base.bounds.param.hi
    g = GRAVITY
    # sub-step length drops out of the h-dependent term conservatively at 1
    f1 = v_abs[0] + (g / 4.0) * u_abs[0]
    f2 = v_abs[1] + (g / 4.0) * u_abs[1]
    f3 = g * u_abs[0] + a_hi[0] * v_abs[0] ** 2 + w_abs[0]
    f4 = g * u_abs[1] + a_hi[1] * v_abs[1] ** 2 + w_abs[1]
    return float(np.sqrt(f1 * f1 + f2 * f2 + f3 * f3 + f4 * f4))


def reachset_lipschitz_check(sys, L, box, n_trials, n_particles, tau_max, h, seed):
    """Empirical check of the set-level deviation bound.

    Paired particle clouds share every uncertainty draw; the second cloud is
    a translate of the first by up to 0.1 per coordinate, with the control
    perturbed by up to 0.1 per coordinate and the duration by up to
    0.1 tau_max.  The Hausdorff distances are computed on the particle sets
    themselves (full state), which is the quantity the planner's sets
    approximate.
    """
    T = int(n_trials)
    N = int(n_particles)
    gen = rng.substream(seed, rng.DOMAIN_CHECK, 10)
    # the controls are applied open loop, as in lipschitz_bound_check
    base = getattr(sys, "base", sys)

    violations = 0
    worst_ratio = 0.0
    for t in range(T):
        c = box.sample(gen)
        rho = gen.uniform(0.0, 0.05 * (box.hi - box.lo) + 1e-12)
        P1 = c + gen.uniform(-rho, rho, size=(N, box.dim))
        shift = gen.uniform(-0.1, 0.1, size=box.dim)
        P2 = P1 + shift
        u1 = sys.bounds.control.sample(gen)
        du = gen.uniform(-0.1, 0.1, size=u1.shape[0])
        u2 = np.clip(u1 + du, sys.bounds.control.lo, sys.bounds.control.hi)
        tau1 = float(gen.uniform(0.25 * tau_max, tau_max))
        tau2 = float(np.clip(tau1 + gen.uniform(-0.1, 0.1) * tau_max,
                             0.0, tau_max))
        Th = sys.bounds.param.sample(rng.substream(seed, rng.DOMAIN_CHECK, 11, t), N)

        w_source = disturbance_source(sys.bounds.disturbance, seed, rng.DOMAIN_CHECK, 12, t)
        r1 = rollout_batch(base, P1, u1, tau1, h, Th, w_source)
        r2 = rollout_batch(base, P2, u2, tau2, h, Th, w_source)
        lhs = hausdorff_distance(r1.final_states, r2.final_states)
        rhs = L * (hausdorff_distance(P1, P2) + abs(tau1 - tau2)
                   + float(np.linalg.norm(u1 - u2)))
        if lhs > rhs + 1e-9:
            violations += 1
        if rhs > 0:
            worst_ratio = max(worst_ratio, lhs / rhs)
    return {"trials": T, "violations": violations, "worst_ratio": worst_ratio}
