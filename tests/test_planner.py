"""Planner tests: node-selection statistics, hybrid extension gates, full
runs on the 1-D benchmark, and exact replay."""

import os
from dataclasses import dataclass, replace

import numpy as np
import pytest
from scipy import stats

from reachrrt import rng
from reachrrt.benchmarks import Jumper, make_benchmark
from reachrrt import dynamics, planner, reachability
from reachrrt.dynamics import constant_w_source, reachable_modes, rollout_batch
from reachrrt.geometry import Ball, Box, GoalRegion, convex_hull_2d, hull_obstacle_clearance
from reachrrt.planner import (
    ExtendOutcome,
    ParamError,
    PlannerParams,
    extend_hybrid,
    plan,
    sample_control,
    sample_control_hybrid,
    sample_node,
)
from reachrrt.reachability import (compute_reach_set, init_particles, padded_goal_contained,
                                   project_to_plane)
from reachrrt.scenario import load_scenario
from reachrrt.tree import DualTree, PlanStep
from reachrrt.validation import walk_plan

SCENARIOS = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")


@dataclass
class FakeReach:
    nominal: np.ndarray


def _tree(points):
    tree = DualTree(FakeReach(np.asarray(points[0], dtype=float)))
    for i, p in enumerate(points[1:], start=1):
        tree.add_node(0, FakeReach(np.asarray(p, dtype=float)),
                      PlanStep(u=(0.0,), tau=0.0, ext_id=i, node_id=i))
    return tree


# ---------------------------------------------------------- node selection


def test_far_sample_selects_nearest_without_randomness():
    tree = _tree([[0.0], [1.0], [2.0]])
    gen = rng.substream(0, rng.DOMAIN_PLANNER)
    raw = rng.substream(0, rng.DOMAIN_PLANNER).uniform()
    assert sample_node(tree, np.array([1.9]), 0.05, gen) == 2
    # the far branch consumed no draws
    assert gen.uniform() == raw


def test_zeta_zero_recovers_pure_nearest():
    tree = _tree([[0.0], [1.0], [2.0]])
    gen = rng.substream(1, rng.DOMAIN_PLANNER)
    for x, want in [(0.1, 0), (0.9, 1), (5.0, 2)]:
        assert sample_node(tree, np.array([x]), 0.0, gen) == want


def test_close_sample_is_uniform_over_candidates():
    # four nodes inside the zeta ball, two outside
    tree = _tree([[0.0], [0.1], [-0.1], [0.2], [5.0], [-5.0]])
    gen = rng.substream(2, rng.DOMAIN_PLANNER)
    trials = 12000
    counts = np.zeros(6, dtype=int)
    for _ in range(trials):
        counts[sample_node(tree, np.array([0.0]), 0.3, gen)] += 1
    assert counts[4] == 0 and counts[5] == 0
    expected = trials / 4
    chi2 = float(((counts[:4] - expected) ** 2 / expected).sum())
    assert chi2 < 16.27  # chi2(3).ppf(0.999)


def test_selection_frequency_lower_bound():
    # each node is picked at least as often as: P(sample lands within zeta
    # of it) / (number of nodes), up to three sigmas of sampling noise
    nodes = [0.2, 0.5, 0.8]
    zeta = 0.15
    tree = _tree([[v] for v in nodes])
    gen = rng.substream(3, rng.DOMAIN_PLANNER)
    trials = 30000
    counts = np.zeros(3, dtype=int)
    for _ in range(trials):
        x = np.array([gen.uniform(0.0, 1.0)])
        counts[sample_node(tree, x, zeta, gen)] += 1
    freq = counts / trials
    bound = (2 * zeta) / len(nodes)  # ball volume within [0,1] over k nodes
    sigma = np.sqrt(freq * (1 - freq) / trials)
    assert np.all(freq + 3 * sigma >= bound)


# ---------------------------------------------------------- control draws


def test_control_draw_order_is_pinned():
    box = Box([-1.0, 0.0], [1.0, 2.0])
    u, tau = sample_control(box, 0.7, rng.substream(4, rng.DOMAIN_PLANNER))
    gen = rng.substream(4, rng.DOMAIN_PLANNER)
    want_u = box.sample(gen)
    want_tau = float(gen.uniform(0.0, 0.7))
    assert np.array_equal(u, want_u)
    assert tau == want_tau


def test_control_marginals_uniform_and_independent():
    box = Box([-1.0], [1.0])
    gen = rng.substream(5, rng.DOMAIN_PLANNER)
    us, taus = [], []
    for _ in range(8000):
        u, tau = sample_control(box, 2.0, gen)
        us.append(u[0])
        taus.append(tau)
    us, taus = np.array(us), np.array(taus)
    assert stats.kstest((us + 1) / 2, "uniform").pvalue > 0.01
    assert stats.kstest(taus / 2.0, "uniform").pvalue > 0.01
    assert abs(np.corrcoef(us, taus)[0, 1]) < 0.02
    assert taus.min() >= 0.0 and taus.max() <= 2.0


def test_duration_independent_of_selected_node():
    tree = _tree([[0.0], [0.3], [0.6], [0.9]])
    box = Box([-1.0], [1.0])
    gen = rng.substream(6, rng.DOMAIN_PLANNER)
    nids, taus = [], []
    for _ in range(20000):
        x = np.array([gen.uniform(-0.2, 1.1)])
        nids.append(sample_node(tree, x, 0.35, gen))
        _, tau = sample_control(box, 1.0, gen)
        taus.append(tau)
    r = np.corrcoef(np.array(nids, dtype=float), np.array(taus))[0, 1]
    assert abs(r) < 0.02


def test_hybrid_control_draw_appends_mode():
    sys_ = make_benchmark("jumper")
    box = sys_.bounds.control
    modes = reachable_modes(sys_, np.zeros(4), Jumper.CONTACT, 0.21, 0.03)
    assert modes == [Jumper.CONTACT, Jumper.FLIGHT]
    u, tau, sigma = sample_control_hybrid(
        box, 0.21, modes, rng.substream(7, rng.DOMAIN_PLANNER))
    assert sigma in (0, 1)
    assert 0.0 <= tau <= 0.21
    assert np.all((box.lo <= u) & (u <= box.hi))
    # draw order is u, tau, then the mode: (u, tau) match the smooth draw
    u_s, tau_s = sample_control(box, 0.21, rng.substream(7, rng.DOMAIN_PLANNER))
    assert np.array_equal(u, u_s) and tau == tau_s
    # mode draw is uniform over the probed set {contact, flight}
    gen = rng.substream(8, rng.DOMAIN_PLANNER)
    sigmas = [sample_control_hybrid(box, 0.21, modes, gen)[2] for _ in range(2000)]
    frac = np.mean(sigmas)
    assert 0.45 < frac < 0.55


def _jumper_plan(i_max=160):
    sc = load_scenario(os.path.join(SCENARIOS, "jumper.json"))
    params = PlannerParams(**{**sc.params.__dict__, "i_max": i_max})
    return plan(sc.build_system(), sc.init_region, sc.goal, sc.obstacles,
                sc.sampling_box, params, init_mode=sc.init_mode)


def test_modes_are_probed_once_per_selected_node(monkeypatch):
    selected, probed = [], []

    def spy_select(*args):
        nid = sample_node(*args)
        selected.append(nid)
        return nid

    def spy_probe(sys_, x, mode, tau_max, h):
        probed.append((tuple(x), mode))
        return reachable_modes(sys_, x, mode, tau_max, h)

    monkeypatch.setattr(planner, "sample_node", spy_select)
    monkeypatch.setattr(planner, "reachable_modes", spy_probe)
    result = _jumper_plan()
    assert len(selected) == result.stats.iterations == 160
    distinct = list(dict.fromkeys(selected))
    assert len(distinct) < len(selected)
    reaches = [result.tree.nodes[nid].reach for nid in distinct]
    assert probed == [(tuple(r.mu), r.mu_mode) for r in reaches]


def test_zero_width_disturbance_draws_no_substream_per_substep(monkeypatch):
    # linear1d on the corridor has a zero-width disturbance box
    keys = []
    real = rng.substream

    def spy(seed, *key):
        keys.append(key)
        return real(seed, *key)

    monkeypatch.setattr(rng, "substream", spy)
    sc = load_scenario(os.path.join(SCENARIOS, "corridor.json"))
    result = plan(sc.build_system(), sc.init_region, sc.goal, sc.obstacles,
                  sc.sampling_box, sc.params)
    assert result.solved and result.stats.nodes_added > 0
    assert sorted(set(keys)) == [(rng.DOMAIN_INIT, 0), (rng.DOMAIN_INIT, 1),
                                 (rng.DOMAIN_PLANNER,)]


def test_tree_nodes_own_their_states():
    result = _jumper_plan()
    assert len(result.tree) > 1
    for node in result.tree.nodes:
        reach = node.reach
        # a view would keep the whole (S+1, N, n) rollout trace alive
        assert reach.states.base is None
        assert reach.modes.base is None
        assert reach.mu.base is None


# float.hex of the seed-0 root's and first node's nominal on the shipped
# scenarios, as the planner has always computed them
FROZEN_NOMINALS = {
    "quadrotor": [
        ["-0x1.0c41db22fd29ap-9", "0x1.e1a0a300f5eb8p-11",
         "-0x1.229247203611dp-8", "0x1.ccd31581f8961p-8"],
        ["-0x1.c4e394cdf5bd3p-1", "0x1.8ac46243c0ff8p-1",
         "-0x1.14fc4d76a99b3p+1", "0x1.edba1218dd26ep+0"],
    ],
    "jumper": [
        ["0x1.a461f09c557bdp-6", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"],
        ["0x1.9601682328e01p-4", "0x1.66f0c48aac0e9p+0",
         "0x1.ba57224de33bep-2", "0x1.e1dd25eea5a20p+1"],
    ],
}


@pytest.mark.parametrize("name", ["quadrotor", "jumper"])
def test_nominal_does_not_depend_on_the_layout(name):
    # np.mean sums a contiguous axis pairwise, so the mean of a channel-major
    # block rounds differently from that of its C copy; the nominal drives
    # every tree distance and must not see which one it got
    sc = load_scenario(os.path.join(SCENARIOS, f"{name}.json"))
    sys_ = sc.build_system()
    params = PlannerParams(**{**sc.params.__dict__, "i_max": 2})
    result = plan(sys_, sc.init_region, sc.goal, sc.obstacles, sc.sampling_box,
                  params, init_mode=sc.init_mode)
    root, node = result.tree.nodes[0].reach, result.tree.nodes[1]
    # the first node's set as its rollout hands it out, a view of the trace
    fresh, _ = compute_reach_set(sys_, root, np.asarray(node.step.u), node.step.tau,
                                 params.h, params.seed, node.step.ext_id)
    pairs = [
        (replace(root, states=np.ascontiguousarray(root.states.T).T), root),
        (fresh, replace(fresh, states=np.ascontiguousarray(fresh.states))),
    ]
    for (view, c_copy), want in zip(pairs, FROZEN_NOMINALS[name]):
        assert not view.states.flags.c_contiguous and c_copy.states.flags.c_contiguous
        assert [v.hex() for v in view.nominal.tolist()] == want
        assert [v.hex() for v in c_copy.nominal.tolist()] == want
    assert [v.hex() for v in node.reach.nominal.tolist()] == FROZEN_NOMINALS[name][1]


# ------------------------------------------------------------ hybrid gates


def _jumper_root(n=64, seed=11):
    sys_ = make_benchmark("jumper")
    region = Box([0.0, 0.0, 0.0, 0.0], [0.05, 0.0, 0.0, 0.0])
    return sys_, init_particles(sys_, region, n, seed, init_mode=Jumper.CONTACT)


def test_extend_rejects_wrong_nominal_mode():
    sys_, root = _jumper_root()
    # no jump commanded, target flight: the nominal stays grounded
    out = extend_hybrid(sys_, root, np.array([0.5, 0.0]), 0.15, Jumper.FLIGHT,
                        0.03, seed=11, ext_id=0)
    assert out.reject == "nominal_mode"
    # jump commanded, target contact: the nominal takes off
    out = extend_hybrid(sys_, root, np.array([0.0, 1.0]), 0.15, Jumper.CONTACT,
                        0.03, seed=11, ext_id=1)
    assert out.reject == "nominal_mode"


def test_extend_rejects_mode_straddle():
    sys_, root = _jumper_root()
    # two sub-steps: latency-2 particles are still grounded at segment end
    out = extend_hybrid(sys_, root, np.array([0.0, 1.0]), 0.06, Jumper.FLIGHT,
                        0.03, seed=11, ext_id=2)
    assert out.reject == "mode_straddle"


def test_extend_accepts_united_mode():
    sys_, root = _jumper_root()
    # five sub-steps: every latency has fired and nobody has landed yet
    out = extend_hybrid(sys_, root, np.array([0.0, 1.0]), 0.15, Jumper.FLIGHT,
                        0.03, seed=11, ext_id=3)
    assert out.reject is None
    assert np.all(out.reach.modes == Jumper.FLIGHT)
    assert out.reach.mu_mode == Jumper.FLIGHT


def test_extend_accepts_staying_grounded():
    sys_, root = _jumper_root()
    out = extend_hybrid(sys_, root, np.array([1.0, 0.0]), 0.15, Jumper.CONTACT,
                        0.03, seed=11, ext_id=4)
    assert out.reject is None
    assert np.all(out.reach.modes == Jumper.CONTACT)


def reference_extend_hybrid(sys, reach, u, tau, sigma_s, h, seed, ext_id):
    """extend_hybrid with the nominal-mode gate on its own rollout of the
    nominal, run before the particles."""
    lone = rollout_batch(sys, reach.mu[None, :], u, tau, h, sys.nominal_param[None, :],
                         constant_w_source(sys.nominal_disturbance),
                         modes0=np.array([reach.mu_mode], dtype=np.int64))
    if lone.diverged:
        return ExtendOutcome(None, None, "diverged")
    if int(lone.modes[-1, 0]) != int(sigma_s):
        return ExtendOutcome(None, None, "nominal_mode")
    pset, r = compute_reach_set(sys, reach, u, tau, h, seed, ext_id)
    if pset is None:
        return ExtendOutcome(None, r, "diverged")
    if np.any(pset.modes != int(sigma_s)):
        return ExtendOutcome(None, r, "mode_straddle")
    return ExtendOutcome(pset, r, None)


def _assert_same_outcome(got, want):
    assert got.reject == want.reject
    assert (got.rollout is None) == (want.rollout is None)
    assert (got.reach is None) == (want.reach is None)
    if want.reach is not None:
        for name in ("states", "thetas", "mu", "modes"):
            assert getattr(got.reach, name).tobytes() == getattr(want.reach, name).tobytes()
        assert got.reach.mu_mode == want.reach.mu_mode


def test_diverging_particles_keep_the_nominal_mode_reject():
    sys_, root = _jumper_root()
    # a tiny mass sends every particle past the limit at the first sub-step,
    # when the nominal has just taken off; by the end it has landed again
    root = replace(root, thetas=np.full_like(root.thetas, 1e-30))
    args = (sys_, root, np.array([3.0, 1.0]), 1.2, Jumper.FLIGHT, 0.03, 11, 5)
    out = extend_hybrid(*args)
    assert out.reject == "nominal_mode" and out.rollout is None
    _assert_same_outcome(out, reference_extend_hybrid(*args))


def test_a_diverging_nominal_is_a_divergence_reject():
    sys_, root = _jumper_root()
    # the particles stay put; the nominal alone starts past the limit
    root = replace(root, mu=np.array([3e12, 0.0, 0.0, 0.0]))
    args = (sys_, root, np.array([1.0, 0.0]), 0.15, Jumper.CONTACT, 0.03, 11, 6)
    out = extend_hybrid(*args)
    assert out.reject == "diverged" and out.rollout is None
    _assert_same_outcome(out, reference_extend_hybrid(*args))


def test_extend_matches_the_two_rollout_gate():
    sys_, root = _jumper_root()
    gen = np.random.default_rng(13)
    seen = set()
    for ext_id in range(60):
        u, tau = sample_control(sys_.bounds.control, 1.0, gen)
        sigma = int(gen.integers(2))
        args = (sys_, root, u, tau, sigma, 0.03, 11, ext_id)
        out = extend_hybrid(*args)
        _assert_same_outcome(out, reference_extend_hybrid(*args))
        seen.add(out.reject)
    assert seen == {None, "nominal_mode", "mode_straddle"}


@pytest.mark.parametrize("u, tau, sigma", [
    ((0.5, 0.0), 0.15, Jumper.FLIGHT),    # grounded nominal, flight target
    ((0.0, 1.0), 0.15, Jumper.CONTACT),   # the nominal takes off
    ((0.0, 1.0), 1.2, Jumper.FLIGHT),     # it takes off and lands again
])
def test_a_nominal_mode_reject_rolls_no_particle_out(monkeypatch, u, tau, sigma):
    calls = []

    def spy(name, real):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapped

    sys_, root = _jumper_root()
    monkeypatch.setattr(reachability, "rollout_batch", spy("rollout_batch", rollout_batch))
    monkeypatch.setattr(dynamics, "rollout_batch", spy("rollout_batch", rollout_batch))
    monkeypatch.setattr(rng, "substream", spy("substream", rng.substream))
    out = extend_hybrid(sys_, root, np.array(u), tau, sigma, 0.03, 11, 7)
    assert out.reject == "nominal_mode" and calls == []
    # the spies see the particle rollout of an extension that passes the gate
    out = extend_hybrid(sys_, root, np.array(u), tau, 1 - sigma, 0.03, 11, 7)
    assert out.reject != "nominal_mode" and "rollout_batch" in calls and "substream" in calls


def test_mode_rejects_are_counted_by_reason(monkeypatch):
    reasons = []

    def spy(*args):
        out = extend_hybrid(*args)
        reasons.append(out.reject)
        return out

    monkeypatch.setattr(planner, "extend_hybrid", spy)
    stats = _jumper_plan().stats
    assert stats.rejected_nominal_mode == reasons.count("nominal_mode") > 0
    assert stats.rejected_straddle == reasons.count("mode_straddle") > 0
    assert stats.rejected_mode == stats.rejected_nominal_mode + stats.rejected_straddle
    # stats.json keeps its keys: the split is not written
    assert list(stats.as_dict()) == ["iterations", "nodes_added", "rejected_collision",
                                     "rejected_divergence", "rejected_mode"]


# ------------------------------------------------------------- parameters


def test_params_validation():
    goal = GoalRegion((0,), (0.0,), 1.0)
    PlannerParams(i_max=0).validated(goal)
    with pytest.raises(ValueError):
        PlannerParams(i_max=-1).validated(goal)
    with pytest.raises(ValueError):
        PlannerParams(n_particles=0).validated(goal)
    with pytest.raises(ValueError):
        PlannerParams(epsilon=-0.1).validated(goal)
    with pytest.raises(ValueError):
        PlannerParams(zeta=-1.0).validated(goal)
    with pytest.raises(ValueError):
        PlannerParams(tau_max=0.0).validated(goal)
    with pytest.raises(ValueError):
        PlannerParams(h=0.5, tau_max=0.3).validated(goal)
    with pytest.raises(ValueError, match="epsilon 1.0 must be smaller than the goal radius 1.0"):
        PlannerParams(epsilon=1.0).validated(goal)


# --------------------------------------------------------------- full runs


def _easy_linear():
    sys_ = make_benchmark("linear1d", theta_lo=0.45, theta_hi=0.55)
    init = Box([0.0], [0.1])
    goal = GoalRegion((0,), (2.0,), 0.55)
    sampling = Box([-0.5], [3.5])
    params = PlannerParams(i_max=300, tau_max=1.0, zeta=0.3, n_particles=60,
                           epsilon=0.05, h=0.1, seed=23)
    return sys_, init, goal, sampling, params


def test_plan_solves_the_easy_corridor():
    sys_, init, goal, sampling, params = _easy_linear()
    result = plan(sys_, init, goal, [], sampling, params)
    assert result.solved
    assert result.status == "solved"
    assert len(result.plan.steps) >= 1
    assert result.stats.nodes_added <= result.stats.iterations
    assert len(result.tree) == result.stats.nodes_added + 1
    assert result.stats.wall_time > 0.0
    # the solved node's particles sit inside the shrunken goal
    leaf = result.tree.nodes[result.plan.solved_node].reach
    assert padded_goal_contained(leaf, goal, params.epsilon)
    # metadata carries everything a replay needs
    for key in ("n_particles", "epsilon", "h", "tau_max", "zeta",
                "nominal_kind", "baseline"):
        assert key in result.plan.meta


def test_plan_is_deterministic():
    sys_, init, goal, sampling, params = _easy_linear()
    a = plan(sys_, init, goal, [], sampling, params)
    b = plan(sys_, init, goal, [], sampling, params)
    assert a.stats.as_dict() == b.stats.as_dict()
    assert a.plan.steps == b.plan.steps


def test_trivially_solved_at_root():
    sys_, init, _, sampling, params = _easy_linear()
    goal = GoalRegion((0,), (0.05,), 0.5)
    result = plan(sys_, init, goal, [], sampling, params)
    assert result.solved
    assert len(result.plan.steps) == 0
    assert result.stats.iterations == 0
    # even with no budget at all
    zero = PlannerParams(**{**params.__dict__, "i_max": 0})
    assert plan(sys_, init, goal, [], sampling, zero).solved
    # a root inside the goal but within epsilon of (here: on) an obstacle is
    # no solve: a 0-step plan would fail replay and Monte-Carlo validation,
    # and no extension could clear the obstacle either, so plan() refuses it
    init = Box([0.0], [0.05])
    goal = GoalRegion((0,), (0.0,), 0.3)
    assert plan(sys_, init, goal, [], sampling, zero).solved
    pebble = Ball((0.02, 0.0), 0.01)
    small = PlannerParams(**{**params.__dict__, "i_max": 20})
    with pytest.raises(ValueError, match="within epsilon"):
        plan(sys_, init, goal, [pebble], sampling, small)


def test_root_within_epsilon_of_an_obstacle_fails_fast():
    # every extension's trace starts with its parent's states, so from such a
    # root no node can be added; plan() refuses before drawing a sample
    sys_, init, goal, _, params = _easy_linear()

    class NoDraws:
        def sample(self, gen):
            raise AssertionError("plan() drew a sample")

    for obstacle in (Ball((0.1 + 0.04, 0.0), 0.0), Box([0.05, -1.0], [0.06, 1.0])):
        with pytest.raises(ValueError, match="within epsilon 0.05"):
            plan(sys_, init, goal, [obstacle], NoDraws(), params)
    # clear by more than epsilon: the run proceeds
    far = Ball((0.1 + 0.06, 0.0), 0.0)
    small = PlannerParams(**{**params.__dict__, "i_max": 5})
    assert plan(sys_, init, goal, [far], Box([-0.5], [3.5]), small).stats.iterations == 5


def test_the_initial_region_not_its_particles_must_clear_the_obstacles():
    # the ball touches the region [0, 0.4]; when plan() tested only the
    # root's three particles, six of seeds 0-7 drew them clear of it and
    # solved, and each of those plans collided in 18 of 1000 rollouts
    sys_, _, goal, sampling, params = _easy_linear()
    init, pebble = Box([0.0], [0.4]), Ball((0.01, 0.0), 0.005)
    for seed in range(8):
        few = replace(params, n_particles=3, seed=seed)
        with pytest.raises(planner.InitClearanceError,
                           match=r"within epsilon 0.05 of obstacles\[0\]"):
            plan(sys_, init, goal, [pebble], sampling, few)
    # the baseline starts from the region's center, 0.185 from the ball
    assert plan(sys_, init, goal, [pebble], sampling,
                replace(params, i_max=5).as_baseline(0.1)).stats.iterations == 5
    with pytest.raises(planner.InitClearanceError, match="within baseline_padding 0.2 "):
        plan(sys_, init, goal, [pebble], sampling, params.as_baseline(0.2))


def test_zero_budget_exhausts_without_iterating():
    sys_, init, goal, sampling, params = _easy_linear()
    zero = PlannerParams(**{**params.__dict__, "i_max": 0})
    result = plan(sys_, init, goal, [], sampling, zero)
    assert not result.solved
    assert result.status == "budget_exhausted"
    assert result.stats.iterations == 0
    assert len(result.tree) == 1


def test_blocked_corridor_exhausts_budget():
    sys_, init, goal, sampling, params = _easy_linear()
    wall = Ball((1.0, 0.0), 0.4)
    small = PlannerParams(**{**params.__dict__, "i_max": 150})
    result = plan(sys_, init, goal, [wall], sampling, small)
    assert not result.solved
    assert result.stats.iterations == 150
    assert result.stats.rejected_collision >= 1
    # every accepted node keeps the padded clearance
    for node in result.tree.nodes:
        hull = convex_hull_2d(project_to_plane(node.reach.states, sys_.collision_projection))
        assert hull_obstacle_clearance(hull, wall) > small.epsilon


def test_plan_takes_box_obstacles_and_a_ball_initial_region():
    # the exported shapes serve every role: a Ball initial region, and Box
    # obstacles, a flat one and a point among them, beside the corridor
    sys_, _, goal, sampling, params = _easy_linear()
    init = Ball([0.05], 0.05)
    beside = [Box([0.8, 0.2], [1.2, 0.6]), Box([1.5, -0.4], [1.5, -0.2]),
              Box([2.0, 0.3], [2.0, 0.3])]
    assert plan(sys_, init, goal, beside, sampling, params).solved
    # a flat box across the corridor is a wall
    wall = Box([1.0, -0.5], [1.0, 0.5])
    blocked = plan(sys_, init, goal, [wall], sampling, replace(params, i_max=150))
    assert not blocked.solved
    assert blocked.stats.rejected_collision >= 1


def test_a_wall_with_a_nan_bound_is_refused_not_planned_through():
    # the query is the corridor with a goal of radius 0.3; a NaN bound once
    # made the wall's clearance NaN, the collision test dropped it, and the
    # planner solved through it in 25 iterations
    sys_, init, _, sampling, params = _easy_linear()
    goal = GoalRegion((0,), (2.0,), 0.3)
    wall = Box([1.0, -1.0], [1.2, 1.0])
    blocked = plan(sys_, init, goal, [wall], sampling, replace(params, i_max=150))
    assert not blocked.solved and blocked.stats.rejected_collision >= 1
    with pytest.raises(ValueError, match="lo <= hi"):
        Box([np.nan, -1.0], [1.2, 1.0])


def _diverging_query(case):
    """(system, plan() arguments, init_mode) of a query whose extensions
    diverge: a huge parameter on the corridor, a vanishing jumper mass (the
    nominal diverges), or a jumper region so wide that only some particles
    do."""
    if case == "smooth":
        sys_, init, goal, sampling, params = _easy_linear()
        sys_ = make_benchmark("linear1d", theta_lo=1e14, theta_hi=2e14)
        return sys_, (init, goal, [], sampling, replace(params, i_max=50)), None
    sc = load_scenario(os.path.join(SCENARIOS, "jumper.json"))
    if case == "hybrid-nominal":
        sys_ = make_benchmark("jumper", mass_lo=1e-20, mass_hi=1e-20)
        return sys_, (sc.init_region, sc.goal, sc.obstacles, sc.sampling_box,
                      replace(sc.params, i_max=200)), sc.init_mode
    wide = Box([-5e12, 0.0, 0.0, 0.0], [5e12, 0.0, 0.0, 0.0])
    return sc.build_system(), (wide, sc.goal, [], sc.sampling_box,
                               replace(sc.params, i_max=100)), sc.init_mode


@pytest.mark.parametrize("case,iterations,diverged,nominal_mode,rolled_out", [
    ("smooth", 50, 50, 0, None),
    ("hybrid-nominal", 200, 200, 0, False),
    ("hybrid-particles", 100, 52, 48, True),
])
def test_a_diverging_extension_is_counted_and_adds_no_node(monkeypatch, case, iterations,
                                                           diverged, nominal_mode, rolled_out):
    # a nominal that diverges is rejected before any particle moves; a
    # particle set that diverges is rejected with the rollout that showed it
    outcomes = []

    def spy(*args):
        outcomes.append(extend_hybrid(*args))
        return outcomes[-1]

    monkeypatch.setattr(planner, "extend_hybrid", spy)
    sys_, query, init_mode = _diverging_query(case)
    result = plan(sys_, *query, init_mode=init_mode)
    s = result.stats
    assert (s.iterations, s.rejected_divergence, s.rejected_nominal_mode) == (
        iterations, diverged, nominal_mode)
    assert s.nodes_added == s.rejected_collision == s.rejected_straddle == 0
    assert len(result.tree) == 1 and not result.solved
    rollouts = [out.rollout is not None for out in outcomes if out.reject == "diverged"]
    assert rollouts == ([] if rolled_out is None else [rolled_out] * diverged)


@pytest.mark.parametrize("eps", [0.55, 0.6])
def test_plan_refuses_an_epsilon_of_at_least_the_goal_radius(monkeypatch, eps):
    # the goal shrunk by epsilon is empty; plan() ran all 300 iterations
    # and returned budget_exhausted, and now refuses before the first draw
    def no_draw(*key):
        raise AssertionError("drew before refusing")

    monkeypatch.setattr(rng, "substream", no_draw)
    corridor = make_benchmark("linear1d", theta_lo=0.45, theta_hi=0.55)
    with pytest.raises(ValueError, match=f"epsilon {eps} must be smaller than the goal radius"):
        plan(corridor, Ball([0.05], 0.05), GoalRegion((0,), (2.0,), 0.55),
             [Box([0.8, 0.2], [1.2, 0.6])], Box([-0.5], [3.5]),
             PlannerParams(i_max=300, zeta=0.3, n_particles=60, epsilon=eps, seed=23))


def _corridor_plan(params):
    corridor = make_benchmark("linear1d", theta_lo=0.45, theta_hi=0.55)
    return plan(corridor, Ball([0.05], 0.05), GoalRegion((0,), (2.0,), 0.55), [],
                Box([-0.5], [3.5]), params)


@pytest.mark.parametrize("field,value,rule", [
    # a fractional particle count planned with its floor, a NaN budget died
    # in range() and a bool seed planned as seed 1
    ("n_particles", 2.5, "must be an integer"),
    ("i_max", np.nan, "must be an integer"),
    ("seed", True, "must be an integer"),
    ("i_max", 300.0, "must be an integer"),
    ("n_particles", np.True_, "must be an integer"),
    # a NaN weight made every distance NaN, and sample_node died in numpy
    ("nn_weights", (np.nan,), "must hold finite numbers"),
    ("nn_weights", (np.inf,), "must hold finite numbers"),
])
def test_plan_refuses_a_broken_parameter_before_drawing(monkeypatch, field, value, rule):
    def no_draw(*key):
        raise AssertionError("drew before refusing")

    monkeypatch.setattr(rng, "substream", no_draw)
    params = PlannerParams(**{"i_max": 300, "zeta": 0.3, "n_particles": 60, "seed": 23,
                              field: value})
    with pytest.raises(ParamError) as refused:
        _corridor_plan(params)
    assert (refused.value.field, str(refused.value)) == (field, f"{field} {rule}")


def test_numpy_integer_counts_plan_as_ints():
    ints = _corridor_plan(PlannerParams(i_max=300, zeta=0.3, n_particles=60, seed=23))
    numpy = _corridor_plan(PlannerParams(i_max=np.int64(300), zeta=0.3,
                                         n_particles=np.int32(60), seed=np.uint8(23)))
    assert ints.solved and numpy.stats.as_dict() == ints.stats.as_dict()
    assert numpy.plan.meta == ints.plan.meta and numpy.plan.steps == ints.plan.steps


def test_every_tree_edge_replays_collision_free():
    sys_, init, goal, sampling, params = _easy_linear()
    wall = Ball((1.0, 0.0), 0.2)
    result = plan(sys_, init, goal, [wall],
                  sampling, PlannerParams(**{**params.__dict__, "i_max": 120}))
    from reachrrt.reachability import padded_collision_free

    for node in result.tree.nodes[1:]:
        parent = result.tree.nodes[node.parent].reach
        pset, r = compute_reach_set(sys_, parent, np.asarray(node.step.u),
                                    node.step.tau, params.h, params.seed,
                                    node.step.ext_id)
        assert np.array_equal(pset.states, node.reach.states)
        assert padded_collision_free(r.states, sys_.collision_projection,
                                     [wall], params.epsilon)


def _jumper_walk():
    sys_ = make_benchmark("jumper")
    init = Box([0.0, 0.0, 0.0, 0.0], [0.05, 0.0, 0.0, 0.0])
    goal = GoalRegion((0, 2), (1.5, 0.0), 0.5)
    # near-ground sampling keeps contact nodes competitive in the nearest
    # lookup; airborne nominals sit far from every sample
    sampling = Box([-0.5, -2.0, 0.0, -1.0], [3.0, 2.0, 0.1, 1.0])
    params = PlannerParams(i_max=600, tau_max=0.21, zeta=0.5, n_particles=30,
                           epsilon=0.02, h=0.03, seed=5)
    return sys_, init, goal, sampling, params


def _solve(case):
    if case == "quadrotor":
        sc = load_scenario(os.path.join(SCENARIOS, "quadrotor.json"))
        sys_, init, init_mode = sc.build_system(), sc.init_region, sc.init_mode
        result = plan(sys_, init, sc.goal, sc.obstacles, sc.sampling_box, sc.params)
    else:
        sys_, init, goal, sampling, params = (_easy_linear if case == "linear1d"
                                              else _jumper_walk)()
        init_mode = Jumper.CONTACT if sys_.hybrid else None
        result = plan(sys_, init, goal, [], sampling, params, init_mode=init_mode)
    assert result.solved
    return sys_, init, init_mode, result


@pytest.mark.parametrize("case", ["linear1d", "jumper", "quadrotor"])
def test_replay_reconstructs_the_plan_exactly(case):
    # the stored ext_ids key the growth's own draws, so walking the plan
    # from the root re-derives every node on the solved path bit for bit
    sys_, init, init_mode, result = _solve(case)
    plan_obj = result.plan
    root = init_particles(sys_, init, plan_obj.meta["n_particles"], plan_obj.seed,
                          init_mode=init_mode)
    sets = [cur for _, cur in walk_plan(sys_, plan_obj, root, plan_obj.seed,
                                        (rng.DOMAIN_EXTEND,),
                                        [step.ext_id for step in plan_obj.steps])]
    path = [0, *(step.node_id for step in plan_obj.steps)]
    assert len(sets) == len(path) and path[-1] == plan_obj.solved_node
    for got, nid in zip(sets, path):
        want = result.tree.nodes[nid].reach
        for name in ("states", "thetas", "mu", "modes"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a is None) == (b is None)
            if b is not None:
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()
        assert got.mu_mode == want.mu_mode


def test_zero_duration_extension_duplicates_the_set():
    sys_, init, _, _, params = _easy_linear()
    root = init_particles(sys_, init, 32, params.seed)
    pset, r = compute_reach_set(sys_, root, np.zeros(1), 0.0, 0.1, params.seed, 0)
    assert np.array_equal(pset.states, root.states)
    assert len(r.states) == 1


def test_plan_solves_the_jumper_walk():
    sys_, init, goal, sampling, params = _jumper_walk()
    result = plan(sys_, init, goal, [], sampling, params,
                  init_mode=Jumper.CONTACT)
    assert result.solved
    assert result.plan.meta["init_mode"] == Jumper.CONTACT
    for step in result.plan.steps:
        assert step.mode in (0, 1)
    # every node along the path ends in its step's mode
    for step in result.plan.steps:
        assert np.all(result.tree.nodes[step.node_id].reach.modes == step.mode)
