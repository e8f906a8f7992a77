"""End-to-end acceptance gate.

Each test covers one headline claim and prints a single PASS/FAIL line with
the measured numbers (run with -s to see them on success).  The heavy
planner sweeps reuse the shipped scenario files, so what is gated here is
exactly what the command line runs.
"""

import filecmp
import hashlib
import os
from dataclasses import dataclass

import numpy as np
import pytest
from scipy import stats

from reachrrt import rng
from reachrrt.benchmarks import Jumper, Linear1D, make_benchmark
from reachrrt.cli import main
from reachrrt.geometry import Box, convex_hull_2d
from reachrrt.planner import extend_hybrid, plan, sample_control, sample_node
from reachrrt.reachability import compute_reach_set, init_particles
from reachrrt.scenario import load_scenario, plan_to_dict, stats_to_dict, write_result
from reachrrt.tree import DualTree, PlanStep
from reachrrt.validation import (
    compare_methods,
    quadrotor_lipschitz_constant,
    success_rate_study,
)

from bounds import (
    hausdorff_distance,
    lipschitz_bound_check,
    quadrotor_flow_sup,
    reachset_lipschitz_check,
    trajectory_bound_factor,
)
from oracles import exact_interval_reach, point_in_hull

SCENARIOS = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")


def _report(label, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}  {label}: {detail}")
    assert ok, f"{label}: {detail}"


def _by_method(rows):
    robust = [r for r in rows if r["method"] == "reach-set"]
    baseline = [r for r in rows if r["method"] == "baseline"]
    return robust, baseline


# ------------------------------------------------- planner vs padded baseline


def test_quadrotor_robustness():
    sc = load_scenario(os.path.join(SCENARIOS, "quadrotor.json"))
    robust, baseline = _by_method(compare_methods(sc, range(10)))
    solved = sum(r["solved"] for r in robust)
    valid = sum(r["valid"] for r in robust)
    base_valid = sum(r["valid"] for r in baseline)
    _report("quadrotor robustness",
            solved == 10 and valid == 10 and base_valid <= 8,
            f"reach-set runs {solved}/10 solved, {valid}/10 valid; "
            f"0.3-padded baseline {base_valid}/10 valid (needs <=8)")


def test_jumper_hybrid_validity():
    sc = load_scenario(os.path.join(SCENARIOS, "jumper.json"))
    robust, baseline = _by_method(compare_methods(sc, range(5)))
    solved = sum(r["solved"] for r in robust)
    valid = sum(r["valid"] for r in robust)
    base_invalid = sum(not r["valid"] for r in baseline)
    _report("jumper hybrid validity",
            solved == 5 and valid == 5 and base_invalid >= 1,
            f"reach-set runs {solved}/5 solved, {valid}/5 valid; "
            f"baseline invalid on {base_invalid}/5 runs (needs >=1)")


# -------------------------------------------------- interval oracle (1-D)


def test_interval_oracle_containment():
    sys_ = Linear1D(theta_lo=0.2, theta_hi=1.0, w_lo=-0.3, w_hi=0.3)
    gen = np.random.default_rng(1234)
    n_trials = 10_000
    bad = 0
    for t in range(n_trials):
        lo = gen.uniform(-1.0, 1.0)
        width = gen.uniform(0.0, 1.0)
        tau = gen.uniform(0.05, 1.2)
        pset = init_particles(sys_, Box([lo], [lo + width]), 64, seed=t)
        new, _ = compute_reach_set(sys_, pset, np.array([0.0]), tau, 0.1,
                                   seed=t, ext_id=0)
        elo, ehi = exact_interval_reach(sys_, (lo, lo + width), tau)
        if new.states.min() < elo - 1e-9 or new.states.max() > ehi + 1e-9:
            bad += 1
    _report("interval containment", bad == 0,
            f"{bad}/{n_trials} propagations left the exact interval (needs 0)")


def test_interval_oracle_tightness():
    # trial distribution: near-point starts, rate-dominated spread
    def draw_trial(g):
        return g.uniform(0.0, 0.004), g.uniform(0.5, 1.0)

    # order-statistics dry run of the same sampling problem: the hull gap of
    # N uniforms must beat the 2% threshold often enough before the real
    # pipeline is held to it
    g = np.random.default_rng(7)
    reps = 5000
    x0w = g.uniform(0.0, 0.004, (reps, 1))
    tau = g.uniform(0.5, 1.0, (reps, 1))
    s = g.uniform(0.0, 1.0, (reps, 1000)) * x0w + tau * g.uniform(0.0, 1.0, (reps, 1000))
    d_h = np.maximum((x0w + tau).ravel() - s.max(axis=1), s.min(axis=1))
    p_model = float(np.mean(d_h <= 0.02 * (x0w + tau).ravel()))
    assert p_model >= 0.995, f"threshold not attainable in the model: {p_model}"

    sys_ = Linear1D(theta_lo=0.0, theta_hi=1.0)
    gen = np.random.default_rng(99)
    hits = 0
    n_trials = 500
    for t in range(n_trials):
        c = gen.uniform(-1.0, 1.0)
        width, tau = draw_trial(gen)
        pset = init_particles(sys_, Box([c], [c + width]), 1000, seed=10_000 + t)
        new, _ = compute_reach_set(sys_, pset, np.array([0.0]), tau, 0.1,
                                   seed=10_000 + t, ext_id=0)
        elo, ehi = exact_interval_reach(sys_, (c, c + width), tau)
        if max(ehi - new.states.max(), new.states.min() - elo) <= 0.02 * (ehi - elo):
            hits += 1
    _report("interval tightness", hits >= 495,
            f"hull within 2% of exact width in {hits}/{n_trials} trials "
            f"(needs >=495; model rate {p_model:.4f})")


# ------------------------------------------------------- metric foundations


def test_hausdorff_axioms():
    gen = np.random.default_rng(55)
    worst_tri = 0.0
    n_trials = 10_000
    for _ in range(n_trials):
        a, b, c = (gen.uniform(-5.0, 5.0, (gen.integers(1, 9), 2))
                   for _ in range(3))
        dab = hausdorff_distance(a, b)
        assert hausdorff_distance(a, a) == 0.0
        assert dab == hausdorff_distance(b, a)
        assert dab >= 0.0
        slack = hausdorff_distance(a, c) - (dab + hausdorff_distance(b, c))
        worst_tri = max(worst_tri, slack)
    _report("metric axioms", worst_tri <= 1e-9,
            f"{n_trials} random triples, worst triangle slack {worst_tri:.2e}")


def _in_hull_halfplanes(S, p, tol=1e-9):
    """Brute force: p is in conv(S) iff it satisfies every supporting
    half-plane found by pair enumeration."""
    n = S.shape[0]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            d = S[j] - S[i]
            nrm = float(np.hypot(d[0], d[1]))
            if nrm < 1e-12:
                continue
            rel = S - S[i]
            cr = (d[0] * rel[:, 1] - d[1] * rel[:, 0]) / nrm
            cp = (d[0] * (p[1] - S[i][1]) - d[1] * (p[0] - S[i][0])) / nrm
            if cr.max() <= tol and cp > tol:
                return False
    return True


def test_hull_membership_matches_halfplane_oracle():
    gen = np.random.default_rng(91)
    n_inputs = 0
    for _ in range(1000):
        S = gen.uniform(-1.0, 1.0, (int(gen.integers(3, 11)), 2))
        hull = convex_hull_2d(S)
        w = gen.dirichlet(np.ones(S.shape[0]))
        queries = [gen.uniform(-1.2, 1.2, 2), w @ S,
                   S[int(gen.integers(S.shape[0]))] * 1.5]
        for p in queries:
            n_inputs += 1
            assert point_in_hull(hull, p) == _in_hull_halfplanes(S, p)
    _report("hull membership oracle", True,
            f"agreement on {n_inputs} queries over 1000 random point sets")


# ------------------------------------------------------ deviation bounds


def test_trajectory_deviation_bound():
    quad = make_benchmark("quadrotor", feedback=False)
    box = Box([-1.0, -1.0, -3.0, -3.0], [1.0, 1.0, 3.0, 3.0])
    # drag caps speeds below 6.3 for every state this check can reach
    K, _ = quadrotor_lipschitz_constant(quad, v_max=6.3, h=0.1, grid=512)
    out = lipschitz_bound_check(quad, K, box, 10_000, tau_max=0.5, h=0.1,
                                seed=29)
    _report("trajectory deviation bound", out["violations"] == 0,
            f"{out['violations']}/{out['trials']} violations, worst ratio "
            f"{out['worst_ratio']:.3f} (K={K:.2f})")


def test_reach_set_deviation_bound():
    quad = make_benchmark("quadrotor", feedback=False)
    box = Box([-1.0, -1.0, -3.0, -3.0], [1.0, 1.0, 3.0, 3.0])
    tau_max = 0.5
    K, _ = quadrotor_lipschitz_constant(quad, v_max=6.3, h=0.1, grid=512)
    L = max(float(trajectory_bound_factor(tau_max, K)),
            quadrotor_flow_sup(quad, box))
    out = reachset_lipschitz_check(quad, L, box, 1000, 40, tau_max, 0.1, 29)
    _report("reach-set deviation bound", out["violations"] == 0,
            f"{out['violations']}/{out['trials']} violations, worst ratio "
            f"{out['worst_ratio']:.2e}")


# ------------------------------------------------------ sampling statistics


@dataclass
class _FakeReach:
    nominal: np.ndarray


def _tree(points):
    tree = DualTree(_FakeReach(np.asarray(points[0], dtype=float)))
    for i, p in enumerate(points[1:], start=1):
        tree.add_node(0, _FakeReach(np.asarray(p, dtype=float)),
                      PlanStep(u=(0.0,), tau=0.0, ext_id=i, node_id=i))
    return tree


def test_selection_and_control_statistics():
    # uniformity among candidates when every node is zeta-close
    pts = [[0.0, 0.0], [0.3, 0.0], [0.0, 0.3], [-0.3, 0.1], [0.2, -0.2],
           [-0.1, -0.25]]
    tree = _tree(pts)
    x_s = np.array([0.02, 0.01])
    gen = rng.substream(17, rng.DOMAIN_PLANNER)
    counts = np.zeros(len(pts))
    draws = 10_000
    for _ in range(draws):
        counts[sample_node(tree, x_s, 0.5, gen)] += 1
    expect = draws / len(pts)
    chi2 = float(((counts - expect) ** 2 / expect).sum())
    chi2_ok = chi2 < stats.chi2.ppf(0.99, len(pts) - 1)

    # zeta = 0 degenerates to exact nearest neighbor
    nominals = np.random.default_rng(3).uniform(-2.0, 2.0, (50, 2))
    tree2 = _tree(list(nominals))
    queries = np.random.default_rng(4).uniform(-2.5, 2.5, (1000, 2))
    nn_ok = all(
        sample_node(tree2, q, 0.0, gen)
        == int(np.argmin(np.linalg.norm(nominals - q, axis=1)))
        for q in queries)

    # control and duration marginals
    ubox = Box([-1.0, -2.0], [1.0, 2.0])
    rows = np.array([np.r_[u, t] for u, t in
                     (sample_control(ubox, 0.8, gen) for _ in range(10_000))])
    p1 = stats.kstest(rows[:, 0], "uniform", args=(-1.0, 2.0)).pvalue
    p2 = stats.kstest(rows[:, 1], "uniform", args=(-2.0, 4.0)).pvalue
    p3 = stats.kstest(rows[:, 2], "uniform", args=(0.0, 0.8)).pvalue
    ks_ok = min(p1, p2, p3) > 0.01

    _report("sampling statistics", chi2_ok and nn_ok and ks_ok,
            f"chi2={chi2:.1f} over {len(pts)} candidates, exact-NN on "
            f"1000 queries: {nn_ok}, KS p=({p1:.3f}, {p2:.3f}, {p3:.3f})")


# ------------------------------------------------------ hybrid extension


def test_hybrid_extension_gates():
    sys_ = make_benchmark("jumper")
    region = Box([0.0, 0.0, 0.0, 0.0], [0.05, 0.0, 0.0, 0.0])
    root = init_particles(sys_, region, 64, 11, init_mode=Jumper.CONTACT)

    # grounded nominal cannot serve a flight target
    a = extend_hybrid(sys_, root, np.array([0.5, 0.0]), 0.15, Jumper.FLIGHT,
                      0.03, seed=11, ext_id=0)
    # two sub-steps: slow-latency particles are still grounded at the end
    b = extend_hybrid(sys_, root, np.array([0.0, 1.0]), 0.06, Jumper.FLIGHT,
                      0.03, seed=11, ext_id=1)
    # five sub-steps: every latency fired, nobody landed yet
    c = extend_hybrid(sys_, root, np.array([0.0, 1.0]), 0.15, Jumper.FLIGHT,
                      0.03, seed=11, ext_id=2)
    ok = (a.reject == "nominal_mode" and b.reject == "mode_straddle"
          and c.reject is None and np.all(c.reach.modes == Jumper.FLIGHT))
    _report("hybrid extension gates", ok,
            f"nominal-mode -> {a.reject}, straddle -> {b.reject}, "
            f"clean transition -> {'accepted' if c.reject is None else c.reject}")


# ----------------------------------------------------------- determinism


def test_rerun_byte_determinism(tmp_path):
    scenario = os.path.join(SCENARIOS, "corridor.json")
    dirs = [tmp_path / "a", tmp_path / "b"]
    for out in dirs:
        assert main(["run", "--scenario", scenario, "--out-dir", str(out)]) == 0
    same = all(filecmp.cmp(dirs[0] / name, dirs[1] / name, shallow=False)
               for name in ("plan.json", "stats.json", "tree.svg"))
    _report("rerun determinism", same,
            "plan.json, stats.json, tree.svg byte-identical across two runs")


# `run` and `study` with the benchmark workloads' arguments: (run flags, run
# exit code, study flags, sha256 of each output).  Any change to a planner
# decision (a draw, a gate, an accepted node) changes these bytes.
FROZEN_DIGESTS = {
    "corridor.json": (
        (), 0, ("--budgets", "500,2000,8000", "--repeats", "5"), {
            "plan.json": "27eb90f0aef49bfd64c672cc1b42e8de495ed579458b62c7cda86b94e396b5bb",
            "stats.json": "6da78893ab14ca51d2602e88dba2b5c16d8d31bdea79935e7b05c6b2a9cd6374",
            "tree.svg": "91abef97eb7789c9cefcc46d388531822c14c28f29a014084aa0b6b7e00f3215",
            "study.json": "3939d62299187ecb987222c98d44b9dd48a1d7036bf0f97a3e10406b855db569",
        }),
    "quadrotor.json": (
        ("--max-iters", "10"), 2, ("--budgets", "5", "--repeats", "1"), {
            "stats.json": "dbfd9a16c0a2d09c2ebe2ca6909c6cfcfd1d9e505f339ff5ea28dc147e40ceb3",
            "tree.svg": "21d0c7c3b0a80575dca8f8b098b4b4bb5215d183bfa604fb836ba31712eb0029",
            "study.json": "56b99f114cea417775b6ccb10f239ee1746f2590e0c0ba3da49a17bda9ed31d5",
        }),
    "jumper.json": (
        ("--max-iters", "160"), 2, ("--budgets", "20", "--repeats", "1"), {
            "stats.json": "c74ae495e8bde926a494106707c83584808687a2adac48724e2160bfa4ca487d",
            "tree.svg": "2a923a04ba25fcb1df4e3f040a03f9263400cee94adc0df96bdfc810adafb98a",
            "study.json": "72964a454e76020151698c695e77812ef96fd03443d5b371164c97f186285aa1",
        }),
}


@pytest.mark.parametrize("name", sorted(FROZEN_DIGESTS))
def test_decision_digests_are_frozen(tmp_path, capsys, name):
    run_args, run_exit, study_args, want = FROZEN_DIGESTS[name]
    scenario = os.path.join(SCENARIOS, name)
    out = str(tmp_path)
    assert main(["run", "--scenario", scenario, "--out-dir", out, *run_args]) == run_exit
    assert main(["study", "--scenario", scenario, "--out-dir", out, *study_args]) == 0
    capsys.readouterr()
    got = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in want}
    assert got == want
    assert sorted(os.listdir(tmp_path)) == sorted(want)


PERFBENCH_DATA = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "data")

# `validate` of both stored plans and a short `compare`: (scenario, command
# and flags, output file, its sha256).  The report's and the comparison's
# headers and rows are frozen with the draws behind them.
FROZEN_RESULTS = {
    "quadrotor-validate": (
        "quadrotor.json",
        ("validate", "--plan", os.path.join(PERFBENCH_DATA, "quadrotor-gate.plan.json"),
         "--rollouts", "10000"),
        "report.json", "674af0972576d1c831a879a6b8c7fda504808bf4a1369214aa366a3239b09d16"),
    "jumper-validate": (
        "jumper.json",
        ("validate", "--plan", os.path.join(PERFBENCH_DATA, "jumper-vault.plan.json")),
        "report.json", "c0195c640b6afd937533832c9d3c4f4bfcf378023654bfc43469b991f01682fb"),
    "corridor-compare": (
        "corridor.json", ("compare", "--seeds", "2"),
        "compare.json", "ef43bce5ae9d789a4a73fb8eff30a34f6eac79c0931402ff289f610a576cd120"),
}


@pytest.mark.parametrize("name", sorted(FROZEN_RESULTS))
def test_result_digests_are_frozen(tmp_path, capsys, name):
    scenario, argv, output, want = FROZEN_RESULTS[name]
    command, *flags = argv
    assert main([command, "--scenario", os.path.join(SCENARIOS, scenario),
                 "--out-dir", str(tmp_path), *flags]) == 0
    capsys.readouterr()
    assert os.listdir(tmp_path) == [output]
    assert hashlib.sha256((tmp_path / output).read_bytes()).hexdigest() == want


def test_full_quadrotor_solve_writes_the_stored_plan(tmp_path, capsys):
    # the whole 297-iteration seed-0 solve, which reaches extensions that
    # pass the point prefilter and need the per-sub-step hull test; its
    # tree.svg (217 nodes with 100-point planar hulls and a solution
    # polyline) is frozen with the plan
    stored = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "data",
                          "quadrotor-gate.plan.json")
    scenario = os.path.join(SCENARIOS, "quadrotor.json")
    assert main(["run", "--scenario", scenario, "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    with open(stored, "rb") as f:
        assert (tmp_path / "plan.json").read_bytes() == f.read()
    assert hashlib.sha256((tmp_path / "tree.svg").read_bytes()).hexdigest() == \
        "1560420613fd3fd4f474e3bd0857b43de86093fd6784958e6a7b9cc8eb0aded2"


def test_full_jumper_solve_is_pinned(tmp_path):
    # the whole 2991-iteration seed-0 solve, recorded before the nominal-mode
    # gate moved ahead of the particle rollout: its counts, both mode-reject
    # reasons and the stats.json and plan.json bytes (the plan is the stored
    # perfbench plan)
    sc = load_scenario(os.path.join(SCENARIOS, "jumper.json"))
    result = plan(sc.build_system(), sc.init_region, sc.goal, sc.obstacles, sc.sampling_box,
                  sc.params, init_mode=sc.init_mode)
    s = result.stats
    assert (s.iterations, s.nodes_added, s.rejected_collision, s.rejected_divergence) == \
        (2991, 1447, 167, 0)
    assert (s.rejected_mode, s.rejected_nominal_mode, s.rejected_straddle) == (1377, 1035, 342)
    write_result(tmp_path, "stats.json", sc.sha256, **stats_to_dict(result, sc.params))
    write_result(tmp_path, "plan.json", sc.sha256, **plan_to_dict(result.plan))
    got = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
           for f in ("stats.json", "plan.json")}
    assert got == {
        "stats.json": "803fbc5ea7e77afee6c24000a8cbc4b9952c61457ea96f8d62af06431cb62b8a",
        "plan.json": "01334a690df4b5e2326661d96f9255101614888059b2762712fac5edaf8d9044",
    }
    with open(os.path.join(PERFBENCH_DATA, "jumper-vault.plan.json"), "rb") as f:
        assert (tmp_path / "plan.json").read_bytes() == f.read()


# ------------------------------------------------------------ budget trend


def test_success_rate_trend():
    sc = load_scenario(os.path.join(SCENARIOS, "corridor.json"))
    sys_ = sc.build_system()
    rows = success_rate_study(sys_, sc.init_region, sc.goal, sc.obstacles,
                              sc.sampling_box, sc.params,
                              budgets=[500, 2000, 8000], repeats=20,
                              init_mode=sc.init_mode)
    rates = [row["rate"] for row in rows]
    ok = all(r2 >= r1 for r1, r2 in zip(rates, rates[1:])) and rates[-1] >= 0.95
    _report("success-rate trend", ok,
            f"rates {rates} over budgets [500, 2000, 8000] "
            f"(needs nondecreasing, final >=0.95)")
