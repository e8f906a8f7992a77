"""Command-line front end.

    reachrrt run      --scenario FILE [overrides]   grow a tree, write plan/stats/svg
    reachrrt validate --scenario FILE --plan FILE   Monte-Carlo validation report
    reachrrt study    --scenario FILE --budgets ... success rate per budget

Exit codes: 0 success (run: solved; validate: plan valid), 2 honest negative
(budget exhausted / plan invalid), 1 usage or scenario errors.  Output files
are byte-deterministic for a given scenario, seed, and flags; they embed the
master seed, the scenario content hash, and the tool version.
"""

import argparse
import os
import sys as _sys
from dataclasses import replace

import numpy as np

from . import __version__
from .planner import plan as run_plan
from .scenario import (
    REPORT_FORMAT,
    STUDY_FORMAT,
    ScenarioError,
    error_line,
    load_plan,
    load_scenario,
    plan_to_dict,
    stats_to_dict,
    write_json,
)
from .svg import render_svg
from .validation import (
    monte_carlo_validate,
    quadrotor_lipschitz_constant,
    success_rate_study,
)

OUT_DIR_ENV = "REACHRRT_OUT_DIR"


def _add_common(p):
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--seed", type=int, default=None, help="override the master seed")
    p.add_argument("--out-dir", default=None,
                   help=f"output directory (default ${OUT_DIR_ENV} or .)")


def _out_dir(args):
    d = args.out_dir or os.environ.get(OUT_DIR_ENV) or "."
    os.makedirs(d, exist_ok=True)
    return d


def _load(args):
    try:
        return load_scenario(args.scenario)
    except ScenarioError as e:
        line = error_line(args.scenario, e.key)
        print(f"{args.scenario}:{line}: {e}", file=_sys.stderr)
        raise SystemExit(1)
    except OSError as e:
        print(f"{args.scenario}: {e.strerror or e}", file=_sys.stderr)
        raise SystemExit(1)


def _overridden_params(scenario, args):
    params = scenario.params
    if args.seed is not None:
        params = replace(params, seed=args.seed)
    if getattr(args, "max_iters", None) is not None:
        params = replace(params, i_max=args.max_iters)
    if getattr(args, "particles", None) is not None:
        params = replace(params, n_particles=args.particles)
    if getattr(args, "epsilon", None) is not None:
        params = replace(params, epsilon=args.epsilon)
    if getattr(args, "zeta", None) is not None:
        params = replace(params, zeta=args.zeta)
    if getattr(args, "tau_max", None) is not None:
        params = replace(params, tau_max=args.tau_max)
    if getattr(args, "baseline_padding", None) is not None:
        params = replace(params, baseline=True, n_particles=1,
                         epsilon=args.baseline_padding)
    try:
        return params.validated()
    except ValueError as e:
        print(f"invalid parameters: {e}", file=_sys.stderr)
        raise SystemExit(1)


def cmd_run(args):
    scenario = _load(args)
    params = _overridden_params(scenario, args)
    sys = scenario.build_system()
    result = run_plan(sys, scenario.init_region, scenario.goal,
                      scenario.obstacles, scenario.sampling_box, params,
                      init_mode=scenario.init_mode)

    extra = {}
    if scenario.system_name == "quadrotor":
        # bound must hold along trajectories: drag self-limits speed where
        # a_lo v^2 = g u_max + w_max, plus one sub-step of forcing overshoot
        from .benchmarks import GRAVITY
        base = sys.base if hasattr(sys, "base") else sys
        u_max = float(base.bounds.control.hi.max())
        w_max = float(max(np.abs(base.bounds.disturbance.lo).max(),
                          np.abs(base.bounds.disturbance.hi).max()))
        a_lo = float(base.bounds.param.lo.min())
        v_box = float(max(abs(scenario.sampling_box.lo[2:4]).max(),
                          abs(scenario.sampling_box.hi[2:4]).max()))
        force = GRAVITY * u_max + w_max
        v_inv = max(v_box, (force / a_lo) ** 0.5) + params.h * force
        K, kmeta = quadrotor_lipschitz_constant(sys, v_inv, params.h, grid=512)
        extra["lipschitz_constant"] = K
        extra["lipschitz_meta"] = {"v_max": v_inv, **kmeta}

    out = _out_dir(args)
    stats_path = os.path.join(out, "stats.json")
    write_json(stats_path, stats_to_dict(result, params, scenario.sha256, extra))
    svg_path = os.path.join(out, "tree.svg")
    with open(svg_path, "w") as f:
        f.write(render_svg(result, sys, scenario.goal, scenario.obstacles,
                           scenario.sampling_box, params.epsilon, params.seed,
                           scenario.sha256, __version__))
    if result.plan is not None:
        plan_path = os.path.join(out, "plan.json")
        write_json(plan_path, plan_to_dict(result.plan, scenario.sha256))
        print(f"solved: {len(result.plan)} steps, {len(result.tree)} nodes, "
              f"{result.stats.iterations} iterations -> {plan_path}")
        return 0
    print(f"budget exhausted: {len(result.tree)} nodes, "
          f"{result.stats.iterations} iterations")
    return 2


def cmd_validate(args):
    scenario = _load(args)
    sys = scenario.build_system()
    try:
        plan_obj = load_plan(args.plan)
    except (OSError, ValueError, KeyError) as e:
        print(f"{args.plan}: cannot load plan: {e}", file=_sys.stderr)
        return 1
    m = sys.bounds.control.dim
    for s in plan_obj.steps:
        if len(s.u) != m:
            print(f"plan/scenario mismatch: step controls have dimension "
                  f"{len(s.u)}, system {scenario.system_name} expects {m}",
                  file=_sys.stderr)
            return 1
    if "h" not in plan_obj.meta:
        print("plan file lacks meta.h (sub-step)", file=_sys.stderr)
        return 1

    seed = args.seed if args.seed is not None else scenario.validation_seed
    rollouts = args.rollouts if args.rollouts is not None else scenario.validation_rollouts
    if rollouts < 1:
        print("--rollouts must be at least 1", file=_sys.stderr)
        return 1
    record = monte_carlo_validate(sys, plan_obj, scenario.init_region,
                                  scenario.goal, scenario.obstacles,
                                  rollouts, seed, init_mode=scenario.init_mode)
    out = _out_dir(args)
    report = {
        "format": REPORT_FORMAT,
        "version": __version__,
        "seed": seed,
        "scenario_sha256": scenario.sha256,
        "plan_seed": plan_obj.seed,
        **record.as_dict(),
    }
    report_path = os.path.join(out, "report.json")
    write_json(report_path, report)
    word = "valid" if record.valid else "invalid"
    print(f"{word}: {record.collisions} collisions, {record.goal_misses} goal "
          f"misses over {record.rollouts} rollouts -> {report_path}")
    return 0 if record.valid else 2


def cmd_study(args):
    scenario = _load(args)
    sys = scenario.build_system()
    params = _overridden_params(scenario, args)
    try:
        budgets = [int(b) for b in args.budgets.split(",") if b.strip() != ""]
    except ValueError:
        print(f"bad --budgets {args.budgets!r}: expected comma-separated integers",
              file=_sys.stderr)
        return 1
    if not budgets or any(b < 0 for b in budgets):
        print("budgets must be nonnegative integers", file=_sys.stderr)
        return 1
    if args.repeats < 1:
        print("--repeats must be at least 1", file=_sys.stderr)
        return 1
    rows = success_rate_study(sys, scenario.init_region, scenario.goal,
                              scenario.obstacles, scenario.sampling_box, params,
                              budgets, args.repeats, init_mode=scenario.init_mode)
    out = _out_dir(args)
    study_path = os.path.join(out, "study.json")
    write_json(study_path, {
        "format": STUDY_FORMAT,
        "version": __version__,
        "seed": params.seed,
        "scenario_sha256": scenario.sha256,
        "repeats": args.repeats,
        "rows": rows,
    })
    for row in rows:
        print(f"budget {row['budget']}: {row['successes']}/{row['repeats']} solved")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="reachrrt",
        description="kinodynamic RRT over particle reachable sets")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="plan on a scenario")
    _add_common(p_run)
    p_run.add_argument("--max-iters", type=int, default=None)
    p_run.add_argument("--particles", type=int, default=None)
    p_run.add_argument("--epsilon", type=float, default=None)
    p_run.add_argument("--zeta", type=float, default=None)
    p_run.add_argument("--tau-max", type=float, default=None)
    p_run.add_argument("--baseline-padding", type=float, default=None,
                       help="plan with a single padded nominal instead of particles")
    p_run.set_defaults(fn=cmd_run)

    p_val = sub.add_parser("validate", help="Monte-Carlo validate a plan")
    _add_common(p_val)
    p_val.add_argument("--plan", required=True, help="plan JSON file")
    p_val.add_argument("--rollouts", type=int, default=None)
    p_val.set_defaults(fn=cmd_validate)

    p_study = sub.add_parser("study", help="success rate vs iteration budget")
    _add_common(p_study)
    p_study.add_argument("--budgets", default="500,2000,8000",
                         help="comma-separated iteration budgets")
    p_study.add_argument("--repeats", type=int, default=10)
    p_study.add_argument("--max-iters", type=int, default=None)
    p_study.add_argument("--particles", type=int, default=None)
    p_study.add_argument("--epsilon", type=float, default=None)
    p_study.add_argument("--zeta", type=float, default=None)
    p_study.add_argument("--tau-max", type=float, default=None)
    p_study.set_defaults(fn=cmd_study)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 1


if __name__ == "__main__":
    raise SystemExit(main())
