"""Command-line front end.

    reachrrt run      --scenario FILE [overrides]   grow a tree, write plan/stats/svg
    reachrrt validate --scenario FILE --plan FILE   Monte-Carlo validation report
    reachrrt study    --scenario FILE --budgets ... success rate per budget
    reachrrt compare  --scenario FILE --seeds N     robust planner vs padded baseline

Exit codes: 0 success (run: solved; validate: plan valid; study, compare:
finished), 2 honest negative (budget exhausted / plan invalid), 1 usage,
scenario or plan errors: a scenario or plan file that breaks a rule of
scenario.load_scenario, plan_from_dict or check_plan_fits is named as
FILE:LINE: message.  Output files are byte-deterministic for a given
scenario, seed, and flags; they embed the seeds, the scenario content
hash, and the tool version.
"""

import argparse
import os
import sys as _sys
from dataclasses import replace

from . import __version__
from .planner import ParamError, plan as run_plan, root_region
from .scenario import (
    ScenarioError,
    check_init_clearance,
    check_plan_fits,
    error_line,
    load_plan,
    load_scenario,
    plan_to_dict,
    planner_key,
    stats_to_dict,
    write_result,
)
from .svg import render_svg
from .validation import (
    compare_methods,
    lipschitz_stats,
    monte_carlo_validate,
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


def _refuse(path, error, what=""):
    """Exit 1 with a ScenarioError as `path:line: what message`."""
    print(f"{path}:{error_line(path, error.key)}: {what}{error}", file=_sys.stderr)
    raise SystemExit(1)


def _load(args):
    try:
        return load_scenario(args.scenario)
    except ScenarioError as e:
        _refuse(args.scenario, e)
    except OSError as e:
        print(f"{args.scenario}: {e.strerror or e}", file=_sys.stderr)
        raise SystemExit(1)


# command-line flag -> PlannerParams field
OVERRIDES = (("seed", "seed"), ("max_iters", "i_max"), ("particles", "n_particles"),
             ("epsilon", "epsilon"), ("zeta", "zeta"), ("tau_max", "tau_max"))


def _overridden_params(scenario, args):
    """The scenario's planner parameters with the flags' overrides; exit 1
    naming the flag, or else the file key, of a value validated refuses."""
    params, flags = scenario.params, {}  # field -> the flag that set it
    for flag, field in OVERRIDES:
        if getattr(args, flag, None) is not None:
            params = replace(params, **{field: getattr(args, flag)})
            flags[field] = "--" + flag.replace("_", "-")
    if getattr(args, "baseline_padding", None) is not None:
        params = params.as_baseline(args.baseline_padding)
        flags["epsilon"] = "--baseline-padding"
    try:
        params = params.validated(scenario.goal)
    except ParamError as e:
        print(f"invalid parameters: {flags.get(e.field, planner_key(e.field))} {e.rule}",
              file=_sys.stderr)
        raise SystemExit(1)
    _check_init(scenario, params)
    return params


def _check_init(scenario, params):
    """Exit 1 when the root set the planner would start from comes within
    the planning padding of an obstacle."""
    try:
        check_init_clearance(*root_region(scenario.init_region, params),
                             scenario.build_system().collision_projection,
                             scenario.obstacles)
    except ScenarioError as e:
        _refuse(scenario.path, e)


def cmd_run(args):
    scenario = _load(args)
    params = _overridden_params(scenario, args)
    sys = scenario.build_system()
    result = run_plan(sys, scenario.init_region, scenario.goal,
                      scenario.obstacles, scenario.sampling_box, params,
                      init_mode=scenario.init_mode)

    out = _out_dir(args)
    write_result(out, "stats.json", scenario.sha256, **stats_to_dict(result, params),
                 **lipschitz_stats(sys, scenario.sampling_box, params.h))
    with open(os.path.join(out, "tree.svg"), "w") as f:
        f.write(render_svg(result, sys, scenario.goal, scenario.obstacles,
                           scenario.sampling_box, params.epsilon, params.seed,
                           scenario.sha256))
    if result.plan is not None:
        plan_path = write_result(out, "plan.json", scenario.sha256,
                                 **plan_to_dict(result.plan))
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
    except ScenarioError as e:
        _refuse(args.plan, e, "cannot load plan: ")
    except OSError as e:
        print(f"{args.plan}: cannot load plan: {e.strerror or e}", file=_sys.stderr)
        return 1
    try:
        check_plan_fits(plan_obj, scenario, args.allow_scenario_mismatch)
    except ScenarioError as e:
        _refuse(args.plan, e)

    seed = args.seed if args.seed is not None else scenario.validation_seed
    rollouts = args.rollouts if args.rollouts is not None else scenario.validation_rollouts
    try:
        record = monte_carlo_validate(sys, plan_obj, scenario.init_region,
                                      scenario.goal, scenario.obstacles,
                                      rollouts, seed, init_mode=scenario.init_mode)
    except ParamError as e:  # a flag's value: the loader refused a bad file value
        print(f"invalid parameters: --{e.field} {e.rule}", file=_sys.stderr)
        return 1
    report_path = write_result(_out_dir(args), "report.json", scenario.sha256, seed=seed,
                               plan_seed=plan_obj.seed, **record.as_dict())
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
    try:
        rows = success_rate_study(sys, scenario.init_region, scenario.goal,
                                  scenario.obstacles, scenario.sampling_box, params,
                                  budgets, args.repeats, init_mode=scenario.init_mode)
    except ParamError as e:
        print(f"invalid parameters: --{e.field} {e.rule}", file=_sys.stderr)
        return 1
    write_result(_out_dir(args), "study.json", scenario.sha256, seed=params.seed,
                 repeats=args.repeats, rows=rows)
    for row in rows:
        print(f"budget {row['budget']}: {row['successes']}/{row['repeats']} solved")
    return 0


def cmd_compare(args):
    scenario = _load(args)
    params = _overridden_params(scenario, args)
    _check_init(scenario, params.as_baseline(scenario.baseline_padding))
    if args.seeds < 1:
        print("--seeds must be at least 1", file=_sys.stderr)
        return 1
    rows = compare_methods(scenario, range(params.seed, params.seed + args.seeds))
    compare_path = write_result(_out_dir(args), "compare.json", scenario.sha256, rows=rows)
    for row in rows:
        status = "valid" if row["valid"] else "INVALID" if row["solved"] else "UNSOLVED"
        print(f"{row['method']:9s} seed {row['seed']}: {status:8s} "
              f"iters={row['iterations']} coll={row['collisions']} "
              f"miss={row['goal_misses']} clear={row['worst_clearance']}")
    for method in ("reach-set", "baseline"):
        valid = [row["valid"] for row in rows if row["method"] == method]
        print(f"{method:9s} valid {sum(valid)}/{len(valid)}")
    print(f"rows -> {compare_path}")
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
    p_val.add_argument("--allow-scenario-mismatch", action="store_true",
                       help="validate a plan made for a different scenario file")
    p_val.set_defaults(fn=cmd_validate)

    p_study = sub.add_parser("study", help="success rate vs iteration budget")
    _add_common(p_study)
    p_study.add_argument("--budgets", default="500,2000,8000",
                         help="comma-separated iteration budgets")
    p_study.add_argument("--repeats", type=int, default=10)
    p_study.add_argument("--particles", type=int, default=None)
    p_study.add_argument("--epsilon", type=float, default=None)
    p_study.add_argument("--zeta", type=float, default=None)
    p_study.add_argument("--tau-max", type=float, default=None)
    p_study.set_defaults(fn=cmd_study)

    p_cmp = sub.add_parser("compare", help="robust planner vs padded baseline")
    _add_common(p_cmp)
    p_cmp.add_argument("--seeds", type=int, default=10,
                       help="number of seeds, counting up from the master seed")
    p_cmp.set_defaults(fn=cmd_compare)

    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on a usage error, but 2 is reserved for honest
        # negatives; --help and --version exit 0 through here
        if e.code == 2:
            return 1
        raise
    try:
        return args.fn(args)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 1


if __name__ == "__main__":
    raise SystemExit(main())
