#!/usr/bin/env python3
"""reachrrt benchmark: one workload in one fresh process.

    python3 perfbench/run.py --workload quadrotor-gate --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`, nothing is installed.  BLAS/OpenMP pools are pinned to one thread
and the planner keeps its default single worker, so the numbers measure the
planner rather than the scheduler.

A pass is one `reachrrt run`, one `reachrrt validate` and one
`reachrrt study` on the workload's scenario, each an in-process
`cli.main([...])` call; a command shorter than MIN_COMMAND_S is called
again within the pass.  Passes repeat for about `--seconds` (at least one),
and each timing is the median over passes.

The planning queries keep the scenario's own planner seed, so every pass
makes the same decisions and the sha256 of `plan.json`/`stats.json` is a
fingerprint comparable between commits.  `--seed` draws the Monte-Carlo
validation inputs (the scenario's validation seed when omitted).

`--trace 0` prints the end-to-end metrics.  `--trace 1` alternates
untraced passes (the first is the byte reference) with traced passes that
wrap the package's layer functions (see tracer.py), and prints the
per-layer metrics.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  Any failed operation makes the exit
code 1.  Outputs and per-run records go under `.perfbench_out/`.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from calibrate import speed_factor
from tracer import LAYER_OF, LAYERS, SPAN_NAMES, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BASELINE = BENCH_DIR / "baseline.json"

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 7
# In untraced passes a command is called again until its calls add up to
# this long, and the pass keeps the median call: millisecond commands
# (corridor run and validate, jumper validate) get enough samples.
MIN_COMMAND_S = 0.5


@dataclass(frozen=True)
class Workload:
    scenario: str            # relative to the checkout root
    run_args: tuple          # extra `reachrrt run` flags
    run_exit: int            # expected `reachrrt run` exit code
    validate_plan: str | None  # stored plan to validate; None: the run's own plan
    validate_args: tuple
    study_args: tuple


WORKLOADS = {
    "quadrotor-gate": Workload(
        scenario="scenarios/quadrotor.json",
        # the planner is prefix-deterministic: this is exactly the first 10
        # iterations of the 297-iteration seed-0 solve (about 19 s in full)
        run_args=("--max-iters", "10"), run_exit=2,
        validate_plan="perfbench/data/quadrotor-gate.plan.json",
        validate_args=("--rollouts", "10000"),
        study_args=("--budgets", "5", "--repeats", "1")),
    "jumper-vault": Workload(
        scenario="scenarios/jumper.json",
        # the first 160 iterations of the 2991-iteration seed-0 solve
        # (about 66 s in full); the tree passes the kd-tree threshold at 150
        run_args=("--max-iters", "160"), run_exit=2,
        validate_plan="perfbench/data/jumper-vault.plan.json", validate_args=(),
        study_args=("--budgets", "20", "--repeats", "1")),
    "corridor-study": Workload(
        scenario="scenarios/corridor.json",
        run_args=(), run_exit=0,
        validate_plan=None, validate_args=("--rollouts", "5000"),
        study_args=("--budgets", "500,2000,8000", "--repeats", "5")),
}

# (name, unit, better) of the end-to-end metrics, printed with --trace 0
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("plan_iters_per_s", "1/s", "higher"),
    ("plan_iterations", "count", "lower"),
    ("validate_s", "s", "lower"),
    ("study_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

# Spans whose self time is a per-layer metric.  Each is called on every
# workload; the spans left out (clearance, mode probing, the nominal gate,
# the Lipschitz block, range queries, build_path) have no calls on some
# workload, so their self time there is exactly 0.  Their calls are
# per-layer metrics, their self time is in result.json, and the layer
# totals include it.
SELF_TIMED = [
    "geometry.convex_hull_2d",
    "reachability.padded_collision_free",
    "reachability.compute_reach_set",
    "reachability.padded_goal_contained",
    "reachability.init_particles",
    "dynamics.rollout_batch",
    "dynamics.resolve_control",
    "benchmarks.step",
    "planner.plan",
    "planner.sample_node",
    "rng.substream",
    "tree.DualTree.nearest_nominal",
    "tree.DualTree.add_node",
    "validation.monte_carlo_validate",
    "validation.success_rate_study",
    "svg.render_svg",
    "scenario.write_json",
    "scenario.load_scenario",
]

# counts recorded by the tracer's result hooks: (name, better)
TRACE_COUNTS = [
    ("geometry.convex_hull_2d.points", "lower"),
    ("geometry.convex_hull_2d.collision.calls", "lower"),
    ("geometry.convex_hull_2d.collision.points", "lower"),
    ("geometry.convex_hull_2d.reach.calls", "lower"),
    ("geometry.convex_hull_2d.reach.points", "lower"),
    ("dynamics.particle_substeps", "lower"),
    ("planner.iterations", "lower"),
    ("planner.nodes_added", "higher"),
    ("planner.rejected_collision", "lower"),
    ("planner.rejected_mode", "lower"),
    ("planner.rejected_divergence", "lower"),
    ("tree.nodes", "higher"),
]


def per_layer_metrics():
    """(name, unit, better) of every metric printed with --trace 1."""
    out = [(f"{name}.calls", "count", "lower") for name in SPAN_NAMES]
    out += [(f"{name}.self_s", "s", "lower") for name in SELF_TIMED]
    out += [(f"layer.{layer}.self_s", "s", "lower") for layer in LAYERS]
    out += [(name, "count", better) for name, better in TRACE_COUNTS]
    out += [
        ("reachability.padded_collision_free.reject_ratio", "frac", "lower"),
        ("planner.accept_ratio", "frac", "higher"),
        ("validation.mc_violation_frac", "frac", "lower"),
        ("validation.study_solve_rate", "frac", "higher"),
        ("trace.overhead_frac", "frac", "lower"),
        ("trace.unattributed_frac", "frac", "lower"),
    ]
    return out


class BenchError(Exception):
    """The benchmark cannot run here (a set-up process failed)."""


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _hash_dir(d):
    return {p.name: _sha256(p) for p in sorted(Path(d).iterdir()) if p.is_file()}


def source_digest(workload):
    """Digest of the package sources, the workload's input files and its
    command arguments: runs with equal digests must write byte-identical
    decision files."""
    h = hashlib.sha256(repr(workload).encode())
    files = sorted(SRC.rglob("*.py"))
    files.append(ROOT / workload.scenario)
    if workload.validate_plan:
        files.append(ROOT / workload.validate_plan)
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()[:16]


def machine_context():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "loadavg": list(os.getloadavg()),
    }


SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import reachrrt.cli
from reachrrt.scenario import load_scenario
load_scenario(sys.argv[2]).build_system()
print(repr(time.perf_counter() - t0))
"""


def measure_setup(workload):
    """Fresh-process seconds for importing the CLI, loading the scenario and
    building the system: the median of SETUP_REPEATS processes, scaled by
    the host's median speed factor over the set-up phase, and the unscaled
    samples."""
    samples = []
    factors = [speed_factor()]
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(ROOT / workload.scenario)],
            cwd=ROOT, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"set-up process failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
        factors.append(speed_factor())
    return statistics.median(samples) / statistics.median(factors), samples


class PlanClock:
    """Times the `reachrrt run` planner call (the CLI's `run_plan`)."""

    def __init__(self, cli):
        self.cli = cli
        self.iterations = None
        self.seconds = None

    def __enter__(self):
        self._orig = original = self.cli.run_plan

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            result = original(*args, **kwargs)
            self.seconds = time.perf_counter() - t0
            self.iterations = result.stats.iterations
            return result

        self.cli.run_plan = timed
        return self

    def __exit__(self, *exc):
        self.cli.run_plan = self._orig
        return False


def run_pass(workload, seed, out_dir, tracer=None, min_command_s=0.0, calibrate=False):
    """One run/validate/study pass; returns its samples and failures.  With
    `calibrate`, the host's speed factor is measured before the first
    command and after each one, and `factor` is the median of the four."""
    from reachrrt import cli

    out_dir.mkdir(parents=True)
    scenario = str(ROOT / workload.scenario)
    d = str(out_dir)
    plan = str(ROOT / workload.validate_plan) if workload.validate_plan else str(out_dir / "plan.json")
    commands = [
        ("run", ["run", "--scenario", scenario, "--out-dir", d, *workload.run_args],
         workload.run_exit),
        ("validate", ["validate", "--scenario", scenario, "--plan", plan, "--out-dir", d,
                      "--seed", str(seed), *workload.validate_args], 0),
        ("study", ["study", "--scenario", scenario, "--out-dir", d, *workload.study_args], 0),
    ]
    rec = {"failures": [], "attempted": 0}
    factors = [speed_factor()] if calibrate else []
    for cmd, argv, expect in commands:
        calls = []   # (seconds, seconds inside the planner)
        while True:
            rec["attempted"] += 1
            clock = PlanClock(cli)
            with contextlib.ExitStack() as stack:
                if tracer is not None:
                    stack.enter_context(tracer)
                stack.enter_context(clock)
                stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
                t0 = time.perf_counter()
                try:
                    rc = cli.main(argv)
                except Exception:
                    rc = None
                    rec["failures"].append((cmd, f"exception\n{traceback.format_exc()}"))
                calls.append((time.perf_counter() - t0, clock.seconds))
            if rc != expect or sum(c[0] for c in calls) >= min_command_s:
                break
        rec[f"{cmd}_s"] = statistics.median(c[0] for c in calls)
        if calibrate:
            factors.append(speed_factor())
        if rc is None:
            continue
        if rc != expect:
            rec["failures"].append((cmd, f"exit code {rc}, expected {expect}"))
            continue
        if cmd == "run":
            rec["plan_iterations"] = clock.iterations
            rec["plan_s"] = statistics.median(c[1] for c in calls)
        elif cmd == "validate":
            report = json.loads((out_dir / "report.json").read_text())
            bad = report["collisions"] + report["goal_misses"]
            rec["mc_violation_frac"] = bad / report["rollouts"]
            if bad:
                rec["failures"].append(
                    (cmd, f"{report['collisions']} collisions and {report['goal_misses']} "
                          f"goal misses in {report['rollouts']} rollouts"))
        else:
            rows = json.loads((out_dir / "study.json").read_text())["rows"]
            rec["study_solve_rate"] = (sum(r["successes"] for r in rows)
                                       / sum(r["repeats"] for r in rows))
    if calibrate:
        rec["factor"] = statistics.median(factors)
    rec["hashes"] = _hash_dir(out_dir)
    return rec


def replay_check(workload, out_dir):
    """The validated plan must pass exact replay against the unpadded
    constraints (every correctly produced plan does)."""
    from reachrrt.scenario import load_plan, load_scenario
    from reachrrt.validation import replay_validate

    plan_path = ROOT / workload.validate_plan if workload.validate_plan else out_dir / "plan.json"
    if not plan_path.is_file():
        return [("run", "no plan to replay")]
    sc = load_scenario(str(ROOT / workload.scenario))
    ok = replay_validate(sc.build_system(), load_plan(str(plan_path)), sc.init_region,
                         sc.goal, sc.obstacles)
    return [] if ok else [("run", f"{plan_path.name} fails replay_validate")]


# the command that writes each output file
FILE_COMMAND = {"plan.json": "run", "stats.json": "run", "tree.svg": "run",
                "report.json": "validate", "study.json": "study"}


def compare_hashes(label, want, got, skip=()):
    diffs = sorted(k for k in set(want) | set(got)
                   if k not in skip and want.get(k) != got.get(k))
    return [(FILE_COMMAND.get(k, "run"), f"{k} differs from {label}") for k in diffs]


# report.json depends on --seed; every other output depends only on the
# sources and the scenario
SEED_DEPENDENT = ("report.json",)


def cross_run_check(name, workload, hashes):
    """Byte-compare this run's decision files with earlier runs of the same
    workload on the same sources in this checkout."""
    path = OUT / "fingerprints" / f"{name}-{source_digest(workload)}.json"
    mine = {k: v for k, v in hashes.items() if k not in SEED_DEPENDENT}
    if path.is_file():
        return compare_hashes("earlier run in this checkout", json.loads(path.read_text()), mine)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(mine, indent=1, sort_keys=True) + "\n")
    tmp.replace(path)
    return []


def baseline_note(name, hashes):
    try:
        base = json.loads(BASELINE.read_text())["workloads"][name]["fingerprint"]
    except (OSError, KeyError, ValueError):
        return "no recorded baseline"
    diff = compare_hashes("the recorded baseline", base, hashes, skip=SEED_DEPENDENT)
    return "; ".join(msg for _, msg in diff) or "matches the recorded baseline"


def _median(passes, key):
    vals = [p[key] for p in passes if p.get(key) is not None]
    return statistics.median(vals) if vals else None


def _loop(deadline_s, one_pass):
    """Call one_pass(0), one_pass(1), ... until another pass would end past
    the deadline; at least one."""
    start = time.perf_counter()
    passes = [one_pass(0)]
    durations = [time.perf_counter() - start]
    while True:
        t0 = time.perf_counter()
        elapsed = t0 - start
        if elapsed + statistics.median(durations) > deadline_s:
            return passes
        passes.append(one_pass(len(passes)))
        durations.append(time.perf_counter() - t0)


def bench_untraced(name, workload, seed, seconds, out):
    setup_s, setup_samples = measure_setup(workload)
    passes = _loop(seconds, lambda k: run_pass(workload, seed, out / f"pass{k}",
                                               min_command_s=MIN_COMMAND_S, calibrate=True))
    failures = []
    first = passes[0]
    for k, p in enumerate(passes):
        found = list(p["failures"])
        if k == 0 and not found:
            found += replay_check(workload, out / "pass0")
            found += cross_run_check(name, workload, first["hashes"])
        if k > 0:
            found += compare_hashes("pass 0", first["hashes"], p["hashes"])
            if p.get("plan_iterations") != first.get("plan_iterations"):
                found.append(("run", "plan iterations differ from pass 0"))
        failures += [(k, cmd, msg) for cmd, msg in found]

    def scaled(key):
        vals = [p[key] / p["factor"] for p in passes if p.get(key) is not None]
        return statistics.median(vals) if vals else None

    plan_s = scaled("plan_s")
    iterations = first.get("plan_iterations")
    metrics = {
        "setup_s": setup_s,
        "run_s": scaled("run_s"),
        "plan_iters_per_s": iterations / plan_s if plan_s and iterations else None,
        "plan_iterations": iterations,
        "validate_s": scaled("validate_s"),
        "study_s": scaled("study_s"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    units = {n: u for n, u, _ in END_TO_END}
    extra = {
        "mc_violation_frac": max((p["mc_violation_frac"] for p in passes
                                  if "mc_violation_frac" in p), default=None),
        "study_solve_rate": _median(passes, "study_solve_rate"),
        "passes": len(passes),
        "setup_samples_s": setup_samples,
        # medians of the unscaled command times
        "wall_s": {k: _median(passes, k) for k in ("run_s", "plan_s", "validate_s", "study_s")},
        "speed_factor": statistics.median(p["factor"] for p in passes),
        "samples": [{k: v for k, v in p.items()
                     if k.endswith("_s") or k in ("factor", "plan_iterations")}
                    for p in passes],
    }
    attempted = sum(p["attempted"] for p in passes)
    return metrics, units, extra, first["hashes"], attempted, failures


def bench_traced(name, workload, seed, seconds, out):
    tracer = Tracer()
    summaries = []
    counts = []
    failures = []

    def one_pass(k):
        # even passes untraced (pass 0 is the byte reference), odd ones traced
        if k % 2 == 0:
            return run_pass(workload, seed, out / f"untraced{k}")
        tracer.reset()
        rec = run_pass(workload, seed, out / f"traced{k}", tracer=tracer)
        s = tracer.summary()
        summaries.append(s)
        counts.append((dict(s["calls"]), dict(tracer.counts)))
        return rec

    passes = _loop(seconds, one_pass)
    if len(passes) == 1:
        passes.append(one_pass(1))
    reference = passes[0]
    traced_passes = passes[1::2]
    # pass 0 also warms up, so it is the untraced timing only when alone
    untraced_passes = passes[2::2] or [reference]
    for k, p in enumerate(passes):
        found = list(p["failures"])
        if k == 0 and not found:
            found += replay_check(workload, out / "untraced0")
        if k > 0:
            found += compare_hashes("the untraced reference", reference["hashes"], p["hashes"])
        if k % 2 == 1 and counts[k // 2] != counts[0]:
            found.append(("run", "counts differ from traced pass 1"))
        failures += [(k, cmd, msg) for cmd, msg in found]

    calls, hooked = counts[0]

    def med_self(names):
        return statistics.median(sum(s["self_s"].get(n, 0.0) for n in names)
                                 for s in summaries)

    metrics = {f"{n}.calls": calls.get(n, 0) for n in SPAN_NAMES}
    metrics.update({f"{n}.self_s": med_self([n]) for n in SELF_TIMED})
    for layer in LAYERS:
        names = [n for n in SPAN_NAMES if LAYER_OF[n.split(".")[0]] == layer]
        metrics[f"layer.{layer}.self_s"] = med_self(names)
    metrics.update({n: hooked.get(n, 0) for n, _ in TRACE_COUNTS})
    pcf = calls.get("reachability.padded_collision_free", 0)
    rejects = hooked.get("reachability.padded_collision_free.rejects", 0)
    it = hooked.get("planner.iterations", 0)
    mc = hooked.get("validation.mc_rollouts", 0)
    plans = hooked.get("validation.study_plans", 0)
    wall = [p["run_s"] + p["validate_s"] + p["study_s"] for p in traced_passes]
    unattributed = [(w - s["top_level_s"]) / w for w, s in zip(wall, summaries)]
    metrics.update({
        "reachability.padded_collision_free.reject_ratio": rejects / pcf if pcf else 0.0,
        "planner.accept_ratio": hooked.get("planner.nodes_added", 0) / it if it else 0.0,
        "validation.mc_violation_frac": hooked.get("validation.mc_violations", 0) / mc if mc else 0.0,
        "validation.study_solve_rate":
            hooked.get("validation.study_successes", 0) / plans if plans else 0.0,
        "trace.overhead_frac":
            _median(traced_passes, "run_s") / _median(untraced_passes, "run_s") - 1.0,
        "trace.unattributed_frac": statistics.median(unattributed),
    })
    units = {n: u for n, u, _ in per_layer_metrics()}

    last = summaries[-1]
    spans_path = out / "spans.jsonl"
    with open(spans_path, "w") as f:
        for span in tracer.spans:
            f.write(json.dumps(span) + "\n")
    extra = {
        "passes": len(traced_passes),
        "untraced_run_s": [p["run_s"] for p in untraced_passes],
        "traced_run_s": [p["run_s"] for p in traced_passes],
        "spans_file": str(spans_path.relative_to(ROOT)),
        "span_self_s": {n: med_self([n]) for n in SPAN_NAMES},
        "span_total_s": dict(last["total_s"]),
        "hook_counts": dict(hooked),
    }
    attempted = sum(p["attempted"] for p in passes)
    return metrics, units, extra, reference["hashes"], attempted, failures


def parse_args(argv):
    p = argparse.ArgumentParser(description="reachrrt benchmark (one workload)")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=None,
                   help="Monte-Carlo validation seed (default: the scenario's)")
    p.add_argument("--seconds", type=int, default=35, help="measuring time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if args.seed is not None and args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def main(argv=None):
    args = parse_args(argv)
    name = args.workload
    workload = WORKLOADS[name]
    for path in (SRC / "reachrrt" / "__init__.py", ROOT / workload.scenario,
                 *([ROOT / workload.validate_plan] if workload.validate_plan else [])):
        if not path.is_file():
            print(f"perfbench: {path} not found; run from the root of a reachrrt "
                  f"source checkout", file=sys.stderr)
            return 2
    for key in THREAD_ENV:
        os.environ[key] = "1"
    sys.path.insert(0, str(SRC))
    import reachrrt.cli  # noqa: F401  (imported here, outside every timed pass)
    if args.seed is None:
        args.seed = json.loads((ROOT / workload.scenario).read_text())["validation"]["seed"]

    context = machine_context()
    out = OUT / name / f"trace{args.trace}-seed{args.seed}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    bench = bench_traced if args.trace else bench_untraced
    try:
        metrics, units, extra, hashes, attempted, failures = bench(
            name, workload, args.seed, args.seconds, out)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    failed = len({(k, cmd) for k, cmd, _ in failures})
    print(f"workload {name}  seed {args.seed}  trace {args.trace}  "
          f"passes {extra['passes']}")
    print("machine " + json.dumps(context, sort_keys=True))
    for fname in sorted(hashes):
        print(f"sha256 {fname} {hashes[fname]}")
    print(f"fingerprint {baseline_note(name, hashes)}")
    for mname in sorted(metrics) if args.trace else [n for n, _, _ in END_TO_END]:
        print(f"{mname} {metrics[mname]!r} {units[mname]}")
    if not args.trace:
        print(f"mc_violation_frac {extra['mc_violation_frac']!r} frac")
        print(f"study_solve_rate {extra['study_solve_rate']!r} frac")
        print(f"failed_frac {failed / attempted!r} frac")
        print(f"speed_factor {extra['speed_factor']!r} (host slowness vs calibrate.REFERENCE_S)")
        for key, value in extra["wall_s"].items():
            print(f"unscaled {key} {value!r} s")
    for k, cmd, msg in failures:
        print(f"FAILED pass {k} {cmd}: {msg}", file=sys.stderr)

    correct = failed == 0 and all(v is not None for v in metrics.values())
    record = {"workload": name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "machine": context, "hashes": hashes,
              "correct": correct, "attempted": attempted, "failed": failed,
              "failures": [list(f) for f in failures], "metrics": metrics, "units": units, **extra}
    (out / "result.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in sorted(metrics)},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
