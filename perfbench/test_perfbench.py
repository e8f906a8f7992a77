"""Checks of the benchmark itself.

    python3 -m pytest perfbench -q

The tracer must leave the package exactly as it found it, traced and
calibrated passes must write the same bytes as plain ones, traced passes
must repeat every count exactly, BENCHMARK.json must list what run.py
prints, and the benchmark must refuse to run without the package sources.
"""

import inspect
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402


def _package_state():
    """Every function object reachable as a module or class attribute of the
    package, by (owner, name)."""
    import reachrrt.cli  # noqa: F401  (loads every module)

    state = {}
    for key, mod in sorted(sys.modules.items()):
        if mod is None or not (key == "reachrrt" or key.startswith("reachrrt.")):
            continue
        for name, value in vars(mod).items():
            if inspect.isfunction(value):
                state[(key, name)] = value
            elif inspect.isclass(value) and value.__module__.startswith("reachrrt"):
                for attr, member in vars(value).items():
                    state[(key, f"{name}.{attr}")] = member
    return state


def test_tracer_patches_every_reference_and_restores_them():
    from reachrrt import cli, planner, reachability, validation
    from reachrrt.benchmarks import Linear1D

    before = _package_state()
    original_plan = planner.plan
    tr = tracer_mod.Tracer()
    with tr:
        # names imported into other modules are patched too
        assert cli.run_plan is not original_plan
        assert validation.run_plan is planner.plan
        assert planner.compute_reach_set is reachability.compute_reach_set
        assert "step_batch" in vars(Linear1D)
    assert _package_state() == before
    assert "step_batch" not in vars(Linear1D)


def _traced_pass(workload, out, tr):
    tr.reset()
    rec = run.run_pass(workload, 1, out, tracer=tr)
    assert rec["failures"] == []
    s = tr.summary()
    return rec, dict(s["calls"]), dict(tr.counts)


def test_traced_passes_repeat_counts_and_match_untraced_bytes(tmp_path):
    # a short jumper pass covers the hybrid path, the clearance code and the
    # kd-tree; a short corridor study covers the obstacle-free path
    cases = [
        ("jumper-vault", replace(run.WORKLOADS["jumper-vault"],
                                 run_args=("--max-iters", "150"),
                                 study_args=("--budgets", "20", "--repeats", "1"))),
        ("corridor-study", replace(run.WORKLOADS["corridor-study"],
                                   study_args=("--budgets", "50", "--repeats", "3"))),
    ]
    tr = tracer_mod.Tracer()
    calls = {}
    for name, workload in cases:
        ref = run.run_pass(workload, 1, tmp_path / name / "ref")
        assert ref["failures"] == []
        a, calls_a, counts_a = _traced_pass(workload, tmp_path / name / "a", tr)
        b, calls_b, counts_b = _traced_pass(workload, tmp_path / name / "b", tr)
        assert calls_a == calls_b
        assert counts_a == counts_b
        assert a["hashes"] == ref["hashes"] == b["hashes"]
        assert counts_a["dynamics.particle_substeps"] > 0
        calls[name] = calls_a
    assert calls["jumper-vault"]["planner.plan"] == 2
    assert calls["corridor-study"]["planner.plan"] == 4
    for span in ("geometry.hull_obstacle_clearance", "dynamics.reachable_modes",
                 "planner.extend_hybrid"):
        assert calls["jumper-vault"][span] > 0
        assert calls["corridor-study"].get(span, 0) == 0


def test_calibrated_pass_writes_the_same_bytes(tmp_path):
    workload = replace(run.WORKLOADS["corridor-study"],
                       study_args=("--budgets", "50", "--repeats", "2"))
    plain = run.run_pass(workload, 1, tmp_path / "plain")
    calibrated = run.run_pass(workload, 1, tmp_path / "calibrated", calibrate=True)
    assert plain["failures"] == calibrated["failures"] == []
    assert plain["hashes"] == calibrated["hashes"]
    assert "factor" not in plain
    assert 0.0 < calibrated["factor"] < 100.0


def test_self_times_sum_to_traced_interval():
    tr = tracer_mod.Tracer()
    tr.spans = [("a", -1, 0.0, 10.0, 6.0), ("b", 0, 1.0, 5.0, 0.0),
                ("c", 0, 5.0, 7.0, 0.0)]
    s = tr.summary()
    assert s["self_s"] == {"a": 4.0, "b": 4.0, "c": 2.0}
    assert s["top_level_s"] == 10.0


def test_benchmark_json_lists_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        run.per_layer_metrics()
    assert spec["paths"] == ["perfbench"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corridor-study",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
