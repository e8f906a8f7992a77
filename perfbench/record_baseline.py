#!/usr/bin/env python3
"""Collect the runs under `.perfbench_out/` into `perfbench/baseline.json`.

    python3 perfbench/record_baseline.py

For each workload: the median and quartiles of every untraced metric over
its `--trace 0` runs (one per seed), the medians of their unscaled
command times and speed factors, the median of every per-layer metric
over its `--trace 1` runs, the decision fingerprint (sha256 of every output
file that does not depend on `--seed`) and the machine context of the
first run.  Only runs that passed their correctness checks count.
"""

import json
import statistics
import sys
from pathlib import Path

import run


def _results(name, trace):
    out = []
    for path in sorted((run.OUT / name).glob(f"trace{trace}-seed*/result.json")):
        rec = json.loads(path.read_text())
        if rec["correct"]:
            out.append(rec)
    return out


def _summary(records):
    table = {}
    for key in records[0]["metrics"]:
        vals = [r["metrics"][key] for r in records]
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [vals[0]] * 3
        table[key] = {"median": statistics.median(vals), "q1": q[0], "q3": q[2],
                      "unit": records[0]["units"][key]}
    return table


def main():
    workloads = {}
    for name in run.WORKLOADS:
        untraced, traced = _results(name, 0), _results(name, 1)
        if not untraced or not traced:
            print(f"record_baseline: need passing --trace 0 and --trace 1 runs of {name}",
                  file=sys.stderr)
            return 1
        workloads[name] = {
            "fingerprint": {k: v for k, v in untraced[0]["hashes"].items()
                            if k not in run.SEED_DEPENDENT},
            "seeds": [r["seed"] for r in untraced],
            "seconds": untraced[0]["seconds"],
            "machine": untraced[0]["machine"],
            "end_to_end": _summary(untraced),
            "unscaled_s": {k: statistics.median(r["wall_s"][k] for r in untraced)
                           for k in untraced[0]["wall_s"]},
            "speed_factor": statistics.median(r["speed_factor"] for r in untraced),
            "mc_violation_frac": max(r["mc_violation_frac"] for r in untraced),
            "study_solve_rate": statistics.median(r["study_solve_rate"] for r in untraced),
            "per_layer": _summary(traced),
            "span_self_s": {k: statistics.median(r["span_self_s"][k] for r in traced)
                            for k in traced[0]["span_self_s"]},
        }
    path = run.BENCH_DIR / "baseline.json"
    path.write_text(json.dumps({"workloads": workloads}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
