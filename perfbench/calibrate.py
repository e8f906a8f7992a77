"""Host-speed calibration for the benchmark.

The benchmark runs on a shared host whose speed drifts by 10-30 % (more on a
busy host) for tens of seconds at a time, in CPU time as much as in wall
time.  The timings of `reachrrt` commands move with it, so a run's medians
depend on when the run happened.  To take that drift out, a fixed
kernel that does not touch the package runs before the first command of
every pass and after each command, and each command time is divided by the
median of the pass's speed factors:

    factor = mean over the kernel's parts of (part seconds / REFERENCE_S)

A factor of 1 is the speed at which REFERENCE_S was measured (the host
described in README.md), so a scaled time reads as seconds at that speed.

The kernel has three parts, one for each kind of work in the package: an
interpreter-bound loop (the planner's bookkeeping), a loop over 100-row
arrays (the planner's particle batches) and a loop over 10 000-row arrays
(Monte-Carlo validation batches).

    python3 perfbench/calibrate.py     # print part medians on this host
"""

import statistics
import time

import numpy as np

# median seconds of each part on the reference host
REFERENCE_S = (0.0250, 0.0260, 0.0220)

_SMALL = np.random.default_rng(0).standard_normal((100, 4))
_WIDE = np.random.default_rng(1).standard_normal((10_000, 4))


def _interpreter():
    table = {}
    acc = 0.0
    for i in range(100_000):
        k = i % 251
        table[k] = table.get(k, 0.0) + i * 0.5
        acc += table[k] * 1e-9
    return acc


def _small_arrays():
    x = _SMALL
    acc = 0.0
    for _ in range(2_000):
        x = x * 0.999 + np.sin(x) * 0.001
        acc += float(x[:, 0].max())
    return acc


def _wide_arrays():
    y = _WIDE
    for _ in range(24):
        y = y * 0.999 + np.sin(y) * 0.001
    return float(y.sum())


PARTS = (_interpreter, _small_arrays, _wide_arrays)


def part_seconds():
    """Seconds of each kernel part, run once."""
    out = []
    for part in PARTS:
        t0 = time.perf_counter()
        part()
        out.append(time.perf_counter() - t0)
    return out


def speed_factor():
    """Run the kernel once; the host's slowness relative to the reference
    (2.0: everything takes twice as long as on the reference host)."""
    return statistics.fmean(s / ref for s, ref in zip(part_seconds(), REFERENCE_S))


def main():
    samples = [part_seconds() for _ in range(200)]
    medians = [statistics.median(col) for col in zip(*samples)]
    print("part medians (s):", ", ".join(f"{m:.4f}" for m in medians))
    print("speed factor vs REFERENCE_S:",
          statistics.fmean(m / ref for m, ref in zip(medians, REFERENCE_S)))


if __name__ == "__main__":
    main()
