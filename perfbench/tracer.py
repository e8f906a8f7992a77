"""In-memory span tracer for the benchmark's traced run.

Every traced callable is replaced by a timing wrapper in each `reachrrt`
module namespace that holds it (a function imported by name, such as
`planner.compute_reach_set`, is a second reference that must be patched as
well) or, for methods, on the class that defines the attribute.  The
wrappers run only between `install()` and `restore()`; restore puts back
the exact original objects.

A span records its name, its parent span, start and end.  Self time is the
span's duration minus the time covered by its direct child spans.  Counts
that a layer's result determines (points hulled, particle sub-steps,
rejections) are recorded by per-target hooks at the same boundary.
"""

import importlib
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "reachrrt"


def _hull_points(tr, args, kwargs, result):
    n = len(args[0])
    tr.count("geometry.convex_hull_2d.points", n)
    parent = tr.parent_name()
    if parent == "reachability.padded_collision_free":
        tr.count("geometry.convex_hull_2d.collision.calls")
        tr.count("geometry.convex_hull_2d.collision.points", n)
    elif parent == "reachability.compute_reach_set":
        tr.count("geometry.convex_hull_2d.reach.calls")
        tr.count("geometry.convex_hull_2d.reach.points", n)


def _collision_rejects(tr, args, kwargs, result):
    if not result:
        tr.count("reachability.padded_collision_free.rejects")


def _particle_substeps(tr, args, kwargs, result):
    tr.count("dynamics.particle_substeps", len(args[1]) * len(result.lengths))


def _plan_counters(tr, args, kwargs, result):
    s = result.stats
    tr.count("planner.iterations", s.iterations)
    tr.count("planner.nodes_added", s.nodes_added)
    tr.count("planner.rejected_collision", s.rejected_collision)
    tr.count("planner.rejected_mode", s.rejected_mode)
    tr.count("planner.rejected_divergence", s.rejected_divergence)
    tr.count("tree.nodes", len(result.tree))


def _mc_outcome(tr, args, kwargs, result):
    tr.count("validation.mc_rollouts", result.rollouts)
    tr.count("validation.mc_violations", result.collisions + result.goal_misses)


def _study_outcome(tr, args, kwargs, result):
    tr.count("validation.study_plans", sum(r["repeats"] for r in result))
    tr.count("validation.study_successes", sum(r["successes"] for r in result))


# (span name, module, attribute path, result hook).  An attribute path with a
# dot names a method; several targets may share one span name.
TARGETS = [
    ("geometry.hull_obstacle_clearance", "geometry", "hull_obstacle_clearance", None),
    ("geometry.points_obstacle_clearance", "geometry", "points_obstacle_clearance", None),
    ("geometry.convex_hull_2d", "geometry", "convex_hull_2d", _hull_points),
    ("reachability.padded_collision_free", "reachability", "padded_collision_free",
     _collision_rejects),
    ("reachability.compute_reach_set", "reachability", "compute_reach_set", None),
    ("reachability.padded_goal_contained", "reachability", "padded_goal_contained", None),
    ("reachability.init_particles", "reachability", "init_particles", None),
    ("dynamics.rollout_batch", "dynamics", "rollout_batch", _particle_substeps),
    ("dynamics.resolve_control", "dynamics", "System.resolve_control", None),
    ("dynamics.resolve_control", "dynamics", "FeedbackWrapped.resolve_control", None),
    ("dynamics.reachable_modes", "dynamics", "reachable_modes", None),
    ("dynamics.rollout", "dynamics", "rollout", None),
    ("benchmarks.step", "benchmarks", "Linear1D.step_batch", None),
    ("benchmarks.step", "benchmarks", "Quadrotor.step_batch", None),
    ("benchmarks.step", "benchmarks", "Jumper.hybrid_step_batch", None),
    ("planner.plan", "planner", "plan", _plan_counters),
    ("planner.sample_node", "planner", "sample_node", None),
    ("planner.extend_hybrid", "planner", "extend_hybrid", None),
    ("planner.sample_control_hybrid", "planner", "sample_control_hybrid", None),
    ("rng.substream", "rng", "substream", None),
    ("tree.DualTree.nearest_nominal", "tree", "DualTree.nearest_nominal", None),
    ("tree.DualTree.range_nominal", "tree", "DualTree.range_nominal", None),
    ("tree.DualTree.add_node", "tree", "DualTree.add_node", None),
    ("tree.build_path", "tree", "build_path", None),
    ("validation.monte_carlo_validate", "validation", "monte_carlo_validate", _mc_outcome),
    ("validation.success_rate_study", "validation", "success_rate_study", _study_outcome),
    ("validation.quadrotor_lipschitz_constant", "validation",
     "quadrotor_lipschitz_constant", None),
    ("svg.render_svg", "svg", "render_svg", None),
    ("scenario.write_json", "scenario", "write_json", None),
    ("scenario.load_scenario", "scenario", "load_scenario", None),
]

SPAN_NAMES = list(dict.fromkeys(name for name, _, _, _ in TARGETS))

# Module layers for the per-layer self-time totals; the I/O layer groups the
# scenario loader and writer with the SVG renderer.
LAYER_OF = {
    "geometry": "geometry", "reachability": "reachability",
    "dynamics": "dynamics", "benchmarks": "benchmarks", "planner": "planner",
    "rng": "rng", "tree": "tree", "validation": "validation",
    "scenario": "io", "svg": "io",
}
LAYERS = list(dict.fromkeys(LAYER_OF.values()))


class Tracer:
    """Collects spans and counts while installed.

    `spans` holds (name, parent index or -1, start, end, child seconds)
    tuples in call order; it stays in memory until the caller writes it out.
    """

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []       # [span index, name, start, child time]
        self._patches = []     # (owner, attribute, original, owned by owner)

    def count(self, name, n=1):
        self.counts[name] += n

    def parent_name(self):
        """Name of the span enclosing the innermost open span, or None."""
        return self._stack[-2][1] if len(self._stack) >= 2 else None

    def reset(self):
        self.spans = []
        self.counts = Counter()

    def _wrap(self, name, fn, hook):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            idx = len(tracer.spans)
            tracer.spans.append(None)
            frame = [idx, name, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(tracer, args, kwargs, result)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[3] += end - frame[2]
                tracer.spans[idx] = (name, -1 if parent is None else parent[0],
                                     frame[2], end, frame[3])

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for _, mod_name, _, _ in TARGETS:
            importlib.import_module(f"{PACKAGE}.{mod_name}")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for name, mod_name, path, hook in TARGETS:
            mod = sys.modules[f"{PACKAGE}.{mod_name}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name)
                owned = attr in vars(cls)
                original = vars(cls)[attr] if owned else getattr(cls, attr)
                self._patches.append((cls, attr, original, owned))
                setattr(cls, attr, self._wrap(name, original, hook))
                continue
            original = getattr(mod, path)
            wrapper = self._wrap(name, original, hook)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, key, original, True))
                        setattr(m, key, wrapper)

    def restore(self):
        for owner, attr, original, owned in reversed(self._patches):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches = []

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def summary(self):
        """Per span name: calls, total and self seconds; plus the time covered
        by top-level spans (the rest of a traced interval is unattributed)."""
        calls = Counter()
        total = defaultdict(float)
        self_s = defaultdict(float)
        top = 0.0
        for name, parent, start, end, child in self.spans:
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - child
            if parent < 0:
                top += end - start
        return {"calls": calls, "total_s": total, "self_s": self_s,
                "top_level_s": top}
