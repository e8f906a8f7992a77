"""RRT over particle-approximated reachable sets.

The planner grows a tree whose nodes are reachable sets of a system with
bounded parametric and disturbance uncertainty, approximated by forward
rollouts of particles.  Hybrid (mode-switching) dynamics are supported, and
plans can be re-validated with fresh Monte-Carlo rollouts against the
unpadded constraints.
"""

__version__ = "0.1.0"

from .dynamics import UncertaintyBounds
from .geometry import Ball, Box, GoalRegion, convex_hull_2d
from .benchmarks import make_benchmark
from .planner import PlannerParams, plan
from .validation import monte_carlo_validate

__all__ = [
    "Box",
    "Ball",
    "UncertaintyBounds",
    "GoalRegion",
    "convex_hull_2d",
    "make_benchmark",
    "PlannerParams",
    "plan",
    "monte_carlo_validate",
    "__version__",
]
