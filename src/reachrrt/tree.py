"""Search tree over reachable sets.

Every node stores a full particle set; nearest-neighbor queries run against
the nominal representatives only, as one vectorized scan over the scaled
nominals (ties to the lowest node id).
"""

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class PlanStep:
    """Segment from parent to child: commanded control held for tau."""

    u: tuple
    tau: float
    ext_id: int
    node_id: int
    mode: int | None = None   # commanded mode, hybrid systems only


@dataclass
class Node:
    parent: int | None
    reach: object              # ParticleSet
    step: PlanStep | None      # the plan step that reaches this node; None at the root


@dataclass(frozen=True)
class Plan:
    """Solved path: controls plus everything needed for exact replay."""

    steps: tuple
    seed: int
    system: str
    solved_node: int
    meta: dict = field(default_factory=dict)
    scenario_sha256: str | None = None   # of the scenario a loaded plan was made for

    def __len__(self):
        return len(self.steps)


class DualTree:
    """Tree of reachable sets with exact nearest-nominal queries.

    `weights` scales state coordinates before distances are taken, which is
    how position and velocity units are traded off; with no weights the
    metric is plain Euclidean on the full state.
    """

    def __init__(self, root_reach, weights=None):
        dim = root_reach.nominal.shape[0]
        self.weights = None if weights is None else np.asarray(weights, dtype=float)
        if self.weights is not None and self.weights.shape != (dim,):
            raise ValueError("weights must match the state dimension")
        self.nodes = []
        self._scaled = np.empty((16, dim))
        self.add_node(None, root_reach, None)

    def __len__(self):
        return len(self.nodes)

    def _scale(self, x):
        x = np.asarray(x, dtype=float)
        return x if self.weights is None else x * self.weights

    def add_node(self, parent_id, reach, step):
        if parent_id is not None and not (0 <= parent_id < len(self.nodes)):
            raise ValueError(f"parent {parent_id} not in tree")
        nid = len(self.nodes)
        node = Node(parent=parent_id, reach=reach, step=step)
        self.nodes.append(node)
        if nid >= len(self._scaled):
            grown = np.empty((2 * len(self._scaled), self._scaled.shape[1]))
            grown[:nid] = self._scaled[:nid]
            self._scaled = grown
        self._scaled[nid] = self._scale(reach.nominal)
        return nid

    def _dists(self, x):
        d = self._scaled[:len(self.nodes)] - self._scale(x)[None, :]
        return np.sqrt((d * d).sum(axis=1))

    def nearest_nominal(self, x):
        """Nearest node by scaled Euclidean distance; ties take the lowest id."""
        dists = self._dists(x)
        best_id = int(np.argmin(dists))
        return best_id, float(dists[best_id])

    def range_nominal(self, x, radius):
        """Ids of nodes within the closed scaled ball, ascending."""
        return [int(i) for i in np.flatnonzero(self._dists(x) <= radius)]


def build_path(tree, leaf_id, seed, system_name, meta=None):
    """Assemble the root-to-leaf plan.

    Steps carry node ids and extension ids, so a replay can re-derive the
    exact disturbance streams of the original growth.
    """
    chain = []
    nid = leaf_id
    while nid is not None:
        node = tree.nodes[nid]
        chain.append(node)
        nid = node.parent
    chain.reverse()
    return Plan(
        steps=tuple(node.step for node in chain[1:]),
        seed=int(seed),
        system=system_name,
        solved_node=int(leaf_id),
        meta=dict(meta or {}),
    )
