"""Equidistant weights and monotone labelings on rooted trees.

The two carry the same data: w({u,v}) = (l(u) - l(v)) / 2 on each parent-child
edge pairs them bijectively, with K = l(root) / 2.  The factor 1/2 is fixed;
the max-label path identity on out-degree-zero vertices holds for no other
constant.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, Optional

from .errors import NotEquidistantError, NotMonotoneError
from .graphs import (Edge, Graph, RootedTree, Tree, Vertex, degree_sets, edge_key, normalize_labels,
                     normalize_weights, record)

if TYPE_CHECKING:
    from .metrics import FiniteMetricSpace

ZERO = Fraction(0)


def root_distances(rt: RootedTree, weights: Mapping[Edge, Fraction]) -> dict[Vertex, Fraction]:
    """Weighted distance from the root to every vertex."""
    out = {rt.root: ZERO}
    for v in rt.bfs_order():
        for c in rt.children(v):
            out[c] = out[v] + weights[edge_key(v, c)]
    return out


@record
class EquidistantTree:
    """Rooted tree whose strictly positive weight sums to the same K on every
    root-to-leaf path (leaf here means out-degree zero)."""

    rt: RootedTree
    weights: dict[Edge, Fraction]
    K: Fraction  # derived: the common sum, not an argument

    def __init__(self, rt: RootedTree, weights: Mapping[Edge, Fraction]):
        object.__setattr__(self, "rt", rt)
        weights = normalize_weights(rt.tree, weights, strict=True)
        dist = root_distances(rt, weights)
        sums = {dist[v] for v in self.v0()}
        if len(sums) != 1:
            raise NotEquidistantError("root-to-leaf weight sums differ")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "K", sums.pop())

    def metric(self) -> FiniteMetricSpace:
        from .metrics import additive_metric

        return additive_metric(self.rt.tree, self.weights)

    def v0(self) -> frozenset[Vertex]:
        return degree_sets(self.rt)[0]


@record
class MonotoneTree:
    """Rooted tree with a monotone labeling: zeros sit exactly on the
    out-degree-zero vertices and labels strictly decrease along every
    parent-to-child edge."""

    rt: RootedTree
    labels: dict[Vertex, Fraction]

    def __post_init__(self):
        rt, labels = self.rt, normalize_labels(self.rt.tree, self.labels)
        zeros = {v for v in rt.vertices if labels[v] == 0}
        if zeros != self.v0() or any(labels[c] >= labels[v] for v in rt.vertices for c in rt.children(v)):
            raise NotMonotoneError("labeling is not monotone for this root")
        object.__setattr__(self, "labels", labels)

    def metric(self) -> FiniteMetricSpace:
        from .metrics import label_tree_metric

        return label_tree_metric(self.rt.tree, self.labels)[0]

    def v0(self) -> frozenset[Vertex]:
        return degree_sets(self.rt)[0]


def check_equidistant(rt: RootedTree, w: Mapping) -> Optional[Fraction]:
    """The common root-to-leaf weight sum K, or None if the sums disagree."""
    try:
        return EquidistantTree(rt, w).K
    except NotEquidistantError:
        return None


def check_monotone(rt: RootedTree, l: Mapping) -> bool:
    """True iff the labeling is monotone for this root (see MonotoneTree)."""
    try:
        MonotoneTree(rt, l)
    except NotMonotoneError:
        return False
    return True


def labeling_to_weight(mt: MonotoneTree) -> EquidistantTree:
    """The unique equidistant weight paired with a monotone labeling."""
    weights = {
        edge_key(v, c): (mt.labels[v] - mt.labels[c]) / 2
        for v in mt.rt.vertices
        for c in mt.rt.children(v)
    }
    return EquidistantTree(mt.rt, weights)


def weight_to_labeling(et: EquidistantTree) -> MonotoneTree:
    """The unique monotone labeling paired with an equidistant weight:
    l(u) = 2 (K - root-to-u weight sum), so l(root) = 2K."""
    dist = root_distances(et.rt, et.weights)
    labels = {v: 2 * (et.K - dist[v]) for v in et.rt.vertices}
    return MonotoneTree(et.rt, labels)


def _branching_shape(rng: random.Random, size: int) -> list[Optional[int]]:
    # Parent indices for a rooted shape in which no vertex has exactly one
    # child: subtree sizes are 1 or >= 3.
    parents: list[Optional[int]] = [None]

    def split(total: int) -> list[int]:
        # total >= 2 into at least two parts, each a legal subtree size
        # (1 or >= 3; a 2-vertex subtree would force an only child)
        parts: list[int] = []
        left = total
        while left > 0:
            choices = [p for p in range(1, min(left, 6) + 1) if p != 2]
            if not parts and total in choices:
                choices.remove(total)
            parts.append(rng.choice(choices))
            left -= parts[-1]
        return parts

    def grow(parent: int, size_here: int) -> None:
        if size_here == 1:
            return
        for part in split(size_here - 1):
            parents.append(parent)
            child = len(parents) - 1
            grow(child, part)

    grow(0, size)
    return parents


def _free_shape(rng: random.Random, size: int) -> list[Optional[int]]:
    parents: list[Optional[int]] = [None]
    for i in range(1, size):
        parents.append(rng.randrange(i))
    return parents


def generate_monotone(
    seed: int | random.Random,
    min_size: int = 1,
    max_size: int = 10,
    branching_only: bool = False,
) -> MonotoneTree:
    """Random monotone tree; deterministic for a fixed seed.

    With branching_only, no vertex has out-degree one, so the result is the
    hierarchy tree shape of some ultrametric space (size 2 is impossible and
    gets bumped to 3).
    """
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    if min_size < 1 or max_size < min_size:
        raise ValueError("need 1 <= min_size <= max_size")
    size = rng.randint(min_size, max_size)
    if branching_only and size == 2:
        size = 3
    parents = _branching_shape(rng, size) if branching_only else _free_shape(rng, size)
    names = [f"v{i:02d}" for i in range(size)]
    edges = [(names[parents[i]], names[i]) for i in range(1, size)]
    rt = RootedTree(Tree(Graph(names, edges)), names[0])

    labels: dict[Vertex, Fraction] = {}
    for v in reversed(rt.bfs_order()):
        kids = rt.children(v)
        if not kids:
            labels[v] = ZERO
        else:
            step = Fraction(rng.randint(1, 8), rng.choice((1, 1, 2, 4)))
            labels[v] = max(labels[c] for c in kids) + step
    return MonotoneTree(rt, labels)
