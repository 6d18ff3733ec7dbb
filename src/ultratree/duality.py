"""Equidistant weights and monotone labelings on rooted trees.

The two carry the same data: w({u,v}) = (l(u) - l(v)) / 2 on each parent-child
edge pairs them bijectively, with K = l(root) / 2.  The factor 1/2 is fixed;
the max-label path identity on out-degree-zero vertices holds for no other
constant.
An EquidistantTree sums its root distances once, as integers over the weights'
common denominator (_scaled, which analysis.centers shares), and keeps them.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, Optional

from .errors import NotEquidistantError, NotMonotoneError
from .graphs import (Edge, Graph, RootedTree, Tree, Vertex, degree_sets, normalize_labels, normalize_weights,
                     record)

if TYPE_CHECKING:
    from .metrics import FiniteMetricSpace


def _scaled(values: Mapping) -> tuple[dict, int]:
    # Each value as an integer times den, the lcm of the values' denominators.
    den = math.lcm(*(x.denominator for x in values.values()))
    return {k: x.numerator * (den // x.denominator) for k, x in values.items()}, den


def _fractions(scaled: dict, den: int) -> dict:
    memo: dict = {}  # each value over den, one Fraction per distinct integer
    return {k: memo[x] if x in memo else memo.setdefault(x, Fraction(x, den)) for k, x in scaled.items()}


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
        scaled, den = _scaled(weights)
        dist, parent = {rt.root: 0}, rt._parent  # type: ignore[attr-defined]  # root distances times den
        for v in rt.bfs_order()[1:]:  # each parent before its children
            p = parent[v]
            dist[v] = dist[p] + scaled[(p, v) if p < v else (v, p)]
        sums = {dist[v] for v in self.v0()}
        if len(sums) != 1:
            raise NotEquidistantError("root-to-leaf weight sums differ")
        vars(self).update(weights=weights, K=Fraction(*sums, den), _scaled=(dist, den, *sums))

    def root_distances(self) -> dict[Vertex, Fraction]:
        """Weighted distance from the root to every vertex."""
        return _fractions(*self._scaled[:2])  # type: ignore[attr-defined]

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
        parent, labels = self.rt._parent, normalize_labels(self.rt.tree, self.labels)  # type: ignore[attr-defined]
        scaled, den = _scaled(labels)  # compared as integers
        zeros = {v for v, x in scaled.items() if x == 0}
        if zeros != self.v0() or any(scaled[v] >= scaled[p] for v, p in parent.items() if p is not None):
            raise NotMonotoneError("labeling is not monotone for this root")
        vars(self).update(labels=labels, _scaled=(scaled, den))

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
    (scaled, den), parent = mt._scaled, mt.rt._parent  # type: ignore[attr-defined]  # the labels times den
    # each weight (l(p) - l(v)) / 2 as an integer times 2 den, v below its parent p
    doubled = {(p, v) if p < v else (v, p): scaled[p] - scaled[v] for v, p in parent.items() if p is not None}
    return EquidistantTree(mt.rt, _fractions(doubled, 2 * den))


def weight_to_labeling(et: EquidistantTree) -> MonotoneTree:
    """The unique monotone labeling paired with an equidistant weight:
    l(u) = 2 (K - root-to-u weight sum), so l(root) = 2K."""
    dist, den, k = et._scaled  # type: ignore[attr-defined]  # root distances and K, times den
    return MonotoneTree(et.rt, _fractions({v: 2 * (k - d) for v, d in dist.items()}, den))


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
    parents = _branching_shape(rng, size) if branching_only else [None, *(rng.randrange(i) for i in range(1, size))]
    names = [f"v{i:02d}" for i in range(size)]
    edges = [(names[parents[i]], names[i]) for i in range(1, size)]
    rt = RootedTree(Tree(Graph(names, edges)), names[0])

    labels: dict[Vertex, Fraction] = {}
    for v in reversed(rt.bfs_order()):
        kids = rt.children(v)
        if not kids:
            labels[v] = Fraction(0)
        else:
            step = Fraction(rng.randint(1, 8), rng.choice((1, 1, 2, 4)))
            labels[v] = max(labels[c] for c in kids) + step
    return MonotoneTree(rt, labels)
