"""Equidistant weights and monotone labelings on rooted trees.

The two carry the same data: w({u,v}) = (l(u) - l(v)) / 2 on each parent-child
edge pairs them bijectively, with K = l(root) / 2.  The factor 1/2 is fixed;
the max-label path identity on out-degree-zero vertices holds for no other
constant.
An EquidistantTree keeps its weights' integer form (payloads.integer_form) and
sums its root distances once on it; diameter_bound_check, reduce_nabla and the
paired labeling read those integers.  Both trees take V0 from degree_sets,
the out-degree classes of a rooted tree, and walk a RootedTree's BFS order,
as rooted canonical codes do; free codes are read off the center peel.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, Optional

from ._record import record
from .errors import NotEquidistantError, NotMonotoneError
from .graphs import Edge, RootedTree, Vertex
from .payloads import integer_form, normalize_labels, normalize_weights

if TYPE_CHECKING:
    from .metrics import FiniteMetricSpace


def degree_sets(rt: RootedTree) -> tuple[frozenset[Vertex], frozenset[Vertex], frozenset[Vertex]]:
    """Partition V(T) by out-degree into (= 0, = 1, >= 2) classes, counted in the parent map."""
    vertices, out = rt._parent.keys(), Counter(rt._parent.values())  # type: ignore[attr-defined]
    del out[None]  # the root's parent
    ones = {v for v, d in out.items() if d == 1}
    return frozenset(vertices - out.keys()), frozenset(ones), frozenset(out.keys() - ones)


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
        weights = normalize_weights(rt.tree, weights, strict=True)
        self._store(rt, weights, *integer_form(weights))

    # For weights normalized on rt's tree and their integer form: no second normalization or scaling.
    _trusted = classmethod(lambda cls, *args: object.__new__(cls)._store(*args))

    def _store(self, rt: RootedTree, weights: dict, scaled: dict, den: int) -> "EquidistantTree":
        dist, parent = {rt.root: 0}, rt._parent  # type: ignore[attr-defined]  # root distances times den
        for v in rt.bfs_order()[1:]:  # each parent before its children
            p = parent[v]
            dist[v] = dist[p] + scaled[(p, v) if p < v else (v, p)]
        v0 = degree_sets(rt)[0]
        sums = {dist[v] for v in v0}
        if len(sums) != 1:
            raise NotEquidistantError("root-to-leaf weight sums differ")
        vars(self).update(rt=rt, weights=weights, K=Fraction(*sums, den), _scaled=(dist, den, *sums, scaled), _v0=v0)
        return self

    def root_distances(self) -> dict[Vertex, Fraction]:
        """Weighted distance from the root to every vertex."""
        return _fractions(*self._scaled[:2])  # type: ignore[attr-defined]

    def metric(self) -> FiniteMetricSpace:
        from .path_metrics import additive_metric

        return additive_metric(self.rt.tree, self.weights)

    def v0(self) -> frozenset[Vertex]:
        """The out-degree-zero vertices, found once when the tree was checked."""
        return self._v0  # type: ignore[attr-defined]


@record
class MonotoneTree:
    """Rooted tree with a monotone labeling: zeros sit exactly on the
    out-degree-zero vertices and labels strictly decrease along every
    parent-to-child edge."""

    rt: RootedTree
    labels: dict[Vertex, Fraction]

    def __post_init__(self):
        parent, labels = self.rt._parent, normalize_labels(self.rt.tree, self.labels)  # type: ignore[attr-defined]
        scaled, den = integer_form(labels)  # compared as integers
        zeros, v0 = {v for v, x in scaled.items() if x == 0}, degree_sets(self.rt)[0]
        if zeros != v0 or any(scaled[v] >= scaled[p] for v, p in parent.items() if p is not None):
            raise NotMonotoneError("labeling is not monotone for this root")
        self._store(self.rt, labels, scaled, den, v0)

    # For labels normalized on rt's tree, monotone, with their integer form and V0: no normalization or check.
    _trusted = classmethod(lambda cls, *args: object.__new__(cls)._store(*args))

    def _store(self, rt: RootedTree, labels: dict, scaled: dict, den: int, v0: frozenset) -> "MonotoneTree":
        vars(self).update(rt=rt, labels=labels, _scaled=(scaled, den), _v0=v0)
        return self

    def metric(self) -> FiniteMetricSpace:
        from .metrics import label_tree_metric

        return label_tree_metric(self.rt.tree, self.labels)[0]

    def v0(self) -> frozenset[Vertex]:
        """The out-degree-zero vertices, found once when the tree was checked."""
        return self._v0  # type: ignore[attr-defined]


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
    scaled, den = mt._scaled  # type: ignore[attr-defined]  # the labels times den
    # each weight |l(u) - l(v)| / 2 as an integer times 2 den, in edge order: no second normalization or scaling
    doubled = {(u, v): abs(scaled[u] - scaled[v]) for u, v in mt.rt.tree.edges}
    return EquidistantTree._trusted(mt.rt, _fractions(doubled, 2 * den), doubled, 2 * den)


def weight_to_labeling(et: EquidistantTree) -> MonotoneTree:
    """The unique monotone labeling paired with an equidistant weight:
    l(u) = 2 (K - root-to-u weight sum), so l(root) = 2K."""
    dist, den, k, _ = et._scaled  # type: ignore[attr-defined]  # root distances and K, times den
    # zero on V0 and falling along every edge, as the weights are positive; in vertex order, as normalized
    scaled = {v: 2 * (k - dist[v]) for v in et.rt.vertices}
    return MonotoneTree._trusted(et.rt, _fractions(scaled, den), scaled, den, et.v0())
