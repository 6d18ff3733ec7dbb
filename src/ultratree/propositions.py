"""The paper's propositions on single instances, which no CLI verb runs.

The metric reading of the out-degree-one reduction (a vertex survives it
exactly when it is the metric midpoint of two out-degree-zero vertices), the
pair of isometric, non-isomorphic equidistant weights on a rooted tree with a
pass-through vertex, the all-ones weight that makes every rooting of a star
equidistant, the center of an ultrametric sphere, and the diameter bound of
an equidistant tree.  They live apart from transforms.py and analysis.py, so
the verbs that load those modules compile none of them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from ._record import record
from .analysis import is_star
from .duality import EquidistantTree, degree_sets
from .errors import NotUltrametricError, PathTreeError
from .graphs import Tree, Vertex
from .metrics import FiniteMetricSpace
from .path_metrics import MetricClass
from .payloads import edge_key


def nabla_geometric_membership(et: EquidistantTree, x: Vertex) -> bool:
    """Membership in the reduced vertex set, read off the metric alone.

    True iff some pair y, z of out-degree-zero vertices (possibly equal) has
    x as its metric midpoint: d(y,x) = d(x,z) = d(y,z)/2.
    """
    _, _, v2 = degree_sets(et.rt)
    if not v2:
        raise PathTreeError("every vertex has out-degree at most one")
    space = et.metric()
    leaves = sorted(et.v0())
    return any(
        space.distance(y, x) == space.distance(x, z) == space.distance(y, z) / 2
        for y in leaves
        for z in leaves
    )


def passthrough_counterexample_pair(et: EquidistantTree) -> tuple[EquidistantTree, EquidistantTree]:
    """Two equidistant weights on one rooted tree with a pass-through vertex:
    et itself and a re-weighting with the same distance matrix on the
    out-degree-zero vertices, non-isomorphic as rooted weighted trees and as
    their paired monotone labelings.

    At the smallest non-root pass-through vertex v, with weights a above and
    b below, the second weight puts x = min(a, b)/2 above and a + b - x below.
    Every path between out-degree-zero vertices that meets v uses both edges,
    so those distances and K stay.  As x < min(a, b) and a + b - x > max(a, b)
    the weight multiset changes; as x != a, v's label 2(K - dist(v)) changes
    and no other label moves.  When the root is the only pass-through vertex
    its pendant edge's weight doubles instead: the root is no out-degree-zero
    vertex, so no such distance changes, while the weight multiset does and
    K grows by the old weight, which moves the root's label.
    """
    rt, w2 = et.rt, dict(et.weights)
    _, ones, _ = degree_sets(rt)
    if not ones:
        raise PathTreeError("no out-degree-one vertex to exploit")
    interior = ones - {rt.root}
    if interior:
        v = min(interior)
        (child,) = rt.children(v)
        e_up, e_down = edge_key(rt.parent(v), v), edge_key(v, child)
        a, b = w2[e_up], w2[e_down]
        w2[e_up] = x = min(a, b) / 2
        w2[e_down] = a + b - x
    else:
        w2[edge_key(rt.root, *rt.children(rt.root))] *= 2
    return et, EquidistantTree(rt, w2)


def star_equidistant_witness(t: Tree) -> Optional[dict]:
    """An all-ones weight making every rooting equidistant, if t is a star.

    Such a weight exists for stars only, so None certifies a non-star.
    """
    return {e: Fraction(1) for e in t.edges} if is_star(t) else None


def sphere_center_check(space: FiniteMetricSpace) -> Optional[tuple[Vertex, Fraction]]:
    """A point c with every other point at one common distance t > 0, if any."""
    if space.classify() is not MetricClass.ULTRAMETRIC:
        raise NotUltrametricError("sphere check needs an ultrametric space")
    for c in space.points:
        values = {space.distance(c, x) for x in space.points if x != c}
        if len(values) == 1:
            return c, values.pop()
    return None


@record
class DiameterBound:
    """Diameter of the out-degree-zero set against twice the root-to-leaf
    distance; strictness coincides with the tree being planted.  The
    diameter over the out-degree-one set rides along for inspection and is
    never asserted against."""

    diam_v0: Fraction
    K: Fraction
    strict: bool
    diam_v1: Fraction


def _diameter(t: Tree, weights: dict, points: frozenset[Vertex]) -> int:
    # Double sweep: on a tree, the point of the set farthest from any vertex ends a diameter.
    end = next(iter(points))
    for _ in range(2):
        dist: dict = {}
        for x, p in t._reach(end).items():  # each vertex after its parent
            dist[x] = 0 if p is None else dist[p] + weights[(x, p) if x < p else (p, x)]
        end = max(points, key=dist.__getitem__)
    return dist[end]


def diameter_bound_check(et: EquidistantTree) -> DiameterBound:
    v0, v1, _ = degree_sets(et.rt)
    _, den, k, weights = et._scaled  # type: ignore[attr-defined]  # K and the weights, times den
    d0, d1 = (_diameter(et.rt.tree, weights, vs) if vs else 0 for vs in (v0, v1))
    if d0 > 2 * k:
        raise AssertionError("out-degree-zero diameter exceeded twice K")
    return DiameterBound(Fraction(d0, den), et.K, d0 < 2 * k, Fraction(d1, den))
