"""Structural predicates for weighted trees and their leaf geometries.

Centers (roots making a weighted tree equidistant), the star
characterization via all-roots-equidistant weights, sphere-with-center
recognition, and the inequalities governing planted equidistant trees.
Centers and the diameter bound work on integer weights from duality._scaled.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from operator import itemgetter
from typing import TYPE_CHECKING, Mapping, Optional

from ._record import record
from .duality import EquidistantTree, _scaled
from .errors import (
    NoBranchingVertexError,
    NotEquidistantError,
    NotPlantedError,
    NotUltrametricError,
)
from .graphs import RootedTree, Tree, Vertex, degree_sets, edge_key, normalize_weights

if TYPE_CHECKING:
    from .metrics import FiniteMetricSpace


def centers(t: Tree, w: Mapping) -> frozenset[Vertex]:
    """All vertices whose rooting makes the weighted tree equidistant.

    Rooted at r, the out-degree-zero vertices are the tree leaves other than
    r (a lone vertex is its own, at K = 0), so r is a center iff its nearest
    and farthest such leaf lie at one distance.  One rerooting pass finds
    both for every r: bottom-up from an arbitrary root, then top-down, on
    the weights as integers over their common denominator.
    """
    weights, _ = _scaled(normalize_weights(t, w, strict=True))
    if len(t.vertices) == 1:
        return frozenset(t.vertices)
    rt = RootedTree(t, t.vertices[0])
    order = rt.bfs_order()

    def beyond(v: Vertex, u: Vertex, span: tuple[int, int]) -> tuple[Vertex, int, int]:
        # u with the nearest and farthest leaf on u's side of edge v-u, from v
        d = weights[edge_key(v, u)]
        return u, d + span[0], d + span[1]

    below = {}  # nearest and farthest leaf under v, from v; v itself if childless
    for v in reversed(order):
        sides = [beyond(v, c, below[c]) for c in rt.children(v)]
        below[v] = (min(s[1] for s in sides), max(s[2] for s in sides)) if sides else (0, 0)
    above = {}  # nearest and farthest leaf on the parent's side of v, from the parent
    found = set()
    for v in order:
        kids = rt.children(v)
        sides = [beyond(v, c, below[c]) for c in kids]
        if v != rt.root:
            sides.append(beyond(v, rt.parent(v), above[v]))
        near = heapq.nsmallest(2, sides, key=itemgetter(1))
        far = heapq.nlargest(2, sides, key=itemgetter(2))
        if near[0][1] == far[0][2]:
            found.add(v)
        for c in kids:
            if len(sides) == 1:  # c is v's only neighbor: v is the leaf
                above[c] = (0, 0)
            else:  # the leaves beyond v's other neighbors
                lo = near[1] if near[0][0] == c else near[0]
                hi = far[1] if far[0][0] == c else far[0]
                above[c] = (lo[1], hi[2])
    return frozenset(found)


def is_star(t: Tree) -> bool:
    """One vertex adjacent to all others; needs at least one edge."""
    n = len(t.vertices)
    return n > 1 and any(t.degree(v) == n - 1 for v in t.vertices)


def star_equidistant_witness(t: Tree) -> Optional[dict]:
    """An all-ones weight making every rooting equidistant, if t is a star.

    Such a weight exists for stars only, so None certifies a non-star.
    """
    return {e: Fraction(1) for e in t.edges} if is_star(t) else None


def sphere_center_check(space: FiniteMetricSpace) -> Optional[tuple[Vertex, Fraction]]:
    """A point c with every other point at one common distance t > 0, if any."""
    from .metrics import MetricClass

    if space.classify() is not MetricClass.ULTRAMETRIC:
        raise NotUltrametricError("sphere check needs an ultrametric space")
    for c in space.points:
        values = {space.distance(c, x) for x in space.points if x != c}
        if len(values) == 1:
            return c, values.pop()
    return None


def planted_leaf_ultrametric_check(et: EquidistantTree) -> tuple[bool, Fraction, Fraction]:
    """For a planted equidistant tree with a branching vertex, compare twice
    the root-to-branching distance against the root-to-leaf distance.

    The inequality lhs >= rhs holds exactly when the additive metric
    restricted to all tree leaves (root included) is ultrametric.
    """
    v0, _, v2 = degree_sets(et.rt)
    if not et.rt.is_planted():
        raise NotPlantedError("root must have out-degree one")
    if not v2:
        raise NoBranchingVertexError("no vertex with out-degree at least two")
    dist = et.root_distances()
    lhs = 2 * min(dist[v] for v in v2)
    rhs = min(dist[v] for v in v0)
    return lhs >= rhs, lhs, rhs


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
        for x in t._reach(end):  # breadth first: x's one neighbor already reached is its parent
            dist[x] = sum(dist[y] + weights[(x, y) if x < y else (y, x)] for y in t.neighbors(x) if y in dist)
        end = max(points, key=dist.__getitem__)
    return dist[end]


def diameter_bound_check(et: EquidistantTree) -> DiameterBound:
    v0, v1, _ = degree_sets(et.rt)
    weights, den = _scaled(et.weights)
    diam_v0, diam_v1 = (Fraction(_diameter(et.rt.tree, weights, vs), den) if vs else Fraction(0) for vs in (v0, v1))
    if diam_v0 > 2 * et.K:
        raise AssertionError("out-degree-zero diameter exceeded twice K")
    return DiameterBound(diam_v0, et.K, diam_v0 < 2 * et.K, diam_v1)


def phylo_shape(t: Tree) -> bool:
    """True iff every internal vertex has degree at least three."""
    return all(t.degree(v) != 2 for v in t.vertices)  # internal vertices have degree two or more


@record
class StructureReport:
    planted: Optional[bool]
    centers: tuple[Vertex, ...]
    is_star: bool
    phylo_shape: bool
    K: Optional[Fraction]
    branching_lhs: Optional[Fraction]
    branching_rhs: Optional[Fraction]


def analyze(t: Tree, w: Mapping, root: Optional[Vertex] = None) -> StructureReport:
    """One-stop report over a weighted tree, optionally rooted."""
    cs = centers(t, w)  # refuses bad weights before the root is looked at
    planted: Optional[bool] = None
    K: Optional[Fraction] = None
    lhs: Optional[Fraction] = None
    rhs: Optional[Fraction] = None
    if root is not None:
        rt = RootedTree(t, root)
        planted = rt.is_planted()
        try:
            et = EquidistantTree(rt, w)
        except NotEquidistantError:
            pass
        else:
            K = et.K
            if planted and degree_sets(rt)[2]:
                _, lhs, rhs = planted_leaf_ultrametric_check(et)
    return StructureReport(planted, tuple(sorted(cs)), is_star(t), phylo_shape(t), K, lhs, rhs)
