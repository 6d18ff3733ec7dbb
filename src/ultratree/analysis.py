"""Structural predicates for weighted trees and their leaf geometries.

Centers (roots making a weighted tree equidistant), the star
characterization via all-roots-equidistant weights, sphere-with-center
recognition, and the inequalities governing planted equidistant trees.
A center is a vertex all of whose sides share one common height, and
analyze reads K only at such a root.  Centers, the planted check and the
diameter bound read the weights' integer form, made once per analyze call.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, Optional

from ._record import record
from .duality import EquidistantTree
from .errors import NoBranchingVertexError, NotPlantedError, NotUltrametricError
from .graphs import RootedTree, Tree, Vertex, degree_sets, normalize_weights
from .rational import integer_form

if TYPE_CHECKING:
    from .metrics import FiniteMetricSpace


def centers(t: Tree, w: Mapping) -> frozenset[Vertex]:
    """All vertices whose rooting makes the weighted tree equidistant.

    Rooted at r, the out-degree-zero vertices are the tree leaves other than
    r (a lone vertex is its own, at K = 0).  A side of r, the part of the
    tree beyond one neighbor, has one height: the distance from r at which
    all its out-degree-zero vertices lie, or None when they lie at more than
    one.  r is a center iff all its sides share one height.  Two passes over
    the weights as integers over their common denominator find every
    vertex's sides: bottom-up from an arbitrary root, then top-down, where
    the side toward a parent is one edge plus what the parent's other sides
    share.
    """
    return _centers(t, integer_form(normalize_weights(t, w, strict=True))[0])


def _centers(t: Tree, weights: dict) -> frozenset[Vertex]:
    if len(t.vertices) == 1:
        return frozenset(t.vertices)
    parent = t._reach(t.vertices[0])
    sides: dict = {v: {} for v in parent}  # v -> {neighbor: height of the side beyond it, from v}
    for v in reversed(tuple(parent)[1:]):  # each vertex after its children
        values, p = set(sides[v].values()), parent[v]
        h = values.pop() if len(values) == 1 else None if values else 0  # 0: v is a leaf
        sides[p][v] = None if h is None else h + weights[(v, p) if v < p else (p, v)]
    found = []
    for v, p in parent.items():  # each vertex after its parent
        side = sides[v]
        values = set(side.values())
        if len(values) == 1 and None not in values:
            found.append(v)
        # what v's other sides share, by the height of the side left out
        if len(side) == 1:
            rest = dict.fromkeys(values, 0)  # nothing but v beyond its one side
        elif len(values) == 2:  # the others share one height only if the one left out is lone
            hs = list(side.values())
            rest = {h: (values - {h}).pop() for h in values if hs.count(h) == 1}
        else:
            rest = dict(zip(values, values)) if len(values) == 1 else {}
        for c, h in side.items():
            if c != p:
                x = rest.get(h)
                sides[c][v] = None if x is None else x + weights[(v, c) if v < c else (c, v)]
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
    dist, den, *_ = et._scaled  # type: ignore[attr-defined]  # root distances times den
    lhs, rhs = Fraction(2 * min(dist[v] for v in v2), den), Fraction(min(dist[v] for v in v0), den)
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
    weights = normalize_weights(t, w, strict=True)  # refuses bad weights before the root is looked at
    scaled, den = integer_form(weights)  # for centers and the EquidistantTree at a center root alike
    cs = _centers(t, scaled)
    planted = K = lhs = rhs = None
    if root is not None:
        rt = RootedTree(t, root)
        planted = rt.is_planted()
        if root in cs:
            et = EquidistantTree._trusted(rt, weights, scaled, den)
            K = et.K
            if planted and degree_sets(rt)[2]:
                _, lhs, rhs = planted_leaf_ultrametric_check(et)
    return StructureReport(planted, tuple(sorted(cs)), is_star(t), phylo_shape(t), K, lhs, rhs)
