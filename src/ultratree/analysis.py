"""Structural predicates for weighted trees and their leaf geometries.

Centers (roots making a weighted tree equidistant), stars, the inequality
governing planted equidistant trees, and analyze, the report the CLI prints.
A center is a vertex all of whose sides share one common height, and
analyze reads K only at such a root.  Centers and the planted check read the
weights' integer form, made once per analyze call.  The star witness, the
sphere-center check and the diameter bound, which analyze does not report,
are in propositions.py.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Optional

from ._record import record
from .duality import EquidistantTree, degree_sets
from .errors import NoBranchingVertexError, NotPlantedError
from .graphs import RootedTree, Tree, Vertex
from .payloads import integer_form, normalize_weights


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
