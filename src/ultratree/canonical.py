"""Isomorphism tests, isometry search and the flavors they compare.

This module alone applies a flavor's payload rule, _payload_maps, for trees
and other graphs alike, and alone compares codes: are_isomorphic compares
trees by the canonical codes of tree_codes.py, which only tree comparisons
load, and the fast ultrametric test and selftest compare hierarchy trees
through it.  General (non-tree) graph isomorphism and isometry search
run on the matrix search of _bijection.py, which is imported only by the
calls that use it, so comparing trees, or inputs whose sizes differ, does
not load it.  The checkers of a given map are in checkers.py, which no verb
loads.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Mapping, Optional

from .errors import MissingPayloadError, NotUltrametricError, SizeLimitError

if TYPE_CHECKING:
    from .graphs import Graph, Vertex
    from .metrics import FiniteMetricSpace

GRAPH_SIZE_LIMIT = 8
ISOMETRY_SIZE_LIMIT = 9


class IsoFlavor(enum.Enum):
    FREE = "free"
    ROOTED = "rooted"
    VERTEX_LABELED = "vlabel"
    EDGE_WEIGHTED = "eweight"
    ROOTED_LABELED = "rlabel"
    ROOTED_WEIGHTED = "rweight"


_ROOTED = {IsoFlavor.ROOTED, IsoFlavor.ROOTED_LABELED, IsoFlavor.ROOTED_WEIGHTED}
_LABELED = {IsoFlavor.VERTEX_LABELED, IsoFlavor.ROOTED_LABELED}
_WEIGHTED = {IsoFlavor.EDGE_WEIGHTED, IsoFlavor.ROOTED_WEIGHTED}


def _payloads(flavor: IsoFlavor, labels, weights, root) -> tuple:
    # (labels, weights, root), with None for each payload the flavor does not compare
    return (labels if flavor in _LABELED else None, weights if flavor in _WEIGHTED else None,
            root if flavor in _ROOTED else None)


def are_isomorphic(
    g1: Graph,
    g2: Graph,
    flavor: IsoFlavor,
    labels1: Optional[Mapping] = None,
    labels2: Optional[Mapping] = None,
    weights1: Optional[Mapping] = None,
    weights2: Optional[Mapping] = None,
    root1: Optional[Vertex] = None,
    root2: Optional[Vertex] = None,
) -> bool:
    """Isomorphism test for the declared flavor.

    Trees compare by canonical code.  Other graphs are told apart by their
    vertex and edge counts, once their payloads are checked, and otherwise go
    to the bijection search on their relation matrices, limited to
    GRAPH_SIZE_LIMIT vertices; rooted flavors apply to trees only.
    """
    from .graphs import Tree

    try:
        t1, t2 = (g if isinstance(g, Tree) else Tree(g, r) for g, r in ((g1, root1), (g2, root2)))
    except ValueError:  # not both trees
        pass
    else:
        from .tree_codes import canonical_code

        c1 = canonical_code(t1, flavor, labels1, weights1, root1)
        c2 = canonical_code(t2, flavor, labels2, weights2, root2)
        return c1 == c2
    if flavor in _ROOTED:
        raise ValueError("rooted flavors are defined for trees only")
    # payloads are refused before the sizes decide, the left graph's first, as trees refuse them
    p1, p2 = _payload_maps(g1, flavor, labels1, weights1, root1), _payload_maps(g2, flavor, labels2, weights2, root2)
    if len(g1.vertices) != len(g2.vertices) or len(g1.edges) != len(g2.edges):
        return False
    if len(g1.vertices) > GRAPH_SIZE_LIMIT:
        raise SizeLimitError(f"graph isomorphism is limited to {GRAPH_SIZE_LIMIT} vertices")
    from ._bijection import _relation_rows, _search

    rows1, rows2 = _relation_rows(g1, *p1), _relation_rows(g2, *p2)
    return _search((rows1, g1.vertices), (rows2, g2.vertices)) is not None


def _payload_maps(g, flavor: IsoFlavor, labels, weights, root) -> tuple:
    # one graph's (labels, weights), each given map normalized once (_normalized), after
    # refusing a payload the flavor needs and lacks, then one it does not take
    given = (("root", root, _ROOTED, "a root"), ("labels", labels, _LABELED, "vertex labels"),
             ("weights", weights, _WEIGHTED, "edge weights"))
    for _, x, kind, needed in given:
        if flavor in kind and x is None:
            raise MissingPayloadError(f"flavor {flavor.value} needs {needed}")
    for name, x, kind, _ in given:
        if flavor not in kind and x is not None:
            raise ValueError(f"flavor {flavor.value} takes no {name}")
    return _normalized(g, labels, weights)


def _normalized(g, labels, weights) -> tuple:
    # (labels, weights), each given map normalized once, for the relation
    # matrices of _bijection.py; a bare graph loads no number code
    if labels is not None:
        from .payloads import normalize_labels

        labels = normalize_labels(g, labels)
    if weights is not None:
        from .payloads import normalize_weights

        weights = normalize_weights(g, weights, strict=False)
    return labels, weights


def isometry_search(
    s1: FiniteMetricSpace, s2: FiniteMetricSpace
) -> Optional[dict[Vertex, Vertex]]:
    """A distance-preserving bijection found by pruned brute force, or None.

    This is the oracle all fast isometry paths are checked against.  Spaces
    of different sizes are not isometric; equal-sized ones beyond
    ISOMETRY_SIZE_LIMIT points are refused.
    """
    if len(s1.points) != len(s2.points):
        return None
    if len(s1.points) > ISOMETRY_SIZE_LIMIT:
        raise SizeLimitError(f"isometry search is limited to {ISOMETRY_SIZE_LIMIT} points")
    from ._bijection import _search

    image = _search((s1.rows, s1.points), (s2.rows, s2.points))
    return None if image is None else {s1.points[i]: s2.points[j] for i, j in sorted(image.items())}


def ultrametric_isometric(s1: FiniteMetricSpace, s2: FiniteMetricSpace) -> bool:
    """Fast isometry test: isomorphic hierarchy trees, as rooted labeled trees."""
    from .representing import representing_tree

    try:
        r1, r2 = representing_tree(s1), representing_tree(s2)
    except NotUltrametricError:
        raise NotUltrametricError("both spaces must be ultrametric") from None
    return are_isomorphic(r1.rt.tree, r2.rt.tree, IsoFlavor.ROOTED_LABELED, r1.labels, r2.labels,
                          root1=r1.rt.root, root2=r2.rt.root)
