"""Canonical codes, isomorphism tests and isometry search.

Codes are printable strings with a one-byte schema version prefix; equal
codes mean isomorphic inputs for the declared flavor.  Rooted flavors sort
child codes, built from the leaves up along a RootedTree's BFS order; free
flavors root the tree at its one or two centers and keep the smaller code.
Rational payloads are embedded in canonical lowest-terms text, so value
equality and code equality coincide.

General (non-tree) graph isomorphism and isometry search run on the matrix
search of _bijection.py, which is imported only by the calls that use it, so
comparing trees, or inputs whose sizes differ, does not load it.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Mapping, Optional

from .errors import (
    MissingPayloadError,
    NotUltrametricError,
    SingleVertexTreeError,
    SizeLimitError,
    VertexNotFoundError,
)
from .graphs import Edge, Graph, RootedTree, Tree, Vertex, normalize_labels, normalize_weights
from .rational import format_rational

if TYPE_CHECKING:
    from .duality import MonotoneTree
    from .metrics import FiniteMetricSpace

SCHEMA_VERSION = "1"
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
_TAG = {
    IsoFlavor.FREE: "F",
    IsoFlavor.ROOTED: "R",
    IsoFlavor.VERTEX_LABELED: "V",
    IsoFlavor.EDGE_WEIGHTED: "E",
    IsoFlavor.ROOTED_LABELED: "L",
    IsoFlavor.ROOTED_WEIGHTED: "W",
}


def tree_centers(t: Tree) -> tuple[Vertex, ...]:
    """The one or two middle vertices of a longest path, by leaf peeling."""
    if len(t.vertices) <= 2:
        return t.vertices
    deg = {v: len(ns) for v, ns in t._adj.items()}  # type: ignore[attr-defined]
    layer = [v for v, d in deg.items() if d == 1]
    remaining = len(deg)
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for v in layer:
            for u in t._adj[v]:  # type: ignore[attr-defined]
                if deg[u] > 1:
                    deg[u] -= 1
                    if deg[u] == 1:
                        nxt.append(u)
        layer = nxt
    return tuple(sorted(layer))


def _payloads(flavor: IsoFlavor, labels, weights, root) -> tuple:
    # (labels, weights, root), with None for each payload the flavor does not compare
    return (labels if flavor in _LABELED else None, weights if flavor in _WEIGHTED else None,
            root if flavor in _ROOTED else None)


def _check_payloads(flavor: IsoFlavor, labels, weights, root) -> None:
    given = (("root", root, _ROOTED, "a root"), ("labels", labels, _LABELED, "vertex labels"),
             ("weights", weights, _WEIGHTED, "edge weights"))
    for _, x, kind, needed in given:
        if flavor in kind and x is None:
            raise MissingPayloadError(f"flavor {flavor.value} needs {needed}")
    for name, x, kind, _ in given:
        if flavor not in kind and x is not None:
            raise ValueError(f"flavor {flavor.value} takes no {name}")


def _texts(vals: dict) -> dict:
    memo: dict = {}  # keyed by object, as hashing a Fraction costs more than formatting it
    return {k: memo[i] if (i := id(x)) in memo else memo.setdefault(i, format_rational(x)) for k, x in vals.items()}


def _rooted_code(
    t: Tree,
    root: Vertex,
    labels: Optional[dict[Vertex, str]],
    weights: Optional[dict[Edge, str]],
) -> str:
    # Bottom-up along RootedTree's BFS order, with no recursion.  A vertex's list of
    # child codes lives from its first child's code to its own; payloads come as text.
    rt = RootedTree(t, root)
    parent, kids = rt._parent, {}  # type: ignore[attr-defined]
    for v in reversed(rt.bfs_order()):
        parts = kids.pop(v, None)
        if parts is None:  # a leaf
            code = "(" + labels[v] + ";)" if labels is not None else "()"
        else:
            parts.sort()
            code = "(" + (labels[v] + ";" if labels is not None else "") + "".join(parts) + ")"
        if (p := parent[v]) is not None:
            if weights is not None:
                code = "[" + weights[(p, v) if p < v else (v, p)] + "]" + code
            kids.setdefault(p, []).append(code)
    return code


def canonical_code(
    t: Tree,
    flavor: IsoFlavor,
    labels: Optional[Mapping] = None,
    weights: Optional[Mapping] = None,
    root: Optional[Vertex] = None,
) -> str:
    """Canonical code of a tree under the given isomorphism flavor."""
    _check_payloads(flavor, labels, weights, root)
    lab = _texts(normalize_labels(t, labels)) if labels is not None else None
    wts = _texts(normalize_weights(t, weights, strict=False)) if weights is not None else None
    prefix = SCHEMA_VERSION + _TAG[flavor] + ":"
    if flavor in _ROOTED:
        return prefix + _rooted_code(t, root, lab, wts)
    return prefix + min(_rooted_code(t, c, lab, wts) for c in tree_centers(t))


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
    try:
        t1, t2 = (g if isinstance(g, Tree) else Tree(g) for g in (g1, g2))
    except ValueError:  # not both trees
        pass
    else:
        c1 = canonical_code(t1, flavor, labels1, weights1, root1)
        c2 = canonical_code(t2, flavor, labels2, weights2, root2)
        return c1 == c2
    if flavor in _ROOTED:
        raise ValueError("rooted flavors are defined for trees only")
    _check_payloads(flavor, labels1, weights1, root1)
    _check_payloads(flavor, labels2, weights2, root2)
    # bad payload values are refused before the sizes decide, as the search refuses them
    for g, labels, weights in ((g1, labels1, weights1), (g2, labels2, weights2)):
        if labels is not None:
            normalize_labels(g, labels)
        if weights is not None:
            normalize_weights(g, weights, strict=False)
    if (len(g1.vertices), len(g1.edges)) != (len(g2.vertices), len(g2.edges)):
        return False
    if len(g1.vertices) > GRAPH_SIZE_LIMIT:
        raise SizeLimitError(f"graph isomorphism is limited to {GRAPH_SIZE_LIMIT} vertices")
    from ._bijection import _relation_rows, _search

    rows1, rows2 = _relation_rows(g1, labels1, weights1), _relation_rows(g2, labels2, weights2)
    return _search((rows1, g1.vertices), (rows2, g2.vertices)) is not None


def is_isometry(s1: FiniteMetricSpace, s2: FiniteMetricSpace, mapping: Mapping[Vertex, Vertex]) -> bool:
    """Check a specific bijection preserves all distances."""
    from ._bijection import _carries

    return _carries(mapping, (s1.rows, s1.points), (s2.rows, s2.points))


def is_isomorphism(
    g1: Graph,
    g2: Graph,
    mapping: Mapping[Vertex, Vertex],
    labels1: Optional[Mapping] = None,
    labels2: Optional[Mapping] = None,
    weights1: Optional[Mapping] = None,
    weights2: Optional[Mapping] = None,
    root1: Optional[Vertex] = None,
    root2: Optional[Vertex] = None,
) -> bool:
    """Check a specific bijection is an isomorphism, with optional payloads.

    Labels and weights count when labels1 and weights1 are given; they are
    checked as are_isomorphic checks them, and so are the roots.
    """
    from ._bijection import _carries, _relation_rows

    rows1 = _relation_rows(g1, labels1, weights1)
    rows2 = _relation_rows(g2, None if labels1 is None else labels2, None if weights1 is None else weights2)
    for g, root in ((g1, root1), (g2, root2)):
        if root is not None and not g.has_vertex(root):
            raise VertexNotFoundError(f"root {root!r} not a vertex")
    carried = _carries(mapping, (rows1, g1.vertices), (rows2, g2.vertices))
    return carried and (root1 is None or mapping[root1] == root2)


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
    """Fast isometry test: equal canonical codes of the hierarchy trees."""
    from .representing import representing_tree

    try:
        r1, r2 = representing_tree(s1), representing_tree(s2)
    except NotUltrametricError:
        raise NotUltrametricError("both spaces must be ultrametric") from None
    c1 = canonical_code(r1.rt.tree, IsoFlavor.ROOTED_LABELED, labels=r1.labels, root=r1.rt.root)
    c2 = canonical_code(r2.rt.tree, IsoFlavor.ROOTED_LABELED, labels=r2.labels, root=r2.rt.root)
    return c1 == c2


def leaf_swap_isometry(mt: MonotoneTree) -> dict[Vertex, Vertex]:
    """Transposition of a zero leaf with its unique neighbor.

    For every monotone tree with at least two vertices the returned map
    preserves the max-label path distance yet is not a labeled-tree
    isomorphism, since it trades a zero leaf for a positive vertex.
    """
    if len(mt.rt.vertices) < 2:
        raise SingleVertexTreeError("need at least two vertices")
    leaf = min(mt.v0())
    neighbor = mt.rt.parent(leaf)
    assert neighbor is not None
    mapping = {v: v for v in mt.rt.vertices}
    mapping[leaf] = neighbor
    mapping[neighbor] = leaf
    return mapping
