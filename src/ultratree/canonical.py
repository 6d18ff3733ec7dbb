"""Canonical codes, isomorphism tests and isometry search.

Codes are printable strings with a one-byte schema version prefix; equal
codes mean isomorphic inputs for the declared flavor.  Rooted flavors sort
child codes, built from the leaves up; free flavors root the tree at its one
or two centers and keep the smaller code.  Rational payloads are embedded in
canonical lowest-terms text, so value equality and code equality coincide.

General (non-tree) graph isomorphism and isometry search are deliberately
small brute-force searches with pruning; they are the oracles every fast
path is tested against.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Mapping, Optional

from .duality import MonotoneTree
from .errors import (
    MissingPayloadError,
    NotUltrametricError,
    SingleVertexTreeError,
    SizeLimitError,
    VertexNotFoundError,
)
from .graphs import Edge, Graph, Tree, Vertex, edge_key
from .metrics import (
    FiniteMetricSpace,
    normalize_labels,
    normalize_weights,
)
from .rational import format_rational
from .representing import _hierarchy

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
    deg = {v: t.degree(v) for v in t.vertices}
    layer = sorted(v for v, d in deg.items() if d == 1)
    remaining = len(deg)
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for v in layer:
            for u in t.neighbors(v):
                if deg[u] > 1:
                    deg[u] -= 1
                    if deg[u] == 1:
                        nxt.append(u)
        layer = sorted(nxt)
    return tuple(layer)


def _check_payloads(flavor: IsoFlavor, labels, weights, root) -> None:
    if flavor in _ROOTED and root is None:
        raise MissingPayloadError(f"flavor {flavor.value} needs a root")
    if flavor in _LABELED and labels is None:
        raise MissingPayloadError(f"flavor {flavor.value} needs vertex labels")
    if flavor in _WEIGHTED and weights is None:
        raise MissingPayloadError(f"flavor {flavor.value} needs edge weights")
    if flavor not in _ROOTED and root is not None:
        raise ValueError(f"flavor {flavor.value} takes no root")
    if flavor not in _LABELED and labels is not None:
        raise ValueError(f"flavor {flavor.value} takes no labels")
    if flavor not in _WEIGHTED and weights is not None:
        raise ValueError(f"flavor {flavor.value} takes no weights")


def _rooted_code(
    t: Tree,
    root: Vertex,
    labels: Optional[dict[Vertex, Fraction]],
    weights: Optional[dict[Edge, Fraction]],
) -> str:
    # Bottom-up over one BFS order, with no recursion: each finished code
    # moves into its parent's list of child codes, and that list is dropped
    # once the parent's code is built.
    order, up, above = [root], [-1], [None]  # vertex, parent's position, parent
    for i, v in enumerate(order):
        p = above[i]
        for c in t.neighbors(v):
            if c != p:
                order.append(c)
                up.append(i)
                above.append(v)
    kids: list = [[] for _ in order]
    for i in range(len(order) - 1, -1, -1):
        v = order[i]
        parts, kids[i] = kids[i], None
        head = format_rational(labels[v]) + ";" if labels is not None else ""
        code = "(" + head + "".join(sorted(parts)) + ")"
        if i:
            if weights is not None:
                code = "[" + format_rational(weights[edge_key(above[i], v)]) + "]" + code
            kids[up[i]].append(code)
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
    lab = normalize_labels(t.underlying, labels) if labels is not None else None
    wts = normalize_weights(t.underlying, weights, strict=False) if weights is not None else None
    prefix = SCHEMA_VERSION + _TAG[flavor] + ":"
    if flavor in _ROOTED:
        if root not in t.vertices:
            raise VertexNotFoundError(f"root {root!r} not a vertex")
        return prefix + _rooted_code(t, root, lab, wts)
    return prefix + min(_rooted_code(t, c, lab, wts) for c in tree_centers(t))


def _as_graph(g: Graph | Tree) -> Graph:
    return g.underlying if isinstance(g, Tree) else g


def _brute_force_isomorphic(
    g1: Graph,
    g2: Graph,
    labels1: Optional[dict[Vertex, Fraction]],
    labels2: Optional[dict[Vertex, Fraction]],
    weights1: Optional[dict[Edge, Fraction]],
    weights2: Optional[dict[Edge, Fraction]],
) -> bool:
    n = len(g1.vertices)
    if n != len(g2.vertices) or len(g1.edges) != len(g2.edges):
        return False
    if sorted(g1.degree(v) for v in g1.vertices) != sorted(g2.degree(v) for v in g2.vertices):
        return False
    if labels1 is not None and sorted(labels1.values()) != sorted(labels2.values()):
        return False
    if weights1 is not None and sorted(weights1.values()) != sorted(weights2.values()):
        return False

    order = sorted(g1.vertices, key=lambda v: (-g1.degree(v), v))
    e1, e2 = set(g1.edges), set(g2.edges)

    def compatible(v: Vertex, w: Vertex, image: dict[Vertex, Vertex]) -> bool:
        if g1.degree(v) != g2.degree(w):
            return False
        if labels1 is not None and labels1[v] != labels2[w]:
            return False
        for u, fu in image.items():
            adj1 = (min(u, v), max(u, v)) in e1
            adj2 = (min(fu, w), max(fu, w)) in e2
            if adj1 != adj2:
                return False
            if adj1 and weights1 is not None:
                if weights1[edge_key(u, v)] != weights2[edge_key(fu, w)]:
                    return False
        return True

    used: set[Vertex] = set()
    image: dict[Vertex, Vertex] = {}

    def assign(i: int) -> bool:
        if i == n:
            return True
        v = order[i]
        for w in g2.vertices:
            if w in used or not compatible(v, w, image):
                continue
            image[v] = w
            used.add(w)
            if assign(i + 1):
                return True
            del image[v]
            used.discard(w)
        return False

    return assign(0)


def are_isomorphic(
    g1: Graph | Tree,
    g2: Graph | Tree,
    flavor: IsoFlavor,
    labels1: Optional[Mapping] = None,
    labels2: Optional[Mapping] = None,
    weights1: Optional[Mapping] = None,
    weights2: Optional[Mapping] = None,
    root1: Optional[Vertex] = None,
    root2: Optional[Vertex] = None,
) -> bool:
    """Isomorphism test for the declared flavor.

    Trees compare by canonical code.  Other graphs fall back to brute-force
    bijection search with degree and payload pruning, limited to
    GRAPH_SIZE_LIMIT vertices; rooted flavors apply to trees only.
    """
    a, b = _as_graph(g1), _as_graph(g2)
    if a.is_tree() and b.is_tree():
        t1 = g1 if isinstance(g1, Tree) else Tree(a)
        t2 = g2 if isinstance(g2, Tree) else Tree(b)
        c1 = canonical_code(t1, flavor, labels1, weights1, root1)
        c2 = canonical_code(t2, flavor, labels2, weights2, root2)
        return c1 == c2
    if flavor in _ROOTED:
        raise ValueError("rooted flavors are defined for trees only")
    _check_payloads(flavor, labels1, weights1, root1)
    _check_payloads(flavor, labels2, weights2, root2)
    if max(len(a.vertices), len(b.vertices)) > GRAPH_SIZE_LIMIT:
        raise SizeLimitError(
            f"graph isomorphism is limited to {GRAPH_SIZE_LIMIT} vertices"
        )
    lab1 = normalize_labels(a, labels1) if labels1 is not None else None
    lab2 = normalize_labels(b, labels2) if labels2 is not None else None
    w1 = normalize_weights(a, weights1, strict=False) if weights1 is not None else None
    w2 = normalize_weights(b, weights2, strict=False) if weights2 is not None else None
    return _brute_force_isomorphic(a, b, lab1, lab2, w1, w2)


def is_isometry(s1: FiniteMetricSpace, s2: FiniteMetricSpace, mapping: Mapping[Vertex, Vertex]) -> bool:
    """Check a specific bijection preserves all distances."""
    if sorted(mapping) != list(s1.points) or sorted(mapping.values()) != list(s2.points):
        return False
    return all(
        s1.distance(x, y) == s2.distance(mapping[x], mapping[y])
        for i, x in enumerate(s1.points)
        for y in s1.points[i + 1 :]
    )


def is_isomorphism(
    g1: Graph | Tree,
    g2: Graph | Tree,
    mapping: Mapping[Vertex, Vertex],
    labels1: Optional[Mapping] = None,
    labels2: Optional[Mapping] = None,
    weights1: Optional[Mapping] = None,
    weights2: Optional[Mapping] = None,
    root1: Optional[Vertex] = None,
    root2: Optional[Vertex] = None,
) -> bool:
    """Check a specific bijection is an isomorphism, with optional payloads."""
    a, b = _as_graph(g1), _as_graph(g2)
    if sorted(mapping) != list(a.vertices) or sorted(mapping.values()) != list(b.vertices):
        return False
    if root1 is not None and mapping[root1] != root2:
        return False
    e1, e2 = set(a.edges), set(b.edges)
    for i, u in enumerate(a.vertices):
        for v in a.vertices[i + 1 :]:
            adj1 = (u, v) in e1
            adj2 = edge_key(mapping[u], mapping[v]) in e2
            if adj1 != adj2:
                return False
            if adj1 and weights1 is not None:
                if weights1[edge_key(u, v)] != weights2[edge_key(mapping[u], mapping[v])]:
                    return False
    if labels1 is not None:
        if any(labels1[v] != labels2[mapping[v]] for v in a.vertices):
            return False
    return True


def isometry_search(
    s1: FiniteMetricSpace, s2: FiniteMetricSpace
) -> Optional[dict[Vertex, Vertex]]:
    """A distance-preserving bijection found by pruned brute force, or None.

    This is the oracle all fast isometry paths are checked against; inputs
    beyond ISOMETRY_SIZE_LIMIT points are refused.
    """
    if max(len(s1.points), len(s2.points)) > ISOMETRY_SIZE_LIMIT:
        raise SizeLimitError(
            f"isometry search is limited to {ISOMETRY_SIZE_LIMIT} points"
        )
    if len(s1.points) != len(s2.points):
        return None
    n = len(s1.points)
    all1 = sorted(x for row in s1.rows for x in row)
    all2 = sorted(x for row in s2.rows for x in row)
    if all1 != all2:
        return None

    def profile(space: FiniteMetricSpace, i: int) -> tuple:
        return tuple(sorted(space.rows[i]))

    profiles2: dict[tuple, list[int]] = {}
    for j in range(n):
        profiles2.setdefault(profile(s2, j), []).append(j)
    # same-named candidates first, so comparing a space against itself (or a
    # same-named copy) yields the identity bijection
    candidates = {
        i: sorted(
            profiles2.get(profile(s1, i), []),
            key=lambda j, i=i: (s2.points[j] != s1.points[i], j),
        )
        for i in range(n)
    }
    if any(not c for c in candidates.values()):
        return None

    order = sorted(range(n), key=lambda i: (len(candidates[i]), s1.points[i]))
    image: dict[int, int] = {}
    used: set[int] = set()

    def assign(k: int) -> bool:
        if k == n:
            return True
        i = order[k]
        for j in candidates[i]:
            if j in used:
                continue
            if any(s1.rows[i][i2] != s2.rows[j][j2] for i2, j2 in image.items()):
                continue
            image[i] = j
            used.add(j)
            if assign(k + 1):
                return True
            del image[i]
            used.discard(j)
        return False

    if not assign(0):
        return None
    return {s1.points[i]: s2.points[j] for i, j in sorted(image.items())}


def ultrametric_isometric(s1: FiniteMetricSpace, s2: FiniteMetricSpace) -> bool:
    """Fast isometry test: equal canonical codes of the hierarchy trees."""
    r1, r2 = _hierarchy(s1), _hierarchy(s2)
    if r1 is None or r2 is None:
        raise NotUltrametricError("both spaces must be ultrametric")
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
