"""Canonical codes, isomorphism tests and isometry search.

Codes are printable strings with a one-byte schema version prefix; equal
codes mean isomorphic inputs for the declared flavor.  Rooted flavors sort
child codes, built from the leaves up; free flavors root the tree at its one
or two centers and keep the smaller code.  Rational payloads are embedded in
canonical lowest-terms text, so value equality and code equality coincide.

General (non-tree) graph isomorphism and isometry search are one small
pruned search for a bijection carrying a matrix onto another, and one check
of a given map: a space has its distance matrix, a graph its relation matrix
(labels on the diagonal, edge weights or an edge mark at adjacent pairs, a
non-edge mark elsewhere).  They are the oracles fast paths are tested against.
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


def _relation_rows(g: Graph, labels: Optional[Mapping], weights: Optional[Mapping]) -> list[list[tuple]]:
    # (label,) on the diagonal, (weight,) or (1,) at adjacent pairs and () at
    # every other pair.  A non-edge differs from every edge by length alone,
    # whatever the payload values, and normalized entries all sort together.
    index = {v: i for i, v in enumerate(g.vertices)}
    rows: list[list[tuple]] = [[()] * len(index) for _ in index]
    if labels is not None:
        for v, i in index.items():
            rows[i][i] = (labels[v],)
    for e in g.edges:
        i, j = index[e[0]], index[e[1]]
        rows[i][j] = rows[j][i] = (weights[e],) if weights is not None else (1,)
    return rows


def _search(a: tuple, b: tuple) -> Optional[dict[int, int]]:
    """An index bijection carrying matrix a onto matrix b, or None.

    a and b are (rows, names) pairs.  Pruning: the sorted multisets of all
    entries must agree; a point's candidates share its row profile (diagonal
    entry and sorted row); the point with fewest candidates is placed first.
    """
    (rows1, names1), (rows2, names2) = a, b
    n = len(names1)
    if n != len(names2):
        return None
    if sorted(x for row in rows1 for x in row) != sorted(x for row in rows2 for x in row):
        return None

    def profile(rows, i: int) -> tuple:
        return rows[i][i], tuple(sorted(rows[i]))

    profiles2: dict[tuple, list[int]] = {}
    for j in range(n):
        profiles2.setdefault(profile(rows2, j), []).append(j)
    # same-named candidates first, so a matrix searched against itself (or a
    # same-named copy) yields the identity bijection
    candidates = [sorted(profiles2.get(profile(rows1, i), []), key=lambda j, i=i: (names2[j] != names1[i], j))
                  for i in range(n)]
    if not all(candidates):
        return None

    order = sorted(range(n), key=lambda i: (len(candidates[i]), names1[i]))
    image: dict[int, int] = {}
    used: set[int] = set()

    def assign(k: int) -> bool:
        if k == n:
            return True
        i = order[k]
        for j in candidates[i]:
            if j in used or any(rows1[i][i2] != rows2[j][j2] for i2, j2 in image.items()):
                continue
            image[i] = j
            used.add(j)
            if assign(k + 1):
                return True
            del image[i]
            used.discard(j)
        return False

    return image if assign(0) else None


def _carries(mapping: Mapping[Vertex, Vertex], a: tuple, b: tuple) -> bool:
    # The check of a given map: a bijection from a's names onto b's that
    # carries every entry of matrix a onto the entry of matrix b at the images.
    (rows1, names1), (rows2, names2) = a, b
    if sorted(mapping) != list(names1) or sorted(mapping.values()) != list(names2):
        return False
    at = {v: j for j, v in enumerate(names2)}
    image = [at[mapping[v]] for v in names1]
    n = len(image)
    return all(rows1[i][k] == rows2[image[i]][image[k]] for i in range(n) for k in range(i, n))


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

    Trees compare by canonical code.  Other graphs go to the bijection
    search on their relation matrices, limited to GRAPH_SIZE_LIMIT
    vertices; rooted flavors apply to trees only.
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
    a, b = _as_graph(g1), _as_graph(g2)
    if max(len(a.vertices), len(b.vertices)) > GRAPH_SIZE_LIMIT:
        raise SizeLimitError(
            f"graph isomorphism is limited to {GRAPH_SIZE_LIMIT} vertices"
        )
    lab1 = normalize_labels(a, labels1) if labels1 is not None else None
    lab2 = normalize_labels(b, labels2) if labels2 is not None else None
    w1 = normalize_weights(a, weights1, strict=False) if weights1 is not None else None
    w2 = normalize_weights(b, weights2, strict=False) if weights2 is not None else None
    rows1, rows2 = _relation_rows(a, lab1, w1), _relation_rows(b, lab2, w2)
    return _search((rows1, a.vertices), (rows2, b.vertices)) is not None


def is_isometry(s1: FiniteMetricSpace, s2: FiniteMetricSpace, mapping: Mapping[Vertex, Vertex]) -> bool:
    """Check a specific bijection preserves all distances."""
    return _carries(mapping, (s1.rows, s1.points), (s2.rows, s2.points))


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
    """Check a specific bijection is an isomorphism, with optional payloads.

    Labels and weights count when labels1 and weights1 are given.
    """
    a, b = _as_graph(g1), _as_graph(g2)
    rows1 = _relation_rows(a, labels1, weights1)
    rows2 = _relation_rows(b, None if labels1 is None else labels2, None if weights1 is None else weights2)
    carried = _carries(mapping, (rows1, a.vertices), (rows2, b.vertices))
    return carried and (root1 is None or mapping[root1] == root2)


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
    image = _search((s1.rows, s1.points), (s2.rows, s2.points))
    return None if image is None else {s1.points[i]: s2.points[j] for i, j in sorted(image.items())}


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
