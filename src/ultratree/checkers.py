"""Checkers of a given map: isometries, isomorphisms and the leaf swap.

Library calls and tests use them; no verb loads this module.  An isomorphism
is checked on the relation matrices of _bijection.py, the same matrices its
search compares, with its payload maps normalized once as are_isomorphic
normalizes them (canonical._normalized).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Optional

from ._bijection import _relation_rows
from .canonical import _normalized
from .errors import SingleVertexTreeError, VertexNotFoundError

if TYPE_CHECKING:
    from .duality import MonotoneTree
    from .graphs import Graph, Vertex
    from .metrics import FiniteMetricSpace


def is_isometry(s1: FiniteMetricSpace, s2: FiniteMetricSpace, mapping: Mapping[Vertex, Vertex]) -> bool:
    """Check a specific bijection preserves all distances."""
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
    rows1 = _relation_rows(g1, *_normalized(g1, labels1, weights1))
    payloads2 = (None if labels1 is None else labels2, None if weights1 is None else weights2)
    rows2 = _relation_rows(g2, *_normalized(g2, *payloads2))
    for g, root in ((g1, root1), (g2, root2)):
        if root is not None and not g.has_vertex(root):
            raise VertexNotFoundError(f"root {root!r} not a vertex")
    carried = _carries(mapping, (rows1, g1.vertices), (rows2, g2.vertices))
    return carried and (root1 is None or mapping[root1] == root2)


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
