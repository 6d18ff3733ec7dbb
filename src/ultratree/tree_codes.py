"""Canonical codes of trees, for each isomorphism flavor.

Codes are printable strings with a one-byte schema version prefix; equal
codes mean isomorphic inputs for the declared flavor.  Rooted flavors sort
child codes, built from the leaves up along a RootedTree's BFS order; free
flavors root the tree at its one or two centers and keep the smaller code.
Rational payloads are embedded in canonical lowest-terms text, so value
equality and code equality coincide.  Only comparisons of trees load this
module.
"""

from __future__ import annotations

from typing import Mapping, Optional

from .canonical import _ROOTED, IsoFlavor, _check_payloads
from .graphs import Edge, RootedTree, Tree, Vertex, normalize_labels, normalize_weights
from .rational import format_rational

SCHEMA_VERSION = "1"
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
