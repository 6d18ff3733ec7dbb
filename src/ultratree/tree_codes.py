"""Canonical codes of trees, for each isomorphism flavor.

Codes are printable strings with a one-byte schema version prefix; equal
codes mean isomorphic inputs for the declared flavor.  One bottom-up loop
sorts child codes for every flavor: rooted codes run it up a RootedTree's BFS
order, and free codes are read off the leaf peel that finds the one or two
centers, finished at each center with the other below it, keeping the smaller.
Payloads are checked and normalized by canonical._payload_maps, the rule
are_isomorphic applies to other graphs too, and embedded in canonical
lowest-terms text, so value equality and code equality coincide.  Only
comparisons of trees load this module, and in the package only
canonical.are_isomorphic compares codes.
"""

from __future__ import annotations

from typing import Mapping, Optional

from .canonical import _ROOTED, IsoFlavor, _payload_maps
from .graphs import RootedTree, Tree, Vertex

SCHEMA_VERSION = "1"
_TAG = {IsoFlavor.FREE: "F", IsoFlavor.ROOTED: "R", IsoFlavor.VERTEX_LABELED: "V",
        IsoFlavor.EDGE_WEIGHTED: "E", IsoFlavor.ROOTED_LABELED: "L", IsoFlavor.ROOTED_WEIGHTED: "W"}


def _peel(t: Tree) -> tuple[list[Vertex], dict[Vertex, Vertex], tuple[Vertex, ...]]:
    # Leaves peeled a layer at a time until one or two vertices are left: the other
    # vertices in peel order, the neighbor each is peeled toward, and the middle.
    adj = t._adj  # type: ignore[attr-defined]
    deg = {v: len(ns) for v, ns in adj.items()}  # zero once peeled
    layer, order, toward = [v for v, d in deg.items() if d < 2], [], {}
    while len(deg) - len(order) > 2:
        nxt = []
        for v in layer:
            deg[v] = 0
            for u in adj[v]:
                if deg[u]:  # the one neighbor not yet peeled
                    toward[v] = u
                    deg[u] -= 1
                    if deg[u] == 1:
                        nxt.append(u)
        order += layer
        layer = nxt
    return order, toward, tuple(sorted(layer))


def tree_centers(t: Tree) -> tuple[Vertex, ...]:
    """The one or two middle vertices of a longest path, by leaf peeling."""
    return _peel(t)[2]


def _texts(vals: dict) -> dict:
    from .rational import format_rational

    memo: dict = {}  # keyed by object, as hashing a Fraction costs more than formatting it
    return {k: memo[i] if (i := id(x)) in memo else memo.setdefault(i, format_rational(x)) for k, x in vals.items()}


def _encode(order, parent: Mapping, kids: dict, labels: Optional[dict], weights: Optional[dict]) -> str:
    # With no recursion: each vertex of order, after its children, sorts the codes kids
    # holds for it, then hands its code to its parent.  Returns the last code.
    code = ""
    for v in order:
        if (parts := kids.pop(v, None)) is None:  # a leaf: nothing to sort or join, one shared "()" unlabeled
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
    lab, wts = (None if m is None else _texts(m) for m in _payload_maps(t, flavor, labels, weights, root))
    if flavor in _ROOTED:
        rt = RootedTree(t, root)
        order, parent, middle = rt.bfs_order()[:0:-1], rt._parent, (root,)  # type: ignore[attr-defined]
    else:
        order, parent, middle = _peel(t)
    _encode(order, parent, kids := {}, lab, wts)
    # finished at each middle vertex c, with the other one, if any, hung below it
    return SCHEMA_VERSION + _TAG[flavor] + ":" + min(
        _encode([*b, c], {c: None, **dict.fromkeys(b, c)}, {m: kids.get(m, [])[:] for m in middle}, lab, wts)
        for c, b in zip(middle, (middle[1:], middle[:1]))
    )
