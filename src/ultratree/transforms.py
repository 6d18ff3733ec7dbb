"""Structure-altering constructions on weighted trees and labeled graphs.

The out-degree-one reduction contracts every pass-through vertex of an
equidistant tree while preserving distances between out-degree-zero
vertices; one walk from the root finds each kept vertex's nearest kept
ancestor.  The bottleneck spanning tree realizes the minimax label metric
of a connected graph on a tree: Kruskal's algorithm on the edge key
max(l(u), l(v)) (Hu 1961).  The counterexample for cyclic graphs produces
weight pairs that are isometric but non-isomorphic; its heavy edge is the
last edge Kruskal's pass from the largest edge down finds already joined.
The metric reading of the reduction and the counterexample pair for rooted
trees with a pass-through vertex, which no verb runs, are in propositions.py.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Mapping

from ._record import record
from .errors import AcyclicInputError, DisconnectedGraphError, PathTreeError
from .graphs import Edge, Graph, RootedTree, Tree, Vertex
from .payloads import normalize_labels

if TYPE_CHECKING:
    from .duality import EquidistantTree


@record
class NablaResult:
    reduced: EquidistantTree
    removed: frozenset[Vertex]
    new_root: Vertex


def reduce_nabla(et: EquidistantTree) -> NablaResult:
    """Suppress every out-degree-one vertex of an equidistant tree.

    A hanging root chain is dropped by re-rooting at the nearest branching
    descendant; every other out-degree-one vertex is replaced by a single
    edge carrying the sum of its two incident weights.  One walk down from
    the new root joins each kept vertex (out-degree zero or at least two) to
    its nearest kept ancestor, at their difference in root distance, read
    off the integer root distances et keeps.  Fails on weighted paths, where
    nothing would remain.
    """
    from .duality import EquidistantTree, _fractions, degree_sets

    _, v1, v2 = degree_sets(et.rt)
    if not v2:
        raise PathTreeError("every vertex has out-degree at most one")

    rt = et.rt
    order = rt.bfs_order()  # the root chain comes first
    k = 0
    while rt.out_degree(order[k]) == 1:
        k += 1
    root = order[k]

    (dist, den, *_), parent = et._scaled, rt._parent  # type: ignore[attr-defined]  # root distances times den
    top = {root: root}  # the nearest kept vertex at or above each vertex
    for c in order[k + 1 :]:  # below the new root, each vertex after its parent
        top[c] = top[parent[c]] if c in v1 else c
    tree = Tree(Graph(set(top.values()), [(top[parent[c]], c) for c in top if top[c] == c != root]), root)
    spans = {(u, v): abs(dist[u] - dist[v]) for u, v in tree.edges}  # weights times den, in edge order
    reduced = EquidistantTree._trusted(RootedTree(tree, root), _fractions(spans, den), spans, den)
    removed = frozenset(et.rt.vertices).difference(tree.vertices)
    assert removed == v1
    return NablaResult(reduced, removed, root)


def _kruskal(g: Graph, edges: Iterable[Edge]) -> tuple[list[Edge], list[Edge]]:
    # One union-find pass over the edges in the given order: the edges that
    # join two components, and the edges whose ends are already joined.
    leader = {v: v for v in g.vertices}

    def find(v: Vertex) -> Vertex:
        while leader[v] != v:
            leader[v] = leader[leader[v]]
            v = leader[v]
        return v

    joined: tuple[list[Edge], list[Edge]] = ([], [])
    for u, v in edges:
        a, b = find(u), find(v)
        leader[a] = b  # a no-op when the ends are already joined
        joined[a == b].append((u, v))
    return joined


def bottleneck_spanning_tree(g: Graph, l: Mapping) -> Tree:
    """A spanning tree whose max-label path metric equals the graph's
    minimax label metric.

    Kruskal's algorithm on the key (max(l(u), l(v)), edge): a path's max
    label is the max of this key over its edges, and a minimum spanning tree
    minimizes the largest key on the path between any two vertices (Hu 1961).
    Ties go to the lexicographically smaller edge; a tree comes back as is.
    """
    if not g.is_connected():
        raise DisconnectedGraphError("spanning tree needs a connected graph")
    labels = normalize_labels(g, l)
    chosen = _kruskal(g, sorted(g.edges, key=lambda e: (max(labels[e[0]], labels[e[1]]), e)))[0]
    return Tree(Graph(g.vertices, chosen))


def _cycle_edge(g: Graph) -> Edge:
    # Lexicographically smallest edge lying on a cycle.  Walked from the
    # largest edge down, an edge's ends are already joined exactly when it is
    # the smallest edge of some cycle, so the smallest edge on any cycle is
    # the last such edge.
    closing = _kruskal(g, reversed(g.edges))[1]
    if not closing:
        raise AcyclicInputError("graph has no cycle")
    return closing[-1]


def cyclic_weight_counterexample(g: Graph) -> tuple[dict[Edge, Fraction], dict[Edge, Fraction]]:
    """Two weightings of one cyclic graph: non-isomorphic as weighted graphs,
    yet their shortest-path metric spaces are isometric.

    A fixed cycle edge gets weight 1+|E| in the first and 2+|E| in the
    second, all other edges weight 1; the heavy edge is never on a shortest
    path, so both metrics equal the graph metric without that edge.
    """
    if not g.is_connected():
        raise DisconnectedGraphError("need a connected graph")
    e0 = _cycle_edge(g)
    m = len(g.edges)
    w1 = {e: Fraction(1) for e in g.edges}
    w2 = {e: Fraction(1) for e in g.edges}
    w1[e0] = Fraction(1 + m)
    w2[e0] = Fraction(2 + m)
    return w1, w2
