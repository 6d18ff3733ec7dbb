"""Structure-altering constructions on weighted trees and labeled graphs.

The out-degree-one reduction contracts every pass-through vertex of an
equidistant tree while preserving distances between out-degree-zero
vertices; one walk from the root finds each kept vertex's nearest kept
ancestor.  The bottleneck spanning tree realizes the minimax label metric
of a connected graph on a tree: Kruskal's algorithm on the edge key
max(l(u), l(v)) (Hu 1961).  Two counterexample constructions produce weight
pairs that are isometric but non-isomorphic, one for cyclic graphs, whose
heavy edge is the smallest edge that is not a bridge (one low-link search,
Tarjan 1974), and one for rooted trees with a pass-through vertex.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Mapping

from .errors import AcyclicInputError, DisconnectedGraphError, PathTreeError
from .graphs import Edge, Graph, RootedTree, Tree, Vertex, degree_sets, edge_key, normalize_labels, record

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
    its nearest kept ancestor, at their difference in root distance.  Fails
    on weighted paths, where nothing would remain.
    """
    from .duality import EquidistantTree, root_distances

    _, v1, v2 = degree_sets(et.rt)
    if not v2:
        raise PathTreeError("every vertex has out-degree at most one")

    rt = et.rt
    order = rt.bfs_order()  # the root chain comes first
    k = 0
    while rt.out_degree(order[k]) == 1:
        k += 1
    root = order[k]

    dist = root_distances(rt, et.weights)
    weights: dict[Edge, Fraction] = {}
    top = {root: root}  # the nearest kept vertex at or above each vertex
    for v in order[k:]:
        for c in rt.children(v):
            if c in v1:
                top[c] = top[v]
            else:
                weights[edge_key(top[v], c)] = dist[c] - dist[top[v]]
                top[c] = c

    kept = set(top.values())
    reduced = EquidistantTree(RootedTree(Tree(Graph(kept, weights.keys())), root), weights)
    removed = frozenset(et.rt.vertices) - kept
    assert removed == v1
    return NablaResult(reduced, removed, root)


def nabla_geometric_membership(et: EquidistantTree, x: Vertex) -> bool:
    """Membership in the reduced vertex set, read off the metric alone.

    True iff some pair y, z of out-degree-zero vertices (possibly equal) has
    x as its metric midpoint: d(y,x) = d(x,z) = d(y,z)/2.
    """
    _, _, v2 = degree_sets(et.rt)
    if not v2:
        raise PathTreeError("every vertex has out-degree at most one")
    space = et.metric()
    leaves = sorted(et.v0())
    return any(
        space.distance(y, x) == space.distance(x, z) == space.distance(y, z) / 2
        for y in leaves
        for z in leaves
    )


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
    leader = {v: v for v in g.vertices}

    def find(v: Vertex) -> Vertex:
        while leader[v] != v:
            leader[v] = leader[leader[v]]
            v = leader[v]
        return v

    chosen = []
    for u, v in sorted(g.edges, key=lambda e: (max(labels[e[0]], labels[e[1]]), e)):
        a, b = find(u), find(v)
        if a != b:
            leader[a] = b
            chosen.append((u, v))
    return Tree(Graph(g.vertices, chosen))


def _cycle_edge(g: Graph) -> Edge:
    # Lexicographically smallest edge lying on a cycle, i.e. the smallest
    # edge that is not a bridge.  One iterative depth-first search numbers
    # the vertices in visiting order; low[v] is the smallest number reached
    # from v's subtree by one back edge, and the tree edge into v is a bridge
    # iff low[v] exceeds its parent's number.
    number: dict[Vertex, int] = {}
    low: dict[Vertex, int] = {}
    bridges: set[Edge] = set()
    for start in g.vertices:
        if start in number:
            continue
        number[start] = low[start] = len(number)
        stack = [(start, None, iter(g.neighbors(start)))]
        while stack:
            v, parent, rest = stack[-1]
            for u in rest:
                if u not in number:
                    number[u] = low[u] = len(number)
                    stack.append((u, v, iter(g.neighbors(u))))
                    break
                if u != parent:
                    low[v] = min(low[v], number[u])
            else:
                stack.pop()
                if parent is not None:
                    low[parent] = min(low[parent], low[v])
                    if low[v] > number[parent]:
                        bridges.add(edge_key(parent, v))
    for e in g.edges:
        if e not in bridges:
            return e
    raise AcyclicInputError("graph has no cycle")


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


def passthrough_counterexample_pair(et: EquidistantTree) -> tuple[EquidistantTree, EquidistantTree]:
    """Two equidistant weights on one rooted tree with a pass-through vertex:
    non-isomorphic as rooted weighted trees, with identical distance
    matrices on the out-degree-zero vertices.

    At a non-root pass-through vertex the two incident weights are re-split
    two different ways with the same sum, using four fresh values; when the
    root is the only pass-through vertex its pendant edge is re-weighted
    instead, which shifts K but no leaf-to-leaf distance.
    """
    from .duality import EquidistantTree

    _, ones, _ = degree_sets(et.rt)
    if not ones:
        raise PathTreeError("no out-degree-one vertex to exploit")
    existing = set(et.weights.values())

    interior = sorted(v for v in ones if v != et.rt.root)
    if interior:
        v = interior[0]
        parent = et.rt.parent(v)
        (child,) = et.rt.children(v)
        assert parent is not None
        e_up, e_down = edge_key(parent, v), edge_key(v, child)
        total = et.weights[e_up] + et.weights[e_down]
        # Each existing weight can rule out at most four q values.
        for q in range(7, 4 * len(existing) + 17, 2):
            eps = total / q
            values = (total / 2 - eps, total / 2 + eps, total / 2 - 2 * eps, total / 2 + 2 * eps)
            if len(set(values)) == 4 and not (set(values) & existing) and min(values) > 0:
                s1, s2, t1, t2 = values
                w1 = dict(et.weights)
                w2 = dict(et.weights)
                w1[e_up], w1[e_down] = s1, s2
                w2[e_up], w2[e_down] = t1, t2
                return EquidistantTree(et.rt, w1), EquidistantTree(et.rt, w2)
        raise RuntimeError("could not find fresh split values")

    # Root is the only pass-through vertex: re-weight its pendant edge.
    (child,) = et.rt.children(et.rt.root)
    e = edge_key(et.rt.root, child)
    base = et.weights[e]
    for q in range(2, 100):
        fresh = base * Fraction(q + 1, q)
        if fresh not in existing:
            w2 = dict(et.weights)
            w2[e] = fresh
            return EquidistantTree(et.rt, dict(et.weights)), EquidistantTree(et.rt, w2)
    raise RuntimeError("could not find a fresh pendant weight")
