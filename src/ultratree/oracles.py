"""Brute-force reference routes, independent of the fast implementations.

Everything here enumerates: unique tree paths by exhaustive simple-path
search, graph metrics by folding over all simple paths, balls by trying
every center and radius, the strong triangle inequality over all triples.
Enumeration refuses inputs beyond the test-scale vertex cap (see
all_simple_paths).  The hierarchy tree is built by the paper's recursion
into diametrical blocks, one sub-matrix per ball.

The rest are the direct, quadratic forms of the one-pass routes: the
Delta-reduction suppressing one out-degree-one vertex per rebuilt rooted
tree, centers by checking every rooting, the minimax spanning tree by
deleting one cycle edge per rebuilt graph, the smallest cycle edge by
deleting each edge in turn, and the rooted canonical code by recursion.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .duality import EquidistantTree, check_equidistant
from .errors import AcyclicInputError, DisconnectedGraphError, PathTreeError
from .graphs import (
    Edge,
    Graph,
    Path,
    RootedTree,
    Tree,
    Vertex,
    all_simple_paths,
    degree_sets,
    edge_key,
    find_cycle,
)
from .metrics import FiniteMetricSpace, normalize_labels, normalize_weights, restrict
from .rational import format_rational
from .representing import LabeledRootedTree, ball_id, diametrical_graph, multipartite_parts
from .transforms import NablaResult


def unique_path_by_enumeration(t: Tree, u: Vertex, v: Vertex) -> Path:
    """The u-v path found by exhaustive search; asserts uniqueness."""
    paths = list(all_simple_paths(t.underlying, u, v))
    if len(paths) != 1:
        raise AssertionError(f"expected exactly one path, found {len(paths)}")
    return paths[0]


def min_path_sum_by_enumeration(g: Graph, w: Mapping, u: Vertex, v: Vertex) -> Fraction:
    if u == v:
        return Fraction(0)
    weights = {edge_key(*e): Fraction(val) for e, val in w.items()}
    return min(
        sum(weights[edge_key(a, b)] for a, b in zip(p, p[1:]))
        for p in all_simple_paths(g, u, v)
    )


def minimax_label_by_enumeration(g: Graph, l: Mapping, u: Vertex, v: Vertex) -> Fraction:
    if u == v:
        return Fraction(0)
    labels = {x: Fraction(val) for x, val in l.items()}
    return min(max(labels[x] for x in p) for p in all_simple_paths(g, u, v))


def balls_by_enumeration(space: FiniteMetricSpace) -> set[frozenset[Vertex]]:
    """Every distinct ball, trying all centers and all realizable radii."""
    radii = {Fraction(0)} | {x for row in space.rows for x in row}
    out: set[frozenset[Vertex]] = set()
    for c in space.points:
        for r in radii:
            out.add(
                frozenset(x for x in space.points if space.distance(c, x) <= r)
            )
    return out


def strong_triangle_by_enumeration(rows: Sequence[Sequence[Fraction]]) -> bool:
    """d(i, j) <= max(d(i, k), d(k, j)) for every triple of indices."""
    n = len(rows)
    return all(
        rows[i][j] <= max(rows[i][k], rows[k][j])
        for i in range(n)
        for j in range(i + 1, n)
        for k in range(n)
    )


def hierarchy_by_diametrical_blocks(space: FiniteMetricSpace) -> LabeledRootedTree:
    """The hierarchy tree of a space known to be ultrametric, by recursion.

    The root holds the whole point set labeled by its diameter; children are
    the diametrical blocks labeled by their diameters; zero-label blocks are
    leaves and positive blocks recurse.
    """
    vertices: list[Vertex] = []
    edges: list[tuple[Vertex, Vertex]] = []
    labels: dict[Vertex, Fraction] = {}
    payloads: dict[Vertex, frozenset[Vertex]] = {}

    def build(points: tuple[Vertex, ...]) -> Vertex:
        vid = ball_id(points)
        sub = restrict(space, points)
        vertices.append(vid)
        labels[vid] = sub.diameter()
        payloads[vid] = frozenset(points)
        if labels[vid] > 0:
            for block in multipartite_parts(diametrical_graph(sub)):
                edges.append((vid, build(block)))
        return vid

    root = build(space.points)
    rt = RootedTree(Tree(Graph(vertices, edges)), root)
    return LabeledRootedTree(rt, labels, payloads)


def reduce_nabla_by_suppression(et: EquidistantTree) -> NablaResult:
    """transforms.reduce_nabla with one rebuilt rooted tree per step."""
    v0, v1, v2 = degree_sets(et.rt)
    if not v2:
        raise PathTreeError("every vertex has out-degree at most one")

    root = et.rt.root
    vertices = set(et.rt.vertices)
    weights = dict(et.weights)

    rt = et.rt
    while rt.out_degree(root) == 1:
        (child,) = rt.children(root)
        vertices.discard(root)
        del weights[edge_key(root, child)]
        root = child
        rt = RootedTree(Tree(Graph(vertices, weights.keys())), root)

    while True:
        _, ones, _ = degree_sets(rt)
        if not ones:
            break
        v = min(ones)
        parent = rt.parent(v)
        (child,) = rt.children(v)
        assert parent is not None
        merged = weights[edge_key(parent, v)] + weights[edge_key(v, child)]
        vertices.discard(v)
        del weights[edge_key(parent, v)]
        del weights[edge_key(v, child)]
        weights[edge_key(parent, child)] = merged
        rt = RootedTree(Tree(Graph(vertices, weights.keys())), root)

    reduced = EquidistantTree(rt, weights)
    removed = frozenset(et.rt.vertices) - vertices
    assert removed == v1
    return NablaResult(reduced, removed, root)


def centers_by_rooting(t: Tree, w: Mapping) -> frozenset[Vertex]:
    """analysis.centers by checking every rooting for equidistance."""
    weights = normalize_weights(t.underlying, w, strict=True)
    found = set()
    for r in t.vertices:
        if check_equidistant(RootedTree(t, r), weights) is not None:
            found.add(r)
    return frozenset(found)


def spanning_tree_by_cycle_deletion(g: Graph, l: Mapping) -> Tree:
    """A minimax spanning tree by cycle deletion: while a cycle remains, a
    maximum-label vertex on it loses one of its two cycle edges; ties and
    the edge choice resolve lexicographically."""
    if not g.is_connected():
        raise DisconnectedGraphError("spanning tree needs a connected graph")
    labels = normalize_labels(g, l)
    current = g
    while True:
        cycle = find_cycle(current)
        if cycle is None:
            break
        top = max(labels[v] for v in cycle)
        v1 = min(v for v in cycle if labels[v] == top)
        i = cycle.index(v1)
        around = (cycle[i - 1], cycle[(i + 1) % len(cycle)])
        doomed = min(edge_key(v1, u) for u in around)
        current = Graph(current.vertices, [e for e in current.edges if e != doomed])
    return Tree(current)


def cycle_edge_by_deletion(g: Graph) -> Edge:
    """transforms._cycle_edge by deleting each edge and testing whether its
    endpoints stay connected."""
    for e in g.edges:
        rest = Graph(g.vertices, [f for f in g.edges if f != e])
        comp = rest.components()
        u, v = e
        if any(u in c and v in c for c in comp):
            return e
    raise AcyclicInputError("graph has no cycle")


def rooted_code_by_recursion(
    t: Tree,
    root: Vertex,
    labels: Optional[dict[Vertex, Fraction]],
    weights: Optional[dict[Edge, Fraction]],
) -> str:
    """canonical._rooted_code by recursive child-code sorting."""
    def enc(v: Vertex, parent: Optional[Vertex]) -> str:
        parts = []
        for c in t.neighbors(v):
            if c == parent:
                continue
            piece = enc(c, v)
            if weights is not None:
                piece = "[" + format_rational(weights[edge_key(v, c)]) + "]" + piece
            parts.append(piece)
        head = format_rational(labels[v]) + ";" if labels is not None else ""
        return "(" + head + "".join(sorted(parts)) + ")"

    return enc(root, None)
