"""Brute-force reference routes, independent of the fast implementations.

Everything here enumerates: unique tree paths by exhaustive simple-path
search, graph metrics by folding over all simple paths, balls by trying
every center and radius, the strong triangle inequality over all triples.
Enumeration refuses inputs beyond the test-scale vertex cap (see
all_simple_paths).  The hierarchy tree is built by the paper's recursion
into diametrical blocks, one sub-matrix per ball.

The rest are the direct, quadratic forms of the one-pass routes: the
Delta-reduction suppressing one out-degree-one vertex per rebuilt rooted
tree, centers by checking every rooting, the smallest cycle edge by
deleting each edge in turn, and the rooted canonical code by recursion.
find_cycle, one depth-first search for some cycle, and the tree helpers
tree_from_edges, find_path and subtree_below serve tests only and live here
so that the graph module every CLI verb compiles stays small.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .duality import EquidistantTree, check_equidistant, degree_sets
from .errors import AcyclicInputError, PathTreeError, SizeLimitError, VertexNotFoundError
from .graphs import Edge, Graph, Path, RootedTree, Tree, Vertex
from .metrics import FiniteMetricSpace
from .payloads import edge_key, normalize_weights
from .representing import LabeledRootedTree, ball_id
from .spaces import diametrical_graph, multipartite_parts, restrict
from .transforms import NablaResult


PATH_SIZE_LIMIT = 10


def all_simple_paths(g: Graph, u: Vertex, v: Vertex) -> Iterator[Path]:
    """Every simple u-v path, in depth-first lexicographic order.

    Exhaustive enumeration is exponential; inputs beyond PATH_SIZE_LIMIT
    vertices are refused so this stays a test-scale oracle.
    """
    if len(g.vertices) > PATH_SIZE_LIMIT:
        raise SizeLimitError(
            f"path enumeration limited to {PATH_SIZE_LIMIT} vertices, got {len(g.vertices)}"
        )
    if not (g.has_vertex(u) and g.has_vertex(v)):
        raise VertexNotFoundError(f"unknown endpoint {u!r} or {v!r}")

    path = [u]
    on_path = {u}

    def walk() -> Iterator[Path]:
        x = path[-1]
        if x == v:
            yield tuple(path)
            return
        for y in g.neighbors(x):
            if y in on_path:
                continue
            path.append(y)
            on_path.add(y)
            yield from walk()
            on_path.discard(y)
            path.pop()

    if u == v:
        yield (u,)
        return
    yield from walk()


def _canonical_cycle(cycle: list[Vertex]) -> tuple[Vertex, ...]:
    # Rotate to the lexicographically smallest vertex, then run toward its
    # smaller cycle neighbor.
    k = len(cycle)
    i = cycle.index(min(cycle))
    nxt, prv = cycle[(i + 1) % k], cycle[(i - 1) % k]
    if nxt <= prv:
        return tuple(cycle[i:] + cycle[:i])
    rotated = cycle[i::-1] + cycle[:i:-1]
    return tuple(rotated)


def find_cycle(g: Graph) -> Optional[tuple[Vertex, ...]]:
    """Some cycle of g in canonical rotation, or None if g is acyclic."""
    parent: dict[Vertex, Optional[Vertex]] = {}
    color: dict[Vertex, int] = {}
    for start in g.vertices:
        if start in color:
            continue
        stack: list[tuple[Vertex, Optional[Vertex]]] = [(start, None)]
        while stack:
            x, p = stack.pop()
            if x in color:
                continue
            color[x] = 1
            parent[x] = p
            for y in g.neighbors(x):
                if y == p:
                    continue
                if y in color:
                    # back edge x-y: walk x up to y
                    chain = [x]
                    while chain[-1] != y:
                        chain.append(parent[chain[-1]])  # type: ignore[arg-type]
                    if len(chain) >= 3:
                        return _canonical_cycle(chain)
                else:
                    stack.append((y, x))
    return None


def tree_from_edges(edges: Iterable[Iterable[Vertex]], vertices: Iterable[Vertex] = ()) -> Tree:
    es = [tuple(e) for e in edges]
    return Tree(Graph(set(vertices).union(*es), es))


def find_path(t: Tree, u: Vertex, v: Vertex) -> Path:
    """The unique u-v path in a tree, as a vertex sequence.

    Breadth-first frontiers grow from both ends over the neighbor lists, the
    one with fewer edges to scan extended each time, until they meet; so a
    query costs about the ball the path crosses, not the whole tree."""
    if not t.has_vertex(u):
        raise VertexNotFoundError(f"no vertex {u!r}")
    if not t.has_vertex(v):
        raise VertexNotFoundError(f"no vertex {v!r}")
    # per end: the vertex each reached vertex was reached from, its frontier and
    # the number of edges that frontier scans
    ends = [({u: None}, [u], t.degree(u)), ({v: None}, [v], t.degree(v))]
    meet = u if u == v else None
    while meet is None:
        i = ends[0][2] > ends[1][2]
        (came, frontier, _), other = ends[i], ends[1 - i][0]
        nxt, cost = [], 0
        for x in frontier:
            for y in t.neighbors(x):
                if y not in came:
                    came[y] = x
                    nxt.append(y)
                    cost += t.degree(y)
                    if y in other:
                        meet = y
        ends[i] = (came, nxt, cost)
    halves = []
    for came, _, _ in ends:  # meet back to u, then meet back to v
        half, x = [], meet
        while x is not None:
            half.append(x)
            x = came[x]
        halves.append(half)
    return (*reversed(halves[0]), *halves[1][1:])


def subtree_below(rt: RootedTree, v: Vertex) -> RootedTree:
    """The rooted subtree lying below v (v together with its successors)."""
    below = [v]
    for x in below:
        below += rt.children(x)
    return RootedTree(Tree(Graph(below, [(rt.parent(x), x) for x in below[1:]])), v)


def unique_path_by_enumeration(t: Tree, u: Vertex, v: Vertex) -> Path:
    """The u-v path found by exhaustive search; asserts uniqueness."""
    paths = list(all_simple_paths(t, u, v))
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
    weights = normalize_weights(t, w, strict=True)
    found = set()
    for r in t.vertices:
        if check_equidistant(RootedTree(t, r), weights) is not None:
            found.add(r)
    return frozenset(found)


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
    labels: Optional[dict[Vertex, str]],
    weights: Optional[dict[Edge, str]],
) -> str:
    """The code tree_codes builds below root (no schema prefix), by recursive child-code
    sorting, on label and weight text."""
    def enc(v: Vertex, parent: Optional[Vertex]) -> str:
        parts = []
        for c in t.neighbors(v):
            if c == parent:
                continue
            piece = enc(c, v)
            if weights is not None:
                piece = "[" + weights[edge_key(v, c)] + "]" + piece
            parts.append(piece)
        head = labels[v] + ";" if labels is not None else ""
        return "(" + head + "".join(sorted(parts)) + ")"

    return enc(root, None)
