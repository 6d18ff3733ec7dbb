"""Shared fixtures-in-code for the test suite, in four parts.

Tree building from an edge list and the unique path between two tree
vertices.  They live here, with all_simple_paths below, and not in the
package: no verb, selftest or library route calls them.

The worked instances of the paper's figures and the independent checkers:
permutation-search isomorphism, the matrix check on the values themselves and
every rooted shape by level sequences, each written from the definitions and
never routed through the code under test.

Seeded random instances: trees, connected graphs, weights, labels,
equidistant trees and ultrametric spaces, deterministic for a fixed
random.Random seed and meant for small sizes.

The brute-force references the fast routes of the package are compared
against.  They enumerate: unique tree paths by exhaustive simple-path search,
graph metrics by folding over all simple paths, balls by trying every center
and radius, the strong triangle inequality over all triples; enumeration
refuses inputs beyond the test-scale vertex cap, PATH_SIZE_LIMIT.  The
hierarchy tree is built by the paper's recursion into diametrical blocks, one
sub-matrix per ball.  The rest are the direct, quadratic forms of the one-pass
routes: the Delta-reduction suppressing one out-degree-one vertex per rebuilt
rooted tree, centers by checking every rooting, the smallest cycle edge by
deleting each edge in turn, and the rooted canonical code by recursion.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from ultratree import Graph, RootedTree, Tree, edge_key
from ultratree.duality import EquidistantTree, check_equidistant, degree_sets, labeling_to_weight
from ultratree.errors import AcyclicInputError, BadMatrixError, PathTreeError, SizeLimitError, VertexNotFoundError
from ultratree.graphs import Edge, Vertex
from ultratree.metrics import FiniteMetricSpace
from ultratree.path_metrics import space_from
from ultratree.payloads import normalize_weights
from ultratree.random_monotone import generate_monotone
from ultratree.representing import LabeledRootedTree, ball_id
from ultratree.spaces import diametrical_graph, multipartite_parts, restrict
from ultratree.transforms import NablaResult

F = Fraction
Path = tuple[Vertex, ...]  # a vertex sequence, as find_path and all_simple_paths return one


# Tree building and tree paths


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


# Worked instances and independent checkers


def fig13_tree():
    t = tree_from_edges([("x1", "y1"), ("x2", "y1"), ("y1", "y2"), ("y2", "x3"), ("y2", "x4")])
    w = {
        ("x1", "y1"): F(2),
        ("x2", "y1"): F(2),
        ("y1", "y2"): F(3),
        ("y2", "x3"): F(1),
        ("y2", "x4"): F(1),
    }
    return t, w


def fig10_tree():
    t = tree_from_edges([("r", "a"), ("a", "b"), ("b", "c"), ("b", "d")])
    w = {("r", "a"): F(1), ("a", "b"): F(2), ("b", "c"): F(4), ("b", "d"): F(4)}
    return RootedTree(t, "r"), w


def fig5_tree():
    t = tree_from_edges([("r", "v1"), ("v1", "v2"), ("v1", "v3"), ("v2", "v4")])
    w = {("r", "v1"): F(1), ("v1", "v2"): F(2), ("v1", "v3"): F(3), ("v2", "v4"): F(1)}
    return RootedTree(t, "r"), w


def fig3_tree():
    t = tree_from_edges(
        [("v1", "v2"), ("v1", "v3"), ("v1", "v4"), ("v1", "v5"),
         ("v2", "v6"), ("v2", "v7"), ("v3", "v8"), ("v3", "v9")]
    )
    w = {
        ("v1", "v2"): F(2), ("v1", "v3"): F(2), ("v1", "v4"): F(4), ("v1", "v5"): F(4),
        ("v2", "v6"): F(2), ("v2", "v7"): F(2), ("v3", "v8"): F(2), ("v3", "v9"): F(2),
    }
    return t, w


def fig6_graph():
    g = Graph(
        "ABCDEF",
        [("A", "B"), ("A", "C"), ("A", "D"), ("B", "C"), ("B", "D"), ("C", "D"),
         ("C", "E"), ("C", "F"), ("D", "E"), ("D", "F"), ("E", "F")],
    )
    labels = {"A": F(3), "B": F(3), "C": F(2), "D": F(2), "E": F(1), "F": F(1)}
    return g, labels


def fig11_trees():
    edges = [("r", "p"), ("r", "a"), ("r", "d"), ("a", "b"), ("a", "c"), ("a", "q"),
             ("a", "s"), ("b", "t"), ("b", "u"), ("c", "x"), ("c", "y"), ("d", "m"), ("d", "n")]
    t = tree_from_edges(edges)
    w = {
        ("r", "p"): F(5), ("r", "a"): F(1), ("r", "d"): F(2),
        ("a", "b"): F(2), ("a", "c"): F(2), ("a", "q"): F(4), ("a", "s"): F(4),
        ("b", "t"): F(2), ("b", "u"): F(2), ("c", "x"): F(2), ("c", "y"): F(2),
        ("d", "m"): F(3), ("d", "n"): F(3),
    }
    labels = {"r": F(10), "p": F(0), "a": F(8), "d": F(6), "b": F(4), "c": F(4),
              "q": F(0), "s": F(0), "t": F(0), "u": F(0), "x": F(0), "y": F(0),
              "m": F(0), "n": F(0)}
    return RootedTree(t, "r"), w, labels


def fig1_tree():
    return tree_from_edges(
        [("v1", "v2"), ("v1", "v3"), ("v1", "v4"),
         ("v3", "v5"), ("v3", "v6"), ("v3", "v7"), ("v3", "v8"),
         ("v4", "v9"), ("v4", "v10"),
         ("v5", "v11"), ("v5", "v12"), ("v6", "v13"), ("v6", "v14")]
    )


def brute_iso(a, b, labels1=None, labels2=None, weights1=None, weights2=None,
              root1=None, root2=None) -> bool:
    """Permutation-search isomorphism, written from the definitions."""
    if len(a.vertices) != len(b.vertices):
        return False
    ea, eb = set(a.edges), set(b.edges)
    for perm in itertools.permutations(b.vertices):
        f = dict(zip(a.vertices, perm))
        if root1 is not None and f[root1] != root2:
            continue
        ok = all(
            ((u, v) in ea) == (edge_key(f[u], f[v]) in eb)
            for i, u in enumerate(a.vertices)
            for v in a.vertices[i + 1 :]
        )
        if ok and labels1 is not None:
            ok = all(labels1[v] == labels2[f[v]] for v in a.vertices)
        if ok and weights1 is not None:
            ok = all(weights1[e] == weights2[edge_key(f[e[0]], f[e[1]])] for e in ea)
        if ok:
            return True
    return False


# Denominators with few common factors, so weights over them have a large common denominator.
MIXED_DENS = (1, 2, 3, 7, 11, 13, 999983, 1000003, 2**31 - 1)


def mixed_equidistant_weights(rng, rt: RootedTree):
    """Random weights over MIXED_DENS on a rooted tree of two or more vertices,
    with each edge into an out-degree-zero vertex closing its path at one K.
    Returns the weights, every root distance summed on Fractions, and K."""
    w = {edge_key(v, c): F(rng.randint(1, 40), rng.choice(MIXED_DENS)) for v in rt.vertices for c in rt.children(v)}
    plain = {rt.root: F(0)}
    for v in rt.bfs_order():
        for c in rt.children(v):
            plain[c] = plain[v] + w[edge_key(v, c)]
    v0 = [v for v in rt.vertices if not rt.children(v)]
    K = max(plain[rt.parent(v)] for v in v0) + F(rng.randint(1, 9), rng.choice(MIXED_DENS))
    for v in v0:
        w[edge_key(rt.parent(v), v)] = K - plain[rt.parent(v)]
        plain[v] = K
    return w, plain, K


def rooted_shapes(n: int):
    """Every rooted tree shape on n >= 1 vertices, once each, as (tree, root).

    Beyer and Hedetniemi (1980): a shape is its canonical level sequence, the
    lexicographically largest of its preorder depth sequences, and these come
    in decreasing lexicographic order from the path (1, 2, ..., n) to the star
    (1, 2, ..., 2).  The successor of L takes the last p with L[p] > 2 and the
    last q < p with L[q] = L[p] - 1, the parent of p, and repeats L[q:p] from p
    on.  Vertex i hangs from the last vertex before it one level up.
    """
    names = [f"v{i:02d}" for i in range(n)]
    levels = list(range(1, n + 1))
    while True:
        edges = [(names[max(j for j in range(i) if levels[j] == levels[i] - 1)], names[i]) for i in range(1, n)]
        yield Tree(Graph(names, edges)), names[0]
        p = max((i for i in range(n) if levels[i] > 2), default=None)
        if p is None:
            return
        q = max(i for i in range(p) if levels[i] == levels[p] - 1)
        for i in range(p, n):
            levels[i] = levels[i - p + q]


def rename_tree(t: Tree, mapping):
    return Tree(Graph([mapping[v] for v in t.vertices],
                      [(mapping[u], mapping[v]) for u, v in t.edges]))


def rename_weights(w, mapping):
    return {edge_key(mapping[u], mapping[v]): val for (u, v), val in w.items()}


def rename_labels(l, mapping):
    return {mapping[v]: val for v, val in l.items()}


def check_matrix_by_fractions(mat, where, nonnegative) -> None:
    """The matrix check on the values themselves, pairwise in row order: zero
    diagonal, symmetry and, if asked, no negative entry.  The reference the
    rank check must agree with, defect for defect and message for message."""
    n = len(mat)
    for i in range(n):
        if mat[i][i] != 0:
            raise BadMatrixError(f"nonzero diagonal at {where(i, i)}")
        for j in range(i + 1, n):
            if mat[i][j] != mat[j][i]:
                raise BadMatrixError(f"asymmetric at {where(i, j)}")
            if nonnegative and mat[i][j] < 0:
                raise ValueError(f"negative distance at {where(i, j)}")


# Seeded random instances


def _rng(seed: int | random.Random) -> random.Random:
    return seed if isinstance(seed, random.Random) else random.Random(seed)


def random_tree(seed: int | random.Random, size: int, prefix: str = "v") -> Tree:
    rng = _rng(seed)
    names = [f"{prefix}{i:02d}" for i in range(size)]
    edges = [(names[rng.randrange(i)], names[i]) for i in range(1, size)]
    return Tree(Graph(names, edges))


def random_connected_graph(
    seed: int | random.Random, size: int, extra_edges: int = 2, prefix: str = "v"
) -> Graph:
    """Random spanning tree plus up to extra_edges additional edges."""
    rng = _rng(seed)
    t = random_tree(rng, size, prefix)
    edges = set(t.edges)
    vs = t.vertices
    non_edges = [
        (u, v) for i, u in enumerate(vs) for v in vs[i + 1 :] if (u, v) not in edges
    ]
    rng.shuffle(non_edges)
    edges.update(non_edges[:extra_edges])
    return Graph(vs, edges)


def random_rational(rng: random.Random, lo: int = 1, hi: int = 9) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice((1, 1, 2, 4)))


def random_weights(seed: int | random.Random, g: Graph) -> dict[Edge, Fraction]:
    rng = _rng(seed)
    return {e: random_rational(rng) for e in g.edges}


def random_labels(
    seed: int | random.Random, g: Graph, allow_zero: bool = True
) -> dict[Vertex, Fraction]:
    rng = _rng(seed)
    lo = 0 if allow_zero else 1
    return {v: Fraction(rng.randint(lo, 6)) for v in g.vertices}


def random_equidistant_tree(
    seed: int | random.Random,
    min_size: int = 1,
    max_size: int = 10,
    branching_only: bool = False,
) -> EquidistantTree:
    """Random equidistant tree, via its paired monotone labeling."""
    return labeling_to_weight(generate_monotone(_rng(seed), min_size, max_size, branching_only))


def random_ultrametric_space(
    seed: int | random.Random, size: int, names: Optional[list[Vertex]] = None
) -> FiniteMetricSpace:
    """Random ultrametric space built by recursive partitioning.

    The distance of two points is the diameter of the smallest common block,
    with child-block diameters strictly below the parent's.
    """
    rng = _rng(seed)
    pts = names if names is not None else [f"p{i:02d}" for i in range(size)]
    if len(pts) != size or size < 1:
        raise ValueError("need size >= 1 matching names")
    dist: dict[tuple[Vertex, Vertex], Fraction] = {}
    # Blocks wait on a stack with their parent's diameter (None at the top),
    # so the draws come in the order of a depth-first recursion.
    todo: list[tuple[list[Vertex], Optional[Fraction]]] = [(list(pts), None)]
    while todo:
        block, above = todo.pop()
        diam = Fraction(rng.randint(1, 8)) if above is None else above * Fraction(rng.randint(1, 3), 4)
        if len(block) == 1:
            continue
        k = rng.randint(2, len(block))
        shuffled = block[:]
        rng.shuffle(shuffled)
        cuts = sorted(rng.sample(range(1, len(block)), k - 1))
        parts = [shuffled[a:b] for a, b in zip([0] + cuts, cuts + [len(block)])]
        for i, part in enumerate(parts):
            for other in parts[i + 1 :]:
                for x in part:
                    for y in other:
                        dist[(x, y)] = dist[(y, x)] = diam
        todo += [(part, diam) for part in reversed(parts)]
    return space_from(pts, lambda x, y: dist[(x, y)])


def shuffled_renaming(seed: int | random.Random, space: FiniteMetricSpace, prefix: str = "q") -> FiniteMetricSpace:
    """Isometric copy with freshly shuffled point names."""
    rng = _rng(seed)
    new_names = [f"{prefix}{i:02d}" for i in range(len(space.points))]
    rng.shuffle(new_names)
    return space.rename(dict(zip(space.points, new_names)))


# Brute-force references


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
        u, v = e
        seen, todo = {u}, [u]
        for x in todo:  # the list grows as it is read
            fresh = [y for y in rest.neighbors(x) if y not in seen]
            seen.update(fresh)
            todo += fresh
        if v in seen:
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
