"""Test-scale graph helpers: simple-path enumeration, cycle finding and tree
building.

all_simple_paths enumerates every simple path and refuses inputs beyond the
test-scale vertex cap.  find_cycle, one depth-first search for some cycle, and
the tree helpers tree_from_edges, find_path and subtree_below serve tests and
library callers, and live here so that the graph module every CLI verb
compiles stays small.  The brute-force references the tests compare the fast
routes against are in the test suite (tests/helpers.py), not in the package.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from .errors import SizeLimitError, VertexNotFoundError
from .graphs import Graph, Path, RootedTree, Tree, Vertex


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
