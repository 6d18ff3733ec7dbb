"""Finite graphs, trees and rooted trees over opaque string vertex ids.

All values are immutable after construction and every operation is a pure
function, so sharing across threads needs no coordination.  Determinism
convention: vertex ids are ordered lexicographically everywhere (neighbor
lists, components, returned sets), so equal inputs give identical outputs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .errors import VertexNotFoundError

Vertex = str
Edge = tuple[str, str]
Path = tuple[str, ...]


def edge_key(u: Vertex, v: Vertex) -> Edge:
    """Normalize an unordered pair to a (min, max) tuple."""
    if u == v:
        raise ValueError(f"self-loop at {u!r}")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Finite simple graph: unique vertex ids, unordered edges, no loops."""

    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]

    def __init__(self, vertices: Iterable[Vertex], edges: Iterable[Iterable[Vertex]] = ()):
        vs = tuple(sorted(vertices))
        if len(set(vs)) != len(vs):
            raise ValueError("duplicate vertex ids")
        if not vs:
            raise ValueError("empty vertex set")
        vset = set(vs)
        es = set()
        for e in edges:
            u, v = e
            if u not in vset or v not in vset:
                raise VertexNotFoundError(f"edge endpoint not a vertex: {e!r}")
            es.add(edge_key(u, v))
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "edges", tuple(sorted(es)))
        object.__setattr__(self, "_edge_set", es)
        adj: dict[Vertex, list[Vertex]] = {v: [] for v in vs}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        object.__setattr__(self, "_adj", {v: tuple(sorted(ns)) for v, ns in adj.items()})

    def neighbors(self, v: Vertex) -> tuple[Vertex, ...]:
        try:
            return self._adj[v]  # type: ignore[attr-defined]
        except KeyError:
            raise VertexNotFoundError(f"no vertex {v!r}")

    def degree(self, v: Vertex) -> int:
        return len(self.neighbors(v))

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        return u != v and edge_key(u, v) in self._edge_set  # type: ignore[attr-defined]

    def vertex_count(self) -> int:
        return len(self.vertices)

    def components(self) -> list[tuple[Vertex, ...]]:
        """Connected components, each sorted, ordered by smallest member."""
        seen: set[Vertex] = set()
        out = []
        for start in self.vertices:
            if start in seen:
                continue
            comp = []
            queue = deque([start])
            seen.add(start)
            while queue:
                x = queue.popleft()
                comp.append(x)
                for y in self.neighbors(x):
                    if y not in seen:
                        seen.add(y)
                        queue.append(y)
            out.append(tuple(sorted(comp)))
        return out

    def is_connected(self) -> bool:
        return len(self.components()) == 1

    def is_tree(self) -> bool:
        return self.is_connected() and len(self.edges) == len(self.vertices) - 1

    def induced(self, keep: Iterable[Vertex]) -> "Graph":
        ks = set(keep)
        return Graph(ks, [e for e in self.edges if e[0] in ks and e[1] in ks])

    def complement(self) -> "Graph":
        vs = self.vertices
        present = self._edge_set  # type: ignore[attr-defined]
        es = [
            (u, v)
            for i, u in enumerate(vs)
            for v in vs[i + 1 :]
            if (u, v) not in present
        ]
        return Graph(vs, es)


@dataclass(frozen=True)
class Tree:
    """Connected acyclic graph."""

    underlying: Graph

    def __post_init__(self):
        g = self.underlying
        if not g.is_connected():
            raise ValueError("tree must be connected")
        if len(g.edges) != len(g.vertices) - 1:
            raise ValueError("tree must satisfy |E| = |V| - 1")

    @property
    def vertices(self) -> tuple[Vertex, ...]:
        return self.underlying.vertices

    @property
    def edges(self) -> tuple[Edge, ...]:
        return self.underlying.edges

    def neighbors(self, v: Vertex) -> tuple[Vertex, ...]:
        return self.underlying.neighbors(v)

    def degree(self, v: Vertex) -> int:
        return self.underlying.degree(v)

    def leaves(self) -> frozenset[Vertex]:
        """Vertices of degree less than two (a lone vertex is a leaf)."""
        return frozenset(v for v in self.vertices if self.degree(v) < 2)

    def internal_vertices(self) -> frozenset[Vertex]:
        return frozenset(self.vertices) - self.leaves()


def tree_from_edges(edges: Iterable[Iterable[Vertex]], vertices: Iterable[Vertex] = ()) -> Tree:
    es = [tuple(e) for e in edges]
    vs = set(vertices)
    for u, v in es:
        vs.add(u)
        vs.add(v)
    return Tree(Graph(vs, es))


@dataclass(frozen=True)
class RootedTree:
    """Tree with a distinguished root; parent/child maps derive from it."""

    tree: Tree
    root: Vertex

    def __post_init__(self):
        if self.root not in self.tree.vertices:
            raise VertexNotFoundError(f"root {self.root!r} not a vertex")
        parent: dict[Vertex, Optional[Vertex]] = {self.root: None}
        children: dict[Vertex, tuple[Vertex, ...]] = {}
        order = []
        queue = deque([self.root])
        while queue:
            x = queue.popleft()
            order.append(x)
            kids = tuple(y for y in self.tree.neighbors(x) if y != parent[x])
            children[x] = kids
            for y in kids:
                parent[y] = x
                queue.append(y)
        object.__setattr__(self, "_parent", parent)
        object.__setattr__(self, "_children", children)
        object.__setattr__(self, "_bfs", tuple(order))

    @property
    def vertices(self) -> tuple[Vertex, ...]:
        return self.tree.vertices

    def parent(self, v: Vertex) -> Optional[Vertex]:
        try:
            return self._parent[v]  # type: ignore[attr-defined]
        except KeyError:
            raise VertexNotFoundError(f"no vertex {v!r}")

    def children(self, v: Vertex) -> tuple[Vertex, ...]:
        try:
            return self._children[v]  # type: ignore[attr-defined]
        except KeyError:
            raise VertexNotFoundError(f"no vertex {v!r}")

    def out_degree(self, v: Vertex) -> int:
        """Degree toward the leaves: full degree at the root, degree - 1 elsewhere."""
        return len(self.children(v))

    def bfs_order(self) -> tuple[Vertex, ...]:
        return self._bfs  # type: ignore[attr-defined]

    def successors(self, v: Vertex) -> frozenset[Vertex]:
        """All vertices strictly below v."""
        out: set[Vertex] = set()
        stack = list(self.children(v))
        while stack:
            x = stack.pop()
            out.add(x)
            stack.extend(self.children(x))
        return frozenset(out)

    def root_path(self, v: Vertex) -> Path:
        """Vertex sequence from the root down to v."""
        rev = [v]
        while (p := self.parent(rev[-1])) is not None:
            rev.append(p)
        return tuple(reversed(rev))

    def is_planted(self) -> bool:
        return self.out_degree(self.root) == 1


def find_path(t: Tree, u: Vertex, v: Vertex) -> Path:
    """The unique u-v path in a tree, as a vertex sequence."""
    if u not in t.vertices:
        raise VertexNotFoundError(f"no vertex {u!r}")
    if v not in t.vertices:
        raise VertexNotFoundError(f"no vertex {v!r}")
    if u == v:
        return (u,)
    parent: dict[Vertex, Vertex] = {}
    queue = deque([u])
    seen = {u}
    while queue:
        x = queue.popleft()
        if x == v:
            break
        for y in t.neighbors(x):
            if y not in seen:
                seen.add(y)
                parent[y] = x
                queue.append(y)
    rev = [v]
    while rev[-1] != u:
        rev.append(parent[rev[-1]])
    return tuple(reversed(rev))


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


def degree_sets(rt: RootedTree) -> tuple[frozenset[Vertex], frozenset[Vertex], frozenset[Vertex]]:
    """Partition V(T) by out-degree into (= 0, = 1, >= 2) classes."""
    v0, v1, v2 = set(), set(), set()
    for v in rt.vertices:
        d = rt.out_degree(v)
        (v0 if d == 0 else v1 if d == 1 else v2).add(v)
    return frozenset(v0), frozenset(v1), frozenset(v2)


def subtree_below(rt: RootedTree, v: Vertex) -> RootedTree:
    """The rooted subtree lying below v (v together with its successors)."""
    keep = {v} | rt.successors(v)
    return RootedTree(Tree(rt.tree.underlying.induced(keep)), v)


def all_simple_paths(g: Graph, u: Vertex, v: Vertex, max_vertices: int = 10) -> Iterator[Path]:
    """Every simple u-v path, in depth-first lexicographic order.

    Exhaustive enumeration is exponential; inputs beyond max_vertices are
    refused so this stays a test-scale oracle.
    """
    if len(g.vertices) > max_vertices:
        from .errors import SizeLimitError

        raise SizeLimitError(
            f"path enumeration limited to {max_vertices} vertices, got {len(g.vertices)}"
        )
    if u not in g.vertices or v not in g.vertices:
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
