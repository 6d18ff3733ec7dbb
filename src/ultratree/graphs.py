"""Finite graphs, trees and rooted trees over opaque string vertex ids.

A Tree is a Graph checked to be connected and acyclic, so graph code takes it
as it is; a RootedTree is a Tree with a root, kept as the parent map of the
one breadth-first search, Graph._reach, and its BFS order, read by rooted
canonical codes and the duality walks (free codes are read off the center
peel).  Values are immutable and operations pure, so they share across
threads freely; vertex ids are ordered lexicographically everywhere (neighbor
lists, edges, returned sets), for identical outputs.  Edge keys and
the weight and label checks are in payloads.py, which matrix verbs skip.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ._record import record
from .errors import VertexNotFoundError

Vertex = str
Edge = tuple[str, str]


@record
class Graph:
    """Finite simple graph: unique vertex ids, unordered edges, no loops."""

    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]

    def __init__(self, vertices: Iterable[Vertex], edges: Iterable[Iterable[Vertex]] = ()):
        vs, edges = tuple(sorted(vertices)), list(edges)
        adj: dict[Vertex, list[Vertex]] = {v: [] for v in vs}
        if len(adj) != len(vs):
            raise ValueError("duplicate vertex ids")
        if not vs:
            raise ValueError("empty vertex set")
        try:  # a self-loop keys as None, which neither sorts among pairs nor unpacks
            es = dict.fromkeys(sorted([(u, v) if u < v else (v, u) if v < u else None for u, v in edges]))
            # Each (u, x) with u < x sorts before each (x, v), so every list comes out sorted.
            for u, v in es:
                adj[u].append(v)  # a KeyError for an endpoint that is no vertex
                adj[v].append(u)
        except (KeyError, TypeError, ValueError):  # the first bad edge, named in the order given
            vars(self)["_adj"] = adj
            for e in edges:
                u, v = e
                if not (self.has_vertex(u) and self.has_vertex(v)):
                    raise VertexNotFoundError(f"edge endpoint not a vertex: {e!r}") from None
                if not (u < v or v < u):  # keyed as a self-loop
                    raise ValueError(f"self-loop at {u!r}" if u == v else f"unordered vertex ids {u!r}, {v!r}") from None
            raise
        vars(self).update(vertices=vs, edges=tuple(es), _edge_set=es, _adj={v: tuple(ns) for v, ns in adj.items()})

    def neighbors(self, v: Vertex) -> tuple[Vertex, ...]:
        try:
            return self._adj[v]  # type: ignore[attr-defined]
        except (KeyError, TypeError):  # an unhashable id names no vertex
            raise VertexNotFoundError(f"no vertex {v!r}")

    def degree(self, v: Vertex) -> int:
        return len(self.neighbors(v))

    def has_vertex(self, v: Vertex) -> bool:
        try:
            return v in self._adj  # type: ignore[attr-defined]
        except TypeError:  # an unhashable id names no vertex
            return False

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        known = self.has_vertex(u) and self.has_vertex(v)  # so both ids hash and compare
        return known and (min(u, v), max(u, v)) in self._edge_set  # type: ignore[attr-defined]

    def _reach(self, start: Vertex) -> dict[Vertex, Optional[Vertex]]:
        # the one breadth-first search: every vertex joined to start, in BFS order,
        # mapped to the vertex it was reached from (start to None)
        adj, parent, order = self._adj, {start: None}, [start]  # type: ignore[attr-defined]
        for x in order:  # the list grows as it is read
            for y in adj[x]:
                if y not in parent:
                    parent[y] = x
                    order.append(y)
        return parent

    def is_connected(self) -> bool:
        return len(self._reach(self.vertices[0])) == len(self.vertices)

    def is_tree(self) -> bool:
        return len(self.edges) == len(self.vertices) - 1 and self.is_connected()


class Tree(Graph):
    """A Graph checked to be connected and acyclic."""

    def __init__(self, g: Graph, root: Optional[Vertex] = None):
        # Given a vertex as root, the check walks from it, and RootedTree(self, root) reuses that walk.
        reach = g._reach(root) if len(g.edges) == len(g.vertices) - 1 and g.has_vertex(root) else None
        if not (g.is_tree() if reach is None else len(reach) == len(g.vertices)):
            raise ValueError("not a tree: must be connected with |E| = |V| - 1")
        # Graph is frozen, so the vertices, edges and adjacency can be shared.
        vars(self).update(vars(g), _walk={root: reach} if reach else {})

    def leaves(self) -> frozenset[Vertex]:
        """Vertices of degree less than two (a lone vertex is a leaf)."""
        return frozenset(v for v in self.vertices if self.degree(v) < 2)


@record
class RootedTree:
    """Tree with a distinguished root, kept as the parent map that
    Graph._reach returns from the root and that map's BFS order."""

    tree: Tree
    root: Vertex

    def __post_init__(self):
        if not self.tree.has_vertex(self.root):
            raise VertexNotFoundError(f"root {self.root!r} not a vertex")
        parent = vars(self.tree).get("_walk", {}).get(self.root) or self.tree._reach(self.root)
        vars(self).update(_parent=parent, _bfs=tuple(parent))

    @property
    def vertices(self) -> tuple[Vertex, ...]:
        return self.tree.vertices

    def parent(self, v: Vertex) -> Optional[Vertex]:
        try:
            return self._parent[v]  # type: ignore[attr-defined]
        except (KeyError, TypeError):  # an unhashable id names no vertex
            raise VertexNotFoundError(f"no vertex {v!r}")

    def children(self, v: Vertex) -> tuple[Vertex, ...]:
        p = self.parent(v)
        return tuple([y for y in self.tree._adj[v] if y != p])  # type: ignore[attr-defined]

    def out_degree(self, v: Vertex) -> int:
        """Degree toward the leaves: full degree at the root, degree - 1 elsewhere."""
        return self.tree.degree(v) - (v != self.root)

    def bfs_order(self) -> tuple[Vertex, ...]:
        return self._bfs  # type: ignore[attr-defined]

    def is_planted(self) -> bool:
        return self.out_degree(self.root) == 1
