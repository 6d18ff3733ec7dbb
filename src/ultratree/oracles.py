"""Brute-force reference routes, independent of the fast implementations.

Everything here enumerates: unique tree paths by exhaustive simple-path
search, graph metrics by folding over all simple paths, balls by trying
every center and radius, the strong triangle inequality over all triples.
Enumeration refuses inputs beyond the test-scale vertex cap (see
all_simple_paths).  The hierarchy tree is built by the paper's recursion
into diametrical blocks, one sub-matrix per ball.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .graphs import Graph, Path, RootedTree, Tree, Vertex, all_simple_paths, edge_key
from .metrics import FiniteMetricSpace, restrict
from .representing import LabeledRootedTree, ball_id, diametrical_graph, multipartite_parts


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
