"""Hierarchy trees of finite ultrametric spaces and their ball structure.

A finite ultrametric space decomposes recursively: pairs realizing the
diameter form a complete multipartite graph whose blocks are the children.
The resulting labeled rooted tree has the space's balls as vertex payloads,
one extra zero leaf per internal vertex gives the tree of the ball space.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .errors import NotCompleteMultipartiteError, NotUltrametricError, TooFewPointsError
from .graphs import Graph, RootedTree, Tree, Vertex
from .metrics import FiniteMetricSpace, MetricClass, hausdorff_distance, restrict, space_from


def ball_id(points: Iterable[Vertex]) -> str:
    """Deterministic, collision-free vertex id for a set of points."""
    return json.dumps(sorted(points), separators=(",", ":"))


@dataclass(frozen=True)
class LabeledRootedTree:
    """Rooted tree with rational vertex labels and optional point-set payloads."""

    rt: RootedTree
    labels: dict[Vertex, Fraction]
    payloads: Optional[dict[Vertex, frozenset[Vertex]]] = None

    def label(self, v: Vertex) -> Fraction:
        return self.labels[v]

    def payload(self, v: Vertex) -> frozenset[Vertex]:
        if self.payloads is None:
            raise ValueError("tree carries no payloads")
        return self.payloads[v]

    def leaf_for_point(self, x: Vertex) -> Vertex:
        for v in self.rt.vertices:
            if self.rt.out_degree(v) == 0 and self.payload(v) == frozenset({x}):
                return v
        raise ValueError(f"no leaf for point {x!r}")


@dataclass(frozen=True)
class Ballean:
    """All metric balls of a finite ultrametric space."""

    balls: tuple[frozenset[Vertex], ...]
    host: FiniteMetricSpace

    def __contains__(self, item) -> bool:
        return frozenset(item) in set(self.balls)

    def __len__(self) -> int:
        return len(self.balls)

    def hausdorff_space(self) -> FiniteMetricSpace:
        """The balls as a metric space under the Hausdorff distance."""
        named = {ball_id(b): b for b in self.balls}
        return space_from(
            named, lambda x, y: hausdorff_distance(self.host, named[x], named[y])
        )


def diametrical_graph(space: FiniteMetricSpace) -> Graph:
    """Graph on the points whose edges are exactly the diameter-realizing pairs."""
    if len(space.points) < 2:
        raise TooFewPointsError("diametrical graph needs at least two points")
    diam = space.diameter()
    pts = space.points
    edges = [
        (u, v)
        for i, u in enumerate(pts)
        for v in pts[i + 1 :]
        if space.distance(u, v) == diam
    ]
    return Graph(pts, edges)


def multipartite_parts(dg: Graph) -> list[tuple[Vertex, ...]]:
    """The unique complete-multipartite block partition of a graph.

    Blocks are the connected components of the complement graph; the
    decomposition exists iff no block has an internal edge.  Failure gives a
    witness pair, which for a diametrical graph certifies the generating
    space was not ultrametric.
    """
    blocks = dg.complement().components()
    if len(blocks) < 2:
        raise NotCompleteMultipartiteError(
            "graph has a single block; a complete multipartite graph needs k >= 2"
        )
    edge_set = set(dg.edges)
    for block in blocks:
        for i, u in enumerate(block):
            for v in block[i + 1 :]:
                if (u, v) in edge_set:
                    raise NotCompleteMultipartiteError(
                        f"vertices {u!r}, {v!r} are adjacent inside one block"
                    )
    return blocks


def representing_tree(space: FiniteMetricSpace) -> LabeledRootedTree:
    """The hierarchy tree of an ultrametric space.

    The root holds the whole point set labeled by its diameter; children are
    the diametrical blocks labeled by their diameters; zero-label blocks are
    leaves and positive blocks recurse.  Vertex ids encode the payload sets,
    so the vertex set doubles as the ballean.
    """
    if space.classify() is not MetricClass.ULTRAMETRIC:
        raise NotUltrametricError("space is not ultrametric")
    return _hierarchy(space)


def _hierarchy(space: FiniteMetricSpace) -> LabeledRootedTree:
    # representing_tree on a space already classified ultrametric.
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


def ballean(space: FiniteMetricSpace) -> Ballean:
    """All balls of the space, read off the hierarchy tree's payloads."""
    tree = representing_tree(space)
    balls = sorted((tree.payload(v) for v in tree.rt.vertices), key=ball_id)
    return Ballean(tuple(balls), space)


def ballean_tree(space: FiniteMetricSpace) -> LabeledRootedTree:
    """The hierarchy tree of the ball space under the Hausdorff distance.

    Constructed directly: one fresh zero-labeled leaf hangs off every
    internal vertex of the hierarchy tree of the input space.
    """
    base = representing_tree(space)
    vertices = list(base.rt.vertices)
    edges = list(base.rt.tree.edges)
    labels = dict(base.labels)
    for v in base.rt.vertices:
        if base.rt.out_degree(v) > 0:
            fresh = v + "~b"
            vertices.append(fresh)
            edges.append((v, fresh))
            labels[fresh] = Fraction(0)
    rt = RootedTree(Tree(Graph(vertices, edges)), base.rt.root)
    return LabeledRootedTree(rt, labels, None)
