"""Hierarchy trees of finite ultrametric spaces and their ball structure.

A finite ultrametric space decomposes recursively: pairs realizing the
diameter form a complete multipartite graph whose blocks are the children.
The resulting labeled rooted tree has the space's balls as vertex payloads,
one extra zero leaf per internal vertex gives the tree of the ball space.
The tree is built from one minimum spanning tree in O(n^2), its edges of
equal value merged into one vertex; this gives the same tree as the
recursion into diametrical blocks, which stays in oracles.py as the test
reference.  diametrical_graph and multipartite_parts are that recursion's
steps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .errors import NotCompleteMultipartiteError, NotUltrametricError, TooFewPointsError
from .graphs import Graph, RootedTree, Tree, Vertex
from .metrics import FiniteMetricSpace, _linkage, hausdorff_distance, space_from


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

    The root holds the whole point set labeled by its diameter, every other
    vertex a ball labeled by its diameter, with the points as zero-labeled
    leaves.  It is read off one minimum spanning tree: the spanning-tree
    edges of one value that join the same component make one vertex whose
    children are the components they join.  This is the same tree as the
    paper's recursion into diametrical blocks (kept as a test reference in
    oracles.py).  Vertex ids encode the payload sets, so the vertex set
    doubles as the ballean.
    """
    tree = _hierarchy(space)
    if tree is None:
        raise NotUltrametricError("space is not ultrametric")
    return tree


def _hierarchy(space: FiniteMetricSpace) -> Optional[LabeledRootedTree]:
    # representing_tree, or None when the space is not ultrametric.
    merges = _linkage(space.rows)
    if merges is None or any(value == 0 for value, _ in merges):
        return None
    payloads = [frozenset({p}) for p in space.points]
    ids = [ball_id(b) for b in payloads]
    labels = dict.fromkeys(ids, Fraction(0))
    edges = []
    for value, kids in merges:
        payloads.append(frozenset().union(*(payloads[k] for k in kids)))
        ids.append(ball_id(payloads[-1]))
        labels[ids[-1]] = value
        edges += [(ids[-1], ids[k]) for k in kids]
    rt = RootedTree(Tree(Graph(ids, edges)), ids[-1])
    return LabeledRootedTree(rt, labels, dict(zip(ids, payloads)))


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
