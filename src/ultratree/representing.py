"""Hierarchy trees of finite ultrametric spaces and their ball structure.

A finite ultrametric space decomposes recursively: pairs realizing the
diameter form a complete multipartite graph whose blocks are the children.
The resulting labeled rooted tree has the space's balls as vertex payloads,
one extra zero leaf per internal vertex gives the tree of the ball space.
_linkage, the ultrametric decision, is one O(n^2) Prim search: it returns
the visiting order, in which every ball is an interval, with the rank each
point joins at, and representing_tree alone turns them into vertices
(spaces._classify reads only its verdict).  This gives the same tree as the
recursion into diametrical blocks, which tests/helpers.py keeps as the test
reference; its steps, diametrical_graph and multipartite_parts, are in
spaces.py.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from ._record import record
from .errors import NotUltrametricError
from .graphs import Graph, RootedTree, Tree, Vertex
from .io import quote
from .metrics import ZERO, FiniteMetricSpace


def ball_id(points: Iterable[Vertex]) -> str:
    """Deterministic, collision-free vertex id for a set of string points: their sorted list as compact JSON."""
    return "[" + ",".join(map(quote, sorted(points))) + "]"


@record
class LabeledRootedTree:
    """Rooted tree with rational vertex labels and optional point-set payloads."""

    rt: RootedTree
    labels: dict[Vertex, Fraction]
    payloads: Optional[dict[Vertex, frozenset[Vertex]]] = None

    def payload(self, v: Vertex) -> frozenset[Vertex]:
        if self.payloads is None:
            raise ValueError("tree carries no payloads")
        return self.payloads[v]

    def leaf_for_point(self, x: Vertex) -> Vertex:
        for v in self.rt.vertices:
            if self.rt.out_degree(v) == 0 and tuple(self.payload(v)) == (x,):  # by equality: x may be unhashable
                return v
        raise ValueError(f"no leaf for point {x!r}")


@record
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
        from .path_metrics import hausdorff_distance, space_from

        named = {ball_id(b): b for b in self.balls}
        return space_from(
            named, lambda x, y: hausdorff_distance(self.host, named[x], named[y])
        )


def _linkage(mat: Sequence[Sequence]) -> Optional[tuple[list[int], list]]:
    """Checked single-linkage order of a nonempty symmetric zero-diagonal matrix.

    Entries need only compare: a space passes the integer ranks it made once.
    A dense O(n^2) Prim search visits the points in an order p_0, ..., p_{n-1},
    and p_k (k > 0) joins at j_k, its least entry to an earlier point.  Every
    single-linkage cluster is an interval of that order, as the search uses
    up a cluster before it leaves it.  So the subdominant ultrametric of p_i
    and p_k (i < k) is max(j_{i+1}, ..., j_k), and the strong triangle
    inequality holds exactly when every pair carries that maximum; each pair
    is checked once.

    Returns (order, joins), the rows p_0, ..., p_{n-1} and the entries
    j_1, ..., j_{n-1}; None at the first failed pair.
    """
    n = len(mat)
    order, joins = [0], []  # visiting order, and the entry each later point joins at
    key, todo = list(mat[0]), list(range(1, n))
    while todo:
        y = min(todo, key=key.__getitem__)
        todo.remove(y)
        order.append(y)
        joins.append(key[y])
        row = mat[y]
        for z in todo:
            if row[z] < key[z]:
                key[z] = row[z]
    for i, x in enumerate(order):
        if list(map(mat[x].__getitem__, order[i + 1 :])) != list(itertools.accumulate(joins[i:], max)):
            return None
    return order, joins


def representing_tree(space: FiniteMetricSpace) -> LabeledRootedTree:
    """The hierarchy tree of an ultrametric space.

    The root holds the whole point set labeled by its diameter, every other
    vertex a ball labeled by its diameter, with the points as zero-labeled
    leaves.  It is read off the visiting order of one Prim search: the
    distance of two points is the largest join rank between them in that
    order, and runs of equal largest joins make one vertex whose children
    are the intervals between them.  A stack of open balls walks the order
    once and makes each vertex when its ball closes.  This is the same tree
    as the paper's recursion into diametrical blocks (kept as a test
    reference in tests/helpers.py).  Vertex ids encode the payload sets, so the
    vertex set doubles as the ballean.
    """
    values, ranks = space._ranks  # type: ignore[attr-defined]
    found = _linkage(ranks)
    if found is None or 0 in found[1]:  # rank 0 is the zero of the diagonal, so such a join repeats a point
        raise NotUltrametricError("space is not ultrametric")
    order, joins = found
    names = [space.points[i] for i in order]  # every ball is an interval of this list
    labels, payloads, edges = {}, {}, []
    spine: list = []  # open balls as (join rank, first position, children), ranks falling toward the top
    for i, (name, r) in enumerate(zip(names, [*joins, None])):  # the last point closes every ball
        v, start = ball_id([name]), i
        labels[v], payloads[v] = ZERO, frozenset([name])
        while spine and (r is None or spine[-1][0] < r):
            top, start, kids = spine.pop()
            kids.append(v)
            ball = frozenset(names[start : i + 1])
            v = ball_id(ball)
            labels[v], payloads[v] = values[top], ball
            edges += [(v, kid) for kid in kids]
        if spine and spine[-1][0] == r:
            spine[-1][2].append(v)
        else:
            spine.append((r, start, [v]))
    return LabeledRootedTree(RootedTree(Tree(Graph(payloads, edges), v), v), labels, payloads)


def ballean(space: FiniteMetricSpace) -> Ballean:
    """All balls of the space, read off the hierarchy tree's payloads.

    The tree's vertex ids are their ball_ids, so its sorted vertices give ball_id order.
    """
    tree = representing_tree(space)
    return Ballean(tuple(map(tree.payload, tree.rt.vertices)), space)


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
    rt = RootedTree(Tree(Graph(vertices, edges), base.rt.root), base.rt.root)
    return LabeledRootedTree(rt, labels, None)
