"""What is done with a finite metric space besides building its hierarchy tree.

The strongest class of a checked matrix, read off its ranks; the restriction
of a space to a subset of its points; and the steps of the paper's recursion
into diametrical blocks: the diametrical graph of a space and the blocks of
that complete multipartite graph (the components of its complement), each
of which the recursion restricts the space to.  tests/helpers.py runs that
recursion as the test reference.  No CLI verb runs any of it, so metrics.py
and representing.py, which the matrix verbs compile, leave it here:
classify_metric and FiniteMetricSpace.classify import _classify when they run.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import EmptySetError, NotCompleteMultipartiteError, TooFewPointsError
from .graphs import Graph, Vertex
from .metrics import FiniteMetricSpace
from .path_metrics import MetricClass
from .payloads import integer_form
from .representing import _linkage


def _classify(values: Sequence[Fraction], ranks: Sequence[Sequence[int]]) -> MetricClass:
    # classify_metric without the checks, on the ranks of a checked matrix.
    n = len(ranks)
    zero = ranks[0][0] if n else 0
    if any(min(row) < zero for row in ranks):
        return MetricClass.NOT_SEMIMETRIC
    has_zero_pair = sum(row.count(zero) for row in ranks) > n
    strong = not n or _linkage(ranks) is not None
    if has_zero_pair:
        return MetricClass.PSEUDO_ULTRAMETRIC if strong else MetricClass.NOT_SEMIMETRIC
    if strong:
        return MetricClass.ULTRAMETRIC
    scaled, _ = integer_form(dict(enumerate(values)))  # d(i, j) <= d(i, k) + d(j, k), on integers
    d = [list(map(scaled.__getitem__, row)) for row in ranks]
    triangle = all(min(map(int.__add__, d[i], d[j])) >= d[i][j] for i in range(n) for j in range(i + 1, n))
    return MetricClass.METRIC_ONLY if triangle else MetricClass.NOT_SEMIMETRIC


def restrict(space: FiniteMetricSpace, subset: Iterable[Vertex]) -> FiniteMetricSpace:
    """Submatrix on a nonempty subset of the points."""
    keep = sorted(set(subset))
    if not keep:
        raise EmptySetError("cannot restrict to the empty set")
    idx = [space.index(p) for p in keep]
    values, ranks = space._ranks  # type: ignore[attr-defined]
    return FiniteMetricSpace._trusted(keep, values, [list(map(ranks[i].__getitem__, idx)) for i in idx])


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

    Blocks are the connected components of the complement graph, each sorted
    and ordered by least member; the decomposition exists iff no block has an
    internal edge.  Failure gives a witness pair, which for a diametrical
    graph certifies the generating space was not ultrametric.
    """
    blocks, rest = [], list(dg.vertices)
    while rest:  # a walk over non-edges from the least vertex not yet placed
        block, rest = rest[:1], rest[1:]
        for x in block:  # the list grows as it is read
            near = set(dg.neighbors(x))
            block += [y for y in rest if y not in near]
            rest = [y for y in rest if y in near]
        blocks.append(tuple(sorted(block)))
    if len(blocks) < 2:
        raise NotCompleteMultipartiteError(
            "graph has a single block; a complete multipartite graph needs k >= 2"
        )
    for block in blocks:
        for i, u in enumerate(block):
            for v in block[i + 1 :]:
                if dg.has_edge(u, v):
                    raise NotCompleteMultipartiteError(
                        f"vertices {u!r}, {v!r} are adjacent inside one block"
                    )
    return blocks
