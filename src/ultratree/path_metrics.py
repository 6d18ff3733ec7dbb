"""Distance functions generated by trees, graphs and point functions, exactly.

The four constructions share one traversal with two combine rules: the sum
of edge weights along a path (additive on trees, shortest-path on graphs)
and the max vertex label along it (on trees, and its minimax extension to
graphs); over several joining paths the minimum counts, all folded on
integers.  Plus a space from any distance function, the Hausdorff
distance between point subsets and MetricClass, the class of a space that
minimax_label_metric returns with it.  No verb on a matrix loads this module.
"""

from __future__ import annotations

import enum
import heapq
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .errors import DisconnectedGraphError, EmptySetError
from .graphs import Edge, Graph, Tree, Vertex
from .metrics import ZERO, FiniteMetricSpace, _rank
from .payloads import edge_key, integer_form, normalize_labels, normalize_weights

WeightMap = Mapping[Edge, Fraction]
LabelMap = Mapping[Vertex, Fraction]


class MetricClass(enum.Enum):
    NOT_SEMIMETRIC = "NotSemimetric"
    METRIC_ONLY = "MetricOnly"
    ULTRAMETRIC = "Ultrametric"
    PSEUDO_ULTRAMETRIC = "PseudoUltrametric"


def space_from(points: Iterable[Vertex], dist: Callable[[Vertex, Vertex], Fraction]) -> FiniteMetricSpace:
    pts = sorted(points)
    return FiniteMetricSpace(pts, [[dist(x, y) if x != y else ZERO for y in pts] for x in pts])


def _path_metric(g: Graph, start: Mapping[Vertex, int], step: Callable, value: Callable) -> FiniteMetricSpace:
    """d(x, y): min over x-y paths of start[x] folded by step(d, u, v) per edge.

    Search from every source of a connected graph, settling each vertex once:
    the frontier is a heap, or a stack on a tree, where the unique path gives
    the first value.  The diagonal is 0.  The fold runs on integers, and
    value makes one Fraction of each distinct result.
    """
    tree = len(g.edges) < len(g.vertices)  # g is connected, so this means a tree
    push, pop = (list.append, list.pop) if tree else (heapq.heappush, heapq.heappop)
    rows = []
    for src in g.vertices:
        best: dict[Vertex, int] = {}
        frontier = [(start[src], src)]
        while frontier:
            d, x = pop(frontier)
            if x in best:
                continue
            best[x] = d
            for y in g.neighbors(x):
                if y not in best:
                    push(frontier, (step(d, x, y), y))
        best[src] = 0
        rows.append(list(map(best.__getitem__, g.vertices)))
    keys, ranks = _rank(rows)
    return FiniteMetricSpace._trusted(g.vertices, list(map(value, keys)), ranks)


def additive_metric(t: Tree, w: WeightMap) -> FiniteMetricSpace:
    """Path-weight-sum distances on a strictly positively weighted tree."""
    return shortest_path_metric(t, w)


def shortest_path_metric(g: Graph, w: WeightMap) -> FiniteMetricSpace:
    """Minimum path-weight-sum over all joining paths; additive on trees."""
    if not g.is_connected():
        raise DisconnectedGraphError("shortest-path metric needs a connected graph")
    scaled, den = integer_form(normalize_weights(g, w, strict=True))
    step = lambda d, x, y: d + scaled[edge_key(x, y)]
    return _path_metric(g, dict.fromkeys(g.vertices, 0), step, lambda d: Fraction(d, den))


def minimax_label_metric(g: Graph, l: LabelMap) -> tuple[FiniteMetricSpace, MetricClass]:
    """Min over joining paths of the max vertex label along the path."""
    if not g.is_connected():
        raise DisconnectedGraphError("minimax label metric needs a connected graph")
    labels = normalize_labels(g, l)
    keys, (ranks,) = _rank([[ZERO, *labels.values()]])
    start = dict(zip(labels, ranks[1:]))  # label ranks, 0 for a zero label
    space = _path_metric(g, start, lambda d, x, y: max(d, start[y]), keys.__getitem__)
    ultra = all(start[u] or start[v] for u, v in g.edges)  # no edge has two zero labels
    return space, MetricClass.ULTRAMETRIC if ultra else MetricClass.PSEUDO_ULTRAMETRIC


def hausdorff_distance(space: FiniteMetricSpace, a: Iterable[Vertex], b: Iterable[Vertex]) -> Fraction:
    """Max of the two directed sup-inf distances between point subsets."""
    aset = sorted(set(a))
    bset = sorted(set(b))
    if not aset or not bset:
        raise EmptySetError("Hausdorff distance needs nonempty sets")
    ai = [space.index(p) for p in aset]
    bi = [space.index(p) for p in bset]
    forward = max(min(space.rows[i][j] for j in bi) for i in ai)
    backward = max(min(space.rows[i][j] for j in ai) for i in bi)
    return max(forward, backward)
