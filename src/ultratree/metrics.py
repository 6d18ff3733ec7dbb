"""Tree- and graph-generated distance functions, all with exact arithmetic.

The four constructions share one traversal with two combine rules: the sum
of edge weights along a path (additive on trees, shortest-path on graphs)
and the max vertex label along it (on trees, and its minimax extension to
graphs); over several joining paths the minimum counts.  Plus classification
of matrices, each checked once, and the Hausdorff distance between subsets.
The ultrametric decision and the hierarchy tree of representing.py both come
from one Prim search (_linkage): every ball is an interval of its visiting
order, so the order and the rank each point joins at give both.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .errors import (
    BadMatrixError,
    DisconnectedGraphError,
    EmptySetError,
    NonPositiveWeightError,
    VertexNotFoundError,
)
from .graphs import Edge, Graph, Tree, Vertex, edge_key, record

WeightMap = Mapping[Edge, Fraction]
LabelMap = Mapping[Vertex, Fraction]

ZERO = Fraction(0)


class MetricClass(enum.Enum):
    NOT_SEMIMETRIC = "NotSemimetric"
    METRIC_ONLY = "MetricOnly"
    ULTRAMETRIC = "Ultrametric"
    PSEUDO_ULTRAMETRIC = "PseudoUltrametric"


def normalize_weights(g: Graph, w: Mapping, strict: bool = True) -> dict[Edge, Fraction]:
    """Check a weight map is total on E(g) and (optionally) strictly positive."""
    out: dict[Edge, Fraction] = {}
    for raw_key, raw_val in w.items():
        u, v = raw_key
        out[edge_key(u, v)] = raw_val if isinstance(raw_val, Fraction) else Fraction(raw_val)
    for e in g.edges:
        if e not in out:
            raise NonPositiveWeightError(f"missing weight for edge {e!r}")
        if out[e] < 0 or (strict and out[e] == 0):
            raise NonPositiveWeightError(f"weight {out[e]} on edge {e!r}")
    return {e: out[e] for e in g.edges}


def normalize_labels(g: Graph, l: Mapping) -> dict[Vertex, Fraction]:
    """Check a label map is total on V(g) and nonnegative."""
    out = {v: val if isinstance(val, Fraction) else Fraction(val) for v, val in l.items()}
    for v in g.vertices:
        if v not in out:
            raise ValueError(f"missing label for vertex {v!r}")
        if out[v] < 0:
            raise ValueError(f"negative label {out[v]} on vertex {v!r}")
    return {v: out[v] for v in g.vertices}


@record
class FiniteMetricSpace:
    """Point set with an exact symmetric zero-diagonal distance matrix.

    Positivity off the diagonal is not enforced here; pseudoultrametrics use
    the same type and are told apart by classify().
    """

    points: tuple[Vertex, ...]
    rows: tuple[tuple[Fraction, ...], ...]

    def __init__(self, points: Iterable[Vertex], rows: Sequence[Sequence[Fraction]]):
        pts = tuple(points)
        if len(set(pts)) != len(pts) or not pts:
            raise ValueError("points must be nonempty and unique")
        n = len(pts)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise BadMatrixError(f"matrix must be {n}x{n}")
        mat = [[x if isinstance(x, Fraction) else Fraction(x) for x in r] for r in rows]
        _check_matrix(mat, lambda i, j: repr(pts[i]) if i == j else f"({pts[i]!r}, {pts[j]!r})", True)
        self._store(pts, mat)

    @classmethod
    def _trusted(cls, points: Sequence[Vertex], rows: Sequence[Sequence[Fraction]]) -> "FiniteMetricSpace":
        # For matrices already exact and checked: no conversion, no check.
        space = object.__new__(cls)
        space._store(points, rows)
        return space

    def _store(self, pts: Sequence[Vertex], mat: Sequence[Sequence[Fraction]]) -> None:
        order = sorted(range(len(pts)), key=pts.__getitem__)
        sorted_pts = tuple(pts[i] for i in order)
        object.__setattr__(self, "points", sorted_pts)
        object.__setattr__(self, "rows", tuple(tuple(mat[i][j] for j in order) for i in order))
        object.__setattr__(self, "_index", {p: i for i, p in enumerate(sorted_pts)})

    def index(self, x: Vertex) -> int:
        try:
            return self._index[x]  # type: ignore[attr-defined]
        except KeyError:
            raise VertexNotFoundError(f"unknown point {x!r}")

    def distance(self, x: Vertex, y: Vertex) -> Fraction:
        return self.rows[self.index(x)][self.index(y)]

    def diameter(self) -> Fraction:
        return max((x for row in self.rows for x in row), default=ZERO)

    def classify(self) -> MetricClass:
        return _classify(self.rows)

    def rename(self, mapping: Mapping[Vertex, Vertex]) -> "FiniteMetricSpace":
        """Isometric copy under a point-renaming bijection."""
        new_pts = [mapping[p] for p in self.points]
        if len(set(new_pts)) != len(new_pts):
            raise ValueError("renaming is not injective")
        return FiniteMetricSpace._trusted(new_pts, self.rows)


def space_from(points: Iterable[Vertex], dist: Callable[[Vertex, Vertex], Fraction]) -> FiniteMetricSpace:
    pts = sorted(points)
    return FiniteMetricSpace(pts, [[dist(x, y) if x != y else ZERO for y in pts] for x in pts])


def _check_matrix(mat: Sequence[Sequence[Fraction]], where: Callable[[int, int], str], nonnegative: bool) -> None:
    # The check every outside matrix gets: zero diagonal, symmetry and, if
    # asked, no negative entry.  The first defect in row order is raised;
    # where(i, i) names a diagonal entry in the message, where(i, j) a pair.
    n = len(mat)
    for i in range(n):
        if mat[i][i] != 0:
            raise BadMatrixError(f"nonzero diagonal at {where(i, i)}")
        for j in range(i + 1, n):
            if mat[i][j] != mat[j][i]:
                raise BadMatrixError(f"asymmetric at {where(i, j)}")
            if nonnegative and mat[i][j] < 0:
                raise ValueError(f"negative distance at {where(i, j)}")


def classify_metric(rows: Sequence[Sequence[Fraction]]) -> MetricClass:
    """Strongest class a raw square matrix satisfies.

    Checks symmetry and zero diagonal (errors otherwise), then off-diagonal
    positivity, the triangle inequality and the strong triangle inequality.
    """
    n = len(rows)
    mat = [[Fraction(x) for x in r] for r in rows]
    if any(len(r) != n for r in mat):
        raise BadMatrixError("matrix not square")
    _check_matrix(mat, lambda i, j: f"row {i}" if i == j else f"({i}, {j})", False)
    return _classify(mat)


def _classify(mat: Sequence[Sequence[Fraction]]) -> MetricClass:
    # classify_metric without the checks, for matrices already checked.
    n = len(mat)
    if any(mat[i][j] < 0 for i in range(n) for j in range(n)):
        return MetricClass.NOT_SEMIMETRIC
    has_zero_pair = any(mat[i][j] == 0 for i in range(n) for j in range(i + 1, n))
    strong = _linkage(mat) is not None
    if has_zero_pair:
        return MetricClass.PSEUDO_ULTRAMETRIC if strong else MetricClass.NOT_SEMIMETRIC
    if strong:
        return MetricClass.ULTRAMETRIC
    triangle = all(
        mat[i][j] <= mat[i][k] + mat[k][j]
        for i in range(n)
        for j in range(i + 1, n)
        for k in range(n)
    )
    return MetricClass.METRIC_ONLY if triangle else MetricClass.NOT_SEMIMETRIC


def _linkage(mat: Sequence[Sequence[Fraction]]) -> Optional[list[tuple[Fraction, tuple[int, ...]]]]:
    """Checked single-linkage merges of a symmetric zero-diagonal matrix.

    Values are ranked once, so all work is on exact integers.  A dense
    O(n^2) Prim search visits the points in an order p_0, ..., p_{n-1}, and
    p_k joins at rank j_k, its least rank to an earlier point.  Every
    single-linkage cluster is an interval of that order: once the search
    enters a cluster, the cluster's own points have the least keys until it
    is used up.  So the subdominant ultrametric of p_i and p_k (i < k) is
    max(j_{i+1}, ..., j_k), and the strong triangle inequality holds exactly
    when every pair carries that interval maximum; each pair is checked once.
    The hierarchy is then the tree of interval maxima, equal ranks merged
    into one vertex, built with one stack of open merges along its right
    spine.

    Returns (value, children) per merge, children before parents and the
    root last, where a child is a point index below n or n + k for merge k;
    None at the first failed pair.
    """
    n = len(mat)
    # Number the values in order of appearance, then by size: each entry is
    # hashed once, as Fraction hashing is most of the encoding's cost.
    code: dict[Fraction, int] = {}
    coded = [[code.setdefault(x, len(code)) for x in row] for row in mat]
    values = sorted(code)
    rank = [0] * len(values)
    for r, x in enumerate(values):
        rank[code[x]] = r
    ranks = [list(map(rank.__getitem__, row)) for row in coded]

    # Key -1 starts the search at point 0; len(values) is above every rank.
    order, joins = [], []  # visiting order, and the rank each point joins at
    key, todo = [-1] + [len(values)] * (n - 1), list(range(n))
    while todo:
        y = min(todo, key=key.__getitem__)
        todo.remove(y)
        order.append(y)
        joins.append(key[y])
        row = ranks[y]
        for z in todo:
            if row[z] < key[z]:
                key[z] = row[z]
    for i, x in enumerate(order):
        if list(map(ranks[x].__getitem__, order[i + 1 :])) != list(itertools.accumulate(joins[i + 1 :], max)):
            return None

    merges = []
    spine: list[tuple[int, list[int]]] = []  # open merges, ranks falling toward the top
    for x, r in zip(order, joins[1:] + [len(values)]):  # the last rank closes every merge
        while spine and spine[-1][0] < r:
            top, kids = spine.pop()
            kids.append(x)
            merges.append((values[top], tuple(kids)))
            x = n + len(merges) - 1
        if spine and spine[-1][0] == r:
            spine[-1][1].append(x)
        else:
            spine.append((r, [x]))
    return merges


def _path_metric(g: Graph, start: LabelMap, step: Callable[[Fraction, Vertex, Vertex], Fraction]) -> FiniteMetricSpace:
    """d(x, y): min over x-y paths of start[x] folded by step(d, u, v) per edge.

    Search from every source of a connected graph, settling each vertex once:
    the frontier is a heap, or a stack on a tree, where the unique path gives
    the first value.  The diagonal is zero.
    """
    tree = len(g.edges) < len(g.vertices)  # g is connected, so this means a tree
    push, pop = (list.append, list.pop) if tree else (heapq.heappush, heapq.heappop)
    rows = []
    for src in g.vertices:
        best: dict[Vertex, Fraction] = {}
        frontier = [(start[src], src)]
        while frontier:
            d, x = pop(frontier)
            if x in best:
                continue
            best[x] = d
            for y in g.neighbors(x):
                if y not in best:
                    push(frontier, (step(d, x, y), y))
        best[src] = ZERO
        rows.append([best[y] for y in g.vertices])
    return FiniteMetricSpace._trusted(g.vertices, rows)


def additive_metric(t: Tree, w: WeightMap) -> FiniteMetricSpace:
    """Path-weight-sum distances on a strictly positively weighted tree."""
    return shortest_path_metric(t, w)


def shortest_path_metric(g: Graph, w: WeightMap) -> FiniteMetricSpace:
    """Minimum path-weight-sum over all joining paths; additive on trees."""
    if not g.is_connected():
        raise DisconnectedGraphError("shortest-path metric needs a connected graph")
    weights = normalize_weights(g, w, strict=True)
    return _path_metric(g, dict.fromkeys(g.vertices, ZERO), lambda d, x, y: d + weights[edge_key(x, y)])


def _edge_condition(g: Graph, labels: LabelMap) -> bool:
    # Ultrametricity criterion: no edge has both endpoint labels zero.
    return all(max(labels[u], labels[v]) > 0 for u, v in g.edges)


def label_tree_metric(t: Tree, l: LabelMap) -> tuple[FiniteMetricSpace, MetricClass]:
    """Max vertex label along the unique path, endpoints included.

    Returns the space together with its class: ultrametric exactly when every
    edge carries at least one positive endpoint label, pseudoultrametric
    otherwise.
    """
    return minimax_label_metric(t, l)


def minimax_label_metric(g: Graph, l: LabelMap) -> tuple[FiniteMetricSpace, MetricClass]:
    """Min over joining paths of the max vertex label along the path."""
    if not g.is_connected():
        raise DisconnectedGraphError("minimax label metric needs a connected graph")
    labels = normalize_labels(g, l)
    space = _path_metric(g, labels, lambda d, x, y: max(d, labels[y]))
    cls = MetricClass.ULTRAMETRIC if _edge_condition(g, labels) else MetricClass.PSEUDO_ULTRAMETRIC
    return space, cls


def restrict(space: FiniteMetricSpace, subset: Iterable[Vertex]) -> FiniteMetricSpace:
    """Submatrix on a nonempty subset of the points."""
    keep = sorted(set(subset))
    if not keep:
        raise EmptySetError("cannot restrict to the empty set")
    idx = [space.index(p) for p in keep]
    return FiniteMetricSpace._trusted(keep, [[space.rows[i][j] for j in idx] for i in idx])


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
