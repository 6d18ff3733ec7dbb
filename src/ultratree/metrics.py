"""Finite metric spaces and their checks.

A space ranks its distinct distances once when it is made, and every check
after that runs on those integer ranks; the ultrametric decision on them is
representing._linkage.  The spaces that trees, graphs and functions generate
are built in path_metrics.py, which label_tree_metric imports when it runs,
so a matrix verb loads no graph code.  No verb classifies a space or
restricts one: both are done in spaces.py, which classify_metric and
FiniteMetricSpace.classify import when they run.  MetricClass, named here in
annotations only, is defined in path_metrics.py.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from ._record import record
from .errors import BadMatrixError, VertexNotFoundError

if TYPE_CHECKING:
    from .graphs import Tree, Vertex
    from .path_metrics import LabelMap, MetricClass

ZERO = Fraction(0)


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
        values, ranks = _rank([[x if isinstance(x, Fraction) else Fraction(x) for x in r] for r in rows])
        _check_matrix(values, ranks, lambda i, j: repr(pts[i]) if i == j else f"({pts[i]!r}, {pts[j]!r})", True)
        self._store(pts, values, ranks)

    # For a checked matrix given as its distinct values and their ranks: no conversion, no check.
    _trusted = classmethod(lambda cls, *args: object.__new__(cls)._store(*args))

    def _store(self, pts: Sequence[Vertex], values: Sequence[Fraction], ranks) -> "FiniteMetricSpace":
        # The points sorted, and rows built from the ranks: one Fraction per distinct distance.
        order = sorted(range(len(pts)), key=pts.__getitem__)
        ranks = tuple(tuple(map(ranks[i].__getitem__, order)) for i in order)
        object.__setattr__(self, "points", tuple(map(pts.__getitem__, order)))
        object.__setattr__(self, "rows", tuple(tuple(map(values.__getitem__, row)) for row in ranks))
        object.__setattr__(self, "_ranks", (values, ranks))
        object.__setattr__(self, "_index", {p: i for i, p in enumerate(self.points)})
        return self

    def index(self, x: Vertex) -> int:
        try:
            return self._index[x]  # type: ignore[attr-defined]
        except (KeyError, TypeError):  # an unhashable id names no point
            raise VertexNotFoundError(f"unknown point {x!r}")

    def distance(self, x: Vertex, y: Vertex) -> Fraction:
        return self.rows[self.index(x)][self.index(y)]

    def diameter(self) -> Fraction:
        return max((x for row in self.rows for x in row), default=ZERO)

    def classify(self) -> MetricClass:
        from .spaces import _classify

        return _classify(*self._ranks)  # type: ignore[attr-defined]

    def rename(self, mapping: Mapping[Vertex, Vertex]) -> "FiniteMetricSpace":
        """Isometric copy under a point-renaming bijection."""
        new_pts = [mapping[p] for p in self.points]
        if len(set(new_pts)) != len(new_pts):
            raise ValueError("renaming is not injective")
        return FiniteMetricSpace._trusted(new_pts, *self._ranks)  # type: ignore[attr-defined]


def _rank(mat: Sequence[Sequence]) -> tuple[list, tuple[tuple[int, ...], ...]]:
    # The distinct values in increasing order, and the matrix of their ranks.  Entries are
    # told apart by exact ratio, a pair of ints that hashes fast.
    values = sorted({x.as_integer_ratio(): x for row in mat for x in row}.values())  # one object per value
    rank = {x.as_integer_ratio(): r for r, x in enumerate(values)}
    return values, tuple(tuple([rank[x.as_integer_ratio()] for x in row]) for row in mat)


def _check_matrix(values: Sequence, ranks: Sequence[tuple], where: Callable, nonnegative: bool) -> None:
    # Zero diagonal, symmetry and, if asked, no negative entry, on the ranks.
    # The first defect in row order is raised, named by where(i, i) or where(i, j);
    # rows above are sound, so only a row unlike its column or negative is scanned.
    zero = ranks[0][0] if ranks and values[ranks[0][0]] == 0 else -1
    for i, (row, col) in enumerate(zip(ranks, zip(*ranks))):
        if row[i] != zero:
            raise BadMatrixError(f"nonzero diagonal at {where(i, i)}")
        if row != col or nonnegative and min(row) < zero:
            for j in range(i + 1, len(row)):
                if row[j] != col[j]:
                    raise BadMatrixError(f"asymmetric at {where(i, j)}")
                if nonnegative and row[j] < zero:
                    raise ValueError(f"negative distance at {where(i, j)}")


def classify_metric(rows: Sequence[Sequence[Fraction]]) -> MetricClass:
    """Strongest class a raw square matrix satisfies.

    Checks symmetry and zero diagonal (errors otherwise), then off-diagonal
    positivity, the triangle inequality and the strong triangle inequality.
    """
    n = len(rows)
    mat = [[x if isinstance(x, Fraction) else Fraction(x) for x in r] for r in rows]
    if any(len(r) != n for r in mat):
        raise BadMatrixError("matrix not square")
    ranked = _rank(mat)
    _check_matrix(*ranked, lambda i, j: f"row {i}" if i == j else f"({i}, {j})", False)
    from .spaces import _classify

    return _classify(*ranked)


def label_tree_metric(t: Tree, l: LabelMap) -> tuple[FiniteMetricSpace, MetricClass]:
    """Max vertex label along the unique path, endpoints included.

    Returns the space together with its class: ultrametric exactly when every
    edge carries at least one positive endpoint label, pseudoultrametric
    otherwise.
    """
    from .path_metrics import minimax_label_metric

    return minimax_label_metric(t, l)
