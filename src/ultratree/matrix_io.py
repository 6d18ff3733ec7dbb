"""The distance-matrix readers: the JSON and CSV forms of io.py's docstring.

Only verbs on matrices load them, through io.load_matrix_text; the writers,
which no verb runs, are in matrix_writers.py.
"""

from __future__ import annotations

import io as _io
from typing import TYPE_CHECKING

from .errors import ParseError
from .io import _check_ids, _parser

if TYPE_CHECKING:
    from .metrics import FiniteMetricSpace


def matrix_from_json(obj) -> FiniteMetricSpace:
    if not isinstance(obj, dict) or "points" not in obj or "matrix" not in obj:
        raise ParseError("matrix document needs 'points' and 'matrix'")
    return _matrix(obj["points"], obj["matrix"])


def _matrix(points, matrix) -> FiniteMetricSpace:
    # The tail of both matrix forms, so they refuse the same point ids and
    # entries and report every defect of the space as one ParseError.
    from .metrics import FiniteMetricSpace

    if not isinstance(points, list) or not all(isinstance(p, str) and p for p in points):
        raise ParseError("'points' must be a list of nonempty strings")
    _check_ids(points)
    if not isinstance(matrix, list) or not all(isinstance(row, list) for row in matrix):
        raise ParseError("'matrix' must be a list of lists")
    parse = _parser()
    rows = [[parse(x) for x in row] for row in matrix]
    try:
        return FiniteMetricSpace(points, rows)
    except Exception as exc:
        raise ParseError(f"bad matrix: {exc}") from exc


def matrix_from_csv(text: str) -> FiniteMetricSpace:
    import csv

    try:
        rows = [r for r in csv.reader(_io.StringIO(text)) if r]
    except csv.Error as exc:
        raise ParseError(f"bad CSV: {exc}") from exc
    if len(rows) < 2:
        raise ParseError("matrix CSV needs a header and at least one row")
    header = rows[0][1:]
    points = []
    matrix = []
    for r in rows[1:]:
        if len(r) != len(header) + 1:
            raise ParseError(f"row length mismatch in CSV near {r[:1]!r}")
        points.append(r[0])
        matrix.append(r[1:])
    if points != header:
        raise ParseError("CSV row ids must repeat the header order")
    return _matrix(points, matrix)
