"""The distance-matrix writers: the JSON and CSV forms that matrix_io.py reads.

No verb writes a matrix, so the matrix verbs, which load the readers, compile
none of this.
"""

from __future__ import annotations

import csv
import io
from typing import TYPE_CHECKING

from .rational import format_rational

if TYPE_CHECKING:
    from .metrics import FiniteMetricSpace


def matrix_to_json(space: FiniteMetricSpace) -> dict:
    return {
        "points": list(space.points),
        "matrix": [[format_rational(x) for x in row] for row in space.rows],
    }


def matrix_to_csv(space: FiniteMetricSpace) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([""] + list(space.points))
    for p, row in zip(space.points, space.rows):
        writer.writerow([p] + [format_rational(x) for x in row])
    return buf.getvalue()
