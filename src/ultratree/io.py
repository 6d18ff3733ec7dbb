"""JSON and CSV wire formats.

Graph documents:
    {"vertices": [str], "edges": [[str, str]], "root": str|null,
     "weights": {"u|v": "p/q"}|null, "labels": {"v": "p/q"}|null,
     "payloads": {"v": [str]}|null}
Edge keys join the two endpoints in lexicographic order with "|", so vertex
ids may not contain that character.

Distance matrices either as CSV (first row and column hold the point ids,
entries are "p/q") or as the mirroring JSON
    {"points": [str], "matrix": [["p/q", ...], ...]}.
"""

from __future__ import annotations

import csv
import io as _io
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import ParseError
from .graphs import Edge, Graph, RootedTree, Tree, Vertex, edge_key
from .metrics import FiniteMetricSpace
from .rational import format_rational, parse_rational
from .representing import LabeledRootedTree


@dataclass(frozen=True)
class GraphDoc:
    """A parsed graph document with its optional decorations."""

    graph: Graph
    root: Optional[Vertex] = None
    weights: Optional[dict[Edge, Fraction]] = None
    labels: Optional[dict[Vertex, Fraction]] = None
    payloads: Optional[dict[Vertex, frozenset[Vertex]]] = None

    def tree(self) -> Tree:
        try:
            return Tree(self.graph)
        except ValueError:
            raise ParseError("expected a tree (connected and acyclic)") from None

    def rooted(self) -> RootedTree:
        if self.root is None:
            raise ParseError("document carries no root")
        return RootedTree(self.tree(), self.root)


def _edge_text(e: Edge) -> str:
    return f"{e[0]}|{e[1]}"


def _check_ids(ids) -> None:
    for v in ids:
        if not isinstance(v, str) or not v:
            raise ParseError(f"vertex ids must be nonempty strings, got {v!r}")
        if "|" in v:
            raise ParseError(f"vertex id may not contain '|': {v!r}")


def graph_to_json(
    g: Graph,
    root: Optional[Vertex] = None,
    weights=None,
    labels=None,
    payloads=None,
) -> dict:
    _check_ids(g.vertices)
    doc: dict = {
        "vertices": list(g.vertices),
        "edges": [list(e) for e in g.edges],
        "root": root,
        "weights": None,
        "labels": None,
    }
    if weights is not None:
        doc["weights"] = {
            _edge_text(edge_key(*e)): format_rational(val)
            for e, val in sorted(weights.items())
        }
    if labels is not None:
        doc["labels"] = {v: format_rational(val) for v, val in sorted(labels.items())}
    if payloads is not None:
        doc["payloads"] = {v: sorted(pts) for v, pts in sorted(payloads.items())}
    return doc


def labeled_tree_to_json(t: LabeledRootedTree) -> dict:
    return graph_to_json(
        t.rt.tree.underlying,
        root=t.rt.root,
        labels=t.labels,
        payloads=t.payloads,
    )


def graph_from_json(obj) -> GraphDoc:
    if not isinstance(obj, dict):
        raise ParseError("graph document must be a JSON object")
    vertices, edges = obj.get("vertices"), obj.get("edges", [])
    if not isinstance(vertices, list) or not isinstance(edges, list):
        raise ParseError("'vertices' and 'edges' must be JSON lists")
    _check_ids(vertices)
    for e in edges:
        if not isinstance(e, list) or len(e) != 2 or not all(isinstance(x, str) for x in e):
            raise ParseError(f"edge must be a list of two vertex ids: {e!r}")
    try:
        graph = Graph(vertices, edges)
    except Exception as exc:
        raise ParseError(f"bad graph: {exc}") from exc

    root = obj.get("root")
    if root is not None and root not in graph.vertices:
        raise ParseError(f"root {root!r} is not a vertex")
    for field in ("weights", "labels", "payloads"):
        if not isinstance(obj.get(field), (dict, type(None))):
            raise ParseError(f"{field!r} must be a JSON object or null")

    weights = None
    if obj.get("weights") is not None:
        weights = {}
        for key, val in obj["weights"].items():
            parts = key.split("|")
            if len(parts) != 2:
                raise ParseError(f"edge key must be 'u|v': {key!r}")
            try:
                e = edge_key(*parts)
            except ValueError as exc:
                raise ParseError(str(exc)) from exc
            if not graph.has_edge(*e):
                raise ParseError(f"weight on unknown edge {key!r}")
            weights[e] = parse_rational(val)

    vertex_set = set(graph.vertices)  # object keys are hashable, unlike a root
    labels = None
    if obj.get("labels") is not None:
        labels = {}
        for v, val in obj["labels"].items():
            if v not in vertex_set:
                raise ParseError(f"label on unknown vertex {v!r}")
            labels[v] = parse_rational(val)

    payloads = None
    if obj.get("payloads") is not None:
        payloads = {}
        for v, pts in obj["payloads"].items():
            if v not in vertex_set:
                raise ParseError(f"payload on unknown vertex {v!r}")
            if not isinstance(pts, list) or not all(isinstance(x, str) for x in pts):
                raise ParseError(f"payload of {v!r} must be a list of strings")
            payloads[v] = frozenset(pts)

    return GraphDoc(graph, root, weights, labels, payloads)


def matrix_to_json(space: FiniteMetricSpace) -> dict:
    return {
        "points": list(space.points),
        "matrix": [[format_rational(x) for x in row] for row in space.rows],
    }


def matrix_from_json(obj) -> FiniteMetricSpace:
    if not isinstance(obj, dict) or "points" not in obj or "matrix" not in obj:
        raise ParseError("matrix document needs 'points' and 'matrix'")
    points, matrix = obj["points"], obj["matrix"]
    if not isinstance(points, list) or not all(isinstance(p, str) and p for p in points):
        raise ParseError("'points' must be a list of nonempty strings")
    if not isinstance(matrix, list) or not all(isinstance(row, list) for row in matrix):
        raise ParseError("'matrix' must be a list of lists")
    rows = [[parse_rational(x) for x in row] for row in matrix]
    try:
        return FiniteMetricSpace(points, rows)
    except Exception as exc:
        raise ParseError(f"bad matrix: {exc}") from exc


def matrix_to_csv(space: FiniteMetricSpace) -> str:
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([""] + list(space.points))
    for p, row in zip(space.points, space.rows):
        writer.writerow([p] + [format_rational(x) for x in row])
    return buf.getvalue()


def matrix_from_csv(text: str) -> FiniteMetricSpace:
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
        matrix.append([parse_rational(x) for x in r[1:]])
    if points != header:
        raise ParseError("CSV row ids must repeat the header order")
    try:
        return FiniteMetricSpace(points, matrix)
    except Exception as exc:
        raise ParseError(f"bad matrix: {exc}") from exc


def load_matrix_text(text: str) -> FiniteMetricSpace:
    """Accept either the JSON or the CSV matrix form."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON: {exc}") from exc
        return matrix_from_json(obj)
    return matrix_from_csv(text)


def load_graph_text(text: str) -> GraphDoc:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc}") from exc
    return graph_from_json(obj)


def dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
