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

import io as _io
import json
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

from .errors import ParseError
from .graphs import Edge, Graph, RootedTree, Tree, Vertex, edge_key, record
from .rational import format_rational, parse_rational

if TYPE_CHECKING:
    from .metrics import FiniteMetricSpace
    from .representing import LabeledRootedTree

_MAX_DEPTH = 100  # deepest nesting read: the schemas need 3, and no release's own parser stops before ~900


@record
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


def weights_to_json(weights) -> dict:
    """The "weights" block of a graph document: "u|v" keys, "p/q" values."""
    return {"|".join(edge_key(*e)): format_rational(val) for e, val in sorted(weights.items())}


def _parser():
    # parse_rational for one document: equal tokens share one Fraction.  The key holds
    # the type, so true never meets 1; an unhashable token gets parse_rational's error.
    memo: dict = {}

    def parse(token) -> Fraction:
        try:
            key = type(token), token
            return memo[key] if key in memo else memo.setdefault(key, parse_rational(token))
        except TypeError:
            return parse_rational(token)

    return parse


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
        doc["weights"] = weights_to_json(weights)
    if labels is not None:
        doc["labels"] = {v: format_rational(val) for v, val in sorted(labels.items())}
    if payloads is not None:
        doc["payloads"] = {v: sorted(pts) for v, pts in sorted(payloads.items())}
    return doc


def labeled_tree_to_json(t: LabeledRootedTree) -> dict:
    return graph_to_json(t.rt.tree, t.rt.root, labels=t.labels, payloads=t.payloads)


def graph_from_json(obj) -> GraphDoc:
    if not isinstance(obj, dict):
        raise ParseError("graph document must be a JSON object")
    vertices, edges = obj.get("vertices"), obj.get("edges", [])
    if not isinstance(vertices, list) or not isinstance(edges, list):
        raise ParseError("'vertices' and 'edges' must be JSON lists")
    _check_ids(vertices)
    for e in edges:
        if not isinstance(e, list) or len(e) != 2 or not isinstance(e[0], str) or not isinstance(e[1], str):
            raise ParseError(f"edge must be a list of two vertex ids: {e!r}")
    try:
        graph = Graph(vertices, edges)
    except Exception as exc:
        raise ParseError(f"bad graph: {exc}") from exc
    if len(graph.edges) < len(edges):  # Graph keeps one copy of an edge given twice
        seen: set = set()
        repeat = next(e for e in edges if frozenset(e) in seen or seen.add(frozenset(e)))
        raise ParseError(f"repeated edge {'|'.join(repeat)!r}")

    root = obj.get("root")
    if root is not None and not graph.has_vertex(root):
        raise ParseError(f"root {root!r} is not a vertex")
    for field in ("weights", "labels", "payloads"):
        if not isinstance(obj.get(field), (dict, type(None))):
            raise ParseError(f"{field!r} must be a JSON object or null")

    weights, parse = None, _parser()
    if obj.get("weights") is not None:
        weights, edge_set = {}, graph._edge_set  # type: ignore[attr-defined]
        for key, val in obj["weights"].items():
            parts = key.split("|")
            if len(parts) != 2:
                raise ParseError(f"edge key must be 'u|v': {key!r}")
            u, v = parts
            e = (u, v) if u < v else (v, u)
            if e not in edge_set:
                raise ParseError(f"self-loop at {u!r}" if u == v else f"weight on unknown edge {key!r}")
            if e in weights:
                raise ParseError(f"second weight on edge {key!r}")
            weights[e] = parse(val)

    vertex_set = set(graph.vertices)  # object keys are hashable, unlike a root
    labels = None
    if obj.get("labels") is not None:
        labels = {}
        for v, val in obj["labels"].items():
            if v not in vertex_set:
                raise ParseError(f"label on unknown vertex {v!r}")
            labels[v] = parse(val)

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


def matrix_to_csv(space: FiniteMetricSpace) -> str:
    import csv

    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([""] + list(space.points))
    for p, row in zip(space.points, space.rows):
        writer.writerow([p] + [format_rational(x) for x in row])
    return buf.getvalue()


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


def load_matrix_text(text: str) -> FiniteMetricSpace:
    """Accept either the JSON or the CSV matrix form."""
    if text.lstrip().startswith("{"):
        return matrix_from_json(_load_json(text))
    return matrix_from_csv(text)


def load_graph_text(text: str) -> GraphDoc:
    return graph_from_json(_load_json(text))


def _load_json(text: str):
    # json.loads, refusing an object that repeats a key rather than keep the last, and nesting past _MAX_DEPTH
    try:
        level = [[obj := json.loads(text, object_pairs_hook=_unique_keys)]]
        for _ in range(_MAX_DEPTH + 1):  # the containers one level further in
            level = [y for x in level for y in (x.values() if type(x) is dict else x) if type(y) in (dict, list)]
        if level:  # past _MAX_DEPTH: refused as a release's parser refuses past its own limit
            raise RecursionError
    except ValueError as exc:  # bad syntax or too many digits, the limit worded on 3.10 as 3.11+ word it
        text = str(exc) if sys.version_info >= (3, 11) else str(exc).replace(") for integer", " digits) for integer")
        raise ParseError(f"bad JSON: {text}") from exc
    except RecursionError:
        raise ParseError(f"bad JSON: nested deeper than {_MAX_DEPTH} levels") from None
    return obj


def _unique_keys(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set = set()
        repeat = next(key for key, _ in pairs if key in seen or seen.add(key))
        raise ParseError(f"bad JSON: repeated key {repeat!r}")
    return obj


def dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
