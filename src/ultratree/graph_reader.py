"""The graph-document reader: a parsed JSON graph document (see io.py) to a GraphDoc.

Only verbs on trees and graphs load it, through io.load_graph_text.
"""

from __future__ import annotations

from .errors import ParseError
from .graphs import Graph
from .io import GraphDoc, _check_ids, _parser


def graph_from_json(obj) -> GraphDoc:
    if not isinstance(obj, dict):
        raise ParseError("graph document must be a JSON object")
    vertices, edges = obj.get("vertices"), obj.get("edges", [])
    if not isinstance(vertices, list) or not isinstance(edges, list):
        raise ParseError("'vertices' and 'edges' must be JSON lists")
    _check_ids(vertices)
    try:
        graph, error = Graph(vertices, edges), None
    except Exception as exc:
        graph, error = None, exc
    if error or not {list}.issuperset(map(type, edges)):  # an edge of another shape is named first
        for e in edges:
            if not isinstance(e, list) or len(e) != 2 or not isinstance(e[0], str) or not isinstance(e[1], str):
                raise ParseError(f"edge must be a list of two vertex ids: {e!r}")
    if error:
        raise ParseError(f"bad graph: {error}") from error
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

    weights, adj = None, graph._adj  # type: ignore[attr-defined]
    parse = _parser() if obj.get("weights") or obj.get("labels") else None  # no number, no number code
    if obj.get("weights") is not None:
        weights, edge_set = {}, graph._edge_set  # type: ignore[attr-defined]
        for key, val in obj["weights"].items():
            u, _, v = key.partition("|")
            if (e := (u, v) if u < v else (v, u)) not in edge_set or e in weights:  # a bad key, named here
                raise ParseError(f"edge key must be 'u|v': {key!r}" if key.count("|") != 1 else
                                 f"second weight on edge {key!r}" if e in weights else
                                 f"self-loop at {u!r}" if u == v else f"weight on unknown edge {key!r}")
            weights[e] = parse(val)

    labels = None
    if obj.get("labels") is not None:
        labels = {}
        for v, val in obj["labels"].items():
            if v not in adj:
                raise ParseError(f"label on unknown vertex {v!r}")
            labels[v] = parse(val)

    payloads = None
    if obj.get("payloads") is not None:
        payloads = {}
        for v, pts in obj["payloads"].items():
            if v not in adj:
                raise ParseError(f"payload on unknown vertex {v!r}")
            if not isinstance(pts, list) or not all(isinstance(x, str) for x in pts):
                raise ParseError(f"payload of {v!r} must be a list of strings")
            payloads[v] = frozenset(pts)

    return GraphDoc(graph, root, weights, labels, payloads)
