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
