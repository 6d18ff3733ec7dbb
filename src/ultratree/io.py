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

This module holds the entry points the CLI calls and what both forms share.
The graph-document reader is in graph_reader.py and the matrix readers are
in matrix_io.py; load_graph_text and load_matrix_text import theirs when
they run, so a verb compiles only the reader of its input.
"""

from __future__ import annotations

import json
import sys
from typing import TYPE_CHECKING, Optional

from ._record import record
from .errors import ParseError

if TYPE_CHECKING:
    from fractions import Fraction

    from .graphs import Edge, Graph, RootedTree, Tree, Vertex
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
        from .graphs import Tree

        try:
            return Tree(self.graph, self.root)
        except ValueError:
            raise ParseError("expected a tree (connected and acyclic)") from None

    def rooted(self) -> RootedTree:
        from .graphs import RootedTree

        if self.root is None:
            raise ParseError("document carries no root")
        return RootedTree(self.tree(), self.root)


def weights_to_json(weights) -> dict:
    """The "weights" block of a graph document: "u|v" keys, "p/q" values."""
    from .payloads import edge_key
    from .rational import format_rational

    return {"|".join(edge_key(*e)): format_rational(val) for e, val in sorted(weights.items())}


def _parser():
    # parse_rational for one document: equal tokens share one Fraction.  The key holds
    # the type, so true never meets 1; an unhashable token gets parse_rational's error.
    from .rational import parse_rational  # loaded for documents that hold numbers only

    memo: dict = {}

    def parse(token) -> Fraction:
        try:
            key = type(token), token
            return value if (value := memo.get(key)) is not None else memo.setdefault(key, parse_rational(token))
        except TypeError:
            return parse_rational(token)

    return parse


def _check_ids(ids) -> None:
    for v in ids:
        if not isinstance(v, str) or not v:
            raise ParseError(f"vertex ids must be nonempty strings, got {v!r}")
        if "|" in v:
            raise ParseError(f"vertex id may not contain '|': {v!r}")


def graph_to_json(g: Graph, root: Optional[Vertex] = None, weights=None, labels=None, payloads=None) -> dict:
    from .rational import format_rational

    _check_ids(g.vertices)
    doc = {"vertices": list(g.vertices), "edges": [list(e) for e in g.edges], "root": root,
           "weights": None if weights is None else weights_to_json(weights),
           "labels": None if labels is None else {v: format_rational(x) for v, x in sorted(labels.items())}}
    if payloads is not None:
        doc["payloads"] = {v: sorted(pts) for v, pts in sorted(payloads.items())}
    return doc


def labeled_tree_to_json(t: LabeledRootedTree) -> dict:
    return graph_to_json(t.rt.tree, t.rt.root, labels=t.labels, payloads=t.payloads)


def load_matrix_text(text: str) -> FiniteMetricSpace:
    """Accept either the JSON or the CSV matrix form."""
    from .matrix_io import matrix_from_csv, matrix_from_json

    if text.removeprefix("\ufeff").lstrip().startswith("{"):  # a BOM goes to the JSON reader, which refuses it
        return _load(matrix_from_json, text, ("points", "matrix"))
    return matrix_from_csv(text)


def load_graph_text(text: str) -> GraphDoc:
    from .graph_reader import graph_from_json

    return _load(graph_from_json, text, ("vertices", "edges", "root", "weights", "labels", "payloads"))


def _load(reader, text: str, fields: tuple):
    # reader(json.loads(text)), refusing first a repeated key or nesting past _MAX_DEPTH (the document is level 1).
    # Readers check each value they read, so only the top-level values they leave unread need the walk.
    try:
        nest, depth = [[obj := json.loads(text, object_pairs_hook=_unique_keys)]], 0
        try:  # a refusal, or a RecursionError from the message of a deep value, goes out past a whole walk
            out, nest, depth = reader(obj), [[*map(obj.get, obj.keys() - fields)]], 1
            return out
        finally:  # nest: the containers depth levels in, a level further each pass until none is left
            while nest := [y for x in nest for y in (x.values() if type(x) is dict else x) if type(y) in (dict, list)]:
                if (depth := depth + 1) > _MAX_DEPTH:  # refused as a release's parser refuses past its own limit
                    raise RecursionError
    except ValueError as exc:  # bad syntax or too many digits, the limit worded on 3.10 as 3.11+ word it
        text = str(exc) if sys.version_info >= (3, 11) else str(exc).replace(") for integer", " digits) for integer")
        raise ParseError(f"bad JSON: {text}") from exc
    except RecursionError:
        raise ParseError(f"bad JSON: nested deeper than {_MAX_DEPTH} levels") from None


def _unique_keys(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set = set()
        repeat = next(key for key, _ in pairs if key in seen or seen.add(key))
        raise ParseError(f"bad JSON: repeated key {repeat!r}")
    return obj


def dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
