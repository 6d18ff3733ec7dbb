"""JSON and CSV wire formats, as README's "Wire formats" lays them out.

This module holds the entry points the CLI calls and what both forms share.
JSON goes through json's C scanner and string encoder, and json itself loads
only for a document the scanner does not read whole or a value the writer
does not take.  load_graph_text and load_matrix_text import their readers
(graph_reader.py, matrix_io.py) when they run, so a verb compiles only its own.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, Optional

from ._record import record
from .errors import ParseError

try:  # json's C codec, which json itself loads
    from _json import encode_basestring_ascii as quote, make_scanner
    from types import SimpleNamespace as _Settings
except ImportError:  # not CPython: json's own, whose decoder takes the same settings and holds what its scanner reads
    from json import JSONDecoder as _Settings, encoder, scanner
    quote, make_scanner = encoder.encode_basestring_ascii, scanner.make_scanner

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
    # reader(parse_json(text)), refusing first a repeated key or nesting past _MAX_DEPTH (the document is level 1).
    # Readers check each value they read, so only the top-level values they leave unread need the walk.
    try:
        nest, depth = [[obj := parse_json(text)]], 0
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


_scan, _SPACE = make_scanner(_Settings(  # json.JSONDecoder(object_pairs_hook=_unique_keys)'s; JSON's whitespace
    strict=True, object_hook=None, object_pairs_hook=_unique_keys, parse_float=float, parse_int=int,
    parse_constant={"-Infinity": float("-inf"), "Infinity": float("inf"), "NaN": float("nan")}.__getitem__)), " \t\n\r"


def parse_json(text: str):
    """json.loads(text, object_pairs_hook=_unique_keys) by one scan of json's C scanner; json.loads runs to refuse."""
    try:
        obj, end = _scan(text, len(text) - len(text.lstrip(_SPACE)))
        if not text[end:].lstrip(_SPACE):
            return obj
    except Exception:  # in json's words: on 3.10 and 3.11 the scanner cannot raise its own without json loaded
        pass
    import json
    return json.loads(text, object_pairs_hook=_unique_keys)


def dump_json(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True) + "\n", which json writes only for a value _dump does not take."""
    try:
        return _dump(obj, "\n") + "\n"
    except Exception:  # another type, a cycle, nesting past the interpreter's limit: json's text or its error
        import json
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _dump(x, pad: str) -> str:
    # x indented from pad, "\n" and 2 spaces a level: one call per value
    kind, inner = type(x), pad + "  "
    if kind is str:
        return quote(x)
    if kind is list or kind is tuple:
        return "[" + inner + ("," + inner).join([_dump(y, inner) for y in x]) + pad + "]" if x else "[]"
    if kind is dict and set(map(type, keys := sorted(x))) <= {str}:
        items = [quote(key) + ": " + _dump(x[key], inner) for key in keys]
        return "{" + inner + ("," + inner).join(items) + pad + "}" if x else "{}"
    if x is None or kind is bool or kind is int:
        return "null" if x is None else repr(x).lower()  # true, false or the digits
    raise TypeError  # json's to write: a float, a key that is not a string, another type
