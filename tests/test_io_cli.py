import contextlib
import gc
import io
import json
import os
import random
import subprocess
import sys
import tokenize
import warnings
from fractions import Fraction as F
from pathlib import Path

import pytest

from ultratree import additive_metric, minimax_label_metric, representing_tree
from ultratree.cli import main
from ultratree.errors import ParseError
from ultratree import io as tio
from ultratree.graph_reader import graph_from_json
from ultratree.matrix_io import matrix_from_csv, matrix_from_json
from ultratree.matrix_writers import matrix_to_csv, matrix_to_json

from helpers import (
    fig6_graph,
    fig10_tree,
    fig13_tree,
    rename_labels,
    rename_tree,
    rename_weights,
    random_ultrametric_space,
)


def test_graph_json_round_trip():
    rt, w = fig10_tree()
    doc = tio.graph_to_json(rt.tree, root="r", weights=w)
    text = tio.dump_json(doc)
    back = graph_from_json(json.loads(text))
    assert back.tree() == rt.tree
    assert back.root == "r"
    assert back.weights == {tuple(sorted(e)): F(v) for e, v in w.items()}
    # dumping the parsed value reproduces the bytes
    assert tio.dump_json(tio.graph_to_json(back.graph, root=back.root, weights=back.weights)) == text


def test_labeled_tree_json_includes_payloads():
    t, w = fig13_tree()
    space = additive_metric(t, w)
    from ultratree import restrict

    tree = representing_tree(restrict(space, ["x1", "x2", "x3", "x4"]))
    doc = tio.labeled_tree_to_json(tree)
    assert doc["root"] is not None and doc["labels"] is not None
    back = graph_from_json(doc)
    assert back.payloads is not None
    assert back.payloads[back.root] == {"x1", "x2", "x3", "x4"}


def test_matrix_json_and_csv_round_trip():
    space = random_ultrametric_space(random.Random(211), 5)
    via_json = matrix_from_json(json.loads(tio.dump_json(matrix_to_json(space))))
    assert via_json == space
    via_csv = matrix_from_csv(matrix_to_csv(space))
    assert via_csv == space
    sniffed = tio.load_matrix_text(matrix_to_csv(space))
    assert sniffed == space
    assert tio.load_matrix_text("\ufeff" + matrix_to_csv(space)) == space  # the BOM sits in the unread corner cell


# Inputs that parse as JSON or CSV but are refused: each is (CLI verb, file
# name, document text, message).  Numbers must be exact, so JSON true/false
# and floats (1e-400 arrives as 0.0) are not rationals; ids may not contain
# '|' in either matrix form; an edge is listed once and has one weight; a JSON
# object repeats no key.
# JSON nested more than 100 levels deep, on every release whatever depth its own
# parser reaches, or holding an integer past int's digit limit, does not parse.
_TOO_DEEP = "bad JSON: nested deeper than 100 levels"


def _noted(depth: int, mixed: bool = False) -> str:
    # a valid labeled graph whose extra key "note" makes the document nest depth levels,
    # in lists only or, when mixed, in lists and objects by turns around an innermost list
    graph = '{"vertices": ["a", "b"], "edges": [["a", "b"]], "labels": {"a": "1", "b": "0"}'
    pairs = [('{"k": ', "}") if mixed and (depth - i) % 2 else ("[", "]") for i in range(depth - 1)]
    return graph + ', "note": ' + "".join(o for o, _ in pairs) + "".join(c for _, c in reversed(pairs)) + "}"


def _deep(levels: int) -> str:
    return "[" * levels + "]" * levels


# Each field a reader reads, as (verb, name, document with %s for the field's value, the
# levels the document nests above that value, the refusal of a value of those levels).
_FIELDS = (
    ("reduce", "vertices", '{"vertices": %s}', 1, lambda v: f"vertex ids must be nonempty strings, got {v[0]!r}"),
    ("reduce", "edges", '{"vertices": ["a", "b"], "edges": %s}', 1,
     lambda v: f"edge must be a list of two vertex ids: {v[0]!r}"),
    ("reduce", "root", '{"vertices": ["a", "b"], "edges": [["a", "b"]], "root": %s}', 1,
     lambda v: f"root {v!r} is not a vertex"),
    ("reduce", "weight", '{"vertices": ["a", "b"], "edges": [["a", "b"]], "root": "a", "weights": {"a|b": %s}}', 2,
     lambda v: f"not a rational: {v!r}"),
    ("spanning", "label", '{"vertices": ["a", "b"], "edges": [["a", "b"]], "labels": {"a": "1", "b": %s}}', 2,
     lambda v: f"not a rational: {v!r}"),
    ("spanning", "payload",
     '{"vertices": ["a", "b"], "edges": [["a", "b"]], "labels": {"a": "1", "b": "0"}, "payloads": {"a": %s}}', 2,
     lambda v: "payload of 'a' must be a list of strings"),
    ("repr", "points", '{"points": %s, "matrix": [["0"]]}', 1, lambda v: "'points' must be a list of nonempty strings"),
    ("repr", "entry", '{"points": ["a"], "matrix": [[%s]]}', 3, lambda v: f"not a rational: {v!r}"),
)


_REFUSED = (
    ("repr", "bools.json", '{"points": ["a", "b"], "matrix": [[false, true], [true, false]]}',
     "not a rational: False"),
    ("reduce", "true_weight.json",
     '{"vertices": ["a", "b"], "edges": [["a", "b"]], "root": "a", "weights": {"a|b": true}}',
     "not a rational: True"),
    ("repr", "float.json", '{"points": ["a", "b"], "matrix": [["0", 1e-400], [1e-400, "0"]]}',
     "not a rational: 0.0"),
    ("ballean", "bar_id.json", '{"points": ["a|b", "c"], "matrix": [["0", "1"], ["1", "0"]]}',
     "vertex id may not contain '|': 'a|b'"),
    ("ballean", "bar_id.csv", ",a|b,c\na|b,0,1\nc,1,0\n", "vertex id may not contain '|': 'a|b'"),
    ("reduce", "two_weights.json",
     '{"vertices": ["a", "b"], "edges": [["a", "b"]], "root": "a", "weights": {"a|b": "1", "b|a": "2"}}',
     "second weight on edge 'b|a'"),
    ("reduce", "repeated_edge.json", '{"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "a"], ["b", "c"]]}',
     "repeated edge 'b|a'"),
    ("repr", "two_points.json", '{"points": ["a","b"], "points": ["c","d"], "matrix": [["0","1"],["1","0"]]}',
     "bad JSON: repeated key 'points'"),
    ("reduce", "repeated_weight.json",
     '{"vertices": ["a", "b"], "edges": [["a", "b"]], "root": "a", "weights": {"a|b": "1", "a|b": "2"}}',
     "bad JSON: repeated key 'a|b'"),
    ("reduce", "deep_vertices.json", '{"vertices": ' + "[" * 5000 + "]" * 5000 + "}", _TOO_DEEP),
    ("repr", "deep_matrix.json", '{"points": ["a"], "matrix": ' + "[" * 3000 + "]" * 3000 + "}", _TOO_DEEP),
    ("spanning", "deep_note.json", _noted(3000), _TOO_DEEP),
    ("spanning", "note_past_bound.json", _noted(101), _TOO_DEEP),
    ("spanning", "mixed_note_past_bound.json", _noted(101, mixed=True), _TOO_DEEP),
    ("reduce", "long_weight.json",
     '{"vertices": ["a", "b"], "edges": [["a", "b"]], "root": "a", "weights": {"a|b": ' + "7" * 5000 + "}}",
     "bad JSON: Exceeds the limit (4300 digits) for integer string conversion: value has 5000 digits; "
     "use sys.set_int_max_str_digits() to increase the limit"),
    # the depth is named before the refusal of a field the reader reads
    ("reduce", "deep_note_bad_vertices.json", '{"vertices": [1], "note": ' + _deep(100) + "}", _TOO_DEEP),
    # a BOM is refused in a matrix document as in a graph document
    ("repr", "bom_matrix.json", '\ufeff{"points": ["a"], "matrix": [["0"]]}',
     "bad JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
) + tuple((verb, f"{field}_past_bound.json", doc % _deep(101 - above), _TOO_DEEP)
        for verb, field, doc, above, _ in _FIELDS)


def test_parse_errors():
    with pytest.raises(ParseError):
        tio.load_graph_text("not json")
    with pytest.raises(ParseError):
        graph_from_json({"vertices": ["a|b"], "edges": []})
    with pytest.raises(ParseError):
        graph_from_json({"vertices": ["a"], "edges": [["a", "b"]]})
    with pytest.raises(ParseError):
        matrix_from_csv("a,b\n1,2\n")
    with pytest.raises(ParseError, match="bad CSV"):
        matrix_from_csv(",a\na," + "0" * (1 << 18) + "\n")  # over the csv field limit
    with pytest.raises(ParseError, match="'points' must be a list of nonempty strings"):
        matrix_from_csv(",,b\n,0,1\nb,1,0\n")  # an empty point id, refused as in JSON
    # matrix documents whose fields have the wrong JSON type
    for points, matrix in ((["a"], 5), (["a"], ["0"]), (["a"], {"0": "0"}), (5, [["0"]]),
                           ([1, 2], [["0", "1"], ["1", "0"]]), ([""], [["0"]]), ("a", [["0"]])):
        with pytest.raises(ParseError, match="must be a list"):
            matrix_from_json({"points": points, "matrix": matrix})
    # decoration fields that are present but not objects
    for field in ("weights", "labels", "payloads"):
        for value in ([["a|b", "1"]], "a|b", 3):
            doc = {"vertices": ["a", "b"], "edges": [["a", "b"]], field: value}
            with pytest.raises(ParseError, match=f"'{field}' must be a JSON object"):
                graph_from_json(doc)
    # vertex and edge lists that are strings or objects, edges that are not
    # pairs of strings
    for doc in ({"vertices": "abc", "edges": ["ab", "bc"], "labels": {"a": "1", "b": "0", "c": "2"}},
                {"vertices": {"a": 1, "b": 2}, "edges": [{"a": 1, "b": 2}]},
                {"vertices": ["a", "b"], "edges": ["ab"]},
                {"vertices": ["a", "b"], "edges": [{"a": 1, "b": 2}]},
                {"vertices": ["a", "b"], "edges": {"a": "b"}},
                {"vertices": ["a", "b"], "edges": [["a", 1]]},
                {"vertices": ["a", "b"], "edges": None},
                {"edges": []}):
        with pytest.raises(ParseError, match="must be"):
            graph_from_json(doc)
    # payload values that are not lists of strings
    for value in (5, "ab", ["a", 1]):
        doc = {"vertices": ["a", "b"], "edges": [["a", "b"]], "payloads": {"a": value}}
        with pytest.raises(ParseError, match="payload of 'a' must be a list of strings"):
            graph_from_json(doc)
    for verb, _, text, message in _REFUSED:
        load = tio.load_matrix_text if verb in ("repr", "ballean") else tio.load_graph_text
        with pytest.raises(ParseError) as caught:
            load(text)
        assert str(caught.value) == message


def test_nesting_up_to_the_bound_is_read(tmp_path, capsys):
    # A key no schema reads may hold any value, as long as the document nests at most
    # 100 levels; the schemas themselves need 3.
    plain = '{"vertices": ["a", "b"], "edges": [["a", "b"]], "labels": {"a": "1", "b": "0"}}'
    code, want = _run(capsys, "spanning", _write(tmp_path, "plain.json", plain))
    assert code == 0
    for name, text in (("note.json", _noted(100)), ("mixed_note.json", _noted(100, mixed=True))):
        assert _run(capsys, "spanning", _write(tmp_path, name, text)) == (0, want)
        assert tio.load_graph_text(text) == tio.load_graph_text(plain)
    with pytest.raises(ParseError, match="^vertex ids must be nonempty strings"):
        tio.load_graph_text('{"vertices": ' + "[" * 99 + "]" * 99 + "}")
    # a field the reader reads, nested to the bound, gets that field's own refusal
    for verb, field, doc, above, refusal in _FIELDS:
        text = doc % _deep(100 - above)
        load = tio.load_matrix_text if verb == "repr" else tio.load_graph_text
        with pytest.raises(ParseError) as caught:
            load(text)
        assert str(caught.value) == refusal(json.loads(_deep(100 - above))), field
        assert _run(capsys, verb, _write(tmp_path, f"{field}.json", text)) == (2, _error_bytes(str(caught.value)))


def test_format_rational_keeps_the_text_of_any_exact_value():
    from ultratree.rational import format_rational

    assert [format_rational(x) for x in (F(2, 4), F(-1, 3), 3, "6/4")] == ["1/2", "-1/3", "3", "3/2"]


def test_each_tree_is_checked_once(monkeypatch):
    from ultratree import Graph, IsoFlavor, are_isomorphic

    searches = []
    is_connected = Graph.is_connected
    monkeypatch.setattr(Graph, "is_connected", lambda g: searches.append(g) or is_connected(g))
    path = graph_from_json({"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]]})
    path.tree()
    assert len(searches) == 1
    assert are_isomorphic(path.graph, path.graph, IsoFlavor.FREE)
    assert len(searches) == 3
    cycle = graph_from_json({"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"], ["a", "c"]]})
    with pytest.raises(ParseError, match=r"expected a tree \(connected and acyclic\)"):
        cycle.tree()
    assert not are_isomorphic(cycle.graph, path.graph, IsoFlavor.FREE)


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cli_repr_and_ballean(tmp_path, capsys):
    g, labels = fig6_graph()
    space, _ = minimax_label_metric(g, labels)
    matrix = _write(tmp_path, "fig6.json", tio.dump_json(matrix_to_json(space)))

    code, out = _run(capsys, "repr", matrix)
    assert code == 0
    doc = json.loads(out)
    assert doc["labels"][doc["root"]] == "3"
    assert sorted(doc["payloads"][doc["root"]]) == list("ABCDEF")

    code, out = _run(capsys, "ballean", matrix)
    assert code == 0
    balls = json.loads(out)["balls"]
    assert ["A"] in balls and list("CDEF") in balls
    assert len(balls) == 9

    code, out = _run(capsys, "ballean", "--tree", matrix)
    assert code == 0
    tree_doc = json.loads(out)
    zero_leaves = [v for v, val in tree_doc["labels"].items() if val == "0"]
    assert len(tree_doc["vertices"]) == 9 + 3


def test_cli_repr_labeled_tree_input(tmp_path, capsys):
    doc = {
        "vertices": ["a", "b", "c"],
        "edges": [["a", "b"], ["b", "c"]],
        "root": None,
        "weights": None,
        "labels": {"a": "0", "b": "2", "c": "1"},
    }
    path = _write(tmp_path, "lt.json", tio.dump_json(doc))
    code, out = _run(capsys, "repr", "--labeled-tree", path)
    assert code == 0
    tree = json.loads(out)
    assert tree["labels"][tree["root"]] == "2"


def test_cli_iso_and_isometry(tmp_path, capsys):
    t1 = {"vertices": ["a", "b"], "edges": [["a", "b"]], "root": None, "weights": None, "labels": None}
    t2 = {"vertices": ["x", "y"], "edges": [["x", "y"]], "root": None, "weights": None, "labels": None}
    p1 = _write(tmp_path, "t1.json", tio.dump_json(t1))
    p2 = _write(tmp_path, "t2.json", tio.dump_json(t2))
    code, out = _run(capsys, "iso", "--flavor", "free", p1, p2)
    assert code == 0 and json.loads(out)["isomorphic"] is True

    s = random_ultrametric_space(random.Random(223), 4)
    from helpers import shuffled_renaming

    s2 = shuffled_renaming(random.Random(227), s)
    m1 = _write(tmp_path, "m1.json", tio.dump_json(matrix_to_json(s)))
    m2 = _write(tmp_path, "m2.csv", matrix_to_csv(s2))
    code, out = _run(capsys, "isometry", m1, m2)
    assert code == 0
    verdict = json.loads(out)
    assert verdict["isometric"] is True and verdict["bijection"] is not None

    code, out = _run(capsys, "isometry", "--fast-ultrametric", m1, m2)
    assert code == 0 and json.loads(out)["isometric"] is True


def test_cli_answers_different_sizes_beyond_the_search_cap(tmp_path, capsys):
    # a 20-vertex path against a 20-vertex cycle, and spaces of 10 and 12 points:
    # the counts decide, so neither call meets the search's size cap
    names = [f"v{i:02d}" for i in range(20)]
    path = [[u, v] for u, v in zip(names, names[1:])]
    docs = {"path": path, "cycle": [*path, [names[-1], names[0]]]}
    p1, p2 = (_write(tmp_path, f"{name}.json", tio.dump_json({"vertices": names, "edges": edges}))
              for name, edges in docs.items())
    assert _run(capsys, "iso", "--flavor", "free", p1, p2) == (0, '{\n  "isomorphic": false\n}\n')
    rng = random.Random(97)
    m1, m2 = (_write(tmp_path, f"m{n}.json", tio.dump_json(matrix_to_json(random_ultrametric_space(rng, n))))
              for n in (10, 12))
    assert _run(capsys, "isometry", m1, m2) == (0, '{\n  "bijection": null,\n  "isometric": false\n}\n')


# The payloads each iso flavor compares, stated apart from the library's own rule.
_FLAVOR_PAYLOADS = {"free": (), "rooted": ("root",), "vlabel": ("labels",), "eweight": ("weights",),
                    "rlabel": ("root", "labels"), "rweight": ("root", "weights")}


def test_iso_compares_exactly_the_payloads_of_its_flavor(tmp_path, capsys):
    # Both documents carry a root, labels and weights.  The right one is a renamed copy
    # of the left, or of the left with one payload changed: the root moved from a leaf
    # to a branching vertex, or one label or one weight set to a value found nowhere else.
    from ultratree import IsoFlavor, are_isomorphic
    from helpers import random_tree

    rng = random.Random(233)
    for k in range(4):
        t = random_tree(rng, rng.randint(6, 14))
        leaf = min(v for v in t.vertices if t.degree(v) == 1)
        labels = {v: F(rng.randint(0, 3)) for v in t.vertices}
        weights = {e: F(rng.randint(1, 3)) for e in t.edges}
        left = {"root": leaf, "labels": labels, "weights": weights}
        changes = {
            "nothing": left,
            "root": dict(left, root=max(v for v in t.vertices if t.degree(v) >= 2)),
            "labels": dict(left, labels={**labels, leaf: F(7)}),
            "weights": dict(left, weights={**weights, t.edges[0]: F(9)}),
        }
        m = dict(zip(t.vertices, rng.sample([f"r{i}" for i in range(len(t.vertices))], len(t.vertices))))
        t2 = rename_tree(t, m)
        path1 = _write(tmp_path, f"left{k}.json", tio.dump_json(tio.graph_to_json(t, **left)))
        for changed, doc in changes.items():
            right = {"root": m[doc["root"]], "labels": rename_labels(doc["labels"], m),
                     "weights": rename_weights(doc["weights"], m)}
            path2 = _write(tmp_path, f"right{k}{changed}.json", tio.dump_json(tio.graph_to_json(t2, **right)))
            for flavor, compared in _FLAVOR_PAYLOADS.items():
                code, out = _run(capsys, "iso", "--flavor", flavor, path1, path2)
                payloads = {f"{name}{i}": side[name] for name in compared for i, side in ((1, left), (2, right))}
                want = are_isomorphic(t, t2, IsoFlavor(flavor), **payloads)
                assert (code, json.loads(out)) == (0, {"isomorphic": want}), (k, changed, flavor)
                assert want is (changed not in compared), (k, changed, flavor)


def test_cli_dual_reduce_analyze_spanning_counterexample(tmp_path, capsys):
    rt, w = fig10_tree()
    tree_doc = tio.dump_json(tio.graph_to_json(rt.tree, root="r", weights=w))
    tree_path = _write(tmp_path, "fig10.json", tree_doc)

    code, out = _run(capsys, "dual", "--direction", "w2l", tree_path)
    assert code == 0
    dual = json.loads(out)
    assert dual["labels"]["r"] == "14"

    back_path = _write(tmp_path, "dual.json", out)
    code, out = _run(capsys, "dual", "--direction", "l2w", back_path)
    assert code == 0 and json.loads(out)["weights"] == json.loads(tree_doc)["weights"]

    code, out = _run(capsys, "reduce", tree_path)
    assert code == 0
    red = json.loads(out)
    assert red["new_root"] == "b" and sorted(red["removed"]) == ["a", "r"]

    code, out = _run(capsys, "analyze", tree_path)
    assert code == 0
    report = json.loads(out)
    assert report["planted"] is True and report["K"] == "7"
    assert report["branching_lhs"] == "6" and report["branching_rhs"] == "7"

    g, labels = fig6_graph()
    graph_path = _write(
        tmp_path, "fig6g.json", tio.dump_json(tio.graph_to_json(g, labels=labels))
    )
    code, out = _run(capsys, "spanning", graph_path)
    assert code == 0
    spanning = json.loads(out)
    assert len(spanning["edges"]) == 5

    code, out = _run(capsys, "counterexample", graph_path)
    assert code == 0
    pair = json.loads(out)
    assert sorted(pair["w1"].values()).count("1") == 10
    assert "12" in pair["w1"].values() and "13" in pair["w2"].values()


def test_cli_error_paths(tmp_path, capsys):
    bad = _write(tmp_path, "bad.json", "{broken")
    code, out = _run(capsys, "repr", bad)
    assert code == 2 and json.loads(out)["error"]["code"] == "parse-error"

    not_ultra = tio.dump_json(
        matrix_to_json(
            __import__("ultratree").FiniteMetricSpace(
                ["a", "b", "c"],
                [[F(0), F(1), F(2)], [F(1), F(0), F(1)], [F(2), F(1), F(0)]],
            )
        )
    )
    matrix = _write(tmp_path, "m.json", not_ultra)
    code, out = _run(capsys, "repr", matrix)
    assert code == 1 and json.loads(out)["error"]["code"] == "not-ultrametric"

    partial = {
        "vertices": ["a", "b"], "edges": [["a", "b"]], "root": None,
        "weights": None, "labels": {"a": "1"},
    }
    incomplete = _write(tmp_path, "partial.json", tio.dump_json(partial))
    code, out = _run(capsys, "spanning", incomplete)
    assert code == 1 and json.loads(out)["error"]["code"] == "invalid-input"

    for doc in ({"points": ["a"], "matrix": 5}, {"points": [1, 2], "matrix": [["0", "1"], ["1", "0"]]}):
        path = _write(tmp_path, "typed.json", json.dumps(doc))
        code, out = _run(capsys, "repr", path)
        assert code == 2 and json.loads(out)["error"]["code"] == "parse-error"

    empty_id = _write(tmp_path, "empty_id.csv", ",,b\n,0,1\nb,1,0\n")
    code, out = _run(capsys, "repr", empty_id)
    assert code == 2 and json.loads(out)["error"]["code"] == "parse-error"

    listed = dict(partial, root="a", weights=[["a|b", "1"]], labels=None)
    weights_list = _write(tmp_path, "weights_list.json", tio.dump_json(listed))
    code, out = _run(capsys, "reduce", weights_list)
    assert code == 2 and json.loads(out)["error"]["code"] == "parse-error"

    payload_int = dict(partial, labels={"a": "1", "b": "0"}, payloads={"a": 5})
    path = _write(tmp_path, "payload_int.json", json.dumps(payload_int))
    code, out = _run(capsys, "spanning", path)
    assert code == 2 and json.loads(out)["error"]["code"] == "parse-error"

    split = {"vertices": "abc", "edges": ["ab", "bc"], "labels": {"a": "1", "b": "0", "c": "2"}}
    path = _write(tmp_path, "split.json", json.dumps(split))
    code, out = _run(capsys, "spanning", path)
    assert code == 2 and json.loads(out)["error"]["code"] == "parse-error"

    for verb, name, text, message in _REFUSED:
        code, out = _run(capsys, verb, _write(tmp_path, name, text))
        assert code == 2 and json.loads(out)["error"] == {"code": "parse-error", "message": message}

    # a readable tree with no labels and no weights, refused by each handler that reads one
    bare = _write(tmp_path, "bare.json", '{"vertices": ["a", "b"], "edges": [["a", "b"]], "root": "a"}')
    for argv, message in ((["analyze"], "analyze needs weights"), (["dual", "--direction", "w2l"], "w2l needs weights"),
                          (["dual", "--direction", "l2w"], "l2w needs labels"), (["reduce"], "reduce needs weights"),
                          (["repr", "--labeled-tree"], "labeled-tree input needs labels"),
                          (["spanning"], "spanning needs labels")):
        assert _run(capsys, *argv, bare) == (2, _error_bytes(message)), argv

    # a negative label on the left, no labels on the right: the left document's defect is
    # reported first whether the two documents are paths or triangles
    for shape, extra in (("path", []), ("triangle", [["a", "c"]])):
        edges = [["a", "b"], ["b", "c"], *extra]
        labeled = _write(tmp_path, f"{shape}_labeled.json", json.dumps(
            {"vertices": ["a", "b", "c"], "edges": edges, "labels": {"a": "-1", "b": "2", "c": "1"}}))
        unlabeled = _write(tmp_path, f"{shape}.json", json.dumps({"vertices": ["a", "b", "c"], "edges": edges}))
        code, out = _run(capsys, "iso", "--flavor", "vlabel", labeled, unlabeled)
        assert (code, json.loads(out)) == (
            1, {"error": {"code": "invalid-input", "message": "negative label -1 on vertex 'a'"}}), shape


def test_cli_output_file_takes_results_and_errors(tmp_path, capsys):
    rt, w = fig10_tree()
    tree_doc = tio.graph_to_json(rt.tree, root="r", weights=w)
    tree_path = _write(tmp_path, "fig10.json", tio.dump_json(tree_doc))
    target = tmp_path / "out.json"

    code, out = _run(capsys, "-o", str(target), "analyze", tree_path)
    assert code == 0 and out == ""
    assert json.loads(target.read_text(encoding="utf-8"))["K"] == "7"

    code, out = _run(capsys, "-o", str(target), "dual", "--direction", "l2w", tree_path)
    assert code == 2 and out == ""
    assert json.loads(target.read_text(encoding="utf-8"))["error"]["code"] == "parse-error"

    path_doc = {"vertices": ["a", "b"], "edges": [["a", "b"]], "root": "a", "weights": {"a|b": "1"}, "labels": None}
    code, out = _run(capsys, "-o", str(target), "reduce", _write(tmp_path, "path.json", json.dumps(path_doc)))
    assert code == 1 and out == ""
    assert json.loads(target.read_text(encoding="utf-8"))["error"]["code"] == "path-tree"

    for unwritable in (tmp_path / "no" / "such" / "out.json", tmp_path):
        code, out = _run(capsys, "-o", str(unwritable), "analyze", tree_path)
        assert code == 2
        error = json.loads(out)["error"]
        assert error["code"] == "parse-error" and error["message"].startswith(f"cannot write {unwritable}: ")


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs the always-full device /dev/full")
def test_cli_unwritable_stdout_gives_one_error_object_on_stderr(tmp_path):
    graph = _write(tmp_path, "edge.json", json.dumps({"vertices": ["a", "b"], "edges": [["a", "b"]]}))
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "ultratree.cli", "iso", "--flavor", "free", graph, graph],
                              stdout=full, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
    error = json.loads(proc.stderr)["error"]  # one object and nothing else
    assert error["code"] == "parse-error" and error["message"].startswith("cannot write stdout: ")


# `python -m ultratree.cli` ends the process without the interpreter's teardown; the
# usual exit is the one a script of `sys.exit(main())` takes.
_FAST_EXIT = ["-m", "ultratree.cli"]
_USUAL_EXIT = ["-c", "import sys; from ultratree.cli import main; sys.exit(main())"]
# with stdout block-buffered, as Python keeps a pipe unless told otherwise
_BUFFERED = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}


def _ends(runner, argv, out: Path, stdout=subprocess.PIPE):
    """(exit code, stdout, stderr, text of out or None) of one CLI process; "OUT" in argv stands for out."""
    argv = [str(out) if arg == "OUT" else arg for arg in argv]
    proc = subprocess.run([sys.executable, *runner, *argv], stdout=stdout, stderr=subprocess.PIPE, env=_BUFFERED)
    return proc.returncode, proc.stdout, proc.stderr, out.read_text(encoding="utf-8") if out.exists() else None


def test_every_way_a_cli_process_ends_matches_the_usual_exit(tmp_path):
    edge = _write(tmp_path, "edge.json", json.dumps({"vertices": ["a", "b"], "edges": [["a", "b"]]}))
    path = _write(tmp_path, "path.json", json.dumps(
        {"vertices": ["a", "b"], "edges": [["a", "b"]], "root": "a", "weights": {"a|b": "1"}}))
    iso = ["iso", "--flavor", "free", edge, edge]
    calls = {
        0: [iso, ["-o", "OUT", *iso], ["--help"], ["selftest"]],
        1: [["reduce", path]],
        2: [["repr", _write(tmp_path, "broken.json", "{broken")], ["-o", str(tmp_path / "no" / "out.json"), *iso],
            ["iso", "--flavor", "bogus", edge, edge]],
    }
    for code, argvs in calls.items():
        for i, argv in enumerate(argvs):
            fast = _ends(_FAST_EXIT, argv, tmp_path / f"fast{code}.{i}")
            assert fast[0] == code and fast == _ends(_USUAL_EXIT, argv, tmp_path / f"usual{code}.{i}"), argv
    # a stdout pipe whose reader is gone before the write: one error object on stderr
    read, write = os.pipe()
    os.close(read)
    try:
        fast, usual = (_ends(runner, iso, tmp_path / "unused", stdout=write) for runner in (_FAST_EXIT, _USUAL_EXIT))
    finally:
        os.close(write)
    assert fast == usual and fast[0] == 2
    assert json.loads(fast[2])["error"]["message"].startswith("cannot write stdout: [Errno 32]")


# The CLI run as `python -m` runs it, after registering an atexit callback and, when
# asked, a tracer or profiler; the stand-in for os._exit reports the fast exit on stderr.
_OBSERVED_RUN = """
import atexit, os, runpy, sys
exit_now = os._exit
os._exit = lambda code: (sys.stderr.write(f"os._exit {code}\\n"), exit_now(code))
atexit.register(print, "atexit ran")
if sys.argv[1] == "trace":
    sys.settrace(lambda *_: None)
elif sys.argv[1] == "profile":
    sys.setprofile(lambda *_: None)
sys.argv[:2] = ["ultratree"]
runpy.run_module("ultratree.cli", run_name="__main__")
"""


def test_atexit_callbacks_run_and_observed_processes_exit_as_usual(tmp_path):
    edge = _write(tmp_path, "edge.json", json.dumps({"vertices": ["a", "b"], "edges": [["a", "b"]]}))
    answer = tio.dump_json({"isomorphic": True})
    runs = {}
    for observer in ("none", "trace", "profile"):
        argv = [sys.executable, "-c", _OBSERVED_RUN, observer, "iso", "--flavor", "free", edge, edge]
        runs[observer] = subprocess.run(argv, capture_output=True, text=True, env=_BUFFERED)
    assert {observer: (proc.returncode, proc.stdout, proc.stderr) for observer, proc in runs.items()} == {
        "none": (0, answer + "atexit ran\n", "os._exit 0\n"),
        "trace": (0, answer + "atexit ran\n", ""),
        "profile": (0, answer + "atexit ran\n", ""),
    }
    # cProfile's report follows the output: a profiler is a monitoring tool on 3.12+
    proc = subprocess.run([sys.executable, "-m", "cProfile", "-m", "ultratree.cli", "iso", "--flavor", "free", edge, edge],
                          capture_output=True, text=True, env=_BUFFERED)
    assert proc.returncode == 0 and proc.stdout.startswith(answer) and "function calls" in proc.stdout


def test_no_verb_leaves_a_file_open(tmp_path, capsys):
    # The fast exit closes nothing, so every file a verb opens is closed before main() returns.
    runs = [*_verb_runs(tmp_path).values(), ["-o", str(tmp_path / "out.json"), "selftest"],
            ["repr", _write(tmp_path, "broken.json", "{broken")], ["-o", str(tmp_path), "selftest"]]
    leaks, hook = [], sys.unraisablehook
    sys.unraisablehook = leaks.append  # a ResourceWarning raised by a finalizer lands here
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            for argv in runs:
                main(argv)
                gc.collect()
    finally:
        sys.unraisablehook = hook
    capsys.readouterr()
    assert [str(leak.exc_value) for leak in leaks] == []


def test_cli_selftest_passes_and_is_deterministic(capsys):
    code, first = _run(capsys, "selftest")
    assert code == 0
    assert "FAIL" not in first
    code, second = _run(capsys, "selftest")
    assert code == 0 and first == second


def test_cli_selftest_fails_with_its_report_when_a_claim_fails(capsys, monkeypatch):
    from ultratree import selftest

    check = selftest._CHECKERS["fig13"]
    monkeypatch.setitem(selftest._CHECKERS, "fig13", lambda inp, exp: [*check(inp, exp)[:-1], ("distances", False)])
    code, out = _run(capsys, "selftest")
    error = json.loads(out)["error"]
    assert code == 1 and error["code"] == "domain-error"
    assert error["message"].startswith("selftest failed:\nfig3 centers PASS\n")
    assert "\nfig13 distances FAIL\n" in error["message"] and error["message"].count("FAIL") == 1
    assert error["message"].endswith("selftest: 35/36 claims passed\n")


@pytest.mark.parametrize("seed", ["abc", "", "1/2", "7/1", "1.5", "1e3", "1_000", "\u0667", "0x10", "1" * 5000])
def test_cli_selftest_refuses_a_seed_that_is_no_integer_text(capsys, monkeypatch, seed):
    monkeypatch.setenv("ULTRATREE_SEED", seed)
    code, out = _run(capsys, "selftest")
    assert code == 2
    error = json.loads(out)["error"]
    assert error["code"] == "parse-error" and error["message"].startswith("ULTRATREE_SEED must be an integer, got ")


def test_cli_selftest_reads_a_seed_as_an_integer_text(capsys, monkeypatch):
    monkeypatch.setenv("ULTRATREE_SEED", "7")
    want = _run(capsys, "selftest")
    assert want[0] == 0
    for seed in (" 7 ", "+7", "007"):
        monkeypatch.setenv("ULTRATREE_SEED", seed)
        assert _run(capsys, "selftest") == want, seed
    monkeypatch.setenv("ULTRATREE_SEED", "-7")
    assert _run(capsys, "selftest")[0] == 0


def test_cli_selftest_subprocess_bytes_identical():
    cmd = [sys.executable, "-m", "ultratree.cli", "selftest"]
    env = {"ULTRATREE_SEED": "7"}
    full_env = dict(os.environ, **env)
    a = subprocess.run(cmd, capture_output=True, env=full_env)
    b = subprocess.run(cmd, capture_output=True, env=full_env)
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout


# Runs the CLI the way `python -m` does, as a module that is not
# sys.modules["ultratree.cli"], then prints its exit code and the names of
# all imported modules.  A stand-in for os._exit raises SystemExit instead,
# so the probe outlives the CLI's fast exit.
_LOADED_BY = """
import os, runpy, sys
def _exit(code):
    raise SystemExit(code)
os._exit = _exit
sys.argv[0] = "ultratree"
try:
    runpy.run_module("ultratree.cli", run_name="__main__")
except SystemExit as exc:
    code = exc.code
print(code, *sorted(sys.modules))
"""


def _modules_loaded_by(*argv):
    """(ultratree submodules, other modules) a CLI call imports."""
    proc = subprocess.run([sys.executable, "-c", _LOADED_BY, *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    code, *modules = proc.stdout.splitlines()[-1].split()
    assert code == "0", proc.stderr
    package = {m for m in modules if m.startswith("ultratree.")}
    return {m[len("ultratree."):] for m in package}, set(modules) - package


def _verb_runs(tmp_path):
    """CLI arguments for one small valid call of every verb."""
    g, labels = fig6_graph()
    space, _ = minimax_label_metric(g, labels)
    matrix = _write(tmp_path, "fig6.json", tio.dump_json(matrix_to_json(space)))
    graph = _write(tmp_path, "fig6g.json", tio.dump_json(tio.graph_to_json(g, labels=labels)))
    rt, w = fig10_tree()
    tree = _write(tmp_path, "fig10.json", tio.dump_json(tio.graph_to_json(rt.tree, root="r", weights=w)))
    labeled = {v: F(i + 1) for i, v in enumerate(rt.vertices)}
    labeled_tree = _write(tmp_path, "fig10l.json", tio.dump_json(tio.graph_to_json(rt.tree, labels=labeled)))
    bare = _write(tmp_path, "fig6bare.json", tio.dump_json(tio.graph_to_json(g)))
    return {
        "repr": ["repr", matrix],
        "repr --labeled-tree": ["repr", "--labeled-tree", labeled_tree],
        "iso": ["iso", "--flavor", "rweight", tree, tree],
        "iso --flavor free (cyclic graph)": ["iso", "--flavor", "free", graph, graph],
        "iso --flavor free (bare cyclic graph)": ["iso", "--flavor", "free", bare, bare],
        "isometry": ["isometry", matrix, matrix],
        "isometry --fast-ultrametric": ["isometry", "--fast-ultrametric", matrix, matrix],
        "dual": ["dual", "--direction", "w2l", tree],
        "reduce": ["reduce", tree],
        "spanning": ["spanning", graph],
        "analyze": ["analyze", tree],
        "ballean": ["ballean", matrix],
        "ballean --tree": ["ballean", "--tree", matrix],
        "counterexample": ["counterexample", graph],
        "selftest": ["selftest"],
    }


@pytest.fixture(scope="module")
def verb_modules(tmp_path_factory):
    """What each verb's small call imports, probed once for the tests below."""
    runs = _verb_runs(tmp_path_factory.mktemp("verbs"))
    return {verb: _modules_loaded_by(*argv) for verb, argv in runs.items()}


def test_each_verb_loads_only_its_modules(verb_modules):
    loaded = verb_modules
    package = {verb: modules for verb, (modules, _) in loaded.items()}

    help_package, help_others = _modules_loaded_by("--help")
    assert help_package <= {"cli_parser", "errors"}
    # Nothing imports ultratree.cli, which `python -m` runs as __main__, so each call
    # compiles cli.py once; argparse is built in cli_parser for --help alone.
    assert [verb for verb, modules in package.items() if modules & {"cli", "cli_parser"}] == []
    # Of the handler modules cli.VERBS names, one per verb, a verb loads its own.
    from ultratree.cli import VERBS

    handler_modules = {func.partition(".")[0] for func, *_ in VERBS.values()}
    assert len(handler_modules) == len(VERBS)
    handlers = {verb: modules & handler_modules for verb, modules in package.items()}
    assert handlers == {verb: {VERBS[verb.split()[0]][0].partition(".")[0]} for verb in package}
    # A plain call is read from cli.VERBS, so no verb call pays for argparse and the
    # gettext and locale modules its messages pull in; --help still runs argparse.
    assert {verb: others & {"argparse", "gettext", "locale"} for verb, (_, others) in loaded.items()} == dict.fromkeys(
        loaded, set()
    )
    assert "argparse" in help_others
    assert not package["iso"] & {"analysis", "duality", "representing", "selftest", "transforms"}
    assert not package["repr"] & {"analysis", "canonical", "duality", "selftest", "transforms"}
    assert [verb for verb, modules in package.items() if "selftest" in modules] == ["selftest"]
    # No verb on trees or graphs reads a matrix, so none loads the matrix layer, the
    # bijection search or csv; spanning and counterexample need no duality either.
    for verb in ("iso", "dual", "reduce", "analyze", "spanning", "counterexample"):
        assert not package[verb] & {"metrics", "_bijection"}, verb
        assert "csv" not in loaded[verb][1], verb
    for verb in ("spanning", "counterexample"):
        assert "duality" not in package[verb], verb
    assert "_bijection" in package["isometry"]
    # A verb loads the reader of its own input only.  A matrix search loads no graph
    # code, and tree codes are compiled for trees alone.  The checkers of a given map
    # serve library callers and tests, and the monotone generator selftest's seeded claims.
    for verb in ("iso", "iso --flavor free (cyclic graph)", "iso --flavor free (bare cyclic graph)",
                 "repr --labeled-tree", "dual", "reduce", "analyze", "spanning", "counterexample"):
        assert "matrix_io" not in package[verb], verb
    for verb in ("repr", "ballean", "ballean --tree", "isometry", "isometry --fast-ultrametric"):
        assert "graph_reader" not in package[verb], verb
    assert not package["isometry"] & {"graphs", "tree_codes"}
    # A matrix's hierarchy tree and balls carry no weights and no labels, so the
    # matrix verbs that build only those load neither their checks nor the metric
    # classes, which a verb meets only as what minimax_label_metric returns.
    for verb in ("repr", "ballean", "ballean --tree", "isometry"):
        assert not package[verb] & {"payloads", "path_metrics"}, verb
    assert "tree_codes" not in package["iso --flavor free (cyclic graph)"]
    # A graph with no labels and no weights holds no number, so comparing two loads no number code.
    bare_package, bare_others = loaded["iso --flavor free (bare cyclic graph)"]
    assert not bare_package & {"payloads", "rational"} and not bare_others & {"fractions", "decimal"}
    assert [verb for verb, modules in package.items() if modules & {"checkers", "matrix_writers"}] == []
    # Restriction, classification and the paper's single-instance propositions serve
    # selftest's claims; no other verb runs them.
    assert [verb for verb, modules in package.items() if modules & {"spaces", "propositions"}] == ["selftest"]
    assert [verb for verb, modules in package.items() if "random_monotone" in modules] == ["selftest"]
    # Records come from _record.record, so no verb pays for the code-generating
    # dataclasses module and the inspect module it imports.
    assert {verb: others & {"dataclasses", "inspect"} for verb, (_, others) in loaded.items()} == dict.fromkeys(
        loaded, set()
    )
    # JSON is read and written through json's C codec, _json: the json package loads
    # only for a document the scanner refuses or a value the writer does not take.
    assert [verb for verb, (_, others) in loaded.items() if others & {"json", "json.decoder", "json.encoder"}] == []


# A verb's compile budget, in tokens: the harness keeps no bytecode, so a call
# compiles cli.py, the package's __init__.py and every submodule it loads.
# Comments and line ends are left out, since they cost next to nothing to
# compile, and each f-string is one token from its FSTRING_START to the
# matching FSTRING_END, as 3.10 and 3.11 read it whole, so that every release
# counts the same.
_UNCOUNTED = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE)
_FSTRING_START, _FSTRING_END = (getattr(tokenize, name, None) for name in ("FSTRING_START", "FSTRING_END"))


def token_lines(text: str) -> list[int]:
    """The line of each token of one module's source that a compile budget counts."""
    lines, depth = [], 0
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type == _FSTRING_END:
            depth -= 1
        elif depth == 0 and token.type not in _UNCOUNTED:
            lines.append(token.start[0])
        depth += token.type == _FSTRING_START
    return lines


def compiled_sources(package_dir, modules):
    """The source files of a call that loads these ultratree submodules."""
    return [package_dir / f"{name}.py" for name in sorted(modules | {"__init__", "cli"})]


def test_token_lines_leave_out_what_costs_nothing_to_compile():
    base = 'def f(x):\n    """Doc."""\n    return f"{x!r}: {x + 1:>{4}}"\n'
    assert len(token_lines(base)) == 12  # the same on every release
    for variant in (
        "# a comment\n\n" + base + "\n\n# a closing comment\n",
        base.replace("Doc.", "Doc, in more words.\n\n    And a second paragraph.\n    "),
        base.replace(": {x + 1", " is a point at {x + 1"),  # literal text inside an f-string
        base.replace("{x!r}", "{f'{x!r}'}"),  # an f-string nested in another is part of it
    ):
        assert len(token_lines(variant)) == 12, variant
    assert len(token_lines(base + "x = 1\n")) == 15


# Tree and graph verbs compile no matrix code, matrix verbs no graph-document
# reader and no path metric, and no verb compiles another verb's handler.  Every
# verb is held at what it compiles once each loads only the reader of its input,
# its own handler and the code it runs.
_SOURCE_TOKEN_CEILINGS = {
    "iso": 7611, "iso --flavor free (cyclic graph)": 7020, "iso --flavor free (bare cyclic graph)": 6791,
    "dual": 7064, "spanning": 6682, "counterexample": 6679, "repr": 7314, "repr --labeled-tree": 8801,
    "ballean": 7297, "ballean --tree": 7297, "isometry": 6662, "isometry --fast-ultrametric": 9356,
    "analyze": 7916, "reduce": 7792, "selftest": 16877,
}


def test_every_probe_has_one_token_ceiling(tmp_path):
    assert _SOURCE_TOKEN_CEILINGS.keys() == _verb_runs(tmp_path).keys()


def test_each_verb_compiles_at_most_its_ceiling_of_source_tokens(verb_modules):
    import ultratree

    package_dir = Path(ultratree.__file__).parent
    tokens = {}
    for verb, (modules, _) in verb_modules.items():
        sources = compiled_sources(package_dir, modules)
        tokens[verb] = sum(len(token_lines(path.read_text(encoding="utf-8"))) for path in sources)
    assert {verb: n for verb, n in tokens.items() if n > _SOURCE_TOKEN_CEILINGS[verb]} == {}


# The library names the CLI binds, by defining module.  The traced benchmark
# replay names each span after the wrapped object's module, so moving one of
# these would rename its layer.
_CLI_CALL_MODULES = {
    "label_tree_metric": "metrics",
    **dict.fromkeys(("representing_tree", "ballean", "ballean_tree"), "representing"),
    **dict.fromkeys(("are_isomorphic", "isometry_search", "ultrametric_isometric"), "canonical"),
    **dict.fromkeys(("EquidistantTree", "MonotoneTree", "weight_to_labeling", "labeling_to_weight"), "duality"),
    **dict.fromkeys(("reduce_nabla", "bottleneck_spanning_tree", "cyclic_weight_counterexample"), "transforms"),
    "analyze": "analysis",
}
_IO_CALLS = ("load_matrix_text", "load_graph_text", "labeled_tree_to_json", "graph_to_json", "dump_json")


def _perfbench_module(monkeypatch, name):
    """perfbench/<name>.py, loaded by file path under a name of its own."""
    import importlib.util

    path = Path(__file__).parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look the module up while it runs
    spec.loader.exec_module(module)
    return module


def test_names_the_cli_binds_keep_their_defining_modules(monkeypatch):
    from ultratree import cli

    assert {name: getattr(cli, name).__module__ for name in _CLI_CALL_MODULES} == {
        name: f"ultratree.{module}" for name, module in _CLI_CALL_MODULES.items()
    }
    assert {name: getattr(cli.tio, name).__module__ for name in _IO_CALLS} == dict.fromkeys(_IO_CALLS, "ultratree.io")
    # the same names the benchmark wraps
    spans = _perfbench_module(monkeypatch, "spans")
    assert sorted(spans.CLI_CALLS) == sorted(_CLI_CALL_MODULES) and spans.IO_CALLS == _IO_CALLS


def _argparse_result(parser, argv):
    """vars() of what argparse makes of argv, or None where it prints help or an error."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return vars(parser.parse_args(argv))
    except SystemExit:
        return None


def _argv_corpus():
    """Plain and other spellings of every verb: flags and choice options zero to two
    times, listed and unlisted values, options before, between and after the
    positionals, too few and too many positionals, and tokens only argparse reads."""
    from ultratree.cli import VERBS

    rng = random.Random(1409)
    prefixes = [[], ["-o", "out.json"], ["--output", "-"], ["-o", "-"]]
    others = [["-oout"], ["--output=out"], ["--out", "out"], ["-o", "-x"], ["-o", "a", "-o", "b"], ["-h"], ["repr"],
              ["--"], ["--nope"], ["-x"], ["-1"], ["-a b"], ["--help"], ["--flavor=free"], ["--fla"], ["--fast"],
              ["--lab"], ["--tree"], ["--matrix"], ["-o"], ["--direction"], ["--flavor"]]
    corpus = [[], ["--help"], ["-o"], ["--output", "out"], ["nope", "in.json"]]
    for verb, (_, _, flags, choices, names) in VERBS.items():
        for _ in range(150):
            units = [[flag] for flag in flags if rng.random() < 0.4]
            if flags and rng.random() < 0.1:  # a repeat
                units.append([rng.choice(list(flags))])
            units += [[option, rng.choice((*values, *values, "bad", "-"))] for option, values in choices.items()
                      for _ in range(rng.choice((0, 1, 1, 1, 1, 1, 2)))]
            count = max(0, len(names) + rng.choice((-1, 0, 0, 0, 0, 0, 0, 1)))
            units += [[rng.choice(("in.json", "-", "", "b.csv", verb))] for _ in range(count)]
            units += [rng.choice(others) for _ in range(rng.random() < 0.15)]
            rng.shuffle(units)
            prefix = rng.choice(prefixes) if rng.random() < 0.85 else rng.choice(others)
            corpus.append(prefix + [verb] + [token for unit in units for token in unit])
    return corpus


def test_plain_spellings_parse_as_argparse_does():
    from ultratree.cli import VERBS, _plain_args, build_parser

    parser = build_parser()
    corpus = _argv_corpus()
    plain = 0
    for argv in corpus:
        fast = _plain_args(list(argv))
        if fast is not None:
            plain += 1
            assert vars(fast) == _argparse_result(parser, argv), argv
    # the corpus is not all malformed: both paths see a good share of it
    assert len(corpus) / 5 < plain < len(corpus) * 4 / 5
    # every verb's plain spellings, with options before and after the positionals
    for verb, (func, _, flags, choices, names) in VERBS.items():
        options = [*flags][:1] + [token for option, values in choices.items() for token in (option, values[-1])]
        positionals = ["-"] + [f"{name}.json" for name in names[1:]] if names else []
        for argv in ([verb, *options, *positionals], ["-o", "out", verb, *positionals, *options],
                     ["--output", "-", verb, *positionals[:1], *options, *positionals[1:]]):
            fast = _plain_args(argv)
            assert fast is not None and fast.func is func and vars(fast) == _argparse_result(parser, argv), argv


def test_every_benchmark_op_takes_the_plain_path(monkeypatch):
    from ultratree.cli import _plain_args, build_parser

    gen = _perfbench_module(monkeypatch, "gen")
    parser = build_parser()
    for workload in gen.WORKLOADS:
        for op in gen.build(workload, 1).ops:
            fast = _plain_args(list(op.argv))
            assert fast is not None and vars(fast) == _argparse_result(parser, op.argv), op.argv


def test_input_is_strict_utf8_from_a_path_and_from_stdin(tmp_path, capsys, monkeypatch):
    # The same bytes give the same result by path and on stdin, whatever encoding
    # stdin's text layer has (Latin-1 here, which decodes any byte).
    def by_path_and_on_stdin(data: bytes):
        path = tmp_path / "in.bin"
        path.write_bytes(data)
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="latin-1"))
        return _run(capsys, "repr", str(path)), _run(capsys, "repr", "-")

    error = "'utf-8' codec can't decode byte 0xff in position 16: invalid start byte"
    assert by_path_and_on_stdin(b",a,b\na,0,1\nb,1,0\xff\n") == (
        (2, _error_bytes(f"cannot read {tmp_path / 'in.bin'}: {error}")),
        (2, _error_bytes(f"cannot read -: {error}")),
    )
    # UTF-8 point ids, and CRLF line ends read as LF ones
    lf = _run(capsys, "repr", _write(tmp_path, "lf.csv", ",é,b\né,0,1\nb,1,0\n"))
    assert lf[0] == 0 and ["b", "é"] in json.loads(lf[1])["payloads"].values()
    assert by_path_and_on_stdin(",é,b\r\né,0,1\r\nb,1,0\r\n".encode("utf-8")) == (lf, lf)


def test_public_api_resolves_lazily_to_the_defining_objects():
    import importlib

    import ultratree
    from ultratree.canonical import IsoFlavor
    from ultratree.cli import ISO_FLAVORS

    assert len(set(ultratree.__all__)) == len(ultratree.__all__) == 55
    for name in ultratree.__all__:
        module = importlib.import_module(f"ultratree.{ultratree._EXPORTS[name]}")
        assert getattr(ultratree, name) is getattr(module, name)
    assert set(ultratree.__all__) <= set(dir(ultratree))
    assert "__version__" in dir(ultratree) and ultratree.__version__ == "0.1.0"
    star: dict = {}
    exec("from ultratree import *", star)
    assert {name: star[name] for name in ultratree.__all__} == {
        name: getattr(ultratree, name) for name in ultratree.__all__
    }
    for unknown in ("no_such_name", "_no_such_name"):
        assert not hasattr(ultratree, unknown)
        with pytest.raises(AttributeError, match=unknown):
            getattr(ultratree, unknown)
    assert list(ISO_FLAVORS) == [f.value for f in IsoFlavor]


# A bare interpreter (-S: no site module, which on some installs imports importlib.util
# at start-up) with the package under test first on its path: a public name, then one
# verb run in process, which binds the CLI's io.
_NO_IMPORTLIB_UTIL = """
import sys
sys.path.insert(0, sys.argv[1])
import ultratree
ultratree.Graph
from ultratree import cli
code = cli.main(["iso", "--flavor", "free", sys.argv[2], sys.argv[2]])
print(code, "importlib.util" in sys.modules)
"""


def test_the_package_and_the_cli_import_no_importlib_util(tmp_path):
    import ultratree

    edge = _write(tmp_path, "edge.json", json.dumps({"vertices": ["a", "b"], "edges": [["a", "b"]]}))
    src = str(Path(ultratree.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-S", "-c", _NO_IMPORTLIB_UTIL, src, edge], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == tio.dump_json({"isomorphic": True}) + "0 False\n"


def test_the_package_ships_no_test_references_or_generators():
    # The brute-force references, the seeded generators and the tree-path and
    # simple-path helpers are in tests/helpers.py, not in the package.
    import importlib.util

    assert importlib.util.find_spec("ultratree.generators") is None
    assert importlib.util.find_spec("ultratree.oracles") is None


def test_matrix_verbs_answer_any_input_with_one_json_object(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    scalars = (st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-4, 4)
               | st.sampled_from(["0", "1", "1/2", "-1", "a", ""]))
    values = st.recursive(
        scalars,
        lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=3), kids, max_size=3),
        max_leaves=12,
    )
    documents = values | st.fixed_dictionaries({"points": values, "matrix": values})
    csv_texts = (st.text(alphabet=",01/2-ab\n\"", max_size=40)
                 | st.text(st.characters(blacklist_categories=("Cs",)), max_size=40))
    inputs = documents.map(json.dumps) | csv_texts
    verbs = st.sampled_from([["repr"], ["ballean", "--tree"], ["isometry", "--fast-ultrametric"]])

    @hypothesis.settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @hypothesis.given(verb=verbs, text=inputs)
    def check(verb, text):
        path = tmp_path / "in.txt"
        path.write_text(text, encoding="utf-8")
        argv = verb + [str(path)] * (2 if verb[0] == "isometry" else 1)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        assert code in (0, 1, 2)
        assert isinstance(json.loads(out.getvalue()), dict)

    check()


def test_graph_verbs_answer_any_input_with_one_json_object(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    scalars = (st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-4, 4)
               | st.sampled_from(["a", "b", "0", "1", "1/2", "-1", "", "a|b"]))
    values = st.recursive(
        scalars,
        lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=3), kids, max_size=3),
        max_leaves=12,
    )
    rationals = st.sampled_from(["1", "2", "1/2", "3/4"])

    @st.composite
    def graph_documents(draw):
        # a well-formed document, then a few values and fields of random type
        vs = ["a", "b", "c", "d", "e"][: draw(st.integers(1, 5))]
        pairs = [[u, v] for i, u in enumerate(vs) for v in vs[i + 1 :]]
        es = draw(st.lists(st.sampled_from(pairs), unique_by=tuple, max_size=6)) if pairs else []
        doc = {
            "vertices": vs,
            "edges": es,
            "root": draw(st.sampled_from(vs) | st.none()),
            "weights": {f"{u}|{v}": draw(rationals | values) for u, v in es},
            "labels": {v: draw(rationals | st.just("0") | values) for v in vs},
            "payloads": {v: draw(st.lists(st.sampled_from(vs), max_size=2) | values) for v in vs},
        }
        for field in draw(st.sets(st.sampled_from(sorted(doc)), max_size=2)):
            doc[field] = draw(values)
        return doc

    documents = values | graph_documents()
    verbs = st.sampled_from([
        ["spanning"], ["counterexample"], ["reduce"], ["analyze"],
        ["dual", "--direction", "w2l"], ["dual", "--direction", "l2w"],
        *(["iso", "--flavor", f] for f in ("free", "rooted", "vlabel", "eweight", "rlabel", "rweight")),
    ])

    @hypothesis.settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @hypothesis.given(verb=verbs, doc=documents, other=documents)
    def check(verb, doc, other):
        paths = []
        for name, value in (("left.json", doc), ("right.json", other)):
            path = tmp_path / name
            path.write_text(json.dumps(value), encoding="utf-8")
            paths.append(str(path))
        argv = verb + (paths if verb[0] == "iso" else paths[:1])
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        assert code in (0, 1, 2)
        assert isinstance(json.loads(out.getvalue()), dict)

    check()


def _error_bytes(message):
    return tio.dump_json({"error": {"code": "parse-error", "message": message}})


def test_each_number_text_is_parsed_once_per_document(tmp_path, capsys):
    # A JSON true next to a 1 is still refused: the parse memo keys each
    # token with its type, so true never meets the entry for 1.
    path = _write(tmp_path, "true.json", '{"points": ["a", "b"], "matrix": [[0, 1], [true, 0]]}')
    assert _run(capsys, "repr", path) == (2, _error_bytes("not a rational: True"))
    # 1, "1" and "2/2" are one value, so the mixed matrix is symmetric
    mixed = _write(tmp_path, "mixed.json",
                   '{"points": ["a", "b", "c"], "matrix": [[0, 1, "2/2"], ["1", 0, 1], ["2/2", 1, "0"]]}')
    plain = _write(tmp_path, "plain.json",
                   '{"points": ["a", "b", "c"], "matrix": [["0", "1", "1"], ["1", "0", "1"], ["1", "1", "0"]]}')
    code, out = _run(capsys, "repr", mixed)
    assert code == 0 and json.loads(out)["labels"]['["a","b","c"]'] == "1"
    assert _run(capsys, "repr", plain) == (code, out)
    # a cell that cannot be a memo key gets the parse error it always got
    for cell, shown in (("[0]", "[0]"), ("{}", "{}"), ("null", "None")):
        path = _write(tmp_path, "cell.json", '{"points": ["a", "b"], "matrix": [["0", %s], [%s, "0"]]}' % (cell, cell))
        assert _run(capsys, "repr", path) == (2, _error_bytes(f"not a rational: {shown}"))
        doc = '{"vertices": ["a", "b"], "edges": [["a", "b"]], "root": "a", "weights": {"a|b": %s}}' % cell
        refused = (2, _error_bytes(f"not a rational: {shown}"))
        assert _run(capsys, "reduce", _write(tmp_path, "weight.json", doc)) == refused
        doc = '{"vertices": ["a", "b"], "edges": [["a", "b"]], "labels": {"a": "1", "b": %s}}' % cell
        assert _run(capsys, "repr", "--labeled-tree", _write(tmp_path, "label.json", doc)) == refused


def test_equal_texts_share_one_value_within_a_document_only():
    text = '{"points": ["a", "b", "c"], "matrix": [["0", "1/2", "1"], ["1/2", "0", "1"], ["1", "1", "0"]]}'
    s1, s2 = tio.load_matrix_text(text), tio.load_matrix_text(text)
    for s in (s1, s2, tio.load_matrix_text(matrix_to_csv(s1))):
        assert s.rows[0][1] is s.rows[1][0] and s.rows[0][2] is s.rows[1][2] is s.rows[2][0]
        assert s.rows[0][0] is s.rows[1][1] is s.rows[2][2]
    assert not {id(x) for r in s1.rows for x in r} & {id(x) for r in s2.rows for x in r}
    doc = ('{"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]],'
           ' "weights": {"a|b": "3/2", "b|c": "3/2"}, "labels": {"a": "3/2", "b": 2, "c": "2"}}')
    d1, d2 = tio.load_graph_text(doc), tio.load_graph_text(doc)
    assert d1.weights[("a", "b")] is d1.weights[("b", "c")] is d1.labels["a"]
    assert d1.labels["b"] == d1.labels["c"] and d1.labels["b"] is not d1.labels["c"]  # 2 and "2" are two tokens
    assert d1.weights[("a", "b")] is not d2.weights[("a", "b")]


# The number grammar: an optional sign, ASCII digits, and an optional "/" with
# ASCII digits, surrounding whitespace stripped.  Fraction(str) reads more, and
# what it reads depends on the Python release, so these are refused everywhere.
_TOKENS = [
    ("7", F(7)), ("-3/4", F(-3, 4)), ("+6/4", F(3, 2)), (" 12\n", F(12)), ("007/010", F(7, 10)), ("-0", F(0)),
    ("1_000", None), ("3 / 4", None), ("3/ 4", None), ("١٢", None), ("1.5", None), ("1e3", None), ("3/-4", None),
    ("- 3", None), ("1/0", None), ("", None), ("/4", None), ("3/", None), ("0x10", None), ("inf", None),
    ("nan", None), ("1/2/3", None), ("½", None), ("٣/٤", None), ("9" * 5000, None),
]
# Past the interpreter's 4300-digit guard on int text a token is named by its digit count, not shown.
_LONG_TOKENS = {"9" * 5000: "not a rational: 5000 digits, over 4300"}


@pytest.mark.parametrize("token, value", _TOKENS)
def test_number_grammar_is_ascii_p_over_q_on_every_release(token, value):
    from ultratree.rational import parse_rational

    if value is not None:
        assert parse_rational(token) == value
        return
    with pytest.raises(ParseError) as caught:
        parse_rational(token)
    assert str(caught.value) == _LONG_TOKENS.get(token, f"not a rational: {token!r}")
    doc = {"vertices": ["a", "b"], "edges": [["a", "b"]], "weights": {"a|b": token}}
    with pytest.raises(ParseError, match="^not a rational: "):
        graph_from_json(doc)


def test_numbers_past_the_int_text_guard_are_refused_alike_on_every_release(tmp_path, capsys):
    # The path v0 - v1 - ... - v1500 rooted at v0, edge i weighted 1/p_i over the first 1500
    # primes: K and the labels have a denominator of about 5,400 digits, which no release
    # writes as text, so dual and analyze refuse it with the package's own error.
    primes = [p for p in range(2, 12554) if all(p % q for q in range(2, int(p**0.5) + 1))]
    assert len(primes) == 1500
    vs = [f"v{i}" for i in range(1501)]
    doc = {"vertices": vs, "edges": [[vs[i], vs[i + 1]] for i in range(1500)], "root": "v0",
           "weights": {f"{vs[i]}|{vs[i + 1]}": f"1/{p}" for i, p in enumerate(primes)}}
    path = _write(tmp_path, "primes.json", json.dumps(doc))
    refused = (1, tio.dump_json({"error": {
        "code": "size-limit-exceeded",
        "message": "a number has over sys.get_int_max_str_digits() = 4300 digits"}}))
    assert _run(capsys, "dual", "--direction", "w2l", path) == refused
    assert _run(capsys, "analyze", path) == refused
    # a weight text past the guard is refused by its digit count, not echoed
    doc = {"vertices": ["a", "b"], "edges": [["a", "b"]], "root": "a", "weights": {"a|b": "7" * 5000}}
    path = _write(tmp_path, "long.json", json.dumps(doc))
    assert _run(capsys, "reduce", path) == (2, _error_bytes("not a rational: 5000 digits, over 4300"))


# sha256 of each seed-1 benchmark workload's calls, of selftest at seeds 0 and 7 and of
# --help for the CLI and each verb at 80 columns, as tools/replay_digest.py prints them; the
# same on Python 3.10.13, 3.11.7, 3.12.1 and 3.13.0 (cli_parser.HelpFormatter keeps the
# 3.10-3.12 help layout on 3.13).
_REPLAY_DIGESTS = {
    "ultra_matrix": "fca1e6620759e0895418bfff50b0b43b93d0e54fd27bc9c705b4dbea8709ca2b",
    "big_trees": "954db3e2b60b41b1e8b44dd0c948936859a77175fc57fe4c99d785b3fbd4faf1",
    "label_graphs": "8066565c0b83161a3c3b101f00341679aad9645f1469810b1279e02f8e2589a5",
    "selftest": "e67ad6a13fa2e5eadc27fb2958ddf7c04cd4eb806e8771bbe40734a204676067",
    "help": "4cb4aabddbc8afe6a40d7af478c1913625a880dbf20be5cf2c13578aa1ac9438",
}


def test_cli_output_bytes_keep_their_replay_digests(tmp_path, monkeypatch):
    import hashlib
    import importlib.util

    monkeypatch.setattr(sys, "path", list(sys.path))  # the script puts perfbench/ on the path
    monkeypatch.setenv("ULTRATREE_SEED", "0")  # restored after selftest_calls sets it
    path = Path(__file__).parents[1] / "tools" / "replay_digest.py"
    spec = importlib.util.spec_from_file_location("replay_digest", path)
    replay = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(replay)
    groups = {workload: replay.workload_calls(str(tmp_path), workload, 1) for workload in replay.gen.WORKLOADS}
    groups["selftest"] = replay.selftest_calls()
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps the help text to the terminal's width
    groups["help"] = (replay.call(argv) for argv in (["--help"], *([verb, "--help"] for verb in replay.cli.VERBS)))
    assert {name: hashlib.sha256(b"".join(calls)).hexdigest() for name, calls in groups.items()} == _REPLAY_DIGESTS
