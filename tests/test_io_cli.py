import contextlib
import io
import json
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest

from ultratree import additive_metric, minimax_label_metric, representing_tree
from ultratree.cli import main
from ultratree.errors import ParseError
from ultratree.generators import random_ultrametric_space
from ultratree import io as tio

from helpers import fig6_graph, fig10_tree, fig13_tree


def test_graph_json_round_trip():
    rt, w = fig10_tree()
    doc = tio.graph_to_json(rt.tree.underlying, root="r", weights=w)
    text = tio.dump_json(doc)
    back = tio.graph_from_json(json.loads(text))
    assert back.graph == rt.tree.underlying
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
    back = tio.graph_from_json(doc)
    assert back.payloads is not None
    assert back.payloads[back.root] == {"x1", "x2", "x3", "x4"}


def test_matrix_json_and_csv_round_trip():
    space = random_ultrametric_space(random.Random(211), 5)
    via_json = tio.matrix_from_json(json.loads(tio.dump_json(tio.matrix_to_json(space))))
    assert via_json == space
    via_csv = tio.matrix_from_csv(tio.matrix_to_csv(space))
    assert via_csv == space
    sniffed = tio.load_matrix_text(tio.matrix_to_csv(space))
    assert sniffed == space


def test_parse_errors():
    with pytest.raises(ParseError):
        tio.load_graph_text("not json")
    with pytest.raises(ParseError):
        tio.graph_from_json({"vertices": ["a|b"], "edges": []})
    with pytest.raises(ParseError):
        tio.graph_from_json({"vertices": ["a"], "edges": [["a", "b"]]})
    with pytest.raises(ParseError):
        tio.matrix_from_csv("a,b\n1,2\n")
    with pytest.raises(ParseError, match="bad CSV"):
        tio.matrix_from_csv(",a\na," + "0" * (1 << 18) + "\n")  # over the csv field limit
    # matrix documents whose fields have the wrong JSON type
    for points, matrix in ((["a"], 5), (["a"], ["0"]), (["a"], {"0": "0"}), (5, [["0"]]),
                           ([1, 2], [["0", "1"], ["1", "0"]]), ([""], [["0"]]), ("a", [["0"]])):
        with pytest.raises(ParseError, match="must be a list"):
            tio.matrix_from_json({"points": points, "matrix": matrix})
    # decoration fields that are present but not objects
    for field in ("weights", "labels", "payloads"):
        for value in ([["a|b", "1"]], "a|b", 3):
            doc = {"vertices": ["a", "b"], "edges": [["a", "b"]], field: value}
            with pytest.raises(ParseError, match=f"'{field}' must be a JSON object"):
                tio.graph_from_json(doc)
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
            tio.graph_from_json(doc)
    # payload values that are not lists of strings
    for value in (5, "ab", ["a", 1]):
        doc = {"vertices": ["a", "b"], "edges": [["a", "b"]], "payloads": {"a": value}}
        with pytest.raises(ParseError, match="payload of 'a' must be a list of strings"):
            tio.graph_from_json(doc)


def test_format_rational_keeps_the_text_of_any_exact_value():
    from ultratree.rational import format_rational

    assert [format_rational(x) for x in (F(2, 4), F(-1, 3), 3, "6/4")] == ["1/2", "-1/3", "3", "3/2"]


def test_each_tree_is_checked_once(monkeypatch):
    from ultratree import Graph, IsoFlavor, are_isomorphic

    searches = []
    components = Graph.components
    monkeypatch.setattr(Graph, "components", lambda g: searches.append(g) or components(g))
    path = tio.graph_from_json({"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]]})
    path.tree()
    assert len(searches) == 1
    assert are_isomorphic(path.graph, path.graph, IsoFlavor.FREE)
    assert len(searches) == 3
    cycle = tio.graph_from_json({"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"], ["a", "c"]]})
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
    matrix = _write(tmp_path, "fig6.json", tio.dump_json(tio.matrix_to_json(space)))

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
    from ultratree.generators import shuffled_renaming

    s2 = shuffled_renaming(random.Random(227), s)
    m1 = _write(tmp_path, "m1.json", tio.dump_json(tio.matrix_to_json(s)))
    m2 = _write(tmp_path, "m2.csv", tio.matrix_to_csv(s2))
    code, out = _run(capsys, "isometry", m1, m2)
    assert code == 0
    verdict = json.loads(out)
    assert verdict["isometric"] is True and verdict["bijection"] is not None

    code, out = _run(capsys, "isometry", "--fast-ultrametric", m1, m2)
    assert code == 0 and json.loads(out)["isometric"] is True


def test_cli_dual_reduce_analyze_spanning_counterexample(tmp_path, capsys):
    rt, w = fig10_tree()
    tree_doc = tio.dump_json(tio.graph_to_json(rt.tree.underlying, root="r", weights=w))
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
        tio.matrix_to_json(
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


def test_cli_selftest_passes_and_is_deterministic(capsys):
    code, first = _run(capsys, "selftest")
    assert code == 0
    assert "FAIL" not in first
    code, second = _run(capsys, "selftest")
    assert code == 0 and first == second


def test_cli_selftest_subprocess_bytes_identical():
    cmd = [sys.executable, "-m", "ultratree.cli", "selftest"]
    env = {"ULTRATREE_SEED": "7"}
    import os

    full_env = dict(os.environ, **env)
    a = subprocess.run(cmd, capture_output=True, env=full_env)
    b = subprocess.run(cmd, capture_output=True, env=full_env)
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout


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
