"""JSON read and written through json's C codec, and the CLI process without the cyclic collector.

io.parse_json must give what json.loads(text, object_pairs_hook=io._unique_keys) gives,
value or refusal, and io.dump_json the bytes of json.dumps(obj, indent=2, sort_keys=True)
plus a newline.  The reader is checked in fresh interpreters: pytest has loaded json,
and on 3.10 and 3.11 the C scanner can raise its errors only once json is loaded.
"""

import contextlib
import enum
import gc
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ultratree import io as tio
from ultratree.canonical import ISOMETRY_SIZE_LIMIT
from ultratree.cli import main

_SRC = str(Path(__file__).parents[1] / "src")

# Reads one text, sent as ASCII escapes, with io.parse_json and then with json.loads, each
# outcome the repr of ("value", value) or ("error", type name, message), and prints whether
# the two agree, whether parse_json loaded json, and parse_json's outcome.
_READ = """
import sys
from ultratree import io
assert "json" not in sys.modules
def outcome(read, text):
    try:
        return repr(("value", read(text)))
    except Exception as exc:
        return repr(("error", type(exc).__name__, str(exc)))
text = sys.stdin.read().encode("ascii").decode("unicode_escape")
got = outcome(io.parse_json, text)
loaded = "json" in sys.modules
import json
print(got == outcome(lambda t: json.loads(t, object_pairs_hook=io._unique_keys), text), loaded, got[2:7], got[:200])
"""


def _probe(code: str, stdin: str = "") -> list[str]:
    """The output lines of a fresh interpreter running code on the package under test."""
    proc = subprocess.run([sys.executable, "-c", code], input=stdin, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=_SRC))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


_READER_TEXTS = {
    "crlf and trailing whitespace": '{"a": [1, "b"],\r\n "c": null}\r\n \t\n',
    "leading whitespace": '\n\t {"a": true}',
    "nan and infinities": '[NaN, Infinity, -Infinity, {"x": NaN}]',
    "minus zero and a huge float": '[-0, -0.0, 1e400, -1e400]',
    "integer of 5000 digits": "[" + "7" * 5000 + "]",
    "integer of 4300 digits": "[" + "7" * 4300 + "]",
    "unicode escapes": r'{"é中": "😀 \u0000 \"q\" \\ \/"}',
    "escaped lone surrogates": r'["\ud800", "\udc80x", "a\udfff", "\ud83d\ude00"]',
    "raw lone surrogate": '["\ud800", {"\udfff": 1}]',
    "raw non-ascii": '["é中😀"]',
    "control character": '["a\tb"]',
    "byte order mark": '\ufeff{"a": 1}',
    "broken object": "{broken",
    "trailing data": "{} x",
    "two values": "[1] [2]",
    "empty text": "",
    "whitespace alone": " \n\t\r ",
    "repeated key": '{"a": 1, "b": {"c": 2, "c": 3}}',
    "nested past the interpreter's limit": "[" * 100_000 + "]" * 100_000,
    "bare scalar": ' "text" ',
}


@pytest.mark.parametrize("name", list(_READER_TEXTS))
def test_reader_gives_what_json_loads_gives_before_json_is_loaded(name):
    # the text travels as ASCII escapes, so lone surrogates and a BOM cross the pipe intact
    line = _probe(_READ, _READER_TEXTS[name].encode("unicode_escape").decode("ascii"))[0]
    same, loaded, kind, got = line.split(" ", 3)
    assert same == "True", got
    assert loaded == str(kind == "error"), got  # json loads only to refuse a text


def test_reader_and_writer_fall_back_to_json_without_its_c_module():
    # Where _json is missing (an interpreter other than CPython), io takes json's own
    # scanner and string encoder, with the same results.
    code = """
import sys
sys.modules["_json"] = None
import json
from ultratree import io
assert io.quote is json.encoder.py_encode_basestring_ascii
doc = {"b": [["x", "y\\u00e9"]], "a": {"k": "v"}, "c": [1, True, None]}
text = json.dumps(doc)
assert io.parse_json(" " + text + "\\n") == json.loads(text) == doc
assert io.dump_json(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\\n"
try:
    io.parse_json('{"a": 1, "a": 2}')
except Exception as exc:
    print(type(exc).__name__, exc)
"""
    assert _probe(code) == ["ParseError bad JSON: repeated key 'a'"]


def _dumped(dump, value) -> tuple:
    try:
        return "text", dump(value)
    except Exception as exc:
        return "error", type(exc), str(exc)


def _json_dumped(value) -> tuple:
    return _dumped(lambda v: json.dumps(v, indent=2, sort_keys=True) + "\n", value)


def test_writer_gives_the_bytes_of_json_dumps():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # strings with control characters, quotes, backslashes, non-BMP characters and lone surrogates
    special = st.sampled_from('"\\/\x00\x1f\x7f\ud800\udfff\U0001f600')
    chars = st.one_of(st.characters(exclude_categories=()), special)
    strings = st.text(chars, max_size=6)
    leaves = st.one_of(strings, st.integers(), st.integers(min_value=-(10**40), max_value=10**40), st.booleans(),
                       st.none())
    values = st.recursive(leaves, lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(strings, inner, max_size=4),
        # the shapes that hold most of a document's bytes: lists of strings, of [str, str] and dicts of strings
        st.lists(strings, max_size=5), st.lists(st.lists(strings, min_size=2, max_size=2), max_size=5),
        st.dictionaries(strings, strings, max_size=5)), max_leaves=24)

    @hypothesis.settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @hypothesis.given(values)
    def check(value):
        assert tio.dump_json(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"

    check()


def test_writer_leaves_floats_and_keys_that_are_not_strings_to_json():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    keys = st.one_of(st.text(max_size=3), st.integers(), st.floats(), st.booleans(), st.none())
    values = st.recursive(st.one_of(st.floats(), st.text(max_size=3), st.integers()), lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(keys, inner, max_size=3)), max_leaves=12)

    @hypothesis.settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @hypothesis.given(values)
    def check(value):
        assert _dumped(tio.dump_json, value) == _json_dumped(value)

    check()


class _Color(enum.IntEnum):
    RED = 1


class _Text(str):
    pass


_CYCLE: list = ["a"]
_CYCLE.append(_CYCLE)


_NOT_TAKEN = {
    "float": 1.5, "float in a list": [1, 2.5], "nan in a dict": {"a": {"b": float("nan")}},
    "infinity": [{"a": float("inf")}], "int key": {1: "a"}, "mixed keys": {"a": 1, 2: "b"}, "None key": {None: 1},
    "bool key": {True: "x"}, "IntEnum": _Color.RED, "IntEnum in a list": [_Color.RED], "str subclass": _Text("x"),
    "str subclass value": {"k": _Text("v")}, "str subclass key": {_Text("k"): "v"}, "set": {1, 2},
    "bytes": [b"x"], "cycle": _CYCLE, "int past the digit limit": 10**5000,
}


@pytest.mark.parametrize("name", list(_NOT_TAKEN))
def test_writer_hands_a_value_it_does_not_take_to_json(name):
    value = _NOT_TAKEN[name]
    with pytest.raises((TypeError, ValueError, RecursionError)):
        tio._dump(value, "\n")
    assert _dumped(tio.dump_json, value) == _json_dumped(value)


def test_the_cli_process_runs_without_the_cyclic_collector(tmp_path):
    # cli.run(), the path of the console script and of `python -m`, turns the collector
    # off for main(); main() as a library call leaves it as it finds it.
    path = tmp_path / "edge.json"
    path.write_text('{"vertices": ["a", "b"], "edges": [["a", "b"]]}', encoding="utf-8")
    code = f"""
import gc, sys
from ultratree import cli
argv = ["iso", "--flavor", "free", {str(path)!r}, {str(path)!r}]
print("before", gc.isenabled())
cli.main(argv)
print("after main", gc.isenabled())
def probe(argv=None):
    print("during run", gc.isenabled())
    return 0
cli.main, sys.argv = probe, ["ultratree", *argv]
cli.run()
"""
    lines = _probe(code)
    assert [line for line in lines if not line.startswith(("{", "}", " "))] == [
        "before True", "after main True", "during run False"]


def _spider(legs: int, labeled: bool) -> dict:
    # a root r with legs of two edges each, r - m_i - l_i: equidistant at unit weights,
    # monotone with labels 2, 1, 0 by depth
    vertices = ["r", *(f"m{i}" for i in range(legs)), *(f"l{i}" for i in range(legs))]
    edges = [["r", f"m{i}"] for i in range(legs)] + [[f"m{i}", f"l{i}"] for i in range(legs)]
    if labeled:
        return {"vertices": vertices, "edges": edges, "labels": {v: "210"["rml".index(v[0])] for v in vertices}}
    return {"vertices": vertices, "edges": edges, "root": "r", "weights": {"|".join(sorted(e)): "1" for e in edges}}


def _cycle(n: int) -> dict:
    names = [f"c{i}" for i in range(n)]
    return {"vertices": names, "edges": [[names[i], names[(i + 1) % n]] for i in range(n)],
            "labels": {v: str(i % 3) for i, v in enumerate(names)}}


def _ultrametric(n: int) -> dict:
    # d(i, j) = the bit length of i xor j, an ultrametric
    return {"points": [f"p{i}" for i in range(n)],
            "matrix": [[str((i ^ j).bit_length()) for j in range(n)] for i in range(n)]}


def _calls(tmp_path, size: int) -> dict:
    """One call of each verb on inputs of one shape at the given size."""
    def write(name, doc):
        path = tmp_path / f"{name}{size}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    tree, labeled = write("tree", _spider(size, False)), write("ltree", _spider(size, True))
    cycle, matrix = write("cycle", _cycle(size)), write("matrix", _ultrametric(size))
    # the bijection search refuses more than ISOMETRY_SIZE_LIMIT points
    small_matrix = write("small", _ultrametric(min(size, ISOMETRY_SIZE_LIMIT)))
    return {
        "repr": ["repr", matrix], "repr --labeled-tree": ["repr", "--labeled-tree", labeled],
        "iso": ["iso", "--flavor", "rweight", tree, tree], "isometry": ["isometry", small_matrix, small_matrix],
        "isometry --fast-ultrametric": ["isometry", "--fast-ultrametric", matrix, matrix],
        "dual": ["dual", "--direction", "w2l", tree], "reduce": ["reduce", tree], "spanning": ["spanning", cycle],
        "analyze": ["analyze", tree], "ballean": ["ballean", matrix], "ballean --tree": ["ballean", "--tree", matrix],
        "counterexample": ["counterexample", cycle], "selftest": ["selftest"],
    }


def test_each_verb_leaves_a_few_cyclic_objects_whatever_its_input_size(tmp_path):
    # With the collector off, as cli.run() runs main(), what a call leaves in reference
    # cycles stays until the process ends, so no call leaves any, at either input size.
    small, large = _calls(tmp_path, 6), _calls(tmp_path, 60)
    enabled = gc.isenabled()
    gc.disable()
    try:
        left = {}
        for verb in small:
            counts = []
            for argv in (small[verb], small[verb], large[verb]):  # the first call imports the verb's modules
                gc.collect()
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main(argv) == 0, argv
                counts.append(gc.collect())
            left[verb] = counts[1:]
    finally:
        if enabled:
            gc.enable()
    assert {verb: n for verb, n in left.items() if n != [0, 0]} == {}
