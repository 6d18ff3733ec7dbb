import importlib.util
import sys
import threading
from pathlib import Path

_TOY = '''from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import os


def f(x):
    """Doc."""
    if x:
        return 1
    return 2
'''


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_unrun_lines_are_the_held_lines_no_call_ran(tmp_path):
    # tools/unrun_lines.py on a toy module: the lines compiled code holds (not the blank,
    # docstring and TYPE_CHECKING import lines), and of those, what importing the module
    # and calling f(0) leaves unrun.
    ul = _load("unrun_lines", Path(__file__).parents[1] / "tools" / "unrun_lines.py")
    assert ul.held_lines(_TOY) == {1, 3, 7, 9, 10, 11}
    toy = tmp_path / "toy.py"
    toy.write_text(_TOY, encoding="utf-8")
    tracer, before = ul.LineTracer(tmp_path), (sys.gettrace(), threading.gettrace())
    tracer.install()
    try:
        assert _load("toy", toy).f(0) == 2
    finally:
        sys.settrace(before[0])
        threading.settrace(before[1])
    assert tracer.ran_in(toy) == {1, 3, 7, 9, 11}
    assert ul.unrun(tracer, tmp_path) == [("toy", 10, "return 1")]
