"""The lines of the package that no test runs.

Runs the test suites under tests/ and perfbench/ in this process, through
pytest.main with no cache provider, under a line tracer, and prints
``module:line: source`` for every line of src/ultratree that compiled code
holds and no test ran.  The imports under ``if TYPE_CHECKING:`` are left
out, as no run ever takes them.  Lines that only subprocess tests run (the
CLI's ``cli.run`` and the probes of its start-up, for example) are listed
too: the tracer sees this process alone.  The last line counts them.

No coverage package is needed.  The tracer is put back before collection
and before each test's setup, call and teardown, so code that sets or
clears the tracer while a test runs (hypothesis sets its own where it finds
none) hides at most the rest of one phase.  A full run takes a few minutes;
CI runs it on pull requests, in one job, and shows the listing in the job
summary without failing on it:

    python tools/unrun_lines.py

The package is imported from this checkout's src, in this process and in
the subprocesses that tests start.  The exit status is pytest's: a failing
suite makes the listing unreliable.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ultratree"


def held_lines(source: str, filename: str = "<source>") -> set[int]:
    """The lines that compiled code of this module source holds, nested code
    included, less the bodies of ``if TYPE_CHECKING:`` blocks."""
    lines, todo = set(), [compile(source, filename, "exec", dont_inherit=True)]
    while todo:
        code = todo.pop()
        lines.update(line for *_, line in code.co_lines() if line)  # None or 0: no source line
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING":
            lines -= set(range(node.body[0].lineno, node.body[-1].end_lineno + 1))
    return lines


class LineTracer:
    """Records (file, line) of every line run in the files under one directory."""

    def __init__(self, directory: Path):
        self.home = os.path.realpath(directory) + os.sep
        self.ran: set[tuple[str, int]] = set()
        self._ours: dict[str, bool] = {}  # co_filename -> under home

    def _global(self, frame, event, arg):
        name = frame.f_code.co_filename
        ours = self._ours.get(name)
        if ours is None:
            ours = self._ours[name] = os.path.realpath(name).startswith(self.home)
        return self._local if ours else None

    def _local(self, frame, event, arg):
        if event == "line":
            self.ran.add((frame.f_code.co_filename, frame.f_lineno))
        return self._local

    def install(self) -> None:
        sys.settrace(self._global)
        threading.settrace(self._global)

    def ran_in(self, path: Path) -> set[int]:
        """The lines run in one file."""
        want = os.path.realpath(path)
        names = {name for name, ours in self._ours.items() if ours and os.path.realpath(name) == want}
        return {line for name, line in self.ran if name in names}


class _Reinstall:
    """pytest hooks that put the tracer back before each phase of each test."""

    def __init__(self, tracer: LineTracer):
        self.tracer = tracer

    def pytest_collection(self, session):
        self.tracer.install()

    def pytest_runtest_setup(self, item):
        self.tracer.install()

    def pytest_runtest_call(self, item):
        self.tracer.install()

    def pytest_runtest_teardown(self, item):
        self.tracer.install()


def unrun(tracer: LineTracer, package: Path) -> list[tuple[str, int, str]]:
    """(module, line, source text) of each held line of the package that no run took."""
    found = []
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        for line in sorted(held_lines(source, str(path)) - tracer.ran_in(path)):
            found.append((path.stem, line, text[line - 1].strip()))
    return found


def main() -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()  # no options; --help
    import pytest

    # as tier-1 runs: from the checkout's root, with its src first on the path of
    # this process and of the subprocesses that tests start
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    os.chdir(ROOT)
    tracer = LineTracer(PACKAGE)
    tracer.install()
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "tests", "perfbench"], plugins=[_Reinstall(tracer)])
    finally:
        sys.settrace(None)
        threading.settrace(None)  # type: ignore[arg-type]
    found = unrun(tracer, PACKAGE)
    for module, line, text in found:
        print(f"{module}:{line}: {text}")
    held = sum(len(held_lines(p.read_text(encoding="utf-8"), str(p))) for p in PACKAGE.glob("*.py"))
    print(f"# {len(found)} of {held} held lines unrun, in {len({m for m, *_ in found})} modules; pytest exit {status}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
