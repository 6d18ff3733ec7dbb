"""What each verb compiles: the package modules a small CLI call loads, their
tokens and the time compile() takes on them.

Without a bytecode cache (as under PYTHONDONTWRITEBYTECODE=1, which the
benchmark sets) a CLI call compiles the source of every package module it
loads.  For each probe of tests/test_io_cli.py's _verb_runs, one small valid
call per verb and variant, the script prints:
- the tokens of cli.py, __init__.py and every submodule the call loads,
  counted by the test's own counter, test_io_cli.token_lines, so exactly as
  the token ceilings count them;
- the unrun tokens among them: those in the functions (lambdas and
  comprehensions included) that the call never enters, found by running the
  probe under a profiler, so the share of compiled code a call could shed;
- the minimum, over 41 interleaved rounds, of the time compile() takes on
  those sources in this process, in milliseconds: the least time is the one
  that other work on the host cannot lengthen, so it resolves differences of
  tens of microseconds, where the median of the same sources moved by
  milliseconds from run to run;
- the interquartile range of those 41 times, in milliseconds, so the spread
  the minimum is read against;
- the loaded submodules.
Under that table it lists, for each call, the functions behind its unrun
tokens, grouped by module: each one's name, first line and token count.

The inputs are built with this checkout's package and tests; the calls run
the package found at each SRC.  Given several trees, the script compiles them
all in the same interleaved rounds, prints each one's table and then, per
verb, each later tree's min_ms less the first's, marked unresolved when it is
smaller than the first tree's interquartile range: identical sources differed
by up to 0.44 ms.  Compare trees in one run: between two runs made minutes
apart, the host's speed can drift by more than the difference sought.

    python tools/verb_cost.py                          # this checkout's src
    python tools/verb_cost.py /path/to/base/src src    # two trees, same probes

No bytecode is written, and no file under either package is touched.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import test_io_cli  # noqa: E402  (tests/test_io_cli.py: the probes, the module probe and the token counter)

ROUNDS = 41

# The test's module probe under a profiler that records each code object of the
# package that the call enters, printed after the probe's own line as JSON
# [file name, first line, name] triples.
_TRACED = """
import sys
_entered = set()
def _profile(frame, event, arg):
    if event == "call":
        _entered.add(frame.f_code)
sys.setprofile(_profile)
""" + test_io_cli._LOADED_BY + """
sys.setprofile(None)
import json, ultratree
_home = os.path.dirname(ultratree.__file__)
print(json.dumps(sorted({(os.path.basename(c.co_filename), c.co_firstlineno, c.co_name)
                         for c in _entered if os.path.dirname(c.co_filename) == _home})))
"""


def traced_call(env: dict, *argv) -> tuple[set, set]:
    """(ultratree submodules, entered code keys) of one CLI call."""
    proc = subprocess.run([sys.executable, "-c", _TRACED, *argv], capture_output=True, text=True, env=env)
    if proc.returncode:
        raise SystemExit(f"probe {argv} failed: {proc.stderr}")
    *_, loaded, entered = proc.stdout.splitlines()
    code, *modules = loaded.split()
    if code != "0":
        raise SystemExit(f"probe {argv} exited {code}: {proc.stderr}")
    package = {m[len("ultratree."):] for m in modules if m.startswith("ultratree.")}
    return package, {tuple(key) for key in json.loads(entered)}


def unrun_functions(path: str, text: str, entered: set) -> list[tuple[str, int, set]]:
    """(name, first line, source lines) of each function in one module that the call
    never entered, by first line; a function nested in one of them is not listed."""
    name = Path(path).name

    def last(code: types.CodeType) -> int:  # a body's last line, nested bodies included
        nested = [last(c) for c in code.co_consts if isinstance(c, types.CodeType)]
        return max([line for *_, line in code.co_lines() if line is not None] + nested)

    found, todo = [], [compile(text, path, "exec", dont_inherit=True)]
    while todo:
        for c in todo.pop().co_consts:
            if not isinstance(c, types.CodeType):
                continue
            is_function = c.co_flags & 0x1  # CO_OPTIMIZED: a function, not a class body
            if is_function and (name, c.co_firstlineno, c.co_name) not in entered:
                found.append((c.co_name, c.co_firstlineno, set(range(c.co_firstlineno, last(c) + 1))))
            else:
                todo.append(c)
    return sorted(found, key=lambda f: f[1])


def tokens_in(rows: list[int], functions: list) -> int:
    """The counted tokens, given by line, that lie in the lines of these functions."""
    lines = set().union(*(lines for *_, lines in functions))
    return sum(row in lines for row in rows)


def iqr(samples: list[float]) -> float:
    """The interquartile range of some times."""
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return q3 - q1


def profile(package: Path, runs: dict) -> dict:
    """Per verb: (loaded submodules, (path, source) of each compiled file, (counted
    token lines, unrun functions) by module) of the calls run on one package."""
    # the probes import the package at this tree and write no bytecode
    env = dict(os.environ, PYTHONPATH=str(package.parent), PYTHONDONTWRITEBYTECODE="1")
    found = {}
    for verb, argv in runs.items():
        modules, entered = traced_call(env, *argv)
        paths = test_io_cli.compiled_sources(package, modules)
        sources = [(str(path), path.read_text(encoding="utf-8")) for path in paths]
        by_module = {Path(path).name: (test_io_cli.token_lines(text), unrun_functions(path, text, entered))
                     for path, text in sources}
        found[verb] = (modules, sources, by_module)
    return found


def report(package: Path, found: dict, times: dict) -> None:
    """One tree's table, then its unrun functions per call."""
    print(f"# {package.parent}, Python {platform.python_version()}, {ROUNDS} compile rounds")
    width = max(map(len, found))
    print(f"{'verb':<{width}}  {'tokens':>6}  {'unrun':>5}  {'min_ms':>9}  {'iqr_ms':>9}  modules")
    for verb, (modules, _, by_module) in found.items():
        tokens = sum(len(rows) for rows, _ in by_module.values())
        unrun_tokens = sum(tokens_in(rows, functions) for rows, functions in by_module.values())
        least, spread = 1000 * min(times[verb]), 1000 * iqr(times[verb])
        print(f"{verb:<{width}}  {tokens:>6}  {unrun_tokens:>5}  {least:>9.3f}  {spread:>9.3f}  "
              f"{' '.join(sorted(modules))}")

    print("\n# unrun functions per call: module, its unrun tokens, then each function as name:first line (tokens)")
    for verb, (_, _, by_module) in found.items():
        print(verb)
        for module, (rows, functions) in by_module.items():
            if functions:
                listed = ", ".join(f"{name}:{first} ({sum(row in lines for row in rows)})"
                                   for name, first, lines in functions)
                print(f"  {module:<18} {tokens_in(rows, functions):>5}  {listed}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs="*", default=[str(ROOT / "src")],
                        help="directories holding an ultratree package; later ones are compared with the first")
    args = parser.parse_args()
    packages = [Path(src).resolve() / "ultratree" for src in args.src]
    for src, package in zip(args.src, packages):
        if not (package / "cli.py").is_file():
            raise SystemExit(f"no ultratree package under {src}")

    with tempfile.TemporaryDirectory() as tmp:
        runs = test_io_cli._verb_runs(Path(tmp))
        trees = [profile(package, runs) for package in packages]

    times: list[dict[str, list[float]]] = [{verb: [] for verb in runs} for _ in trees]
    for r in range(ROUNDS):  # rounds interleave the verbs and the trees, so a slow spell is shared
        for verb in runs:
            for i in [(r + k) % len(trees) for k in range(len(trees))]:  # each round starts at another tree
                files = trees[i][verb][1]
                start = time.perf_counter()
                for path, text in files:
                    compile(text, path, "exec", dont_inherit=True)
                times[i][verb].append(time.perf_counter() - start)

    for package, found, tree_times in zip(packages, trees, times):
        report(package, found, tree_times)
        print()
    if len(trees) > 1:
        print(f"# min_ms of each later tree less that of {packages[0].parent}, per verb;"
              f" unresolved where it is smaller than that tree's iqr_ms")
        width = max(map(len, runs))
        for verb in runs:
            base, spread = min(times[0][verb]), iqr(times[0][verb])
            gaps = [min(t[verb]) - base for t in times[1:]]
            diffs = "  ".join(f"{1000 * gap:>+9.3f} {'unresolved' if abs(gap) < spread else '':<10}" for gap in gaps)
            print(f"{verb:<{width}}  {diffs}".rstrip())


if __name__ == "__main__":
    main()
