"""What each verb compiles: the package modules a small CLI call loads, their
source lines and the time compile() takes on them.

Without a bytecode cache (as under PYTHONDONTWRITEBYTECODE=1, which the
benchmark sets) a CLI call compiles the source of every package module it
loads.  For each probe of tests/test_io_cli.py's _verb_runs, one small valid
call per verb and variant, the script prints:
- the source lines, counted as the test's line ceilings count them: cli.py,
  __init__.py and every submodule the call loads;
- the median, over 41 rounds, of the time compile() takes on those sources
  in this process, in milliseconds;
- the loaded submodules.

The inputs are built with this checkout's package and tests; the calls run
the package found at SRC, so one script compares two trees:

    python tools/verb_cost.py                        # this checkout's src
    python tools/verb_cost.py /path/to/other/src     # another tree, same probes

No bytecode is written, and no file under either package is touched.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import test_io_cli  # noqa: E402  (tests/test_io_cli.py: the probes and the module probe)

ROUNDS = 41


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs="?", default=str(ROOT / "src"), help="directory holding the ultratree package")
    args = parser.parse_args()
    package = Path(args.src).resolve() / "ultratree"
    if not (package / "cli.py").is_file():
        raise SystemExit(f"no ultratree package under {args.src}")
    # the probe subprocesses inherit these: they import the package at SRC and write no bytecode
    os.environ["PYTHONPATH"] = str(package.parent)
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

    with tempfile.TemporaryDirectory() as tmp:
        runs = test_io_cli._verb_runs(Path(tmp))
        loaded = {verb: test_io_cli._modules_loaded_by(*argv)[0] for verb, argv in runs.items()}
    sources = {}
    for verb, modules in loaded.items():
        paths = [package / f"{name}.py" for name in sorted(modules | {"__init__", "cli"})]
        sources[verb] = [(str(path), path.read_text(encoding="utf-8")) for path in paths]

    times: dict[str, list[float]] = {verb: [] for verb in sources}
    for _ in range(ROUNDS):  # rounds interleave the verbs, so a slow spell is shared
        for verb, files in sources.items():
            start = time.perf_counter()
            for path, text in files:
                compile(text, path, "exec", dont_inherit=True)
            times[verb].append(time.perf_counter() - start)

    print(f"# {package.parent}, Python {platform.python_version()}, {ROUNDS} compile rounds")
    width = max(map(len, sources))
    print(f"{'verb':<{width}}  {'lines':>5}  {'median_ms':>9}  modules")
    for verb, files in sources.items():
        lines = sum(len(text.splitlines()) for _, text in files)
        median = 1000 * statistics.median(times[verb])
        print(f"{verb:<{width}}  {lines:>5}  {median:>9.2f}  {' '.join(sorted(loaded[verb]))}")


if __name__ == "__main__":
    main()
