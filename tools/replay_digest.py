"""One digest of every benchmark op's output, to show a change keeps the CLI's bytes.

Rebuilds the three benchmark workloads for the given seeds (1-3 by default)
through perfbench/gen.py, runs every op in process through
``ultratree.cli.main`` from its workload's input directory, then adds
``selftest`` at ULTRATREE_SEED 0 and 7 and ``--help`` of the CLI and of every
verb.  Each call's argv, exit status, stdout and stderr go into one sha256.
The script prints one line per group of calls (each workload and seed, then
selftest, then help): its name, its number of calls and its own digest, so a
mismatch names its group.  The last line holds the number of all calls and
the digest over all of them.

The package is imported from the path, so the same script compares two trees:

    PYTHONPATH=src python tools/replay_digest.py
    PYTHONPATH=/path/to/other/checkout/src python tools/replay_digest.py
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import gen  # noqa: E402  (perfbench/gen.py)

from ultratree import cli  # noqa: E402


def call(argv: list[str]) -> bytes:
    """argv, exit status, stdout and stderr of one in-process CLI call."""
    out, err = StringIO(), StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            status = cli.main(argv)
    except SystemExit as exc:  # --help and the calls argparse diagnoses
        status = exc.code
    except Exception as exc:  # a crash, which the CLI would show as a traceback
        status = f"crash {type(exc).__name__}: {exc}"
    return "\0".join([*argv, str(status), out.getvalue(), err.getvalue()]).encode("utf-8") + b"\1"


def workload_calls(tmp: str, workload: str, seed: int):
    """Every op of one workload and seed, run from a directory of its inputs."""
    w = gen.build(workload, seed)
    work = Path(tmp, f"{workload}-{seed}")
    work.mkdir()
    for name, text in w.files.items():
        (work / name).write_text(text, encoding="utf-8")
    home = os.getcwd()
    os.chdir(work)
    try:
        for op in w.ops:
            yield call(list(op.argv))
    finally:
        os.chdir(home)


def selftest_calls():
    for seed in ("0", "7"):
        os.environ["ULTRATREE_SEED"] = seed
        yield call(["selftest"])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3], help="benchmark seeds (default 1 2 3)")
    args = parser.parse_args()
    os.environ["COLUMNS"] = "80"  # argparse wraps the help text to the terminal's width
    digest, count = hashlib.sha256(), 0
    with tempfile.TemporaryDirectory() as tmp:
        groups = [(f"{workload} seed {seed}", workload_calls(tmp, workload, seed))
                  for seed in args.seeds for workload in gen.WORKLOADS]
        groups.append(("selftest", selftest_calls()))
        groups.append(("help", (call(argv) for argv in (["--help"], *([verb, "--help"] for verb in cli.VERBS)))))
        for name, calls in groups:
            part, n = hashlib.sha256(), 0
            for result in calls:
                digest.update(result)
                part.update(result)
                n += 1
            count += n
            print(name, n, part.hexdigest())
    print(count, digest.hexdigest())


if __name__ == "__main__":
    main()
