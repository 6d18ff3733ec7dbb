"""One digest of every benchmark op's output, to show a change keeps the CLI's bytes.

Rebuilds the three benchmark workloads for the given seeds (1-3 by default)
through perfbench/gen.py, runs every op in process through
``ultratree.cli.main`` from its workload's input directory, then adds
``selftest`` at ULTRATREE_SEED 0 and 7 and ``--help`` of the CLI and of every
verb.  Each call's argv, exit status, stdout and stderr go into one sha256;
the script prints the number of calls and that digest on one line.

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


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3], help="benchmark seeds (default 1 2 3)")
    args = parser.parse_args()
    os.environ["COLUMNS"] = "80"  # argparse wraps the help text to the terminal's width
    digest, count = hashlib.sha256(), 0
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            for workload in gen.WORKLOADS:
                w = gen.build(workload, seed)
                work = Path(tmp, f"{workload}-{seed}")
                work.mkdir()
                for name, text in w.files.items():
                    (work / name).write_text(text, encoding="utf-8")
                os.chdir(work)
                try:
                    for op in w.ops:
                        digest.update(call(list(op.argv)))
                        count += 1
                finally:
                    os.chdir(home)
    for seed in ("0", "7"):
        os.environ["ULTRATREE_SEED"] = seed
        digest.update(call(["selftest"]))
    for argv in (["--help"], *([verb, "--help"] for verb in cli.VERBS)):
        digest.update(call(argv))
    count += 2 + 1 + len(cli.VERBS)
    print(count, digest.hexdigest())


if __name__ == "__main__":
    main()
