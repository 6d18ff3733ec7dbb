"""Alternating benchmark pairs: a base ref against this checkout, one workload.

    python tools/bench_pairs.py --workload big_trees --seed 7001 --pairs 10 --base HEAD~1

The base ref is checked out as a detached git worktree in a temporary
directory.  With --base-tree, the base is an existing directory instead, for
example one made by `git archive HEAD | tar -x -C DIR`, and no worktree is
added.  Both trees must hold the same benchmark: the script refuses to run
when perfbench/ or BENCHMARK.json differ between the base and this checkout
(uncommitted changes included).  Pair i runs perfbench/run.py in each
tree at seed + i, for BENCHMARK.json's run_seconds; the base runs first in
even pairs and the checkout first in odd ones, so a drift of the host's speed
favors neither side.  Each run must report its ops correct with none failed.

For each end-to-end metric of BENCHMARK.json the script prints each side's
median and quartiles (statistics.quantiles, inclusive method), the number of
pairs in which the checkout is better, and the gap between the medians, signed
so that a positive gap favors the checkout, set against the base's
interquartile spread.  A claimed gain should be better in at least nine of ten
pairs and have a gap larger than that spread.

The runs inherit this process's environment, PYTHONDONTWRITEBYTECODE included,
so the bytecode mode of the children is the caller's to set.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def summarize(base: list[float], change: list[float], better: str) -> dict:
    """The figures printed for one metric over pairs (base[i], change[i]); better is "lower" or "higher"."""
    sign = 1 if better == "higher" else -1
    b1, bm, b3 = statistics.quantiles(base, n=4, method="inclusive")
    c1, cm, c3 = statistics.quantiles(change, n=4, method="inclusive")
    return {"base": (b1, bm, b3), "change": (c1, cm, c3), "pairs": len(base),
            "wins": sum(sign * (c - b) > 0 for b, c in zip(base, change)), "gap": sign * (cm - bm), "spread": b3 - b1}


def report(name: str, unit: str, better: str, s: dict) -> list[str]:
    (b1, bm, b3), (c1, cm, c3) = s["base"], s["change"]
    ratio = f"{s['gap'] / s['spread']:.2f}x the spread" if s["spread"] else "no spread"
    return [f"{name} ({unit}, {better} is better)",
            f"  base    median {bm:.6g}  quartiles {b1:.6g} {b3:.6g}",
            f"  change  median {cm:.6g}  quartiles {c1:.6g} {c3:.6g}  ({100 * (cm / bm - 1):+.2f} %)",
            f"  change better in {s['wins']} of {s['pairs']} pairs; gap {s['gap']:.6g} against a base "
            f"interquartile spread of {s['spread']:.6g} ({ratio})"]


def run(tree: Path, workload: str, seed: int) -> dict:
    """The result line of one perfbench run in tree."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(BENCHMARK["run_seconds"])]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith('{"correct"')]
    if proc.returncode != 0 or len(results) != 1:
        raise SystemExit(f"{tree}: perfbench/run.py exited {proc.returncode}\n{proc.stderr}")
    if results[0]["correct"] is not True or results[0]["failed"] != 0:
        raise SystemExit(f"{tree}: seed {seed} ran incorrect or failed ops: {results[0]}")
    return {name: m["value"] for name, m in results[0]["metrics"].items()}


def same_benchmark(base_tree: Path) -> bool:
    """Whether base_tree holds this checkout's BENCHMARK.json and perfbench/ files.

    Bytecode caches and hidden directories (perfbench/.work holds run output) are left out."""
    def files(tree: Path) -> dict:
        paths = [Path("BENCHMARK.json"), *(p.relative_to(tree) for p in (tree / "perfbench").rglob("*"))]
        return {p: (tree / p).read_bytes() for p in paths if (tree / p).is_file()
                and not any(part == "__pycache__" or part.startswith(".") for part in p.parts)}
    return files(base_tree) == files(ROOT)


def run_pairs(args, base_tree: Path) -> list[tuple[dict, dict]]:
    """(base, checkout) results of each pair, the base run first in even pairs."""
    pairs = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = (base_tree, ROOT) if i % 2 == 0 else (ROOT, base_tree)
        got = {tree: run(tree, args.workload, seed) for tree in order}
        pairs.append((got[base_tree], got[ROOT]))
        print(f"pair {i + 1}, seed {seed}: " + "; ".join(
            f"{m['name']} {got[base_tree][m['name']]:.6g} -> {got[ROOT][m['name']]:.6g}"
            for m in BENCHMARK["end_to_end"]), flush=True)
    return pairs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in BENCHMARK["workloads"]])
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair; pair i runs seed + i")
    parser.add_argument("--pairs", type=int, default=10, help="number of pairs, at least 2 (default 10)")
    parser.add_argument("--base", default="HEAD", help="git ref of the base tree (default HEAD)")
    parser.add_argument("--base-tree", type=Path, help="directory holding the base tree, used instead of --base")
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    base = args.base_tree.resolve() if args.base_tree else args.base
    same = same_benchmark(base) if args.base_tree else subprocess.run(
        ["git", "diff", "--quiet", base, "--", "perfbench", "BENCHMARK.json"], cwd=ROOT).returncode == 0
    if not same:
        print(f"perfbench/ or BENCHMARK.json differ between {base} and this checkout", file=sys.stderr)
        return 2
    if args.base_tree:
        pairs = run_pairs(args, base)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            base_tree = Path(tmp, "base")
            subprocess.run(["git", "worktree", "add", "--detach", "--quiet", str(base_tree), base], cwd=ROOT, check=True)
            try:
                pairs = run_pairs(args, base_tree)
            finally:
                subprocess.run(["git", "worktree", "remove", "--force", str(base_tree)], cwd=ROOT)
    print(f"{args.workload}, {args.pairs} pairs at seeds {args.seed}-{args.seed + args.pairs - 1}, base {base}:")
    for m in BENCHMARK["end_to_end"]:
        s = summarize([b[m["name"]] for b, _ in pairs], [c[m["name"]] for _, c in pairs], m["better"])
        print("\n".join(report(m["name"], m["unit"], m["better"], s)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
