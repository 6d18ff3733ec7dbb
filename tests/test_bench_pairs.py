import importlib.util
from pathlib import Path


def _bench_pairs():
    path = Path(__file__).parents[1] / "tools" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pair_summary_counts_wins_and_sets_the_gap_against_the_base_spread():
    # Five pairs of fixed figures, no benchmark run: inclusive quartiles of 70..74 are 71, 72
    # and 73, and of the change's 69, 69, 70, 71, 73 are 69, 70 and 71.
    bp = _bench_pairs()
    base, change = [70, 71, 72, 73, 74], [69, 69, 73, 70, 71]
    assert bp.summarize(base, change, "lower") == {
        "base": (71, 72, 73), "change": (69, 70, 71), "pairs": 5, "wins": 4, "gap": 2, "spread": 2}
    # the same figures where higher is better: one win, and a gap against the change
    higher = bp.summarize(base, change, "higher")
    assert (higher["wins"], higher["gap"], higher["spread"]) == (1, -2, 2)
    # a tie is no win
    assert bp.summarize([1, 2, 3], [1, 2, 3], "lower")["wins"] == 0
    lines = bp.report("latency_p50_s", "s", "lower", bp.summarize(base, change, "lower"))
    assert lines[-1] == ("  change better in 4 of 5 pairs; gap 2 against a base interquartile spread of 2"
                         " (1.00x the spread)")
    assert lines[2].endswith("(-2.78 %)")


def test_a_base_tree_must_hold_the_same_benchmark(tmp_path):
    # --base-tree compares BENCHMARK.json and perfbench/ file by file, bytecode caches and
    # perfbench/.work aside, before any run.
    import shutil

    bp = _bench_pairs()
    shutil.copy(bp.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bp.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".*"))
    assert bp.same_benchmark(tmp_path)
    (tmp_path / "perfbench" / "__pycache__").mkdir()
    (tmp_path / "perfbench" / "__pycache__" / "run.cpython.pyc").write_bytes(b"x")
    (tmp_path / "perfbench" / ".work").mkdir()
    (tmp_path / "perfbench" / ".work" / "out.json").write_text("{}")
    assert bp.same_benchmark(tmp_path)
    with open(tmp_path / "perfbench" / "run.py", "a") as f:
        f.write("# changed\n")
    assert not bp.same_benchmark(tmp_path)
    (tmp_path / "perfbench" / "run.py").write_bytes((bp.ROOT / "perfbench" / "run.py").read_bytes())
    (tmp_path / "perfbench" / "extra.py").write_text("")
    assert not bp.same_benchmark(tmp_path)
