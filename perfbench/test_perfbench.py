"""Tests of the benchmark itself: stable inputs, checkers that reject
corrupted outputs, the tracer's arithmetic and BENCHMARK.json.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import copy
import functools
import json
from fractions import Fraction
from pathlib import Path

import pytest

import check
import gen
import run
import spans

ROOT = Path(__file__).resolve().parent.parent

# sha256 of all inputs and the op list at seed 0; a change to the generator
# changes the benchmark and must update these on purpose
PINNED = {
    "ultra_matrix": "0810bd99ccd8f4a3f60edd99dcdb7e79ffb2e90526c33d69acfc1176ed6ef121",
    "big_trees": "bdafd9df081135fc58a2d5c4e7925186e2d0f98cc01b3a085d00d09b0e79140a",
    "label_graphs": "257d1f9e7f13432b16be5f0adcd1fc19f0d1ff7041242f76e77f23729615268e",
}


@functools.lru_cache(maxsize=None)
def workload(name: str) -> gen.Workload:
    return gen.build(name, 0)


@pytest.mark.parametrize("name", gen.WORKLOADS)
def test_op_list_is_stable_for_a_fixed_seed(name):
    w = workload(name)
    assert w.digest() == PINNED[name]
    assert gen.build(name, 1).digest() != w.digest()


@pytest.mark.parametrize("name", gen.WORKLOADS)
def test_op_list_shape(name):
    w = workload(name)
    assert len(w.ops) > 110  # at least ten latency samples above p90
    for op in w.ops:
        assert op.check in check.CHECKERS
        assert all(a in w.files for a in op.argv if a.endswith((".csv", ".json")))


def test_known_defects_stay_in_the_mix():
    defects = {op.name: op for op in workload("big_trees").ops if op.known_defect}
    assert set(defects) == {"iso.rooted.true.path.n1500", "reduce.weights_list.n500"}
    path = defects["iso.rooted.true.path.n1500"]
    assert path.expect["value"] is True and path.argv[:3] == ("iso", "--flavor", "rooted")
    assert len(json.loads(workload("big_trees").files[path.argv[3]])["vertices"]) == 1500
    listed = defects["reduce.weights_list.n500"]
    assert listed.exit_code == 2 and listed.expect["code"] == "parse-error"
    assert isinstance(json.loads(workload("big_trees").files[listed.argv[1]])["weights"], list)


@functools.lru_cache(maxsize=None)
def replayer() -> spans.Replayer:
    return spans.Replayer(run.load_package())


def result(workload_name: str, op_name: str):
    """A correct (op, output document, reader) triple, from an in-process
    replay of the first op with that name."""
    w = workload(workload_name)
    op = next(op for op in w.ops if op.name == op_name)
    rp = replayer()
    base = Path(run.WORK) / "test"
    base.mkdir(parents=True, exist_ok=True)
    for a in op.argv:
        if a in w.files:
            (base / a).write_text(w.files[a], encoding="utf-8")
    code, out, err = rp.run(0, [str(base / a) if a in w.files else a for a in op.argv])
    read = w.files.__getitem__
    assert check.check(op, code, out, err, read) is None
    return op, json.loads(out), read


def rejects(op, doc, read) -> bool:
    return check.check(op, op.exit_code, json.dumps(doc), "", read) is not None


def internal(doc) -> str:
    """A vertex other than the root with a positive label."""
    return next(v for v in sorted(doc["vertices"]) if doc["labels"][v] != "0" and v != doc["root"])


def relabel(doc, v, delta="1"):
    bad = copy.deepcopy(doc)
    bad["labels"][v] = str(Fraction(bad["labels"][v]) + Fraction(delta))
    return bad


def drop_edge(doc):
    bad = copy.deepcopy(doc)
    bad["edges"].pop()
    return bad


@pytest.mark.parametrize(
    "workload_name,op_name",
    [("ultra_matrix", "repr.csv.n20"), ("ultra_matrix", "repr.labeled_tree.n30"), ("ultra_matrix", "ballean_tree.n24")],
)
def test_hierarchy_checkers_reject_a_changed_label_and_a_dropped_edge(workload_name, op_name):
    op, doc, read = result(workload_name, op_name)
    assert rejects(op, relabel(doc, doc["root"]), read)
    assert rejects(op, relabel(doc, internal(doc), "1/7"), read)
    assert rejects(op, drop_edge(doc), read)


@pytest.mark.parametrize(
    "workload_name,op_name",
    [
        ("ultra_matrix", "isometry.fast.true.n20"),
        ("ultra_matrix", "isometry.fast.false.n20"),
        ("label_graphs", "isometry.search.true.metric.n9"),
        ("label_graphs", "isometry.search.false.ultra.n9"),
        ("label_graphs", "iso.vlabel.false.graph.n8"),
        ("big_trees", "iso.rweight.true.random.n500"),
        ("big_trees", "iso.free.false.caterpillar.n500"),
    ],
)
def test_verdict_checker_rejects_a_flipped_verdict(workload_name, op_name):
    op, doc, read = result(workload_name, op_name)
    key = op.expect["key"]
    assert rejects(op, {**doc, key: not doc[key]}, read)


def test_verdict_checker_rejects_a_false_pair_without_certificate():
    op, doc, read = result("label_graphs", "iso.free.false.graph.n8")
    same = gen.Op(op.name, op.argv, op.check, {**op.expect, "right": op.expect["left"]})
    assert rejects(same, doc, read)


def test_isometry_checker_rejects_a_bijection_that_moves_a_distance():
    op, doc, read = result("label_graphs", "isometry.search.true.metric.n9")
    bad = copy.deepcopy(doc)
    x, y = sorted(bad["bijection"])[:2]
    bad["bijection"][x], bad["bijection"][y] = bad["bijection"][y], bad["bijection"][x]
    assert rejects(op, bad, read)


def test_error_checker_rejects_another_code_and_a_traceback():
    op, doc, read = result("ultra_matrix", "repr.not_ultrametric.n40")
    assert rejects(op, {"error": {"code": "parse-error", "message": "x"}}, read)
    assert check.check(op, 1, json.dumps(doc), "Traceback ...\nRecursionError: x", read) is not None
    assert check.check(op, 2, json.dumps(doc), "", read) is not None


@pytest.mark.parametrize("op_name", ["dual.w2l.n500", "dual.l2w.n500"])
def test_dual_checker_rejects_a_changed_label_and_a_dropped_edge(op_name):
    op, doc, read = result("big_trees", op_name)
    assert rejects(op, relabel(doc, internal(doc)), read)
    assert rejects(op, drop_edge(doc), read)


def test_reduce_checker_rejects_a_changed_weight_a_dropped_edge_and_a_wrong_removed_set():
    op, doc, read = result("big_trees", "reduce.n300")
    bad = copy.deepcopy(doc)
    key = sorted(bad["tree"]["weights"])[0]
    bad["tree"]["weights"][key] = str(Fraction(bad["tree"]["weights"][key]) + 1)
    assert rejects(op, bad, read)
    assert rejects(op, {**doc, "tree": drop_edge(doc["tree"])}, read)
    assert rejects(op, {**doc, "removed": doc["removed"][1:]}, read)


def test_analyze_checker_rejects_flipped_and_changed_fields():
    op, doc, read = result("big_trees", "analyze.n200")
    assert rejects(op, {**doc, "planted": not doc["planted"]}, read)
    assert rejects(op, {**doc, "K": "1/3"}, read)
    assert rejects(op, {**doc, "centers": doc["centers"] + ["v9999"]}, read)


def test_spanning_checker_rejects_a_changed_label_and_a_dropped_edge():
    op, doc, read = result("label_graphs", "spanning.n200")
    assert rejects(op, relabel(doc, doc["vertices"][0]), read)
    assert rejects(op, drop_edge(doc), read)


def test_counterexample_checker_rejects_equal_weightings_and_a_dropped_edge():
    op, doc, read = result("label_graphs", "counterexample.random.n150")
    assert rejects(op, {**doc, "w2": doc["w1"]}, read)
    assert rejects(op, {**doc, "graph": drop_edge(doc["graph"])}, read)


def test_self_time_subtracts_children():
    tr = spans.Tracer(crash=lambda exc: True)
    with tr.span("cli.repr"):
        with tr.span("io.read"):
            sum(range(10000))
        sum(range(10000))
    outer, inner = tr.spans
    self_t = tr.self_times()
    assert self_t[1] == (inner["end_ns"] - inner["start_ns"]) / 1e9
    assert abs(self_t[0] + self_t[1] - (outer["end_ns"] - outer["start_ns"]) / 1e9) < 1e-9
    assert inner["parent"] == outer["id"] and self_t[0] >= 0


def test_replay_spans_follow_the_cli_and_are_removed_after_the_op():
    rp = replayer()
    cli = rp.ut.cli
    before = {name: getattr(cli, name) for name in spans.CLI_CALLS + ("tio", "_read")}
    first = len(rp.tracer.spans)
    result("ultra_matrix", "repr.csv.n20")
    new = rp.tracer.spans[first:]
    op = next(s for s in new if s["parent"] is None)
    assert op["name"] == "cli.repr"
    inside = [s["name"] for s in new if s["parent"] is not None]
    assert inside[:3] == ["io.read", "io.load_matrix_text", "representing.representing_tree"]
    assert inside[-2:] == ["io.labeled_tree_to_json", "io.dump_json"]
    assert {s["op"] for s in new} == {op["op"]}
    assert {name: getattr(cli, name) for name in before} == before
    assert rp.ut.io.GraphDoc.tree.__qualname__ == "GraphDoc.tree"


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == gen.WHY
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.REPORTED
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
