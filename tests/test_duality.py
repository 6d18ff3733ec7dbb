import hashlib
import json
import random
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from ultratree import (
    EquidistantTree,
    IsoFlavor,
    MonotoneTree,
    RootedTree,
    analyze,
    are_isomorphic,
    check_equidistant,
    check_monotone,
    degree_sets,
    generate_monotone,
    labeling_to_weight,
    reduce_nabla,
    weight_to_labeling,
)
from ultratree.analysis import centers, planted_leaf_ultrametric_check
from ultratree.errors import NotEquidistantError, NotMonotoneError, NonPositiveWeightError

from helpers import (
    fig10_tree,
    fig11_trees,
    fig13_tree,
    find_path,
    mixed_equidistant_weights,
    rename_labels,
    rename_tree,
    random_equidistant_tree,
    tree_from_edges,
)


def test_check_equidistant_fig10():
    rt, w = fig10_tree()
    assert check_equidistant(rt, w) == 7


def test_check_equidistant_fig11():
    rt, w, _ = fig11_trees()
    assert check_equidistant(rt, w) == 5


def test_check_equidistant_fig13_no_root_works():
    t, w = fig13_tree()
    for r in t.vertices:
        assert check_equidistant(RootedTree(t, r), w) is None


def test_check_equidistant_rejects_zero_weight():
    rt = RootedTree(tree_from_edges([("a", "b")]), "a")
    with pytest.raises(NonPositiveWeightError):
        check_equidistant(rt, {("a", "b"): F(0)})


def test_check_monotone_fig11():
    rt, _, labels = fig11_trees()
    assert check_monotone(rt, labels)


def test_check_monotone_small_cases():
    single = RootedTree(tree_from_edges([], vertices=["r"]), "r")
    assert check_monotone(single, {"r": F(0)})
    assert not check_monotone(single, {"r": F(1)})
    edge = RootedTree(tree_from_edges([("r", "c")]), "r")
    assert not check_monotone(edge, {"r": F(0), "c": F(0)})
    assert check_monotone(edge, {"r": F(3), "c": F(0)})
    # labels fall strictly along every parent-child edge, so a tie or a rise is refused
    chain = RootedTree(tree_from_edges([("r", "a"), ("a", "c")]), "r")
    assert check_monotone(chain, {"r": F(3), "a": F(2), "c": F(0)})
    assert not check_monotone(chain, {"r": F(2), "a": F(2), "c": F(0)})
    assert not check_monotone(chain, {"r": F(1), "a": F(2), "c": F(0)})


def test_labeling_to_weight_fig11():
    rt, w, labels = fig11_trees()
    et = labeling_to_weight(MonotoneTree(rt, labels))
    from ultratree import edge_key

    assert et.weights == {edge_key(*e): F(v) for e, v in w.items()}
    assert et.K == 5


def test_labeling_to_weight_tiny():
    rt = RootedTree(tree_from_edges([("r", "a"), ("r", "b")]), "r")
    et = labeling_to_weight(MonotoneTree(rt, {"r": F(2), "a": F(0), "b": F(0)}))
    assert et.weights == {("a", "r"): F(1), ("b", "r"): F(1)}
    assert et.K == 1


def test_weight_to_labeling_fig11():
    rt, w, labels = fig11_trees()
    mt = weight_to_labeling(EquidistantTree(rt, w))
    assert mt.labels == labels


def test_weight_to_labeling_single_edge():
    rt = RootedTree(tree_from_edges([("r", "c")]), "r")
    mt = weight_to_labeling(EquidistantTree(rt, {("r", "c"): F(3)}))
    assert mt.labels == {"r": F(6), "c": F(0)}


def test_round_trips_exact():
    rng = random.Random(107)
    for _ in range(40):
        mt = generate_monotone(rng, 1, 10)
        et = labeling_to_weight(mt)
        assert weight_to_labeling(et).labels == mt.labels
        assert labeling_to_weight(weight_to_labeling(et)).weights == et.weights
        assert et.K * 2 == mt.labels[mt.rt.root]


def test_equidistant_constructor_rejects_unbalanced():
    rt = RootedTree(tree_from_edges([("r", "a"), ("r", "b")]), "r")
    with pytest.raises(NotEquidistantError):
        EquidistantTree(rt, {("r", "a"): F(1), ("r", "b"): F(2)})


def test_monotone_constructor_rejects_bad_labels():
    rt = RootedTree(tree_from_edges([("r", "c")]), "r")
    with pytest.raises(NotMonotoneError):
        MonotoneTree(rt, {"r": F(1), "c": F(2)})


def test_functoriality_of_duality():
    rng = random.Random(109)
    for _ in range(30):
        m1 = generate_monotone(rng, 1, 7)
        if rng.random() < 0.5:
            names = list(m1.rt.vertices)
            fresh = [f"z{i:02d}" for i in range(len(names))]
            rng.shuffle(fresh)
            mp = dict(zip(names, fresh))
            m2 = MonotoneTree(
                RootedTree(rename_tree(m1.rt.tree, mp), mp[m1.rt.root]),
                rename_labels(m1.labels, mp),
            )
        else:
            m2 = generate_monotone(rng, 1, 7)
        e1, e2 = labeling_to_weight(m1), labeling_to_weight(m2)
        label_iso = are_isomorphic(
            m1.rt.tree, m2.rt.tree, IsoFlavor.ROOTED_LABELED,
            labels1=m1.labels, labels2=m2.labels, root1=m1.rt.root, root2=m2.rt.root,
        )
        weight_iso = are_isomorphic(
            e1.rt.tree, e2.rt.tree, IsoFlavor.ROOTED_WEIGHTED,
            weights1=e1.weights, weights2=e2.weights, root1=e1.rt.root, root2=e2.rt.root,
        )
        assert label_iso == weight_iso


def test_max_label_path_identity():
    rng = random.Random(113)
    for _ in range(30):
        et = random_equidistant_tree(rng, 1, 10)
        mt = weight_to_labeling(et)
        space = et.metric()
        leaves = sorted(et.v0())
        for i, u in enumerate(leaves):
            for v in leaves[i + 1 :]:
                path = find_path(et.rt.tree, u, v)
                assert space.distance(u, v) == max(mt.labels[x] for x in path)


def test_K_and_half_label_geometry():
    rng = random.Random(127)
    for _ in range(20):
        et = random_equidistant_tree(rng, 1, 10)
        mt = weight_to_labeling(et)
        space = et.metric()
        for v0 in et.v0():
            assert space.distance(et.rt.root, v0) == et.K
        v0_all = degree_sets(et.rt)[0]
        for v in et.rt.vertices:
            below = {u for u in v0_all if v in find_path(et.rt.tree, u, et.rt.root)}
            want = min(space.distance(v, u) for u in below)
            assert mt.labels[v] == 2 * want


def test_generate_monotone_contract():
    assert len(generate_monotone(1, 1, 1).rt.vertices) == 1
    a = generate_monotone(42, 1, 10)
    b = generate_monotone(42, 1, 10)
    assert a == b
    rng = random.Random(131)
    for _ in range(30):
        mt = generate_monotone(rng, 1, 12, branching_only=True)
        assert all(mt.rt.out_degree(v) != 1 for v in mt.rt.vertices)
        assert check_monotone(mt.rt, mt.labels)


def test_generate_monotone_draws_are_pinned():
    # selftest's output is the same for every seed, so it cannot show a change in the
    # order of generate_monotone's draws; this digest of its trees over many seeds and
    # sizes can.  Each tree is drawn on a fresh rng whose next draw is hashed too, so a
    # change in how many values a tree takes shows as well.
    digest = hashlib.sha256()
    for seed in range(300):
        for size in (1, 3, 4, 5, 7, 9, 10, 15, 30):
            for branching_only in (False, True):
                rng = random.Random(seed)
                mt = generate_monotone(rng, size, size, branching_only)
                drawn = (mt.rt.root, sorted(mt.rt.tree.edges), sorted(mt.labels.items()), rng.random())
                digest.update(repr(drawn).encode())
    assert digest.hexdigest() == "5a70785e2b57ae2c37c6cf4a9dec00c01a3d7f4e92589dd370117dfcf45ec887"


def test_v0_is_the_out_degree_zero_class_found_once():
    from helpers import random_tree

    rng = random.Random(733)
    for n in (1, 2, 3, 10, 200, 5000):
        t = random_tree(rng, n)
        for root in sorted({t.vertices[0], rng.choice(t.vertices)}):
            rt = RootedTree(t, root)
            height: dict = {}  # 0 on the out-degree-zero vertices, growing toward the root: monotone
            for v in reversed(rt.bfs_order()):
                height[v] = max((height[c] + 1 for c in rt.children(v)), default=0)
            mt = MonotoneTree(rt, height)
            et = labeling_to_weight(mt)
            childless = {v for v in t.vertices if not rt.children(v)}
            assert mt.v0() == et.v0() == degree_sets(rt)[0] == childless, (n, root)
            assert mt.v0() is mt.v0() and et.v0() is et.v0()


def test_root_distances_helper():
    rt, w, _ = fig11_trees()
    dist = EquidistantTree(rt, w).root_distances()
    assert dist["r"] == 0 and dist["a"] == 1 and dist["t"] == 5


def test_integer_root_distances_equal_fraction_sums():
    from helpers import random_tree

    rng = random.Random(907)
    for n in (150, 300, 600):
        rt = RootedTree(random_tree(rng, n), "v00")
        w, plain, K = mixed_equidistant_weights(rng, rt)
        et = EquidistantTree(rt, w)
        assert et.K == K and len({x.denominator for x in w.values()}) > 5
        assert et.root_distances() == plain
        mt = weight_to_labeling(et)
        assert mt.labels == {v: 2 * (K - plain[v]) for v in rt.vertices}
        assert labeling_to_weight(mt) == et


def test_planted_20k_leaf_star_through_duality_reduction_and_centers():
    # root r above a center c with 20,000 leaves: a walk that built the children
    # of c once per child would be quadratic here.
    leaves = [f"l{i:05d}" for i in range(20000)]
    rt = RootedTree(tree_from_edges([("r", "c"), *(("c", x) for x in leaves)]), "r")
    a, b = F(3, 2), F(1, 3)  # weights on r-c and on each leaf edge
    w = {e: a if e == ("c", "r") else b for e in rt.tree.edges}
    et = EquidistantTree(rt, w)
    assert et.K == a + b
    mt = weight_to_labeling(et)
    assert mt.labels == {"r": 2 * (a + b), "c": 2 * b, **dict.fromkeys(leaves, F(0))}
    assert labeling_to_weight(mt) == et
    nabla = reduce_nabla(et)
    assert (nabla.new_root, nabla.removed, nabla.reduced.K) == ("c", frozenset({"r"}), b)
    assert nabla.reduced.rt.children("c") == tuple(leaves)
    # rooted at r every leaf lies at a + b; at c or at a leaf, r and the leaves differ
    assert centers(rt.tree, w) == frozenset({"r"})


_FIG10_LABELS = {"r": F(14), "a": F(12), "b": F(8), "c": F(0), "d": F(0)}
_BAD_WEIGHTS = [
    ({("r", "a"): F(1), ("a", "b"): F(2), ("b", "c"): F(4)},
     NonPositiveWeightError, "missing weight for edge ('b', 'd')"),
    ({("r", "a"): F(1), ("a", "b"): F(2), ("b", "c"): F(0), ("b", "d"): F(4)},
     NonPositiveWeightError, "weight 0 on edge ('b', 'c')"),
    ({("r", "a"): F(1), ("a", "b"): F(-2), ("b", "c"): F(4), ("b", "d"): F(4)},
     NonPositiveWeightError, "weight -2 on edge ('a', 'b')"),
]
_BAD_LABELS = [
    ({v: x for v, x in _FIG10_LABELS.items() if v != "d"}, ValueError, "missing label for vertex 'd'"),
    (dict(_FIG10_LABELS, c=F(-1)), ValueError, "negative label -1 on vertex 'c'"),
]


@pytest.mark.parametrize("w, error, text", _BAD_WEIGHTS)
def test_bad_weights_raise_one_error_everywhere(w, error, text):
    rt, _ = fig10_tree()
    for call in (lambda: EquidistantTree(rt, w), lambda: check_equidistant(rt, w),
                 lambda: analyze(rt.tree, w, root="r")):
        with pytest.raises(error) as caught:
            call()
        assert type(caught.value) is error and str(caught.value) == text


@pytest.mark.parametrize("l, error, text", _BAD_LABELS)
def test_bad_labels_raise_one_error_everywhere(l, error, text):
    rt, _ = fig10_tree()
    for call in (lambda: MonotoneTree(rt, l), lambda: check_monotone(rt, l)):
        with pytest.raises(error) as caught:
            call()
        assert type(caught.value) is error and str(caught.value) == text


def test_unpaired_maps_are_refused_or_reported():
    rt, w = fig10_tree()
    unbalanced = w | {("b", "d"): F(3)}
    with pytest.raises(NotEquidistantError, match="^root-to-leaf weight sums differ$"):
        EquidistantTree(rt, unbalanced)
    assert check_equidistant(rt, unbalanced) is None
    report = analyze(rt.tree, unbalanced, root="r")
    assert (report.planted, report.K, report.branching_lhs, report.branching_rhs) == (True, None, None, None)
    for labels in (dict(_FIG10_LABELS, b=F(0)), dict(_FIG10_LABELS, a=F(20))):
        with pytest.raises(NotMonotoneError, match="^labeling is not monotone for this root$"):
            MonotoneTree(rt, labels)
        assert check_monotone(rt, labels) is False


def test_each_payload_is_normalized_once_per_object(tmp_path, monkeypatch, capsys):
    # Count the two normalizers and the integer form under every module name they are bound to.
    from ultratree import cli, payloads

    counts = dict.fromkeys(("normalize_weights", "normalize_labels", "integer_form"), 0)
    for name in counts:
        original = getattr(payloads, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for key, module in list(sys.modules.items()):
            if key.split(".")[0] == "ultratree" and vars(module).get(name) is original:
                monkeypatch.setattr(module, name, counted)

    corpus = Path(cli.__file__).parent / "corpus" / "fig10.json"
    weighted = tmp_path / "fig10.json"
    weighted.write_text(json.dumps(json.loads(corpus.read_text())["input"]))

    def normalizations(*argv):
        counts.update(dict.fromkeys(counts, 0))
        assert cli.main(list(argv)) == 0
        return capsys.readouterr().out, tuple(counts.values())

    # the labels paired with weights are made from their integers
    out, seen = normalizations("dual", "--direction", "w2l", str(weighted))
    assert seen == (1, 0, 1)
    labeled = tmp_path / "labeled.json"
    labeled.write_text(out)
    # the weights paired with a labeling are made from its integers
    assert normalizations("dual", "--direction", "l2w", str(labeled))[1] == (0, 1, 1)
    # the reduced tree is built on the integers of the given one
    assert normalizations("reduce", str(weighted))[1] == (1, 0, 1)
    # one integer form for centers and the EquidistantTree at the root, a center of fig10
    assert normalizations("analyze", str(weighted))[1] == (1, 0, 1)
    # a cyclic graph's map is checked before the sizes decide, and the search's
    # relation matrix is built from that one normalized map
    fig6 = json.loads((corpus.parent / "fig6.json").read_text())["input"]
    cyclic_labeled, cyclic_weighted = tmp_path / "fig6.json", tmp_path / "fig6w.json"
    cyclic_labeled.write_text(json.dumps(fig6))
    weights = {f"{u}|{v}": "2" for u, v in fig6["edges"]}
    cyclic_weighted.write_text(json.dumps({**fig6, "labels": None, "weights": weights}))
    for flavor, doc, seen in (("vlabel", cyclic_labeled, (0, 2, 0)), ("eweight", cyclic_weighted, (2, 0, 0))):
        assert normalizations("iso", "--flavor", flavor, str(doc), str(doc)) == ('{\n  "isomorphic": true\n}\n', seen)


def test_planted_check_builds_no_metric(monkeypatch):
    from ultratree import path_metrics

    def refuse(*args, **kwargs):
        raise AssertionError("the planted check built a metric")

    monkeypatch.setattr(path_metrics, "shortest_path_metric", refuse)
    rt, w = fig10_tree()
    assert planted_leaf_ultrametric_check(EquidistantTree(rt, w)) == (False, 6, 7)
