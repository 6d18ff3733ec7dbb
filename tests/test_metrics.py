import random
from fractions import Fraction as F

import pytest

from ultratree import (
    Graph,
    MetricClass,
    additive_metric,
    classify_metric,
    hausdorff_distance,
    label_tree_metric,
    minimax_label_metric,
    representing_tree,
    restrict,
    shortest_path_metric,
    tree_from_edges,
)
from ultratree.errors import (
    BadMatrixError,
    DisconnectedGraphError,
    EmptySetError,
    NonPositiveWeightError,
)
from ultratree.generators import (
    random_connected_graph,
    random_equidistant_tree,
    random_labels,
    random_tree,
    random_ultrametric_space,
    random_weights,
)
from ultratree.graphs import edge_key, find_path
from ultratree.metrics import FiniteMetricSpace, space_from
from ultratree.oracles import min_path_sum_by_enumeration, minimax_label_by_enumeration

from helpers import fig6_graph, fig10_tree, fig13_tree


def test_additive_metric_fig13():
    t, w = fig13_tree()
    s = additive_metric(t, w)
    assert s.distance("x1", "x2") == 4
    assert s.distance("x1", "x3") == 6
    assert s.distance("x3", "x4") == 2
    assert s.distance("x2", "x4") == 6


def test_additive_metric_single_edge():
    t = tree_from_edges([("a", "b")])
    s = additive_metric(t, {("a", "b"): F(5)})
    assert s.distance("a", "b") == 5


def test_additive_metric_fig10_leaf_distance():
    rt, w = fig10_tree()
    s = additive_metric(rt.tree, w)
    assert s.distance("r", "c") == 7 and s.distance("r", "d") == 7


def test_additive_metric_rejects_zero_weight():
    t = tree_from_edges([("a", "b")])
    with pytest.raises(NonPositiveWeightError):
        additive_metric(t, {("a", "b"): F(0)})
    with pytest.raises(NonPositiveWeightError):
        additive_metric(t, {})


def test_shortest_path_equals_additive_on_trees():
    rng = random.Random(5)
    for _ in range(20):
        t = random_tree(rng, rng.randint(1, 8))
        w = random_weights(rng, t.underlying)
        assert shortest_path_metric(t.underlying, w) == additive_metric(t, w)


def test_shortest_path_triangle_shortcut():
    g = Graph("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    w = {("a", "b"): F(1), ("b", "c"): F(1), ("a", "c"): F(5)}
    assert shortest_path_metric(g, w).distance("a", "c") == 2


def test_shortest_path_matches_enumeration_fig6_unit_weights():
    g, _ = fig6_graph()
    w = {e: F(1) for e in g.edges}
    s = shortest_path_metric(g, w)
    for i, u in enumerate(g.vertices):
        for v in g.vertices[i + 1 :]:
            assert s.distance(u, v) == min_path_sum_by_enumeration(g, w, u, v)


def test_shortest_path_rejects_disconnected():
    g = Graph("abcd", [("a", "b"), ("c", "d")])
    with pytest.raises(DisconnectedGraphError):
        shortest_path_metric(g, {("a", "b"): F(1), ("c", "d"): F(1)})
    with pytest.raises(DisconnectedGraphError):
        minimax_label_metric(g, {v: F(1) for v in g.vertices})


def test_label_tree_metric_on_increasing_path():
    # path v1-...-v5 labeled 0,1,2,3,4: distance of i<j is the label of v_j
    names = [f"v{i}" for i in range(1, 6)]
    t = tree_from_edges(zip(names, names[1:]))
    labels = {v: F(i) for i, v in enumerate(names)}
    s, cls = label_tree_metric(t, labels)
    assert cls is MetricClass.ULTRAMETRIC
    for i in range(5):
        for j in range(i + 1, 5):
            assert s.distance(names[i], names[j]) == j


def test_label_tree_metric_pseudo_when_edge_has_two_zeros():
    t = tree_from_edges([("a", "b")])
    s, cls = label_tree_metric(t, {"a": F(0), "b": F(0)})
    assert cls is MetricClass.PSEUDO_ULTRAMETRIC
    assert s.distance("a", "b") == 0


def test_label_tree_metric_single_vertex():
    t = tree_from_edges([], vertices=["a"])
    s, cls = label_tree_metric(t, {"a": F(0)})
    assert cls is MetricClass.ULTRAMETRIC
    assert s.points == ("a",) and s.diameter() == 0


def test_label_tree_metric_strong_triangle_on_random_trees():
    rng = random.Random(17)
    for _ in range(15):
        t = random_tree(rng, rng.randint(1, 8))
        s, _ = label_tree_metric(t, random_labels(rng, t.underlying))
        pts = s.points
        for x in pts:
            for y in pts:
                for z in pts:
                    assert s.distance(x, y) <= max(s.distance(x, z), s.distance(z, y))


def test_minimax_fig6_values():
    g, labels = fig6_graph()
    s, cls = minimax_label_metric(g, labels)
    assert cls is MetricClass.ULTRAMETRIC
    assert s.distance("E", "F") == 1
    for x in "DEF":
        assert s.distance("C", x) == 2
    for a in "AB":
        for x in "BCDEF":
            if a != x:
                assert s.distance(a, x) == 3


def test_minimax_equals_label_tree_on_trees():
    rng = random.Random(23)
    for _ in range(15):
        t = random_tree(rng, rng.randint(1, 8))
        labels = random_labels(rng, t.underlying)
        assert minimax_label_metric(t.underlying, labels)[0] == label_tree_metric(t, labels)[0]


def test_minimax_matches_enumeration_on_random_graphs():
    rng = random.Random(29)
    for _ in range(20):
        g = random_connected_graph(rng, rng.randint(2, 7), extra_edges=rng.randint(0, 4))
        labels = random_labels(rng, g)
        s, _ = minimax_label_metric(g, labels)
        for i, u in enumerate(g.vertices):
            for v in g.vertices[i + 1 :]:
                assert s.distance(u, v) == minimax_label_by_enumeration(g, labels, u, v)


def test_classify_metric_cases():
    t, w = fig13_tree()
    leaf = restrict(additive_metric(t, w), ["x1", "x2", "x3", "x4"])
    assert leaf.classify() is MetricClass.ULTRAMETRIC

    rt, w10 = fig10_tree()
    full = additive_metric(rt.tree, w10)
    assert restrict(full, ["r", "c", "d"]).classify() is MetricClass.METRIC_ONLY

    zeros = [[F(0)] * 3 for _ in range(3)]
    assert classify_metric(zeros) is MetricClass.PSEUDO_ULTRAMETRIC

    with pytest.raises(BadMatrixError):
        classify_metric([[F(0), F(1)], [F(2), F(0)]])
    with pytest.raises(BadMatrixError):
        classify_metric([[F(1)]])

    assert classify_metric([[F(0), F(-1)], [F(-1), F(0)]]) is MetricClass.NOT_SEMIMETRIC
    # triangle violated: d(a,c) = 5 > 1 + 1
    bad = [[F(0), F(1), F(5)], [F(1), F(0), F(1)], [F(5), F(1), F(0)]]
    assert classify_metric(bad) is MetricClass.NOT_SEMIMETRIC


def test_hausdorff_basics():
    t, w = fig13_tree()
    s = additive_metric(t, w)
    assert hausdorff_distance(s, ["x1"], ["x3"]) == s.distance("x1", "x3")
    assert hausdorff_distance(s, ["x1", "x2"], ["x1", "x2"]) == 0
    with pytest.raises(EmptySetError):
        hausdorff_distance(s, [], ["x1"])


def test_hausdorff_between_balls_equals_tree_path_max():
    rng = random.Random(31)
    for _ in range(15):
        space = random_ultrametric_space(rng, rng.randint(1, 6))
        tree = representing_tree(space)
        from ultratree import find_path

        vs = tree.rt.vertices
        for i, b1 in enumerate(vs):
            for b2 in vs[i + 1 :]:
                want = max(tree.labels[v] for v in find_path(tree.rt.tree, b1, b2))
                got = hausdorff_distance(space, tree.payload(b1), tree.payload(b2))
                assert got == want


def test_restrict_cases():
    t, w = fig13_tree()
    s = additive_metric(t, w)
    assert restrict(s, ["x1"]).diameter() == 0
    assert restrict(s, s.points) == s
    with pytest.raises(EmptySetError):
        restrict(s, [])


def test_equidistant_v0_restriction_is_ultrametric():
    rng = random.Random(37)
    for _ in range(25):
        et = random_equidistant_tree(rng, 1, 10)
        sub = restrict(et.metric(), et.v0())
        assert sub.classify() is MetricClass.ULTRAMETRIC


def test_space_normalizes_point_order():
    s = FiniteMetricSpace(["b", "a"], [[F(0), F(2)], [F(2), F(0)]])
    assert s.points == ("a", "b")
    assert s.distance("a", "b") == 2


def _caterpillar(n):
    # spine s000-s001-..., one leaf hanging off every spine vertex
    spine = [f"s{i:03d}" for i in range(n // 2)]
    edges = list(zip(spine, spine[1:])) + [(s, f"l{i:03d}") for i, s in enumerate(spine)]
    return tree_from_edges(edges)


@pytest.mark.parametrize("shape", ["random", "caterpillar"])
def test_tree_metrics_match_path_folds_at_n300(shape):
    # references fold the weights/labels along find_path, not the metric kernel
    rng = random.Random(300)
    t = random_tree(rng, 300) if shape == "random" else _caterpillar(300)
    w = random_weights(rng, t.underlying)
    labels = random_labels(rng, t.underlying)
    add = additive_metric(t, w)
    lab, _ = label_tree_metric(t, labels)
    assert len(t.vertices) == 300 and add.points == lab.points == t.vertices
    for _ in range(300):
        x, y = rng.choice(t.vertices), rng.choice(t.vertices)
        path = find_path(t, x, y)
        assert add.distance(x, y) == sum((w[edge_key(a, b)] for a, b in zip(path, path[1:])), F(0))
        assert lab.distance(x, y) == (max(labels[v] for v in path) if x != y else 0)
    # the kernel's unchecked output passes the validating constructor unchanged
    assert FiniteMetricSpace(add.points, add.rows) == add
    assert FiniteMetricSpace(lab.points, lab.rows) == lab


def test_restrict_and_rename_equal_validated_construction():
    rng = random.Random(41)
    for _ in range(20):
        s = random_ultrametric_space(rng, rng.randint(1, 25))
        subset = rng.sample(s.points, rng.randint(1, len(s.points)))
        keep = sorted(subset)
        sub = restrict(s, subset)
        want = FiniteMetricSpace(keep, [[s.distance(x, y) for y in keep] for x in keep])
        assert sub == want
        assert all(sub.distance(x, y) == want.distance(x, y) for x in keep for y in keep)
        names = [f"q{i:02d}" for i in range(len(s.points))]
        rng.shuffle(names)
        mapping = dict(zip(s.points, names))
        renamed = s.rename(mapping)
        assert renamed == FiniteMetricSpace([mapping[p] for p in s.points], s.rows)
        assert all(renamed.distance(mapping[x], mapping[y]) == s.distance(x, y) for x in s.points for y in s.points)
    with pytest.raises(ValueError, match="not injective"):
        FiniteMetricSpace(["a", "b"], [[F(0), F(1)], [F(1), F(0)]]).rename({"a": "c", "b": "c"})


def test_derived_spaces_skip_the_matrix_check(monkeypatch):
    s = random_ultrametric_space(3, 12)
    t, w = fig13_tree()

    def refuse(*args):
        raise AssertionError("matrix re-checked")

    monkeypatch.setattr("ultratree.metrics._check_matrix", refuse)
    assert s.classify() is MetricClass.ULTRAMETRIC
    restrict(s, s.points[:5])
    s.rename({p: p + "'" for p in s.points})
    additive_metric(t, w)
    minimax_label_metric(*fig6_graph())


def test_outside_matrices_are_still_checked():
    asym = [[F(0), F(1)], [F(2), F(0)]]
    diag = [[F(1), F(1)], [F(1), F(0)]]
    neg = [[F(0), F(-1)], [F(-1), F(0)]]
    with pytest.raises(BadMatrixError, match=r"^asymmetric at \('a', 'b'\)$"):
        FiniteMetricSpace("ab", asym)
    with pytest.raises(BadMatrixError, match=r"^nonzero diagonal at 'a'$"):
        FiniteMetricSpace("ab", diag)
    with pytest.raises(ValueError, match=r"^negative distance at \('a', 'b'\)$"):
        FiniteMetricSpace("ab", neg)
    with pytest.raises(BadMatrixError, match=r"^asymmetric at \(0, 1\)$"):
        classify_metric(asym)
    with pytest.raises(BadMatrixError, match=r"^nonzero diagonal at row 0$"):
        classify_metric(diag)
    assert classify_metric(neg) is MetricClass.NOT_SEMIMETRIC
    with pytest.raises(BadMatrixError, match="asymmetric"):
        space_from("ab", lambda x, y: F(1) if x < y else F(2))
    with pytest.raises(ValueError, match="negative distance"):
        space_from("ab", lambda x, y: F(-1))


def test_exact_entries_are_kept_and_others_converted():
    half = F(1, 2)
    space = FiniteMetricSpace("ab", [[F(0), half], [half, F(0)]])
    assert space.rows[0][1] is half
    mixed = FiniteMetricSpace("ab", [[0, "1/2"], [0.5, 0]])
    assert mixed.rows == ((F(0), half), (half, F(0)))
    assert all(type(x) is F for row in mixed.rows for x in row)
