import hashlib
import random
import sys
import traceback
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
)
from ultratree.errors import (
    BadMatrixError,
    DisconnectedGraphError,
    EmptySetError,
    NonPositiveWeightError,
    VertexNotFoundError,
)
from ultratree.payloads import edge_key
from ultratree.metrics import FiniteMetricSpace
from ultratree.path_metrics import space_from

from helpers import (
    check_matrix_by_fractions,
    fig6_graph,
    fig10_tree,
    fig13_tree,
    find_path,
    min_path_sum_by_enumeration,
    minimax_label_by_enumeration,
    random_connected_graph,
    random_equidistant_tree,
    random_labels,
    random_tree,
    random_ultrametric_space,
    random_weights,
    strong_triangle_by_enumeration,
    tree_from_edges,
)


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


def _tree_pairs(rng, sizes):
    """(tree, pairs) per size: every pair up to 8 vertices, else 300 random ones."""
    for n in sizes:
        t = random_tree(rng, n)
        vs = t.vertices
        if n <= 8:
            yield t, [(u, v) for u in vs for v in vs]
        else:
            yield t, [(rng.choice(vs), rng.choice(vs)) for _ in range(300)]


def test_shortest_path_equals_additive_on_trees():
    # Both are the weight sum along the unique path, read off find_path.
    rng = random.Random(5)
    for t, pairs in _tree_pairs(rng, [rng.randint(1, 8) for _ in range(20)] + [200, 400]):
        w = random_weights(rng, t)
        s = additive_metric(t, w)
        assert shortest_path_metric(t, w) == s
        for u, v in pairs:
            p = find_path(t, u, v)
            assert s.distance(u, v) == sum((w[edge_key(a, b)] for a, b in zip(p, p[1:])), F(0))


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
        s, _ = label_tree_metric(t, random_labels(rng, t))
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
    # Both are the largest label on the unique path, endpoints included.
    rng = random.Random(23)
    for t, pairs in _tree_pairs(rng, [rng.randint(1, 8) for _ in range(15)] + [200, 400]):
        labels = random_labels(rng, t)
        s, _ = label_tree_metric(t, labels)
        assert minimax_label_metric(t, labels)[0] == s
        for u, v in pairs:
            assert s.distance(u, v) == (max(labels[x] for x in find_path(t, u, v)) if u != v else 0)


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
        vs = tree.rt.vertices
        for i, b1 in enumerate(vs):
            for b2 in vs[i + 1 :]:
                want = max(tree.labels[v] for v in find_path(tree.rt.tree, b1, b2))
                got = hausdorff_distance(space, tree.payload(b1), tree.payload(b2))
                assert got == want


def test_unknown_or_unhashable_point_is_not_found():
    t, w = fig13_tree()
    s = additive_metric(t, w)
    for bad in ("z", ["a"], {"a": 1}):
        for lookup in (s.index, lambda x: s.distance(x, "x1"), lambda x: s.distance("x1", x)):
            with pytest.raises(VertexNotFoundError) as exc:
                lookup(bad)
            assert str(exc.value) == f"unknown point {bad!r}"


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
    w = random_weights(rng, t)
    labels = random_labels(rng, t)
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


def test_random_ultrametric_spaces_keep_their_bytes():
    # pinned before the partition recursion became a loop over a stack
    h = hashlib.sha256()
    for seed in range(200):
        for size in range(1, 13):
            s = random_ultrametric_space(seed, size)
            h.update(repr((s.points, [[str(x) for x in row] for row in s.rows])).encode())
    assert h.hexdigest() == "324e219fe8f44ee13afa3e027ccb578ab9096f530464ee992a46ad7288bfb463"


def test_random_ultrametric_space_needs_no_recursion():
    class Least(random.Random):
        # every draw is its least value, so each block splits into one point
        # and the rest, 299 levels deep
        def getrandbits(self, k):
            return 0

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(traceback.extract_stack()) + 50)
    try:
        space = random_ultrametric_space(Least(), 300)
    finally:
        sys.setrecursionlimit(limit)
    # level d has diameter 4^-d, and the first point stays in the larger part
    # for 263 levels, far deeper than the lowered limit allows a recursion
    assert len(space.points) == 300
    assert sorted(set(space.rows[0])) == [F(0)] + [F(1, 4**d) for d in reversed(range(263))]


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


def _outcome(call):
    # what a check does: None when it passes, else the error's type and text
    try:
        call()
    except (BadMatrixError, ValueError) as exc:
        return type(exc), str(exc)
    return None


def _planted_matrices(rng):
    # Seeded square matrices up to n = 60, each with defects planted where
    # the order of the checks decides which one is reported.
    yield [[F(0)]]
    yield [[F(1)]]
    yield [[F(-1)]]
    for _ in range(240):
        n = rng.randint(1, 60)
        kind = rng.randrange(6)
        if kind == 0:  # no 0 anywhere
            rows = [[F(rng.randint(1, 3))] * n for _ in range(n)]
        elif kind == 1:  # all zeros, one object per row or one per entry
            rows = [[F(0)] * n if k % 2 else [F(0) for _ in range(n)] for k in range(n)]
        else:
            rows = [list(r) for r in random_ultrametric_space(rng, n).rows]
        if kind == 2:  # distinct but equal objects, and equal values of other text
            rows = [[F(2 * x.numerator, 2 * x.denominator) if rng.random() < 0.5 else F(str(x)) for x in r]
                    for r in rows]
        cells = [(i, j) for i in range(n) for j in range(i + 1, n)]
        if kind in (3, 4) and len(cells) >= 2:  # a negative pair before or after an asymmetric one
            neg, asym = sorted(rng.sample(cells, 2), reverse=kind == 4)
            rows[neg[0]][neg[1]] = rows[neg[1]][neg[0]] = F(-rng.randint(1, 5), rng.randint(1, 3))
            i, j = asym if rng.random() < 0.5 else asym[::-1]
            rows[i][j] += F(1, rng.randint(1, 7))
        if kind == 5 and cells:  # a negative pair, perhaps asymmetric, perhaps with a bad diagonal
            i, j = rng.choice(cells)
            rows[i][j], rows[j][i] = F(-1), F(-2) if rng.random() < 0.5 else F(-1)
            if rng.random() < 0.5:
                d = rng.randrange(n)
                rows[d][d] = F(rng.choice((1, -1)), 3)
        yield rows


def test_rank_check_reports_what_the_fraction_check_reports():
    rng = random.Random(2026)
    seen = set()
    for rows in _planted_matrices(rng):
        n = len(rows)
        pts = [f"p{i:02d}" for i in range(n)]
        named = lambda i, j: repr(pts[i]) if i == j else f"({pts[i]!r}, {pts[j]!r})"
        numbered = lambda i, j: f"row {i}" if i == j else f"({i}, {j})"
        want = _outcome(lambda: check_matrix_by_fractions(rows, named, True))
        assert _outcome(lambda: FiniteMetricSpace(pts, rows)) == want
        seen.add(want[1].split(" at ")[0] if want else None)
        want = _outcome(lambda: check_matrix_by_fractions(rows, numbered, False))
        assert _outcome(lambda: classify_metric(rows)) == want
        if want is None and n <= 25:
            assert classify_metric(rows) is _classify_by_fractions(rows)
    assert seen == {"nonzero diagonal", "asymmetric", "negative distance", None}


def _classify_by_fractions(rows):
    # the classification from the definitions, on the values themselves
    n = len(rows)
    off = [rows[i][j] for i in range(n) for j in range(n) if i != j]
    if any(x < 0 for x in off):
        return MetricClass.NOT_SEMIMETRIC
    strong = strong_triangle_by_enumeration(rows)
    if any(x == 0 for x in off):
        return MetricClass.PSEUDO_ULTRAMETRIC if strong else MetricClass.NOT_SEMIMETRIC
    if strong:
        return MetricClass.ULTRAMETRIC
    triangle = all(rows[i][j] <= rows[i][k] + rows[k][j] for i in range(n) for j in range(n) for k in range(n))
    return MetricClass.METRIC_ONLY if triangle else MetricClass.NOT_SEMIMETRIC


def test_triangle_fallback_on_scaled_integers_equals_fractions():
    rng = random.Random(2027)
    seen = []
    for _ in range(300):
        n = rng.randint(3, 12)
        if rng.random() < 0.5:  # points on a line: the triangle inequality holds with equality
            xs = rng.sample([F(k, 12) for k in range(200)], n)
            rows = [[abs(a - b) for b in xs] for a in xs]
        else:  # mixed denominators, so the common one is large
            rows = [[F(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    rows[i][j] = rows[j][i] = F(rng.randint(6, 30), rng.randint(1, 9))
        if rng.random() < 0.6:  # one pair nudged by a hair, up or down
            i, j = rng.sample(range(n), 2)
            rows[i][j] = rows[j][i] = rows[i][j] + rng.choice((1, -1)) * F(1, rng.randint(100, 900))
        got = classify_metric(rows)
        assert got is _classify_by_fractions(rows)
        seen.append(got)
    assert seen.count(MetricClass.METRIC_ONLY) >= 30 and seen.count(MetricClass.NOT_SEMIMETRIC) >= 30
