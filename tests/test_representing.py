import random
from fractions import Fraction as F

import pytest

from ultratree import (
    Graph,
    IsoFlavor,
    MetricClass,
    ballean,
    ballean_tree,
    canonical_code,
    diametrical_graph,
    find_path,
    multipartite_parts,
    representing_tree,
)
from ultratree import io as tio
from ultratree.errors import (
    NotCompleteMultipartiteError,
    NotUltrametricError,
    TooFewPointsError,
)
from ultratree.generators import random_ultrametric_space
from ultratree.metrics import FiniteMetricSpace, _linkage, classify_metric, minimax_label_metric
from ultratree.oracles import (
    balls_by_enumeration,
    hierarchy_by_diametrical_blocks,
    strong_triangle_by_enumeration,
)

from helpers import fig6_graph


def _space(points, entries):
    return FiniteMetricSpace(points, [[F(x) for x in row] for row in entries])


def test_diametrical_two_points():
    s = _space("ab", [[0, 1], [1, 0]])
    assert diametrical_graph(s).edges == (("a", "b"),)


def test_diametrical_forced_star():
    s = _space("abc", [[0, 2, 2], [2, 0, 1], [2, 1, 0]])
    assert diametrical_graph(s).edges == (("a", "b"), ("a", "c"))


def test_diametrical_needs_two_points():
    with pytest.raises(TooFewPointsError):
        diametrical_graph(_space("a", [[0]]))


def test_diametrical_fig6():
    g, labels = fig6_graph()
    space, _ = minimax_label_metric(g, labels)
    dg = diametrical_graph(space)
    want = {("A", "B")} | {tuple(sorted((a, x))) for a in "AB" for x in "CDEF"}
    assert set(dg.edges) == want
    assert multipartite_parts(dg) == [("A",), ("B",), ("C", "D", "E", "F")]


def test_multipartite_single_edge():
    assert multipartite_parts(Graph("ab", [("a", "b")])) == [("a",), ("b",)]


def test_multipartite_three_vertex_star_is_bipartite():
    # a-b-c is complete bipartite with blocks {a, c} and {b}
    g = Graph("abc", [("a", "b"), ("b", "c")])
    assert multipartite_parts(g) == [("a", "c"), ("b",)]


def test_multipartite_rejects_block_with_internal_edge():
    # complement of {a-b, b-c}: within-block pair a, c stays adjacent here
    g = Graph("abcd", [("a", "c"), ("a", "d"), ("b", "d"), ("c", "d")])
    with pytest.raises(NotCompleteMultipartiteError):
        multipartite_parts(g)


def test_multipartite_rejects_edgeless():
    with pytest.raises(NotCompleteMultipartiteError):
        multipartite_parts(Graph("ab", []))


def test_representing_tree_single_point():
    tree = representing_tree(_space("a", [[0]]))
    assert len(tree.rt.vertices) == 1
    assert tree.labels[tree.rt.root] == 0
    assert tree.payload(tree.rt.root) == {"a"}


def test_representing_tree_rejects_non_ultrametric():
    s = _space("abc", [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    with pytest.raises(NotUltrametricError):
        representing_tree(s)


def test_representing_tree_fig6_levels():
    g, labels = fig6_graph()
    space, _ = minimax_label_metric(g, labels)
    tree = representing_tree(space)
    root = tree.rt.root
    assert tree.labels[root] == 3
    kid_labels = sorted(tree.labels[c] for c in tree.rt.children(root))
    assert kid_labels == [0, 0, 2]
    (two,) = [c for c in tree.rt.children(root) if tree.labels[c] == 2]
    assert sorted(tree.labels[c] for c in tree.rt.children(two)) == [0, 0, 1]


def test_path_max_label_recovers_distances():
    rng = random.Random(41)
    for _ in range(20):
        space = random_ultrametric_space(rng, rng.randint(1, 8))
        tree = representing_tree(space)
        for i, x in enumerate(space.points):
            for y in space.points[i + 1 :]:
                p = find_path(tree.rt.tree, tree.leaf_for_point(x), tree.leaf_for_point(y))
                assert space.distance(x, y) == max(tree.labels[v] for v in p)


def test_representing_tree_is_monotone_with_branching():
    rng = random.Random(43)
    for _ in range(20):
        space = random_ultrametric_space(rng, rng.randint(1, 8))
        tree = representing_tree(space)
        for v in tree.rt.vertices:
            d = tree.rt.out_degree(v)
            assert d != 1
            assert (d == 0) == (tree.labels[v] == 0)
            for c in tree.rt.children(v):
                assert tree.labels[c] < tree.labels[v]


def test_ballean_small_cases():
    assert [sorted(b) for b in ballean(_space("a", [[0]])).balls] == [["a"]]
    got = ballean(_space("ab", [[0, 1], [1, 0]]))
    assert sorted(sorted(b) for b in got.balls) == [["a"], ["a", "b"], ["b"]]


def test_ballean_matches_enumeration():
    rng = random.Random(47)
    for _ in range(25):
        space = random_ultrametric_space(rng, rng.randint(1, 6))
        assert set(ballean(space).balls) == balls_by_enumeration(space)


def test_ball_vertex_bijection():
    rng = random.Random(53)
    for _ in range(20):
        space = random_ultrametric_space(rng, rng.randint(1, 8))
        tree = representing_tree(space)
        balls = ballean(space)
        assert len(balls) == len(tree.rt.vertices)
        singletons = {b for b in balls.balls if len(b) == 1}
        leaf_payloads = {
            tree.payload(v) for v in tree.rt.vertices if tree.rt.out_degree(v) == 0
        }
        assert singletons == leaf_payloads


def _rooted_labeled_code(tree):
    return canonical_code(
        tree.rt.tree, IsoFlavor.ROOTED_LABELED, labels=tree.labels, root=tree.rt.root
    )


def test_ballean_tree_single_point():
    tree = ballean_tree(_space("a", [[0]]))
    assert len(tree.rt.vertices) == 1


def test_ballean_tree_two_points():
    tree = ballean_tree(_space("ab", [[0, 3], [3, 0]]))
    root = tree.rt.root
    assert tree.labels[root] == 3
    kids = tree.rt.children(root)
    assert len(kids) == 3
    assert all(tree.labels[c] == 0 for c in kids)


def test_ballean_tree_matches_hausdorff_construction():
    rng = random.Random(59)
    for _ in range(15):
        space = random_ultrametric_space(rng, rng.randint(1, 6))
        direct = ballean_tree(space)
        via_balls = representing_tree(ballean(space).hausdorff_space())
        assert _rooted_labeled_code(direct) == _rooted_labeled_code(via_balls)


def test_ballean_tree_codes_separate_spaces_exactly():
    # equal hierarchy trees iff equal ball-space trees
    rng = random.Random(61)
    spaces = [random_ultrametric_space(rng, rng.randint(1, 6), ) for _ in range(12)]
    for s1 in spaces:
        for s2 in spaces:
            same_repr = _rooted_labeled_code(representing_tree(s1)) == _rooted_labeled_code(
                representing_tree(s2)
            )
            same_ball = _rooted_labeled_code(ballean_tree(s1)) == _rooted_labeled_code(
                ballean_tree(s2)
            )
            assert same_repr == same_ball


def test_hausdorff_ball_space_is_ultrametric():
    rng = random.Random(67)
    for _ in range(10):
        space = random_ultrametric_space(rng, rng.randint(1, 6))
        from ultratree import MetricClass

        assert ballean(space).hausdorff_space().classify() is MetricClass.ULTRAMETRIC


def _caterpillar(n):
    # d(p_i, p_j) = max(i, j) for i != j, points p_1 .. p_n
    return _space([f"p{i:03d}" for i in range(1, n + 1)],
                  [[0 if i == j else max(i, j) for j in range(1, n + 1)] for i in range(1, n + 1)])


def _star(n, c):
    return _space([f"s{i:02d}" for i in range(n)], [[0 if i == j else c for j in range(n)] for i in range(n)])


def test_engine_tree_equals_diametrical_recursion():
    rng = random.Random(71)
    spaces = [random_ultrametric_space(rng, rng.randint(1, 60)) for _ in range(300)]
    spaces += [_caterpillar(n) for n in (1, 2, 3, 7, 45)]
    spaces += [_star(n, c) for n, c in ((2, 1), (5, F(3, 7)), (30, 2))]
    for space in spaces:
        want = tio.labeled_tree_to_json(hierarchy_by_diametrical_blocks(space))
        assert tio.labeled_tree_to_json(representing_tree(space)) == want


def _perturbed_rows(rng):
    # an ultrametric matrix, perhaps with a duplicated point (a zero pair),
    # with one symmetric pair of entries raised or lowered
    space = random_ultrametric_space(rng, rng.randint(2, 10))
    rows = [list(r) for r in space.rows]
    if rng.random() < 0.25:
        rows = [r + [r[0]] for r in rows] + [rows[0] + [F(0)]]
    n = len(rows)
    i, j = rng.sample(range(n), 2)
    values = sorted({x for r in rows for x in r})
    rows[i][j] = rows[j][i] = rng.choice(values + [rows[i][j] + F(1, 2), rows[i][j] - F(1, 3), F(-1)])
    return rows


def test_engine_verdict_equals_strong_triangle_oracle():
    rng = random.Random(73)
    for _ in range(400):
        rows = _perturbed_rows(rng)
        strong = strong_triangle_by_enumeration(rows)
        assert (_linkage(rows) is not None) == strong
        off = [x for i, r in enumerate(rows) for j, x in enumerate(r) if i != j]
        got = classify_metric(rows)
        if any(x < 0 for x in off):
            assert got is MetricClass.NOT_SEMIMETRIC
        elif 0 in off:
            assert got is (MetricClass.PSEUDO_ULTRAMETRIC if strong else MetricClass.NOT_SEMIMETRIC)
        elif strong:
            assert got is MetricClass.ULTRAMETRIC
        else:
            assert got in (MetricClass.METRIC_ONLY, MetricClass.NOT_SEMIMETRIC)


def test_representing_tree_rejects_zero_pairs():
    s = _space("abc", [[0, 0, 2], [0, 0, 2], [2, 2, 0]])
    assert s.classify() is MetricClass.PSEUDO_ULTRAMETRIC
    with pytest.raises(NotUltrametricError, match="space is not ultrametric"):
        representing_tree(s)


def test_representing_tree_caterpillar_400_closed_form():
    tree = representing_tree(_caterpillar(400))
    assert len(tree.rt.vertices) == 799
    assert tree.labels[tree.rt.root] == 400
    depth = {tree.rt.root: 0}
    for v in tree.rt.bfs_order():
        for c in tree.rt.children(v):
            depth[c] = depth[v] + 1
    assert max(depth.values()) == 399
