import random
from fractions import Fraction as F

import pytest

from ultratree import (
    Graph,
    IsoFlavor,
    LabeledRootedTree,
    MetricClass,
    RootedTree,
    Tree,
    ballean,
    ballean_tree,
    canonical_code,
    diametrical_graph,
    multipartite_parts,
    representing_tree,
)
from ultratree import io as tio
from ultratree.errors import (
    NotCompleteMultipartiteError,
    NotUltrametricError,
    TooFewPointsError,
)
from ultratree.matrix_writers import matrix_to_csv
from ultratree.metrics import FiniteMetricSpace, classify_metric
from ultratree.path_metrics import minimax_label_metric, space_from
from ultratree.representing import _linkage, ball_id

from helpers import (
    fig6_graph,
    balls_by_enumeration,
    find_path,
    hierarchy_by_diametrical_blocks,
    random_tree,
    random_ultrametric_space,
    strong_triangle_by_enumeration,
)


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
    assert tree.leaf_for_point("a") == tree.rt.root
    for bad in ("z", ["a"]):  # an unknown or unhashable id names no point
        with pytest.raises(ValueError) as caught:
            tree.leaf_for_point(bad)
        assert str(caught.value) == f"no leaf for point {bad!r}"


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
    assert ["b", "a"] in got and ["b"] in got and ["c"] not in got and [] not in got


def test_ballean_matches_enumeration():
    rng = random.Random(47)
    for _ in range(25):
        space = random_ultrametric_space(rng, rng.randint(1, 6))
        assert set(ballean(space).balls) == balls_by_enumeration(space)


def test_ballean_lists_the_payloads_in_ball_id_order():
    # ballean reads the balls off the tree's sorted vertex ids; names that JSON
    # escapes and unpadded numbers sort differently as text and as ids
    rng = random.Random(59)
    suffixes = ("", '"', "\u00e9")
    for n in (1, 2, 3, 5, 8, 13, 21, 34, 60):
        for names in (None, [f"{i}{suffixes[i % 3]}" for i in range(n)]):
            space = random_ultrametric_space(rng, n, names)
            tree = representing_tree(space)
            payloads = sorted((tree.payload(v) for v in tree.rt.vertices), key=ball_id)
            assert ballean(space).balls == tuple(payloads)


def test_ball_id_takes_string_points_only():
    assert ball_id(["b", "a", '"', "\u00e9"]) == '["\\"","a","b","\\u00e9"]'
    for points in ([1, 2], ["a", 1], [("a",)]):  # a point is a Vertex, a str
        with pytest.raises(TypeError):
            ball_id(points)


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


def _renamed_tree(tree, mapping):
    # the hierarchy tree with every point renamed, vertex ids recomputed
    payloads = {v: frozenset(mapping[p] for p in tree.payload(v)) for v in tree.rt.vertices}
    ids = {v: ball_id(b) for v, b in payloads.items()}
    rt = RootedTree(Tree(Graph(ids.values(), [(ids[u], ids[v]) for u, v in tree.rt.tree.edges])), ids[tree.rt.root])
    return LabeledRootedTree(rt, {ids[v]: x for v, x in tree.labels.items()}, {ids[v]: b for v, b in payloads.items()})


def test_engine_ignores_the_point_order():
    # Renaming reorders the rows, so the Prim search starts at another point
    # and breaks ties between equal ranks another way.
    rng = random.Random(79)
    for k in range(240):
        space = random_ultrametric_space(rng, rng.randint(1, 25))
        rows = [list(r) for r in space.rows]
        if k % 4 == 1:  # a duplicated point: a zero pair
            rows = [r + [r[0]] for r in rows] + [rows[0] + [F(0)]]
        elif k % 4 == 2 and len(rows) > 1:  # one pair moved to a value already present, or off it
            i, j = rng.sample(range(len(rows)), 2)
            values = sorted({x for r in rows for x in r if x})
            rows[i][j] = rows[j][i] = rng.choice(values + [rows[i][j] + F(1, 3)])
        space = FiniteMetricSpace([f"p{i:02d}" for i in range(len(rows))], rows)
        verdict = _linkage(space.rows) is not None
        tree = tio.labeled_tree_to_json(representing_tree(space)) if space.classify() is MetricClass.ULTRAMETRIC else None
        for _ in range(4):
            names = list(space.points)
            rng.shuffle(names)
            forward = dict(zip(space.points, names))
            moved = space.rename(forward)
            assert (_linkage(moved.rows) is not None) == verdict
            if tree is not None:
                back = {y: x for x, y in forward.items()}
                assert tio.labeled_tree_to_json(_renamed_tree(representing_tree(moved), back)) == tree
            else:
                with pytest.raises(NotUltrametricError):
                    representing_tree(moved)


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


def _scale_spaces(rng):
    # Spaces of 100 to 150 points: deep ones with many distinct distances
    # (max labels on a random tree), shallow ones with few, and copies with
    # one pair raised above the diameter or moved to a distance present.
    t = random_tree(rng, 150)
    deep, _ = minimax_label_metric(t, {v: F(rng.randint(1, 90), rng.randint(1, 4)) for v in t.vertices})
    spaces = [deep, random_ultrametric_space(rng, 120)]
    for space in spaces[:]:
        rows = [list(r[:100]) for r in space.rows[:100]]
        values = sorted({x for r in rows for x in r if x})
        for value in (values[-1] + 1, rng.choice(values)):
            moved = [r[:] for r in rows]
            i, j = rng.sample(range(100), 2)
            moved[i][j] = moved[j][i] = value
            spaces.append(FiniteMetricSpace(space.points[:100], moved))
    return spaces


def test_engine_at_scale_equals_the_oracles():
    # Each space is built as io builds it, one object per distinct text, and
    # as space_from builds it, one object per entry; both rank to one verdict.
    verdicts = []
    for space in _scale_spaces(random.Random(89)):
        # the enumeration sees the same order on integers, ranked here
        rank = {x: k for k, x in enumerate(sorted({x for r in space.rows for x in r}))}
        strong = strong_triangle_by_enumeration([[rank[x] for x in r] for r in space.rows])
        want = tio.labeled_tree_to_json(hierarchy_by_diametrical_blocks(space)) if strong else None
        shared = tio.load_matrix_text(matrix_to_csv(space))
        separate = space_from(space.points, lambda x, y: F(str(space.distance(x, y))))
        for built in (shared, separate):
            assert built == space
            assert (built.classify() is MetricClass.ULTRAMETRIC) == strong
            if strong:
                assert tio.labeled_tree_to_json(representing_tree(built)) == want
            else:
                with pytest.raises(NotUltrametricError):
                    representing_tree(built)
        verdicts.append(strong)
    assert verdicts.count(True) >= 2 and verdicts.count(False) >= 2
