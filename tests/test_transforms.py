import random
from fractions import Fraction as F

import pytest

from ultratree import (
    EquidistantTree,
    Graph,
    IsoFlavor,
    MonotoneTree,
    RootedTree,
    are_isomorphic,
    ballean,
    bottleneck_spanning_tree,
    passthrough_counterexample_pair,
    canonical_code,
    check_equidistant,
    degree_sets,
    isometry_search,
    label_tree_metric,
    minimax_label_metric,
    nabla_geometric_membership,
    cyclic_weight_counterexample,
    reduce_nabla,
    representing_tree,
    restrict,
    shortest_path_metric,
    weight_to_labeling,
)
from ultratree.errors import AcyclicInputError, PathTreeError
from ultratree.transforms import _cycle_edge

from helpers import (
    fig5_tree,
    fig6_graph,
    mixed_equidistant_weights,
    cycle_edge_by_deletion,
    random_connected_graph,
    random_equidistant_tree,
    random_labels,
    random_tree,
    reduce_nabla_by_suppression,
    tree_from_edges,
)


def random_monotone_labels_on(rng, rt):
    labels = {}
    for v in reversed(rt.bfs_order()):
        kids = rt.children(v)
        if not kids:
            labels[v] = F(0)
        else:
            labels[v] = max(labels[c] for c in kids) + F(rng.randint(1, 8), rng.choice((1, 2, 4)))
    return labels


def random_equidistant_on(rng, rt):
    from ultratree import labeling_to_weight

    return labeling_to_weight(MonotoneTree(rt, random_monotone_labels_on(rng, rt)))


def test_reduce_nabla_fig5():
    rt, w = fig5_tree()
    result = reduce_nabla(EquidistantTree(rt, w))
    assert result.new_root == "v1"
    assert result.reduced.rt.vertices == ("v1", "v3", "v4")
    assert result.reduced.weights == {("v1", "v3"): F(3), ("v1", "v4"): F(3)}
    assert result.removed == {"r", "v2"}
    assert len(result.reduced.rt.vertices) + len(result.removed) == 5


def test_reduce_nabla_identity_when_no_pass_through():
    rt = RootedTree(tree_from_edges([("r", "a"), ("r", "b")]), "r")
    et = EquidistantTree(rt, {("r", "a"): F(2), ("r", "b"): F(2)})
    result = reduce_nabla(et)
    assert result.reduced == et and not result.removed


def test_reduce_nabla_rejects_paths():
    rt = RootedTree(tree_from_edges([("a", "b"), ("b", "c")]), "a")
    et = EquidistantTree(rt, {("a", "b"): F(1), ("b", "c"): F(1)})
    with pytest.raises(PathTreeError):
        reduce_nabla(et)
    single_edge = EquidistantTree(
        RootedTree(tree_from_edges([("a", "b")]), "a"), {("a", "b"): F(1)}
    )
    with pytest.raises(PathTreeError):
        reduce_nabla(single_edge)


def test_reduce_nabla_invariants_fuzz():
    rng = random.Random(137)
    done = 0
    while done < 30:
        et = random_equidistant_tree(rng, 2, 10)
        v0, v1, v2 = degree_sets(et.rt)
        if not v2:
            continue
        done += 1
        result = reduce_nabla(et)
        red = result.reduced
        rv0, rv1, _ = degree_sets(red.rt)
        assert not rv1
        assert rv0 == v0
        assert set(red.rt.vertices) <= set(et.rt.vertices)
        assert len(red.rt.vertices) + len(v1) == len(et.rt.vertices)
        before = restrict(et.metric(), v0)
        after = restrict(red.metric(), v0)
        assert before == after
        # distances agree on every surviving pair, not only leaves
        full_before = et.metric()
        full_after = red.metric()
        assert restrict(full_before, red.rt.vertices) == full_after
        # each merged edge carries the original tree distance; together with
        # the vertex set this pins the result independent of suppression order
        assert set(red.rt.vertices) == set(v0 | v2)
        for u, v in red.rt.tree.edges:
            assert red.weights[(u, v)] == full_before.distance(u, v)
        # deterministic and idempotent
        assert reduce_nabla(et) == result
        assert reduce_nabla(red).reduced == red


def test_nabla_membership_fig5():
    rt, w = fig5_tree()
    et = EquidistantTree(rt, w)
    verdicts = {v: nabla_geometric_membership(et, v) for v in rt.vertices}
    assert verdicts == {"r": False, "v1": True, "v2": False, "v3": True, "v4": True}


def test_nabla_membership_matches_reduction():
    rng = random.Random(139)
    done = 0
    while done < 25:
        et = random_equidistant_tree(rng, 2, 10)
        if not degree_sets(et.rt)[2]:
            continue
        done += 1
        surviving = set(reduce_nabla(et).reduced.rt.vertices)
        for v in et.rt.vertices:
            assert nabla_geometric_membership(et, v) == (v in surviving)


def test_bottleneck_spanning_tree_fig6():
    g, labels = fig6_graph()
    t = bottleneck_spanning_tree(g, labels)
    assert set(t.edges) <= set(g.edges)
    assert t.vertices == g.vertices
    assert label_tree_metric(t, labels)[0] == minimax_label_metric(g, labels)[0]


def test_bottleneck_spanning_tree_on_tree_is_identity():
    t = tree_from_edges([("a", "b"), ("b", "c")])
    labels = {"a": F(1), "b": F(2), "c": F(0)}
    assert bottleneck_spanning_tree(t, labels) == t


def test_bottleneck_spanning_tree_fuzz():
    rng = random.Random(149)
    for _ in range(25):
        g = random_connected_graph(rng, rng.randint(2, 8), extra_edges=rng.randint(0, 5))
        labels = random_labels(rng, g)
        t = bottleneck_spanning_tree(g, labels)
        assert set(t.edges) <= set(g.edges) and t.vertices == g.vertices
        assert label_tree_metric(t, labels)[0] == minimax_label_metric(g, labels)[0]


def test_cyclic_weight_counterexample_triangle():
    g = Graph("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    w1, w2 = cyclic_weight_counterexample(g)
    heavy = [e for e in g.edges if w1[e] != 1]
    assert heavy == [("a", "b")]
    assert w1[("a", "b")] == 4 and w2[("a", "b")] == 5
    s1 = shortest_path_metric(g, w1)
    s2 = shortest_path_metric(g, w2)
    assert s1.distance("a", "b") == 2 and s1 == s2


def test_cyclic_weight_counterexample_fig6_edge_count():
    g, _ = fig6_graph()
    w1, w2 = cyclic_weight_counterexample(g)
    assert max(w1.values()) == 12 and max(w2.values()) == 13


def test_cyclic_weight_counterexample_rejects_trees():
    t = random_tree(0, 5)
    with pytest.raises(AcyclicInputError):
        cyclic_weight_counterexample(t)


def test_cyclic_counterexample_postconditions_fuzz():
    rng = random.Random(151)
    for _ in range(15):
        g = random_connected_graph(rng, rng.randint(3, 7), extra_edges=rng.randint(1, 4))
        w1, w2 = cyclic_weight_counterexample(g)
        assert isometry_search(shortest_path_metric(g, w1), shortest_path_metric(g, w2))
        assert not are_isomorphic(g, g, IsoFlavor.EDGE_WEIGHTED, weights1=w1, weights2=w2)


def _rooted_weighted_code(et):
    return canonical_code(
        et.rt.tree, IsoFlavor.ROOTED_WEIGHTED, weights=et.weights, root=et.rt.root
    )


def test_reduced_tree_isomorphism_iff_leaf_space_isometry():
    rng = random.Random(157)
    done = 0
    while done < 25:
        e1 = random_equidistant_tree(rng, 2, 8)
        if not degree_sets(e1.rt)[2]:
            continue
        if rng.random() < 0.5:
            e2 = random_equidistant_on(rng, e1.rt)
        else:
            e2 = random_equidistant_tree(rng, 2, 8)
            if not degree_sets(e2.rt)[2]:
                continue
        done += 1
        r1, r2 = reduce_nabla(e1).reduced, reduce_nabla(e2).reduced
        nabla_iso = _rooted_weighted_code(r1) == _rooted_weighted_code(r2)
        s1 = restrict(e1.metric(), e1.v0())
        s2 = restrict(e2.metric(), e2.v0())
        assert nabla_iso == (isometry_search(s1, s2) is not None)


def test_same_shape_biconditional_no_pass_through():
    rng = random.Random(163)
    done = 0
    while done < 20:
        base = random_equidistant_tree(rng, 3, 8, branching_only=True)
        rt = base.rt
        if degree_sets(rt)[1]:
            continue
        done += 1
        e1 = random_equidistant_on(rng, rt)
        e2 = random_equidistant_on(rng, rt)
        iso = are_isomorphic(
            rt.tree, rt.tree, IsoFlavor.ROOTED_WEIGHTED,
            weights1=e1.weights, weights2=e2.weights, root1=rt.root, root2=rt.root,
        )
        s1 = restrict(e1.metric(), e1.v0())
        s2 = restrict(e2.metric(), e2.v0())
        assert iso == (isometry_search(s1, s2) is not None)


def _more_pass_through_trees(rng):
    """A planted star, where only the root passes through; an interior
    pass-through vertex with equal weights above and below; a chain of
    pass-through vertices from the root; then random trees of 200-500
    vertices with a pass-through vertex."""
    star = RootedTree(tree_from_edges([("r", "c"), ("c", "x"), ("c", "y"), ("c", "z")]), "r")
    even = RootedTree(tree_from_edges([("r", "v"), ("v", "y"), ("r", "x")]), "r")
    chain = RootedTree(tree_from_edges([("r", "p1"), ("p1", "p2"), ("p2", "p3"), ("p3", "x"), ("p3", "y")]), "r")
    trees = [
        EquidistantTree(star, {("c", "r"): F(2), ("c", "x"): F(3), ("c", "y"): F(3), ("c", "z"): F(3)}),
        EquidistantTree(even, {("r", "v"): F(2), ("v", "y"): F(2), ("r", "x"): F(4)}),
        EquidistantTree(chain, {("p1", "r"): F(1), ("p1", "p2"): F(1, 2), ("p2", "p3"): F(3),
                                ("p3", "x"): F(5, 2), ("p3", "y"): F(5, 2)}),
    ]
    while len(trees) < 6:
        et = random_equidistant_tree(rng, 200, 500)
        if degree_sets(et.rt)[1]:
            trees.append(et)
    return trees


def _checked_pass_through_pair(et):
    # the first is et; the second is equidistant on the same rooted tree,
    # with the same matrix on the out-degree-zero vertices
    w1, w2 = passthrough_counterexample_pair(et)
    assert w1 is et and w2.rt == et.rt
    assert check_equidistant(et.rt, w2.weights) == w2.K
    assert restrict(w1.metric(), w1.v0()) == restrict(w2.metric(), w2.v0())
    return w1, w2


def test_pass_through_shapes_break_the_biconditional():
    rng = random.Random(167)
    trees = []
    while len(trees) < 20:
        et = random_equidistant_tree(rng, 2, 9)
        if degree_sets(et.rt)[1]:
            trees.append(et)
    root_only = 0
    for et in trees + _more_pass_through_trees(rng):
        w1, w2 = _checked_pass_through_pair(et)
        assert not are_isomorphic(
            et.rt.tree, et.rt.tree, IsoFlavor.ROOTED_WEIGHTED,
            weights1=w1.weights, weights2=w2.weights, root1=et.rt.root, root2=et.rt.root,
        )
        root_only += degree_sets(et.rt)[1] == {et.rt.root}
    assert root_only >= 1


def test_pass_through_shapes_break_the_label_biconditional():
    # dual form: same metric on out-degree-zero vertices, labelings not isomorphic
    rng = random.Random(173)
    trees = []
    while len(trees) < 15:
        et = random_equidistant_tree(rng, 3, 9)
        v0, v1, _ = degree_sets(et.rt)
        if v1 and len(v0) >= 2:
            trees.append(et)
    for et in trees + _more_pass_through_trees(rng):
        v0 = et.v0()
        w1, w2 = _checked_pass_through_pair(et)
        m1, m2 = weight_to_labeling(w1), weight_to_labeling(w2)
        s1 = restrict(label_tree_metric(et.rt.tree, m1.labels)[0], v0)
        s2 = restrict(label_tree_metric(et.rt.tree, m2.labels)[0], v0)
        assert s1 == s2
        assert not are_isomorphic(
            et.rt.tree, et.rt.tree, IsoFlavor.ROOTED_LABELED,
            labels1=m1.labels, labels2=m2.labels, root1=et.rt.root, root2=et.rt.root,
        )


def test_label_biconditional_holds_without_pass_through():
    rng = random.Random(179)
    done = 0
    while done < 20:
        base = random_equidistant_tree(rng, 3, 8, branching_only=True)
        rt = base.rt
        if degree_sets(rt)[1]:
            continue
        done += 1
        l1 = random_monotone_labels_on(rng, rt)
        l2 = random_monotone_labels_on(rng, rt)
        iso = are_isomorphic(
            rt.tree, rt.tree, IsoFlavor.ROOTED_LABELED,
            labels1=l1, labels2=l2, root1=rt.root, root2=rt.root,
        )
        s1 = restrict(label_tree_metric(rt.tree, l1)[0], degree_sets(rt)[0])
        s2 = restrict(label_tree_metric(rt.tree, l2)[0], degree_sets(rt)[0])
        assert iso == (isometry_search(s1, s2) is not None)


def test_vertex_count_bounded_by_ball_count():
    rng = random.Random(181)
    done = 0
    while done < 25:
        et = random_equidistant_tree(rng, 3, 9)
        v0, v1, v2 = degree_sets(et.rt)
        if len(v0) < 2 or not v2:
            continue
        done += 1
        space = restrict(et.metric(), v0)
        balls = ballean(space)
        assert len(et.rt.vertices) >= len(balls)
        # the reduced tree, read as a monotone tree, is the hierarchy tree
        reduced = reduce_nabla(et).reduced
        dual = weight_to_labeling(reduced)
        tree = representing_tree(space)
        code_dual = canonical_code(
            dual.rt.tree, IsoFlavor.ROOTED_LABELED, labels=dual.labels, root=dual.rt.root
        )
        code_repr = canonical_code(
            tree.rt.tree, IsoFlavor.ROOTED_LABELED, labels=tree.labels, root=tree.rt.root
        )
        assert code_dual == code_repr
        assert (len(et.rt.vertices) == len(balls)) == (not v1)


def _chained_equidistant(rng, max_size, weigh=random_equidistant_on):
    """A random equidistant tree of at most max_size vertices: a branching
    shape whose edges carry chains of pass-through vertices, often hung
    below a chain of out-degree-one vertices from the root.  weigh(rng, rt)
    puts the weights on the shape."""
    size = rng.randint(8, max_size)
    names = [f"x{i:03d}" for i in range(size)]
    rng.shuffle(names)
    top = names[: rng.choice((0, 0, 1, 4))]
    rest = names[len(top):]
    k = max(3, len(rest) // 2)
    base, spare = rest[:k], rest[k:]
    edges = list(zip(top, top[1:])) + ([(top[-1], base[0])] if top else [])
    for i in range(1, k):
        parent = base[0] if i < 3 else base[rng.randrange(i)]  # base[0] branches
        cut = rng.choice((0, 0, 1, 3, 8))
        chain = [parent] + spare[:cut] + [base[i]]
        spare = spare[cut:]
        edges += zip(chain, chain[1:])
    rt = RootedTree(tree_from_edges(edges), top[0] if top else base[0])
    return weigh(rng, rt)


def test_reduce_nabla_equals_suppression_oracle():
    rng = random.Random(211)
    chained = 0
    for i in range(200):
        et = _chained_equidistant(rng, 300 if i % 20 == 0 else 60)
        result = reduce_nabla(et)
        assert result == reduce_nabla_by_suppression(et)
        chained += result.new_root != et.rt.root
    assert chained > 50

    def mixed(rng, rt):  # weights over large coprime denominators
        return EquidistantTree(rt, mixed_equidistant_weights(rng, rt)[0])

    for max_size in (20, 60, 300) * 4:
        et = _chained_equidistant(rng, max_size, mixed)
        assert len({x.denominator for x in et.weights.values()}) > 2
        assert reduce_nabla(et) == reduce_nabla_by_suppression(et)


def test_cycle_edge_equals_deletion_oracle():
    rng = random.Random(223)
    bridged = acyclic = 0
    for i in range(120):
        n = rng.randint(2, 200 if i % 10 == 0 else 40)
        kind = i % 4
        core = random_connected_graph(rng, n, extra_edges=0 if kind == 3 else rng.randint(0, n), prefix="z")
        if kind == 0:
            g = core
        else:
            # a tree whose names sort first, so the smallest edges are bridges;
            # hung from the core (1), beside it (2), or beside a tree core (3)
            tree = random_tree(rng, rng.randint(1, n), prefix="a")
            edges = list(core.edges) + list(tree.edges)
            if kind == 1:
                edges.append((rng.choice(tree.vertices), rng.choice(core.vertices)))
            g = Graph(core.vertices + tree.vertices, edges)
        try:
            expected = cycle_edge_by_deletion(g)
        except AcyclicInputError:
            acyclic += 1
            with pytest.raises(AcyclicInputError, match="graph has no cycle"):
                _cycle_edge(g)
            continue
        bridged += expected != g.edges[0]
        assert _cycle_edge(g) == expected
    assert bridged > 30 and acyclic > 20
    # a 20k-vertex path plus one chord, past the oracle's reach: the cycle runs
    # along the path between the chord's ends, so its smallest edge leaves the lower end
    path = [f"p{i:05d}" for i in range(20000)]
    g = Graph(path, [*zip(path, path[1:]), (path[15000], path[4321])])
    assert _cycle_edge(g) == (path[4321], path[4322])


def test_bottleneck_spanning_tree_realizes_minimax_at_scale():
    rng = random.Random(227)
    for _ in range(20):
        n = rng.randint(2, 200)
        g = random_connected_graph(rng, n, extra_edges=rng.randint(0, 2 * n))
        # few distinct labels, so many edge keys tie
        labels = {v: F(rng.randint(0, 5), rng.choice((1, 2))) for v in g.vertices}
        t = bottleneck_spanning_tree(g, labels)
        assert t.vertices == g.vertices and set(t.edges) <= set(g.edges)
        assert label_tree_metric(t, labels)[0] == minimax_label_metric(g, labels)[0]
        shuffled = Graph(reversed(g.vertices), reversed(g.edges))
        assert bottleneck_spanning_tree(shuffled, dict(reversed(labels.items()))) == t
        assert bottleneck_spanning_tree(t, labels) == t
