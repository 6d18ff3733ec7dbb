"""Acceptance gate: every criterion checked exactly (rational arithmetic,
tolerance zero), one pass line printed per criterion."""

import random
import subprocess
import sys
from fractions import Fraction as F

from ultratree import (
    EquidistantTree,
    IsoFlavor,
    MetricClass,
    MonotoneTree,
    RootedTree,
    additive_metric,
    are_isomorphic,
    ballean,
    bottleneck_spanning_tree,
    passthrough_counterexample_pair,
    canonical_code,
    centers,
    degree_sets,
    diameter_bound_check,
    generate_monotone,
    is_isometry,
    is_isomorphism,
    isometry_search,
    label_tree_metric,
    labeling_to_weight,
    leaf_swap_isometry,
    minimax_label_metric,
    cyclic_weight_counterexample,
    planted_leaf_ultrametric_check,
    reduce_nabla,
    representing_tree,
    restrict,
    shortest_path_metric,
    ultrametric_isometric,
    weight_to_labeling,
)

from helpers import (
    brute_iso,
    fig3_tree,
    fig5_tree,
    fig6_graph,
    fig10_tree,
    fig11_trees,
    fig13_tree,
    balls_by_enumeration,
    find_path,
    minimax_label_by_enumeration,
    random_connected_graph,
    random_equidistant_tree,
    random_labels,
    random_tree,
    random_ultrametric_space,
    random_weights,
    shuffled_renaming,
    tree_from_edges,
)


def _ok(name):
    print(f"[acceptance] {name}: PASS")


# 1. figure corpus, exact


def test_fig10_criteria():
    rt, w = fig10_tree()
    et = EquidistantTree(rt, w)
    assert et.K == F(7)
    leaf_space = restrict(et.metric(), rt.tree.leaves())
    assert leaf_space.classify() is MetricClass.METRIC_ONLY
    holds, lhs, rhs = planted_leaf_ultrametric_check(et)
    assert not holds and lhs == F(6) and rhs == F(7) and lhs < rhs
    _ok("fig10 K=7, leaf restriction MetricOnly, 6 < 7")


def test_fig11_criteria():
    rt, w, labels = fig11_trees()
    et = EquidistantTree(rt, w)
    mt = MonotoneTree(rt, labels)
    assert weight_to_labeling(et).labels == mt.labels
    assert labeling_to_weight(mt).weights == et.weights
    _ok("fig11 exact duality both directions")


def test_fig5_criteria():
    rt, w = fig5_tree()
    result = reduce_nabla(EquidistantTree(rt, w))
    assert result.new_root == "v1"
    assert result.reduced.rt.vertices == ("v1", "v3", "v4")
    assert result.reduced.weights == {("v1", "v3"): F(3), ("v1", "v4"): F(3)}
    assert len(result.reduced.rt.vertices) + len(result.removed) == 5
    _ok("fig5 reduction to the weight-3 star at v1, size identity 3+2=5")


def test_fig3_criteria():
    t, w = fig3_tree()
    assert centers(t, w) == {"v1", "v4", "v5"}
    _ok("fig3 centers {v1, v4, v5}")


def test_fig13_criteria():
    t, w = fig13_tree()
    space = additive_metric(t, w)
    assert restrict(space, ["x1", "x2", "x3", "x4"]).classify() is MetricClass.ULTRAMETRIC
    assert centers(t, w) == frozenset()
    _ok("fig13 leaf restriction Ultrametric, no centers")


def test_fig6_criteria():
    g, labels = fig6_graph()
    rho, _ = minimax_label_metric(g, labels)
    spanning = bottleneck_spanning_tree(g, labels)
    assert label_tree_metric(spanning, labels)[0] == rho

    tree = representing_tree(rho)
    got = canonical_code(
        tree.rt.tree, IsoFlavor.ROOTED_LABELED, labels=tree.labels, root=tree.rt.root
    )
    shown = tree_from_edges(
        [("n0", "n1"), ("n0", "n2"), ("n0", "n3"), ("n2", "n4"), ("n2", "n5"),
         ("n2", "n6"), ("n5", "n7"), ("n5", "n8")]
    )
    shown_labels = {"n0": F(3), "n1": F(0), "n2": F(2), "n3": F(0), "n4": F(0),
                    "n5": F(1), "n6": F(0), "n7": F(0), "n8": F(0)}
    want = canonical_code(shown, IsoFlavor.ROOTED_LABELED, labels=shown_labels, root="n0")
    assert got == want
    _ok("fig6 spanning tree realizes the minimax metric, hierarchy tree shape")


# 2. oracle equivalences


def test_ultrametric_isometry_fast_path_vs_search_500_pairs():
    rng = random.Random(1001)
    agreements = 0
    for _ in range(500):
        s1 = random_ultrametric_space(rng, rng.randint(1, 6))
        if rng.random() < 0.5:
            s2 = shuffled_renaming(rng, s1)
        else:
            s2 = random_ultrametric_space(rng, rng.randint(1, 6))
        fast = ultrametric_isometric(s1, s2)
        found = isometry_search(s1, s2)
        assert fast == (found is not None)
        if found is not None:
            assert is_isometry(s1, s2, found)
        agreements += 1
    assert agreements == 500
    _ok("ultrametric isometry fast path = brute-force search on 500 pairs")


def test_minimax_vs_path_enumeration_200_graphs():
    rng = random.Random(1002)
    for _ in range(200):
        g = random_connected_graph(rng, rng.randint(2, 7), extra_edges=rng.randint(0, 3))
        labels = random_labels(rng, g)
        space, _ = minimax_label_metric(g, labels)
        for i, u in enumerate(g.vertices):
            for v in g.vertices[i + 1 :]:
                assert space.distance(u, v) == minimax_label_by_enumeration(g, labels, u, v)
    _ok("minimax label metric = all-simple-paths enumeration on 200 graphs")


def test_ballean_vs_brute_force_200_spaces():
    rng = random.Random(1003)
    for _ in range(200):
        space = random_ultrametric_space(rng, rng.randint(1, 6))
        assert set(ballean(space).balls) == balls_by_enumeration(space)
    _ok("ballean = brute-force ball enumeration on 200 spaces")


# 3. structural invariant suites


def test_max_label_path_identity_suite():
    rng = random.Random(1004)
    for _ in range(50):
        space = random_ultrametric_space(rng, rng.randint(1, 7))
        tree = representing_tree(space)
        for i, x in enumerate(space.points):
            for y in space.points[i + 1 :]:
                p = find_path(tree.rt.tree, tree.leaf_for_point(x), tree.leaf_for_point(y))
                assert space.distance(x, y) == max(tree.labels[v] for v in p)
    for _ in range(50):
        et = random_equidistant_tree(rng, 1, 10)
        mt = weight_to_labeling(et)
        space = et.metric()
        leaves = sorted(et.v0())
        for i, u in enumerate(leaves):
            for v in leaves[i + 1 :]:
                p = find_path(et.rt.tree, u, v)
                assert space.distance(u, v) == max(mt.labels[x] for x in p)
    _ok("max-label path identity on hierarchy trees and equidistant trees")


def test_duality_round_trip_suite():
    rng = random.Random(1005)
    for _ in range(100):
        mt = generate_monotone(rng, 1, 10)
        et = labeling_to_weight(mt)
        assert weight_to_labeling(et).labels == mt.labels
        assert labeling_to_weight(weight_to_labeling(et)).weights == et.weights
    _ok("duality round trips are exact on 100 generated trees")


def test_reduction_invariant_suite():
    rng = random.Random(1006)
    done = 0
    while done < 60:
        et = random_equidistant_tree(rng, 2, 10)
        v0, v1, v2 = degree_sets(et.rt)
        if not v2:
            continue
        done += 1
        result = reduce_nabla(et)
        red = result.reduced
        assert not degree_sets(red.rt)[1]
        assert degree_sets(red.rt)[0] == v0
        assert set(red.rt.vertices) <= set(et.rt.vertices)
        assert len(red.rt.vertices) + len(v1) == len(et.rt.vertices)
        assert restrict(et.metric(), v0) == restrict(red.metric(), v0)
    _ok("reduction invariants hold on 60 generated trees")


def test_reduced_isomorphism_iff_isometry_suite():
    rng = random.Random(1007)

    def rooted_weighted_code(et):
        return canonical_code(
            et.rt.tree, IsoFlavor.ROOTED_WEIGHTED, weights=et.weights, root=et.rt.root
        )

    done = 0
    while done < 40:
        e1 = random_equidistant_tree(rng, 2, 8)
        e2 = random_equidistant_tree(rng, 2, 8)
        if not degree_sets(e1.rt)[2] or not degree_sets(e2.rt)[2]:
            continue
        done += 1
        iso = rooted_weighted_code(reduce_nabla(e1).reduced) == rooted_weighted_code(
            reduce_nabla(e2).reduced
        )
        isometric = (
            isometry_search(
                restrict(e1.metric(), e1.v0()), restrict(e2.metric(), e2.v0())
            )
            is not None
        )
        assert iso == isometric
    _ok("reduced-tree isomorphism = leaf-space isometry on 40 pairs")


def _random_monotone_labels_on(rng, rt):
    labels = {}
    for v in reversed(rt.bfs_order()):
        kids = rt.children(v)
        if not kids:
            labels[v] = F(0)
        else:
            labels[v] = max(labels[c] for c in kids) + F(rng.randint(1, 8), rng.choice((1, 2, 4)))
    return labels


def test_same_shape_biconditionals_suite():
    rng = random.Random(1008)
    no_pass_through = 0
    while no_pass_through < 25:
        base = random_equidistant_tree(rng, 3, 8, branching_only=True)
        rt = base.rt
        if degree_sets(rt)[1]:
            continue
        no_pass_through += 1
        l1 = _random_monotone_labels_on(rng, rt)
        l2 = _random_monotone_labels_on(rng, rt)
        e1 = labeling_to_weight(MonotoneTree(rt, l1))
        e2 = labeling_to_weight(MonotoneTree(rt, l2))
        weight_iso = are_isomorphic(
            rt.tree, rt.tree, IsoFlavor.ROOTED_WEIGHTED,
            weights1=e1.weights, weights2=e2.weights, root1=rt.root, root2=rt.root,
        )
        weight_isometric = (
            isometry_search(restrict(e1.metric(), e1.v0()), restrict(e2.metric(), e2.v0()))
            is not None
        )
        assert weight_iso == weight_isometric
        label_iso = are_isomorphic(
            rt.tree, rt.tree, IsoFlavor.ROOTED_LABELED,
            labels1=l1, labels2=l2, root1=rt.root, root2=rt.root,
        )
        v0 = degree_sets(rt)[0]
        label_isometric = (
            isometry_search(
                restrict(label_tree_metric(rt.tree, l1)[0], v0),
                restrict(label_tree_metric(rt.tree, l2)[0], v0),
            )
            is not None
        )
        assert label_iso == label_isometric

    with_pass_through = 0
    while with_pass_through < 25:
        et = random_equidistant_tree(rng, 2, 9)
        if not degree_sets(et.rt)[1]:
            continue
        with_pass_through += 1
        w1, w2 = passthrough_counterexample_pair(et)
        assert restrict(w1.metric(), w1.v0()) == restrict(w2.metric(), w2.v0())
        assert not are_isomorphic(
            et.rt.tree, et.rt.tree, IsoFlavor.ROOTED_WEIGHTED,
            weights1=w1.weights, weights2=w2.weights, root1=et.rt.root, root2=et.rt.root,
        )
        m1, m2 = weight_to_labeling(w1), weight_to_labeling(w2)
        v0 = degree_sets(et.rt)[0]
        assert restrict(label_tree_metric(et.rt.tree, m1.labels)[0], v0) == restrict(
            label_tree_metric(et.rt.tree, m2.labels)[0], v0
        )
        assert not are_isomorphic(
            et.rt.tree, et.rt.tree, IsoFlavor.ROOTED_LABELED,
            labels1=m1.labels, labels2=m2.labels, root1=et.rt.root, root2=et.rt.root,
        )
    _ok("same-shape biconditionals hold without pass-through vertices and break with them")


def test_vertex_count_vs_ball_count_suite():
    rng = random.Random(1009)
    done = 0
    while done < 40:
        et = random_equidistant_tree(rng, 3, 9)
        v0, v1, v2 = degree_sets(et.rt)
        if len(v0) < 2 or not v2:
            continue
        done += 1
        space = restrict(et.metric(), v0)
        n_balls = len(ballean(space))
        assert len(et.rt.vertices) >= n_balls
        reduced = reduce_nabla(et).reduced
        dual = weight_to_labeling(reduced)
        tree = representing_tree(space)
        same = canonical_code(
            dual.rt.tree, IsoFlavor.ROOTED_LABELED, labels=dual.labels, root=dual.rt.root
        ) == canonical_code(
            tree.rt.tree, IsoFlavor.ROOTED_LABELED, labels=tree.labels, root=tree.rt.root
        )
        assert same
        assert (len(et.rt.vertices) == n_balls) == (not v1)
    _ok("vertex count >= ball count, equality exactly without pass-through vertices")


def test_planted_biconditional_suite():
    from ultratree import Graph, Tree
    from ultratree.payloads import edge_key

    rng = random.Random(1010)
    for _ in range(40):
        base = random_equidistant_tree(rng, 3, 8, branching_only=True)
        old_root = base.rt.root
        g = base.rt.tree
        t = Tree(Graph(list(g.vertices) + ["zz"], list(g.edges) + [(old_root, "zz")]))
        w = dict(base.weights)
        w[edge_key(old_root, "zz")] = F(rng.randint(1, 9), rng.choice((1, 2)))
        et = EquidistantTree(RootedTree(t, "zz"), w)
        holds, lhs, rhs = planted_leaf_ultrametric_check(et)
        leaf_class = restrict(et.metric(), t.leaves()).classify()
        assert holds == (leaf_class is MetricClass.ULTRAMETRIC)
        assert holds == (lhs >= rhs)
    _ok("planted leaf-ultrametric criterion matches classification on 40 trees")


def test_diameter_bound_suite():
    rng = random.Random(1011)
    for _ in range(60):
        et = random_equidistant_tree(rng, 2, 10)
        bound = diameter_bound_check(et)
        assert bound.diam_v0 <= 2 * bound.K
        assert bound.strict == et.rt.is_planted()
    _ok("leaf diameter bounded by 2K, strict exactly on planted trees")


def test_star_biconditional_suite():
    from ultratree import is_star, star_equidistant_witness

    rng = random.Random(1012)
    for _ in range(60):
        t = random_tree(rng, rng.randint(2, 8))
        witness = star_equidistant_witness(t)
        assert (witness is not None) == is_star(t)
        if witness is not None:
            assert centers(t, witness) == frozenset(t.vertices)
        else:
            for _ in range(4):
                assert centers(t, random_weights(rng, t)) != frozenset(t.vertices)
    _ok("star = existence of an all-roots equidistant weight, on trees up to 8 vertices")


def test_cyclic_counterexample_suite():
    rng = random.Random(1013)
    for _ in range(20):
        g = random_connected_graph(rng, rng.randint(3, 7), extra_edges=rng.randint(1, 4))
        w1, w2 = cyclic_weight_counterexample(g)
        s1, s2 = shortest_path_metric(g, w1), shortest_path_metric(g, w2)
        found = isometry_search(s1, s2)
        assert found is not None and is_isometry(s1, s2, found)
        assert not are_isomorphic(g, g, IsoFlavor.EDGE_WEIGHTED, weights1=w1, weights2=w2)
    _ok("cyclic-graph weight pairs are isometric yet non-isomorphic on 20 graphs")


def test_leaf_swap_witness_suite():
    rng = random.Random(1014)
    for _ in range(60):
        mt = generate_monotone(rng, 2, 9)
        swap = leaf_swap_isometry(mt)
        space = mt.metric()
        assert is_isometry(space, space, swap)
        assert not is_isomorphism(
            mt.rt.tree, mt.rt.tree, swap, labels1=mt.labels, labels2=mt.labels
        )
    _ok("leaf swap is an isometry but never a labeled-tree isomorphism, 60 trees")


def test_code_soundness_suite():
    rng = random.Random(1015)
    for _ in range(50):
        n = rng.randint(1, 6)
        t1 = random_tree(rng, n, prefix="a")
        t2 = random_tree(rng, n, prefix="b")
        l1 = {v: F(rng.randint(0, 2)) for v in t1.vertices}
        l2 = {v: F(rng.randint(0, 2)) for v in t2.vertices}
        w1 = {e: F(rng.randint(1, 3)) for e in t1.edges}
        w2 = {e: F(rng.randint(1, 3)) for e in t2.edges}
        assert are_isomorphic(t1, t2, IsoFlavor.FREE) == brute_iso(t1, t2)
        assert are_isomorphic(
            t1, t2, IsoFlavor.VERTEX_LABELED, labels1=l1, labels2=l2
        ) == brute_iso(t1, t2, labels1=l1, labels2=l2)
        assert are_isomorphic(
            t1, t2, IsoFlavor.EDGE_WEIGHTED, weights1=w1, weights2=w2
        ) == brute_iso(t1, t2, weights1=w1, weights2=w2)
    _ok("canonical codes agree with permutation search on 50 tree pairs")


# 4. determinism


def test_selftest_byte_identical():
    cmd = [sys.executable, "-m", "ultratree.cli", "selftest"]
    import os

    env = dict(os.environ, ULTRATREE_SEED="0")
    a = subprocess.run(cmd, capture_output=True, env=env)
    b = subprocess.run(cmd, capture_output=True, env=env)
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout and a.stdout
    _ok("selftest output byte-identical across consecutive runs")
