import random
from fractions import Fraction as F

import pytest

from ultratree import (
    EquidistantTree,
    Graph,
    MetricClass,
    RootedTree,
    Tree,
    additive_metric,
    analyze,
    centers,
    check_equidistant,
    degree_sets,
    diameter_bound_check,
    is_star,
    phylo_shape,
    planted_leaf_ultrametric_check,
    restrict,
    sphere_center_check,
    star_equidistant_witness,
)
from ultratree.errors import NoBranchingVertexError, NotPlantedError, NotUltrametricError
from ultratree.payloads import edge_key
from ultratree.metrics import FiniteMetricSpace

from helpers import (
    MIXED_DENS,
    fig1_tree,
    fig3_tree,
    fig10_tree,
    fig13_tree,
    mixed_equidistant_weights,
    centers_by_rooting,
    random_equidistant_tree,
    random_tree,
    random_weights,
    tree_from_edges,
)


def _planted_equidistant(rng, stem_weight=None):
    # hang a fresh root above a random equidistant tree
    base = random_equidistant_tree(rng, 3, 8, branching_only=True)
    old_root = base.rt.root
    g = base.rt.tree
    t = Tree(Graph(list(g.vertices) + ["zz_root"], list(g.edges) + [(old_root, "zz_root")]))
    w = dict(base.weights)
    w[edge_key(old_root, "zz_root")] = stem_weight if stem_weight is not None else F(rng.randint(1, 9), rng.choice((1, 2)))
    return EquidistantTree(RootedTree(t, "zz_root"), w)


def test_centers_fig3():
    t, w = fig3_tree()
    assert centers(t, w) == {"v1", "v4", "v5"}


def test_centers_fig13_empty():
    t, w = fig13_tree()
    assert centers(t, w) == frozenset()


def test_centers_equal_weight_star():
    t = tree_from_edges([("c", f"l{i}") for i in range(5)])
    w = {e: F(3) for e in t.edges}
    assert centers(t, w) == frozenset(t.vertices)


def test_is_star():
    assert is_star(tree_from_edges([("a", "b")]))
    assert not is_star(tree_from_edges([("a", "b"), ("b", "c"), ("c", "d")]))
    fig1_1 = tree_from_edges([("x0", f"x{i}") for i in range(1, 7)])
    assert is_star(fig1_1)
    assert not is_star(tree_from_edges([], vertices=["a"]))


def test_star_witness_basics():
    star = tree_from_edges([("c", f"l{i}") for i in range(6)])
    w = star_equidistant_witness(star)
    assert w == {e: F(1) for e in star.edges}
    assert centers(star, w) == frozenset(star.vertices)

    assert star_equidistant_witness(tree_from_edges([("a", "b"), ("b", "c"), ("c", "d")])) is None
    assert star_equidistant_witness(tree_from_edges([("a", "b")])) == {("a", "b"): F(1)}


def test_path3_is_a_star_with_equal_weight_witness():
    # two edges and a middle vertex adjacent to everything: a star
    t = tree_from_edges([("a", "b"), ("b", "c")])
    assert is_star(t)
    w = star_equidistant_witness(t)
    assert w is not None and centers(t, w) == frozenset(t.vertices)


def test_path4_has_no_all_roots_weight():
    t = tree_from_edges([("a", "b"), ("b", "c"), ("c", "d")])
    assert not is_star(t)
    small = [F(n, d) for n in range(1, 5) for d in (1, 2)]
    for w_ab in small:
        for w_bc in small:
            for w_cd in small:
                w = {("a", "b"): w_ab, ("b", "c"): w_bc, ("c", "d"): w_cd}
                assert centers(t, w) != frozenset(t.vertices)


def test_star_biconditional_fuzz():
    rng = random.Random(191)
    for _ in range(40):
        t = random_tree(rng, rng.randint(2, 8))
        witness = star_equidistant_witness(t)
        assert (witness is not None) == is_star(t)
        if witness is not None:
            assert centers(t, witness) == frozenset(t.vertices)
        else:
            for _ in range(5):
                w = random_weights(rng, t)
                assert centers(t, w) != frozenset(t.vertices)


def test_sphere_center_two_points():
    s = FiniteMetricSpace(["a", "b"], [[F(0), F(5)], [F(5), F(0)]])
    assert sphere_center_check(s) == ("a", F(5))


def test_sphere_center_equilateral_plus_center():
    pts = ["a", "b", "c", "z"]
    d = {("a", "b"): F(2), ("a", "c"): F(2), ("b", "c"): F(2),
         ("a", "z"): F(3), ("b", "z"): F(3), ("c", "z"): F(3)}

    def dist(x, y):
        return d.get((x, y)) or d.get((y, x)) or F(0)

    s = FiniteMetricSpace(pts, [[dist(x, y) for y in pts] for x in pts])
    assert sphere_center_check(s) == ("z", F(3))


def test_sphere_center_fig13_none():
    t, w = fig13_tree()
    leaf = restrict(additive_metric(t, w), ["x1", "x2", "x3", "x4"])
    assert sphere_center_check(leaf) is None


def test_sphere_center_rejects_non_ultrametric():
    s = FiniteMetricSpace(["a", "b", "c"],
                          [[F(0), F(1), F(2)], [F(1), F(0), F(1)], [F(2), F(1), F(0)]])
    with pytest.raises(NotUltrametricError):
        sphere_center_check(s)


def test_leaf_root_equivalences():
    rng = random.Random(193)
    done = 0
    while done < 30:
        if rng.random() < 0.6:
            et = (
                _planted_equidistant(rng)
                if rng.random() < 0.5
                else random_equidistant_tree(rng, 2, 9)
            )
            t, w = et.rt.tree, et.weights
        else:
            t = random_tree(rng, rng.randint(2, 9))
            w = random_weights(rng, t)
        space = additive_metric(t, w)
        leaves = sorted(t.leaves())
        leaf_space = restrict(space, leaves)
        if leaf_space.classify() is not MetricClass.ULTRAMETRIC:
            continue
        done += 1
        c1 = any(check_equidistant(RootedTree(t, r), w) is not None for r in leaves)
        c2 = sphere_center_check(leaf_space) is not None
        c3 = any(
            RootedTree(t, r).is_planted()
            and check_equidistant(RootedTree(t, r), w) is not None
            for r in t.vertices
        )
        assert c1 == c2 == c3


def test_planted_check_fig10():
    rt, w = fig10_tree()
    holds, lhs, rhs = planted_leaf_ultrametric_check(EquidistantTree(rt, w))
    assert (holds, lhs, rhs) == (False, F(6), F(7))
    space = additive_metric(rt.tree, w)
    assert restrict(space, rt.tree.leaves()).classify() is MetricClass.METRIC_ONLY


def test_planted_check_positive_instance():
    # lengthen the stem until the inequality flips, then leaves go ultrametric
    t = tree_from_edges([("r", "a"), ("a", "b"), ("b", "c"), ("b", "d")])
    w = {("r", "a"): F(3), ("a", "b"): F(1), ("b", "c"): F(4), ("b", "d"): F(4)}
    et = EquidistantTree(RootedTree(t, "r"), w)
    holds, lhs, rhs = planted_leaf_ultrametric_check(et)
    assert holds and lhs == 8 and rhs == 8
    space = additive_metric(t, w)
    assert restrict(space, t.leaves()).classify() is MetricClass.ULTRAMETRIC


def test_planted_check_errors():
    t3, w3 = fig3_tree()
    not_planted = EquidistantTree(RootedTree(t3, "v1"), w3)
    with pytest.raises(NotPlantedError):
        planted_leaf_ultrametric_check(not_planted)
    path = EquidistantTree(
        RootedTree(tree_from_edges([("a", "b"), ("b", "c")]), "a"),
        {("a", "b"): F(1), ("b", "c"): F(1)},
    )
    with pytest.raises(NoBranchingVertexError):
        planted_leaf_ultrametric_check(path)


def test_planted_biconditional_fuzz():
    rng = random.Random(197)
    for _ in range(30):
        et = _planted_equidistant(rng)
        holds, _, _ = planted_leaf_ultrametric_check(et)
        space = et.metric()
        leaf_class = restrict(space, et.rt.tree.leaves()).classify()
        assert holds == (leaf_class is MetricClass.ULTRAMETRIC)
    holding = 0
    for n in (4, 10, 40, 120, 300):  # weights over large coprime denominators, planted at a tree leaf
        for stem in (F(0), F(10**6, 7)):  # a heavy stem lifts 2 min d(v2) past K
            t = random_tree(rng, n)
            rt = RootedTree(t, min(t.leaves()))
            w, plain, K = mixed_equidistant_weights(rng, rt)
            w[edge_key(rt.root, *rt.children(rt.root))] += stem
            v0, _, v2 = degree_sets(rt)
            if not v2:
                continue
            want = (2 * (min(plain[v] for v in v2) + stem), K + stem)
            holds, lhs, rhs = planted_leaf_ultrametric_check(EquidistantTree(rt, w))
            assert (lhs, rhs) == want and holds == (lhs >= rhs)
            leaf_class = restrict(additive_metric(t, w), t.leaves()).classify()
            assert holds == (leaf_class is MetricClass.ULTRAMETRIC)
            holding += holds
    assert 0 < holding < 10


def test_diameter_bound_fig10_and_fig3():
    rt, w = fig10_tree()
    bound = diameter_bound_check(EquidistantTree(rt, w))
    assert bound.diam_v0 == 8 and bound.K == 7 and bound.strict

    t3, w3 = fig3_tree()
    bound3 = diameter_bound_check(EquidistantTree(RootedTree(t3, "v1"), w3))
    assert bound3.diam_v0 == 8 and bound3.K == 4 and not bound3.strict


def test_diameter_bound_tiny_star():
    rt = RootedTree(tree_from_edges([("r", "a"), ("r", "b")]), "r")
    bound = diameter_bound_check(EquidistantTree(rt, {("r", "a"): F(1), ("r", "b"): F(1)}))
    assert bound.diam_v0 == 2 and bound.K == 1 and not bound.strict


def test_diameter_bound_strict_iff_planted():
    rng = random.Random(199)
    for _ in range(30):
        et = (
            _planted_equidistant(rng)
            if rng.random() < 0.4
            else random_equidistant_tree(rng, 2, 10)
        )
        bound = diameter_bound_check(et)
        assert bound.diam_v0 <= 2 * bound.K
        assert bound.strict == et.rt.is_planted()


def test_diameter_bound_equals_the_materialized_metric():
    # the double sweep against the diameters of the restricted additive metric:
    # generated trees (planted ones too) and trees with weights over MIXED_DENS,
    # up to 60 vertices; then one 5000-vertex tree, with no time limit
    rng = random.Random(211)
    for i in range(90):
        if i % 3 == 2:
            rt = RootedTree(random_tree(rng, rng.randint(2, 60)), f"v{rng.randrange(2):02d}")
            et = EquidistantTree(rt, mixed_equidistant_weights(rng, rt)[0])
        else:
            et = _planted_equidistant(rng) if i % 3 else random_equidistant_tree(rng, 1, 60)
        v0, v1, _ = degree_sets(et.rt)
        space = et.metric()
        want = (restrict(space, v0).diameter(), restrict(space, v1).diameter() if v1 else F(0))
        bound = diameter_bound_check(et)
        assert (bound.diam_v0, bound.diam_v1) == want
        assert (bound.K, bound.strict) == (et.K, want[0] < 2 * et.K)
    big = random_equidistant_tree(rng, 5000, 5000)
    bound = diameter_bound_check(big)
    assert bound.diam_v0 <= 2 * big.K and bound.strict == big.rt.is_planted()


def test_phylo_shape():
    assert phylo_shape(tree_from_edges([("c", "a"), ("c", "b"), ("c", "d")]))
    assert not phylo_shape(tree_from_edges([("a", "b"), ("b", "c")]))
    assert phylo_shape(fig1_tree())
    assert phylo_shape(tree_from_edges([("a", "b")]))
    assert phylo_shape(tree_from_edges([], vertices=["a"]))


def test_analyze_report_fig10():
    rt, w = fig10_tree()
    report = analyze(rt.tree, w, root="r")
    assert report.planted is True
    assert report.K == 7
    assert report.branching_lhs == 6 and report.branching_rhs == 7
    assert not report.is_star
    assert report.centers == ("r",)


def test_analyze_report_unrooted():
    t, w = fig3_tree()
    report = analyze(t, w)
    assert report.planted is None and report.K is None
    assert report.centers == ("v1", "v4", "v5")


def test_centers_equal_rooting_oracle():
    rng = random.Random(229)
    cases = [fig3_tree(), (tree_from_edges([], vertices=["a"]), {}),
             (tree_from_edges([("a", "b")]), {("a", "b"): F(5, 2)})]
    for i in range(200):
        n = rng.randint(2, 300 if i % 20 == 0 else 60)
        kind = i % 4
        if kind == 0:  # equidistant by construction, from a monotone labeling
            et = random_equidistant_tree(rng, 2, n)
            cases.append((et.rt.tree, et.weights))
        elif kind == 3:  # a star with all-ones weights: every vertex a center
            star = tree_from_edges([("c", f"l{j:03d}") for j in range(n - 1)])
            cases.append((star, {e: F(1) for e in star.edges}))
        else:  # few distinct weights, so equal leaf distances are common
            t = random_tree(rng, n)
            cases.append((t, {e: F(rng.randint(1, kind)) for e in t.edges}))
    for n in (2, 3, 40, 120, 300):  # weights over large coprime denominators
        t = random_tree(rng, n)
        w, _, _ = mixed_equidistant_weights(rng, RootedTree(t, rng.choice(t.vertices)))
        cases += [(t, w), (t, {e: F(rng.randint(1, 40), rng.choice(MIXED_DENS)) for e in t.edges})]
    for k in range(3, 13):  # stars whose leaf weights are equal except one: that leaf is the one center
        star = tree_from_edges([("c", f"l{j:02d}") for j in range(k)])
        leaf = f"l{k // 2:02d}"
        for odd in (F(1), F(3)):
            w = {e: F(2) for e in star.edges} | {("c", leaf): odd}
            cases.append((star, w))
            assert centers(star, w) == {leaf}
    for n in range(2, 13):  # paths: both ends, and the middle vertex when it is the weighted midpoint
        path = tree_from_edges([(f"p{j:02d}", f"p{j + 1:02d}") for j in range(n - 1)])
        half = [F(rng.randint(1, 3)) for _ in range((n - 1) // 2)]
        mirrored = dict(zip(path.edges, half + [F(rng.randint(1, 3))] * (n % 2 == 0) + half[::-1]))
        for w in (mirrored, {e: F(rng.randint(1, 3), rng.choice((1, 2))) for e in path.edges}):
            cases.append((path, w))
            assert {"p00", f"p{n - 1:02d}"} <= centers(path, w)
        if n > 2:  # the middle vertex, or the vertex after the middle edge
            assert (f"p{n // 2:02d}" in centers(path, mirrored)) == (n % 2 == 1)
    for spine in range(2, 9):  # brooms and caterpillars whose leaf edges all weigh the same
        handle = [(f"h{j}", f"h{j + 1}") for j in range(spine)]
        broom = tree_from_edges(handle + [(f"h{spine}", f"z{j}") for j in range(rng.randint(2, 5))])
        legs = [(f"h{j}", f"y{j}{i}") for j in range(1, spine) for i in range(rng.randint(1, 3))]
        caterpillar = tree_from_edges(handle + legs)
        for t in (broom, caterpillar):
            leaf_edges = {e for e in t.edges if t.degree(e[0]) == 1 or t.degree(e[1]) == 1}
            for inner in (F(1), F(rng.randint(1, 4), 2)):
                cases.append((t, {e: F(1) if e in leaf_edges else inner for e in t.edges}))
    arm_lengths = ((1, 1, 2), (1, 2, 2), (1, 1, 1, 2), (1, 2, 2, 2), (1, 1, 2, 2), (1, 1, 2, 2, 2), (1, 2, 3), (2, 2, 2))
    for lengths in arm_lengths:
        # a hub m whose sides tie two ways (or three ways, or one), seen from the end of an arm
        arms = [[f"x{j}{i}" for i in range(k)] for j, k in enumerate(lengths)]
        arms[0][-1] = "a"  # the first vertex, where the two passes start
        hub = tree_from_edges([(u, v) for arm in arms for u, v in zip(["m", *arm], arm)])
        cases.append((hub, {e: F(1) for e in hub.edges}))
        cases.append((hub, {e: F(rng.randint(1, 2)) for e in hub.edges}))
        assert ("m" in centers(hub, cases[-2][1])) == (len(set(lengths)) == 1)
    with_centers = 0
    for t, w in cases:
        found = centers(t, w)
        assert found == centers_by_rooting(t, w)
        with_centers += bool(found)
    assert centers(*fig3_tree()) == {"v1", "v4", "v5"}
    assert with_centers > 100
    star = tree_from_edges([("c", f"l{j:05d}") for j in range(20000)])  # too big for the oracle
    assert centers(star, {e: F(1) for e in star.edges} | {("c", "l12345"): F(2)}) == {"l12345"}


def test_analyze_reads_K_only_at_a_center():
    t, w = fig3_tree()  # centers v1, v4 and v5
    off = analyze(t, w, root="v6")  # a leaf: planted, but its leaves lie at 4 and 8
    assert (off.planted, off.K, off.branching_lhs, off.branching_rhs) == (True, None, None, None)
    assert off.centers == ("v1", "v4", "v5")
    on = analyze(t, w, root="v4")  # planted, with v1 the nearest branching vertex at 4
    assert (on.planted, on.K, on.branching_lhs, on.branching_rhs) == (True, 8, 8, 8)
    top = analyze(t, w, root="v1")
    assert (top.planted, top.K, top.branching_lhs, top.branching_rhs) == (False, 4, None, None)
