import hashlib
import itertools
import random
import sys
from fractions import Fraction as F

import pytest

from ultratree import (
    Graph,
    IsoFlavor,
    MonotoneTree,
    RootedTree,
    additive_metric,
    are_isomorphic,
    canonical_code,
    edge_key,
    generate_monotone,
    is_isometry,
    is_isomorphism,
    isometry_search,
    label_tree_metric,
    leaf_swap_isometry,
    tree_centers,
    ultrametric_isometric,
)
from ultratree.errors import (
    MissingPayloadError,
    NotUltrametricError,
    SingleVertexTreeError,
    SizeLimitError,
    VertexNotFoundError,
)
from ultratree import canonical, tree_codes
from ultratree.metrics import FiniteMetricSpace
from ultratree.rational import format_rational
from ultratree.transforms import cyclic_weight_counterexample

from helpers import (
    brute_iso,
    fig6_graph,
    fig11_trees,
    rename_labels,
    rename_tree,
    rename_weights,
    rooted_shapes,
    random_tree,
    random_ultrametric_space,
    random_weights,
    rooted_code_by_recursion,
    shuffled_renaming,
    tree_from_edges,
)


def _fig2_pair():
    path = tree_from_edges([("p1", "p2"), ("p2", "p3"), ("p3", "p4"), ("p4", "p5")])
    path_labels = {f"p{i}": F(i - 1) for i in range(1, 6)}
    star = tree_from_edges([("s1", "s2"), ("s1", "s3"), ("s1", "s4"), ("s1", "s5")])
    star_labels = {f"s{i}": F(i - 1) for i in range(1, 6)}
    return (path, path_labels), (star, star_labels)


def test_tree_centers():
    path4 = tree_from_edges([("a", "b"), ("b", "c"), ("c", "d")])
    assert tree_centers(path4) == ("b", "c")
    path5 = tree_from_edges([("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")])
    assert tree_centers(path5) == ("c",)
    assert tree_centers(tree_from_edges([], vertices=["x"])) == ("x",)


def test_free_code_ignores_planting_and_names():
    t = tree_from_edges([("a", "b"), ("b", "c"), ("c", "d"), ("b", "e")])
    code = canonical_code(t, IsoFlavor.FREE)
    renamed = rename_tree(t, {"a": "z", "b": "y", "c": "x", "d": "w", "e": "v"})
    assert canonical_code(renamed, IsoFlavor.FREE) == code
    # same free tree, different rooted codes
    assert canonical_code(t, IsoFlavor.ROOTED, root="a") != canonical_code(
        t, IsoFlavor.ROOTED, root="b"
    )


def test_fig2_codes_differ_but_spaces_match():
    (path, pl), (star, sl) = _fig2_pair()
    assert canonical_code(path, IsoFlavor.VERTEX_LABELED, labels=pl) != canonical_code(
        star, IsoFlavor.VERTEX_LABELED, labels=sl
    )
    s1, _ = label_tree_metric(path, pl)
    s2, _ = label_tree_metric(star, sl)
    found = isometry_search(s1, s2)
    assert found is not None and is_isometry(s1, s2, found)
    assert ultrametric_isometric(s1, s2)


def test_code_invariance_under_renaming():
    rng = random.Random(71)
    for _ in range(15):
        t = random_tree(rng, rng.randint(1, 7))
        w = random_weights(rng, t)
        labels = {v: F(rng.randint(0, 4)) for v in t.vertices}
        names = list(t.vertices)
        shuffled = names[:]
        rng.shuffle(shuffled)
        m = dict(zip(names, shuffled))
        t2 = rename_tree(t, m)
        assert canonical_code(t, IsoFlavor.FREE) == canonical_code(t2, IsoFlavor.FREE)
        assert canonical_code(
            t, IsoFlavor.VERTEX_LABELED, labels=labels
        ) == canonical_code(t2, IsoFlavor.VERTEX_LABELED, labels=rename_labels(labels, m))
        assert canonical_code(
            t, IsoFlavor.EDGE_WEIGHTED, weights=w
        ) == canonical_code(t2, IsoFlavor.EDGE_WEIGHTED, weights=rename_weights(w, m))
        r = names[0]
        assert canonical_code(
            t, IsoFlavor.ROOTED_WEIGHTED, weights=w, root=r
        ) == canonical_code(
            t2, IsoFlavor.ROOTED_WEIGHTED, weights=rename_weights(w, m), root=m[r]
        )


def test_payload_enforcement():
    t = tree_from_edges([("a", "b")])
    with pytest.raises(MissingPayloadError):
        canonical_code(t, IsoFlavor.ROOTED)
    with pytest.raises(MissingPayloadError):
        canonical_code(t, IsoFlavor.VERTEX_LABELED)
    with pytest.raises(ValueError):
        canonical_code(t, IsoFlavor.FREE, labels={"a": F(0), "b": F(0)})


def test_codes_agree_with_permutation_search():
    rng = random.Random(73)
    for _ in range(40):
        n = rng.randint(1, 7)
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
        r1, r2 = t1.vertices[0], t2.vertices[-1]
        assert are_isomorphic(
            t1, t2, IsoFlavor.ROOTED, root1=r1, root2=r2
        ) == brute_iso(t1, t2, root1=r1, root2=r2)


def test_graph_brute_force_and_size_limit():
    g1 = Graph("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
    g2 = Graph("wxyz", [("w", "x"), ("x", "y"), ("y", "z"), ("w", "z")])
    assert are_isomorphic(g1, g2, IsoFlavor.FREE)
    triangle_plus = Graph("abcd", [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")])
    assert not are_isomorphic(g1, triangle_plus, IsoFlavor.FREE)
    big = Graph(
        [f"v{i}" for i in range(9)],
        [(f"v{i}", f"v{(i + 1) % 9}") for i in range(9)] + [("v0", "v2")],
    )
    with pytest.raises(SizeLimitError):
        are_isomorphic(big, big, IsoFlavor.FREE)


def test_different_sizes_are_answered_beyond_the_search_cap():
    # Vertex, edge or point counts that differ decide the answer before the
    # search's size cap is looked at; payloads are still checked first, and equal
    # sizes beyond the cap are still refused.
    names = [f"v{i:02d}" for i in range(20)]
    path = tree_from_edges(zip(names, names[1:]))
    cycle = Graph(names, [*zip(names, names[1:]), (names[-1], names[0])])
    small_cycle = Graph(names[:12], [*zip(names[:11], names[1:12]), (names[11], names[0])])
    labels = {v: F(1) for v in names}
    for g1, g2 in ((path, cycle), (cycle, path), (cycle, small_cycle), (small_cycle, cycle)):
        assert are_isomorphic(g1, g2, IsoFlavor.FREE) is False
        assert are_isomorphic(g1, g2, IsoFlavor.VERTEX_LABELED, labels1=labels, labels2=labels) is False
        w1, w2 = ({e: F(2) for e in g.edges} for g in (g1, g2))
        assert are_isomorphic(g1, g2, IsoFlavor.EDGE_WEIGHTED, weights1=w1, weights2=w2) is False
        with pytest.raises(ValueError, match="rooted flavors are defined for trees only"):
            are_isomorphic(g1, g2, IsoFlavor.ROOTED, root1=names[0], root2=names[0])
    short = {v: F(1) for v in names[:-1]}
    with pytest.raises(ValueError, match="missing label for vertex 'v19'"):
        are_isomorphic(small_cycle, cycle, IsoFlavor.VERTEX_LABELED, labels1=labels, labels2=short)
    with pytest.raises(SizeLimitError, match="graph isomorphism is limited to 8 vertices"):
        are_isomorphic(cycle, cycle, IsoFlavor.FREE)
    rng = random.Random(89)
    s10, s12 = random_ultrametric_space(rng, 10), random_ultrametric_space(rng, 12)
    assert isometry_search(s10, s12) is None and isometry_search(s12, s10) is None
    with pytest.raises(SizeLimitError, match="isometry search is limited to 9 points"):
        isometry_search(s10, s10)


def _random_graph(rng, n, prefix, m):
    names = [f"{prefix}{i}" for i in range(n)]
    return Graph(names, rng.sample(list(itertools.combinations(names, 2)), m))


def _renamed_copy(rng, g):
    new = dict(zip(g.vertices, rng.sample([f"b{i}" for i in range(len(g.vertices))], len(g.vertices))))
    return Graph(new.values(), [(new[u], new[v]) for u, v in g.edges]), new


def test_graph_search_equals_permutation_reference():
    # The non-tree branch of are_isomorphic against helpers.brute_iso, on
    # graphs with cycles; payloads from {0, 1} and {1, 2}, so ties are common.
    rng = random.Random(409)
    verdicts = {flavor: set() for flavor in (IsoFlavor.FREE, IsoFlavor.VERTEX_LABELED, IsoFlavor.EDGE_WEIGHTED)}
    for _ in range(300):
        n = rng.randint(3, 7)
        g1 = _random_graph(rng, n, "a", rng.randint(n, min(n * (n - 1) // 2, 2 * n)))  # |E| >= |V|: a cycle
        l1 = {v: F(rng.randint(0, 1)) for v in g1.vertices}
        w1 = {e: F(rng.randint(1, 2)) for e in g1.edges}
        if rng.random() < 0.5:  # a relabeled copy, sometimes with one payload changed
            g2, new = _renamed_copy(rng, g1)
            l2 = rename_labels(l1, new)
            w2 = rename_weights(w1, new)
            if rng.random() < 0.5:
                l2[rng.choice(g2.vertices)] = F(rng.randint(0, 1))
                w2[rng.choice(g2.edges)] = F(rng.randint(1, 2))
        else:
            g2 = _random_graph(rng, n, "b", len(g1.edges))
            l2 = {v: F(rng.randint(0, 1)) for v in g2.vertices}
            w2 = {e: F(rng.randint(1, 2)) for e in g2.edges}
        assert not g1.is_tree()
        cases = {
            IsoFlavor.FREE: ({}, {}),
            IsoFlavor.VERTEX_LABELED: ({"labels1": l1, "labels2": l2}, {}),
            IsoFlavor.EDGE_WEIGHTED: ({}, {"weights1": w1, "weights2": w2}),
        }
        for flavor, (labels, weights) in cases.items():
            verdict = are_isomorphic(g1, g2, flavor, **labels, **weights)
            assert verdict == brute_iso(g1, g2, **labels, **weights), (flavor, g1, g2)
            verdicts[flavor].add(verdict)
    assert all(seen == {True, False} for seen in verdicts.values())


def _isomorphism_by_definition(a, b, f, labels1, labels2, weights1, weights2, root1, root2):
    if sorted(f) != list(a.vertices) or sorted(f.values()) != list(b.vertices):
        return False  # not a bijection V(a) -> V(b)
    if root1 is not None and f[root1] != root2:
        return False
    ea, eb = set(a.edges), set(b.edges)
    for u, v in itertools.combinations(a.vertices, 2):
        if ((u, v) in ea) != (edge_key(f[u], f[v]) in eb):
            return False
        if (u, v) in ea and weights1 is not None and weights1[(u, v)] != weights2[edge_key(f[u], f[v])]:
            return False
    return labels1 is None or all(labels1[v] == labels2[f[v]] for v in a.vertices)


def test_is_isomorphism_equals_definition_for_every_map():
    rng = random.Random(419)
    verdicts = set()
    for _ in range(40):
        n = rng.randint(1, 5)
        g1 = _random_graph(rng, n, "a", rng.randint(0, n * (n - 1) // 2))
        g2, new = _renamed_copy(rng, g1)
        l1 = {v: F(rng.randint(0, 1)) for v in g1.vertices}
        w1 = {e: F(rng.randint(1, 2)) for e in g1.edges}
        l2, w2 = rename_labels(l1, new), rename_weights(w1, new)
        if rng.random() < 0.5:
            l2[rng.choice(g2.vertices)] = F(rng.randint(0, 1))
        if g2.edges and rng.random() < 0.5:
            w2[rng.choice(g2.edges)] = F(rng.randint(1, 2))
        root1, root2 = rng.choice(g1.vertices), rng.choice(g2.vertices)
        maps = [dict(zip(g1.vertices, perm)) for perm in itertools.permutations(g2.vertices)]
        if n > 1:  # and two maps that are not bijections
            maps.append(dict(zip(g1.vertices, [g2.vertices[0]] * n)))
            maps.append(dict(zip(g1.vertices[1:], g2.vertices[1:])))
        for f in maps:
            for use_l, use_w, use_r in itertools.product((False, True), repeat=3):
                args = (l1 if use_l else None, l2 if use_l else None, w1 if use_w else None,
                        w2 if use_w else None, root1 if use_r else None, root2 if use_r else None)
                verdict = is_isomorphism(g1, g2, f, *args)
                assert verdict == _isomorphism_by_definition(g1, g2, f, *args), (g1, g2, f, args)
                verdicts.add(verdict)
    assert verdicts == {True, False}


def _outcome(f, *args, **kwargs):
    try:
        return f(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)


def test_is_isomorphism_checks_payloads_and_roots_as_are_isomorphic():
    # the identity map on a path (canonical codes) and on a triangle (the search)
    path = tree_from_edges([("a", "b"), ("b", "c")])
    triangle = Graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    labels = {"a": F(1), "b": F(2), "c": F(1)}
    negative = {**labels, "a": F(-1)}
    outcomes = []
    for g in (path, triangle):
        weights = {e: F(i + 1) for i, e in enumerate(g.edges)}
        cases = [
            (IsoFlavor.EDGE_WEIGHTED, dict(weights1={(v, u): x for (u, v), x in weights.items()}, weights2=weights)),
            (IsoFlavor.VERTEX_LABELED, dict(labels1={"a": F(1), "b": F(2)}, labels2=labels)),
            (IsoFlavor.VERTEX_LABELED, dict(labels1=negative, labels2=negative)),
        ]
        if g is path:  # rooted flavors are defined for trees only
            cases += [(IsoFlavor.ROOTED, dict(root1="q", root2="b")), (IsoFlavor.ROOTED, dict(root1="b", root2="x"))]
        for flavor, kwargs in cases:
            expected = _outcome(are_isomorphic, g, g, flavor, **kwargs)
            assert _outcome(is_isomorphism, g, g, {v: v for v in g.vertices}, **kwargs) == expected, (g, kwargs)
            outcomes.append(expected)
    assert outcomes[:5] == [
        True,
        (ValueError, "missing label for vertex 'c'"),
        (ValueError, "negative label -1 on vertex 'a'"),
        (VertexNotFoundError, "root 'q' not a vertex"),
        (VertexNotFoundError, "root 'x' not a vertex"),
    ]


def test_trees_and_graphs_refuse_payload_defects_alike():
    # One payload rule on both routes: of two defective sides, the left one's first
    # defect is refused, on a path (canonical codes) as on a triangle (the search),
    # and on a triangle against a square before their sizes decide.
    path = tree_from_edges([("a", "b"), ("b", "c")])
    triangle = Graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    square = Graph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
    good, bad = {"a": F(1), "b": F(2), "c": F(1)}, {"a": F(-1), "b": F(2), "c": F(1)}
    negative = (ValueError, "negative label -1 on vertex 'a'")
    cases = [
        (dict(labels1=bad, labels2=None), negative),
        (dict(labels1=bad, labels2={"a": F(1)}), negative),
        (dict(labels1=None, labels2=bad), (MissingPayloadError, "flavor vlabel needs vertex labels")),
        (dict(labels1=good, labels2=bad, weights1={("a", "b"): F(1)}), (ValueError, "flavor vlabel takes no weights")),
        (dict(labels1={"a": F(1)}, labels2=bad), (ValueError, "missing label for vertex 'b'")),
    ]
    for kwargs, refusal in cases:
        for g1, g2 in ((path, path), (triangle, triangle), (path, triangle), (triangle, square)):
            assert _outcome(are_isomorphic, g1, g2, IsoFlavor.VERTEX_LABELED, **kwargs) == refusal, (g1, kwargs)


def test_cyclic_counterexample_weightings_not_isomorphic():
    g, _ = fig6_graph()
    w1, w2 = cyclic_weight_counterexample(g)
    assert not are_isomorphic(g, g, IsoFlavor.EDGE_WEIGHTED, weights1=w1, weights2=w2)


def test_tree_not_isomorphic_to_its_reduction():
    from ultratree import EquidistantTree, reduce_nabla
    from helpers import fig5_tree

    rt, w = fig5_tree()
    reduced = reduce_nabla(EquidistantTree(rt, w)).reduced
    assert not are_isomorphic(rt.tree, reduced.rt.tree, IsoFlavor.FREE)


def test_isometry_search_basics():
    rng = random.Random(79)
    for _ in range(10):
        s = random_ultrametric_space(rng, rng.randint(1, 6))
        assert isometry_search(s, s) == {p: p for p in s.points}

    a = FiniteMetricSpace(["a", "b", "c"],
                          [[F(0), F(1), F(1)], [F(1), F(0), F(2)], [F(1), F(2), F(0)]])
    b = FiniteMetricSpace(["x", "y", "z"],
                          [[F(0), F(1), F(2)], [F(1), F(0), F(2)], [F(2), F(2), F(0)]])
    assert isometry_search(a, b) is None

    big = random_ultrametric_space(random.Random(83), 10)
    with pytest.raises(SizeLimitError):
        isometry_search(big, big)


def test_ultrametric_isometric_agrees_with_search():
    rng = random.Random(89)
    for _ in range(40):
        s1 = random_ultrametric_space(rng, rng.randint(1, 6))
        if rng.random() < 0.5:
            s2 = shuffled_renaming(rng, s1)
        else:
            s2 = random_ultrametric_space(rng, rng.randint(1, 6), )
        fast = ultrametric_isometric(s1, s2)
        slow = isometry_search(s1, s2)
        assert fast == (slow is not None)
        if slow is not None:
            assert is_isometry(s1, s2, slow)


def test_ultrametric_isometric_rejects_non_ultrametric():
    bad = FiniteMetricSpace(["a", "b", "c"],
                            [[F(0), F(1), F(2)], [F(1), F(0), F(1)], [F(2), F(1), F(0)]])
    with pytest.raises(NotUltrametricError, match="^both spaces must be ultrametric$"):
        ultrametric_isometric(bad, bad)


def test_ultrametric_isometric_classifies_each_space_once(monkeypatch):
    import ultratree.representing as representing

    # the engine decides and builds in one call
    calls = []
    real = representing._linkage
    monkeypatch.setattr(representing, "_linkage", lambda mat: calls.append(len(mat)) or real(mat))
    s1 = random_ultrametric_space(5, 9)
    s2 = shuffled_renaming(6, s1)
    assert ultrametric_isometric(s1, s2)
    assert calls == [9, 9]


def test_equal_additive_metrics_force_equal_weighted_trees():
    # identity isometry between two weighted trees on one vertex set means
    # the trees and weights coincide; so any difference must show up in the
    # metric
    rng = random.Random(227)
    for _ in range(30):
        n = rng.randint(2, 7)
        t1 = random_tree(rng, n)
        w1 = random_weights(rng, t1)
        s1 = additive_metric(t1, w1)
        ident = {v: v for v in s1.points}
        assert is_isometry(s1, additive_metric(t1, dict(w1)), ident)

        bumped = dict(w1)
        edge = t1.edges[rng.randrange(len(t1.edges))]
        bumped[edge] = bumped[edge] + F(1, 3)
        assert not is_isometry(s1, additive_metric(t1, bumped), ident)

        t2 = random_tree(random.Random(rng.randrange(10**6)), n)
        w2 = random_weights(rng, t2)
        if (t2, w2) != (t1, w1):
            assert not is_isometry(s1, additive_metric(t2, w2), ident)


def test_weighted_tree_isometry_iff_weighted_isomorphism():
    rng = random.Random(97)
    for _ in range(30):
        n = rng.randint(2, 7)
        t1 = random_tree(rng, n, prefix="a")
        w1 = random_weights(rng, t1)
        if rng.random() < 0.5:
            names = list(t1.vertices)
            shuffled = [f"b{i:02d}" for i in range(n)]
            rng.shuffle(shuffled)
            m = dict(zip(names, shuffled))
            t2, w2 = rename_tree(t1, m), rename_weights(w1, m)
        else:
            t2 = random_tree(rng, n, prefix="b")
            w2 = random_weights(rng, t2)
        iso = are_isomorphic(t1, t2, IsoFlavor.EDGE_WEIGHTED, weights1=w1, weights2=w2)
        isometric = (
            isometry_search(additive_metric(t1, w1), additive_metric(t2, w2)) is not None
        )
        assert iso == isometric


def test_monotone_label_isomorphism_iff_space_isometry():
    rng = random.Random(101)
    for _ in range(30):
        m1 = generate_monotone(rng, 1, 8, branching_only=True)
        if rng.random() < 0.5:
            names = list(m1.rt.vertices)
            shuffled = [f"w{i:02d}" for i in range(len(names))]
            rng.shuffle(shuffled)
            mp = dict(zip(names, shuffled))
            t2 = rename_tree(m1.rt.tree, mp)
            m2 = MonotoneTree(RootedTree(t2, mp[m1.rt.root]), rename_labels(m1.labels, mp))
        else:
            m2 = generate_monotone(rng, 1, 8, branching_only=True)
        iso = are_isomorphic(
            m1.rt.tree, m2.rt.tree, IsoFlavor.VERTEX_LABELED,
            labels1=m1.labels, labels2=m2.labels,
        )
        isometric = ultrametric_isometric(m1.metric(), m2.metric())
        assert iso == isometric


def test_leaf_swap_small_star():
    mt = MonotoneTree(
        RootedTree(tree_from_edges([("r", "a"), ("r", "b")]), "r"),
        {"r": F(2), "a": F(0), "b": F(0)},
    )
    swap = leaf_swap_isometry(mt)
    assert swap["a"] == "r" and swap["r"] == "a" and swap["b"] == "b"
    space = mt.metric()
    assert is_isometry(space, space, swap)
    assert not is_isomorphism(
        mt.rt.tree, mt.rt.tree, swap, labels1=mt.labels, labels2=mt.labels
    )


def test_leaf_swap_fig11():
    rt, _, labels = fig11_trees()
    mt = MonotoneTree(rt, labels)
    swap = leaf_swap_isometry(mt)
    space = mt.metric()
    assert is_isometry(space, space, swap)
    assert not is_isomorphism(
        mt.rt.tree, mt.rt.tree, swap, labels1=mt.labels, labels2=mt.labels
    )


def test_leaf_swap_random_monotone():
    rng = random.Random(103)
    for _ in range(25):
        mt = generate_monotone(rng, 2, 8)
        swap = leaf_swap_isometry(mt)
        space = mt.metric()
        assert is_isometry(space, space, swap)
        assert not is_isomorphism(
            mt.rt.tree, mt.rt.tree, swap, labels1=mt.labels, labels2=mt.labels
        )


def test_leaf_swap_rejects_single_vertex():
    mt = generate_monotone(0, 1, 1)
    with pytest.raises(SingleVertexTreeError):
        leaf_swap_isometry(mt)


def _all_flavor_codes(t, labels, weights, root):
    return {
        flavor: canonical_code(
            t,
            flavor,
            labels=labels if flavor in canonical._LABELED else None,
            weights=weights if flavor in canonical._WEIGHTED else None,
            root=root if flavor in canonical._ROOTED else None,
        )
        for flavor in IsoFlavor
    }


def _fuzz_trees(seed, count):
    """(tree, labels, weights, root) for `count` trees built here from a parent
    list: first the paths of 1 to 12 vertices, then random recursive trees,
    paths, stars and brooms of 1 to 60 vertices under shuffled names.  Labels
    and weights take few distinct values, so equal child codes and ties are
    common."""
    rng = random.Random(seed)
    for i in range(count):
        n = i + 1 if i < 12 else rng.randint(1, 60)
        shape = "path" if i < 12 else ("random", "path", "star", "broom")[i % 4]
        names = [f"v{j:02d}" for j in range(n)]
        rng.shuffle(names)
        parents = {
            "random": lambda j: rng.randrange(j),
            "path": lambda j: j - 1,
            "star": lambda j: 0,
            "broom": lambda j: j - 1 if j < n // 2 else rng.randrange(max(0, n // 2 - 1), j),
        }[shape]
        t = tree_from_edges([(names[parents(j)], names[j]) for j in range(1, n)], vertices=names)
        labels = {v: F(rng.randint(0, 3), rng.choice((1, 2))) for v in t.vertices}
        weights = {e: F(rng.randint(1, 3), rng.choice((1, 2))) for e in t.edges}
        yield t, labels, weights, rng.choice(t.vertices)


def test_fuzz_codes_keep_their_pinned_digest():
    # 1,000 trees in all six flavors, hashed: schema "1" fixes these bytes, so
    # any other way of building the codes must reproduce them
    h = hashlib.sha256()
    for t, labels, weights, root in _fuzz_trees(907, 1000):
        codes = _all_flavor_codes(t, labels, weights, root)
        h.update("\n".join(codes[flavor] for flavor in IsoFlavor).encode() + b"\n")
    assert h.hexdigest() == "e556b6c87fd41e768c263607dbb28b4dc1eac9fe5e563246b37247c7850486ae"


def _centers_by_eccentricity(t):
    """The vertices of least eccentricity, by a BFS from every vertex."""
    ecc = {}
    for s in t.vertices:
        depth = {s: 0}
        for x in (order := [s]):
            for y in t.neighbors(x):
                if y not in depth:
                    depth[y] = depth[x] + 1
                    order.append(y)
        ecc[s] = max(depth.values())
    least = min(ecc.values())
    return tuple(v for v in t.vertices if ecc[v] == least)


def test_codes_equal_recursive_encoder():
    # rooted flavors against the recursive encoder at the root; free flavors
    # against the smaller recursive code over the reference centers
    parities = set()
    for t, labels, weights, root in _fuzz_trees(401, 600):
        centers = _centers_by_eccentricity(t)
        assert tree_centers(t) == centers
        if all(t.degree(v) <= 2 for v in t.vertices):
            parities.add(len(t.vertices) % 2)
        lab = {v: format_rational(x) for v, x in labels.items()}
        wts = {e: format_rational(x) for e, x in weights.items()}
        for flavor, code in _all_flavor_codes(t, labels, weights, root).items():
            payloads = (lab if flavor in canonical._LABELED else None, wts if flavor in canonical._WEIGHTED else None)
            starts = (root,) if flavor in canonical._ROOTED else centers
            want = min(rooted_code_by_recursion(t, c, *payloads) for c in starts)
            assert code == tree_codes.SCHEMA_VERSION + tree_codes._TAG[flavor] + ":" + want, (flavor, t.edges, root)
    assert parities == {0, 1}


@pytest.mark.parametrize("shape", ["path", "caterpillar", "star"])
def test_every_flavor_encodes_20k_vertices_without_recursion(shape):
    n = 20000
    names = [f"v{i:05d}" for i in range(n)]
    if shape == "path":
        edges = [(names[i - 1], names[i]) for i in range(1, n)]
    elif shape == "caterpillar":  # a spine of n/2 vertices, one pendant leaf on each
        half = n // 2
        edges = [(names[i - 1], names[i]) for i in range(1, half)]
        edges += [(names[i], names[half + i]) for i in range(half)]
    else:  # n leaves round a center "c": rooted at a leaf, free flavors at "c"
        edges = [("c", x) for x in names]
    t = tree_from_edges(edges)
    labels = {v: F(i % 7) for i, v in enumerate(t.vertices)}
    weights = {e: F(1 + i % 3) for i, e in enumerate(t.edges)}
    limit = sys.getrecursionlimit()
    codes = _all_flavor_codes(t, labels, weights, names[0])
    assert sys.getrecursionlimit() == limit
    if shape == "path":
        assert codes[IsoFlavor.ROOTED] == "1R:" + "(" * n + ")" * n
    elif shape == "caterpillar":
        assert codes[IsoFlavor.ROOTED].count("()") == n // 2
    else:
        assert codes[IsoFlavor.ROOTED] == "1R:((" + "()" * (n - 1) + "))"
        assert codes[IsoFlavor.FREE] == "1F:(" + "()" * n + ")"
    assert all(code.count("(") == len(t.vertices) for code in codes.values())


# OEIS A000081 and A000055: rooted and free unlabeled trees on n = 1..10 vertices
_ROOTED_COUNTS = (1, 1, 2, 4, 9, 20, 48, 115, 286, 719)
_FREE_COUNTS = (1, 1, 1, 2, 3, 6, 11, 23, 47, 106)


def test_codes_count_every_shape_once_up_to_10_vertices():
    # Each rooted shape is made once by its level sequence, so its rooted codes must all
    # differ; a free tree is made once per rooting, so its free codes must collapse to
    # one per free shape (Otter's counts).
    rooted_counts, free_counts = [], []
    for n in range(1, 11):
        shapes = list(rooted_shapes(n))
        rooted = {canonical_code(t, IsoFlavor.ROOTED, root=root) for t, root in shapes}
        assert len(shapes) == len(rooted), n
        rooted_counts.append(len(rooted))
        free_counts.append(len({canonical_code(t, IsoFlavor.FREE) for t, _ in shapes}))
    assert tuple(rooted_counts) == _ROOTED_COUNTS
    assert tuple(free_counts) == _FREE_COUNTS
