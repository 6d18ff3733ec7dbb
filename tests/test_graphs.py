import random
from fractions import Fraction as F

import pytest

from ultratree import (
    Ballean,
    DiameterBound,
    EquidistantTree,
    FiniteMetricSpace,
    Graph,
    LabeledRootedTree,
    MonotoneTree,
    NablaResult,
    RootedTree,
    StructureReport,
    Tree,
    analyze,
    ballean,
    ballean_tree,
    classify_metric,
    cyclic_weight_counterexample,
    degree_sets,
    diameter_bound_check,
    diametrical_graph,
    generate_monotone,
    nabla_geometric_membership,
    passthrough_counterexample_pair,
    reduce_nabla,
    representing_tree,
    weight_to_labeling,
)
from ultratree.errors import (
    BadMatrixError,
    DisconnectedGraphError,
    NonPositiveWeightError,
    ParseError,
    PathTreeError,
    VertexNotFoundError,
)
from ultratree.graph_reader import graph_from_json
from ultratree.payloads import normalize_labels, normalize_weights
from ultratree.io import GraphDoc, load_graph_text

from helpers import (
    all_simple_paths,
    fig5_tree,
    fig10_tree,
    fig13_tree,
    find_path,
    random_connected_graph,
    random_tree,
    tree_from_edges,
    unique_path_by_enumeration,
)


def test_graph_rejects_bad_input():
    with pytest.raises(ValueError):
        Graph(["a", "a"], [])
    with pytest.raises(ValueError):
        Graph(["a"], [("a", "a")])
    with pytest.raises(VertexNotFoundError):
        Graph(["a", "b"], [("a", "c")])
    with pytest.raises(ValueError):
        Graph([], [])


def test_unknown_or_unhashable_vertex_is_not_found():
    t = tree_from_edges([("a", "b"), ("b", "c")])
    rt = RootedTree(t, "a")
    for bad in ("z", ["a"], {"a": 1}, 1):
        assert not t.has_vertex(bad)
        assert not t.has_edge(bad, "a") and not t.has_edge("b", bad) and not t.has_edge(bad, bad)
        for edge in (("a", bad), (bad, "b")):
            with pytest.raises(VertexNotFoundError) as caught:
                Graph("abc", [edge])
            assert str(caught.value) == f"edge endpoint not a vertex: {edge!r}"
        for lookup in (t.neighbors, t.degree, rt.parent, rt.children, rt.out_degree):
            with pytest.raises(VertexNotFoundError) as caught:
                lookup(bad)
            assert str(caught.value) == f"no vertex {bad!r}"
        with pytest.raises(VertexNotFoundError) as caught:
            RootedTree(t, bad)
        assert str(caught.value) == f"root {bad!r} not a vertex"
        with pytest.raises(VertexNotFoundError):
            find_path(t, bad, "a")
        with pytest.raises(VertexNotFoundError):
            find_path(t, "a", bad)


def _check_rooted_walk(t, root, by_path):
    """RootedTree(t, root) against references built here: the BFS over sorted
    neighbors, and, for the vertices in by_path, children as the neighbors
    whose path to the root passes the vertex."""
    rt = RootedTree(t, root)
    order, reached_from = [root], {root: None}
    for x in order:
        for y in sorted(t.neighbors(x)):
            if y not in reached_from:
                reached_from[y] = x
                order.append(y)
    assert rt.bfs_order() == tuple(order)
    for v in t.vertices:
        kids = tuple(c for c in sorted(t.neighbors(v)) if reached_from[c] == v)
        assert (rt.parent(v), rt.children(v), rt.out_degree(v)) == (reached_from[v], kids, len(kids))
    for v in by_path:
        assert rt.children(v) == tuple(c for c in sorted(t.neighbors(v)) if v in find_path(t, c, root))
        assert rt.parent(v) == (None if v == root else find_path(t, v, root)[1])


def test_rooted_tree_parents_children_and_order_match_references():
    # random trees, every vertex checked by path; then a lone vertex, a 5000-leaf
    # star at its center and at a leaf, and a 5000-vertex path at an end and in
    # the middle, every vertex checked by the BFS and a sample by path, the
    # star's center among them (its children take 5000 find_path calls)
    rng = random.Random(53)
    for _ in range(60):
        t = random_tree(rng, rng.randint(1, 300))
        _check_rooted_walk(t, rng.choice(t.vertices), t.vertices)
    _check_rooted_walk(Tree(Graph(["a"])), "a", ["a"])
    leaves = [f"l{i:04d}" for i in range(5000)]
    star = tree_from_edges([("c", x) for x in leaves])
    names = [f"p{i:04d}" for i in range(5000)]
    path = tree_from_edges(zip(names, names[1:]))
    for t, root in ((star, "c"), (star, leaves[2500]), (path, names[0]), (path, names[2500])):
        sample = [v for v in (root, "c", *leaves[::1000], *names[::500], names[-1]) if t.has_vertex(v)]
        _check_rooted_walk(t, root, sample)


def test_has_edge_agrees_with_the_neighbor_lists():
    # a 5000-leaf star, whose center a scan of the neighbors would cross once per query,
    # and random graphs; ids that name no vertex, or do not hash, have no edge
    rng = random.Random(47)
    leaves = [f"l{i:04d}" for i in range(5000)]
    star = Graph(["c", *leaves], [("c", x) for x in leaves])
    assert all(star.has_edge("c", x) and star.has_edge(x, "c") for x in leaves)
    assert not any(star.has_edge(x, y) for x, y in zip(leaves, reversed(leaves)))
    graphs = [random_connected_graph(rng, rng.randint(1, 30), rng.randint(0, 40)) for _ in range(40)]
    for g in [star, *graphs]:
        vs = g.vertices
        pairs = [(u, v) for u in vs for v in vs] if g is not star else [
            (rng.choice(vs), rng.choice(vs)) for _ in range(2000)]
        for u, v in pairs:
            assert g.has_edge(u, v) is (v in set(g.neighbors(u))), (u, v)
        for bad in ("z", ["c"], {"c": 1}, 1, None):
            assert not g.has_edge(bad, g.vertices[0]) and not g.has_edge(g.vertices[0], bad)


def test_tree_rejects_cycles_and_forests():
    with pytest.raises(ValueError):
        Tree(Graph("abc", [("a", "b"), ("b", "c"), ("a", "c")]))
    with pytest.raises(ValueError):
        Tree(Graph("abcd", [("a", "b"), ("c", "d")]))


def test_a_tree_is_the_graph_it_was_checked_from():
    rng = random.Random(41)
    for size in (1, 2, 3, 8, 40, 200):
        base = random_tree(rng, size)
        g = Graph(base.vertices, base.edges)
        t = Tree(g)
        assert isinstance(t, Graph) and t.is_tree()
        assert t.vertices is g.vertices and t.edges is g.edges
        assert all(t.neighbors(v) is g.neighbors(v) for v in g.vertices)  # shared, not copied
        assert all(t.has_vertex(v) for v in g.vertices) and not t.has_vertex("z")
        assert all(t.has_edge(u, v) and t.has_edge(v, u) for u, v in g.edges)
        assert t == Tree(g) == base and t != g and g != t
        if size < 3:
            continue
        vs = g.vertices
        u, v = next((u, v) for i, u in enumerate(vs) for v in vs[i + 1 :] if not g.has_edge(u, v))
        cycle = Graph(g.vertices, g.edges + ((u, v),))
        forest = Graph(g.vertices, g.edges[1:])
        disconnected = Graph(g.vertices + ("z",), g.edges + ((u, v),))  # |E| = |V| - 1
        for bad in (cycle, forest, disconnected):
            with pytest.raises(ValueError):
                Tree(bad)


def test_find_path_fig13():
    t, _ = fig13_tree()
    assert find_path(t, "x1", "x4") == ("x1", "y1", "y2", "x4")


def test_find_path_single_edge():
    t = tree_from_edges([("a", "b")])
    assert find_path(t, "a", "b") == ("a", "b")


def test_find_path_matches_enumeration_oracle():
    rng = random.Random(7)
    for _ in range(10):
        t = random_tree(rng, 8)
        for u in t.vertices:
            for v in t.vertices:
                if u < v:
                    assert find_path(t, u, v) == unique_path_by_enumeration(t, u, v)


def test_degree_sets_fig5():
    rt, _ = fig5_tree()
    v0, v1, v2 = degree_sets(rt)
    assert v0 == {"v3", "v4"}
    assert v1 == {"r", "v2"}
    assert v2 == {"v1"}


def test_degree_sets_single_vertex():
    rt = RootedTree(Tree(Graph(["r"], [])), "r")
    v0, v1, v2 = degree_sets(rt)
    assert v0 == {"r"} and not v1 and not v2


def test_degree_sets_fig10_planted():
    rt, _ = fig10_tree()
    v0, v1, v2 = degree_sets(rt)
    assert v0 == {"c", "d"}
    assert "r" in v1 and rt.is_planted()
    assert v2 == {"b"}


def test_degree_sets_partition_and_root_leaf_criterion():
    rng = random.Random(11)
    for _ in range(30):
        t = random_tree(rng, rng.randint(1, 8))
        for r in t.vertices:
            rt = RootedTree(t, r)
            v0, v1, v2 = degree_sets(rt)
            assert len(v0) + len(v1) + len(v2) == len(t.vertices)
            # the classes are counted in the parent map; out_degree reads the degree
            assert all(v in (v0, v1, v2)[min(rt.out_degree(v), 2)] for v in t.vertices)
            assert (rt.out_degree(r) <= 1) == (r in t.leaves())


def test_path_enumeration_refuses_large_inputs():
    from ultratree.errors import SizeLimitError

    t = random_tree(1, 11)
    with pytest.raises(SizeLimitError):
        list(all_simple_paths(t, t.vertices[0], t.vertices[1]))


def test_records_are_frozen_values():
    rt, w = fig10_tree()
    g, et = rt.tree, EquidistantTree(rt, w)
    space = FiniteMetricSpace("ab", [[0, 1], [1, 0]])
    # one record of each class as the library makes it, its fields in order,
    # and whether it holds a dict
    records = [
        (g, "vertices edges", False),
        (diametrical_graph(space), "vertices edges", False),
        (rt, "tree root", False),
        (space, "points rows", False),
        (load_graph_text('{"vertices": ["a"], "edges": [], "root": "a"}'), "graph root weights labels payloads",
         False),
        (GraphDoc(g, "r", w), "graph root weights labels payloads", True),
        (et, "rt weights K", True),
        (weight_to_labeling(et), "rt labels", True),
        (representing_tree(space), "rt labels payloads", True),
        (ballean(space), "balls host", False),
        (reduce_nabla(et), "reduced removed new_root", True),
        (diameter_bound_check(et), "diam_v0 K strict diam_v1", False),
        (analyze(g, w, "r"), "planted centers is_star phylo_shape K branching_lhs branching_rhs", False),
    ]
    assert {type(r) for r, _, _ in records} == {
        Graph, Tree, RootedTree, FiniteMetricSpace, GraphDoc, EquidistantTree, MonotoneTree,
        LabeledRootedTree, Ballean, NablaResult, DiameterBound, StructureReport,
    }
    for made, names, holds_dict in records:
        cls, names = Graph if type(made) is Tree else type(made), names.split()
        values = tuple(getattr(made, n) for n in names)
        params = dict(zip(names, values))
        if cls is EquidistantTree:
            del params["K"]  # derived in its own __init__
        by_position, by_keyword = cls(*params.values()), cls(**params)
        assert by_position == by_keyword and not by_position != by_keyword
        assert tuple(getattr(by_position, n) for n in names) == values
        assert repr(by_position) == f"{cls.__name__}({', '.join(f'{n}={v!r}' for n, v in zip(names, values))})"
        if holds_dict:
            with pytest.raises(TypeError, match="unhashable"):
                hash(by_position)
        else:
            assert hash(by_position) == hash(by_keyword) == hash(values)
        for name in (names[0], "other"):
            with pytest.raises(AttributeError):
                setattr(made, name, None)
            with pytest.raises(AttributeError):
                delattr(made, name)
        assert tuple(getattr(made, n) for n in names) == values
        with pytest.raises(TypeError):
            cls(*params.values(), *params.values())
        with pytest.raises(TypeError):
            cls(*params.values(), no_such_field=1)

    # defaults come from class attributes; the derived K is no argument
    assert GraphDoc(g) == GraphDoc(g, None, None, None, None) and hash(GraphDoc(g)) == hash(GraphDoc(g, None))
    assert LabeledRootedTree(rt, {}) == LabeledRootedTree(rt, {}, None) and Graph("ab") == Graph("ab", ())
    assert et.K == 7 and et == EquidistantTree(rt=rt, weights=w)
    for bad in (lambda: EquidistantTree(rt, w, F(7)), lambda: EquidistantTree(rt, w, K=F(7)),
                lambda: EquidistantTree(rt), lambda: RootedTree(g, "r", root="r"), lambda: GraphDoc()):
        with pytest.raises(TypeError):
            bad()
    # equal fields, other class: a tree never equals its graph
    plain = Graph(g.vertices, g.edges)
    assert g != plain and plain != g and not g == plain and g == Tree(plain)
    assert repr(g) == f"Tree(vertices={g.vertices!r}, edges={g.edges!r})"


def _parsed(call, **payload):
    # parse the path a-b-c with the given payload, then hand the parsed document to call
    doc = graph_from_json({"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]], **payload})
    return call(doc)


_PATH_W, _PATH_L = {"a|b": "1", "b|c": "2"}, {"a": "1", "b": "2", "c": "0"}
_REFUSALS = [
    ("duplicate vertex", lambda: graph_from_json({"vertices": ["a", "a"], "edges": []}),
     ParseError, "bad graph: duplicate vertex ids"),
    ("duplicate vertex", lambda: Graph(["a", "b", "a"], [("a", "b")]), ValueError, "duplicate vertex ids"),
    ("empty vertex list", lambda: graph_from_json({"vertices": [], "edges": []}),
     ParseError, "bad graph: empty vertex set"),
    ("empty vertex list", lambda: Graph([]), ValueError, "empty vertex set"),
    ("edge listed twice", lambda: graph_from_json({"vertices": ["a", "b"], "edges": [["a", "b"], ["b", "a"]]}),
     ParseError, "repeated edge 'b|a'"),
    ("self-loop edge", lambda: graph_from_json({"vertices": ["a", "b"], "edges": [["a", "b"], ["a", "a"]]}),
     ParseError, "bad graph: self-loop at 'a'"),
    ("self-loop edge", lambda: Tree(Graph("ab", [("a", "b"), ("b", "b")])), ValueError, "self-loop at 'b'"),
    ("unknown endpoint", lambda: graph_from_json({"vertices": ["a", "b"], "edges": [["a", "c"]]}),
     ParseError, "bad graph: edge endpoint not a vertex: ['a', 'c']"),
    ("unknown endpoint", lambda: Tree(Graph("ab", [("c", "a"), ("a", "a")])),
     VertexNotFoundError, "edge endpoint not a vertex: ('c', 'a')"),
    # the endpoint check comes before the self-loop check, edge by edge
    ("self-loop, then unknown endpoint", lambda: Graph("ab", [("a", "a"), ("a", "c")]), ValueError, "self-loop at 'a'"),
    ("self-loop at an unknown endpoint", lambda: Graph("ab", [("z", "z")]),
     VertexNotFoundError, "edge endpoint not a vertex: ('z', 'z')"),
    ("cycle", lambda: Tree(Graph("abc", [("a", "b"), ("b", "c"), ("c", "a")])),
     ValueError, "not a tree: must be connected with |E| = |V| - 1"),
    ("disconnected, with |E| = |V| - 1", lambda: Tree(Graph("abcd", [("a", "b"), ("b", "c"), ("c", "a")])),
     ValueError, "not a tree: must be connected with |E| = |V| - 1"),
    ("forest", lambda: graph_from_json({"vertices": ["a", "b", "c"], "edges": [["a", "b"]]}).tree(),
     ParseError, "expected a tree (connected and acyclic)"),
    ("weight key 'a|a'", lambda: _parsed(None, weights={"a|a": "1"}), ParseError, "self-loop at 'a'"),
    ("weight key 'a|a'", lambda: normalize_weights(Graph("ab", [("a", "b")]), {("a", "b"): 1, ("a", "a"): 1}),
     ValueError, "self-loop at 'a'"),
    ("weight on unknown edge", lambda: _parsed(None, weights={"a|b": "1", "c|a": "1"}),
     ParseError, "weight on unknown edge 'c|a'"),
    ("second weight on one edge", lambda: _parsed(None, weights={"a|b": "1", "b|a": "1"}),
     ParseError, "second weight on edge 'b|a'"),
    ("missing weight", lambda: _parsed(lambda d: normalize_weights(d.graph, d.weights), weights={"b|c": "1"}),
     NonPositiveWeightError, "missing weight for edge ('a', 'b')"),
    ("missing weight, non-strict",
     lambda: _parsed(lambda d: normalize_weights(d.graph, d.weights, strict=False), weights={"a|b": "0"}),
     NonPositiveWeightError, "missing weight for edge ('b', 'c')"),
    ("zero weight",
     lambda: _parsed(lambda d: normalize_weights(d.graph, d.weights), weights=dict(_PATH_W, **{"b|c": "0"})),
     NonPositiveWeightError, "weight 0 on edge ('b', 'c')"),
    # graph order decides which defect is reported first
    ("negative weight, non-strict",
     lambda: _parsed(lambda d: normalize_weights(d.graph, d.weights, strict=False),
                     weights={"b|c": "-1/2", "a|b": "-3"}),
     NonPositiveWeightError, "weight -3 on edge ('a', 'b')"),
    ("negative weight", lambda: normalize_weights(Graph("ab", [("a", "b")]), {("b", "a"): F(-1)}),
     NonPositiveWeightError, "weight -1 on edge ('a', 'b')"),
    ("negative weight, then missing",
     lambda: normalize_weights(Graph("abc", [("a", "b"), ("b", "c")]), {("a", "b"): -1}),
     NonPositiveWeightError, "weight -1 on edge ('a', 'b')"),
    # every key is read before any edge is checked
    ("bad key after a missing weight", lambda: normalize_weights(Graph("ab", [("a", "b")]), {("c", "c"): 1}),
     ValueError, "self-loop at 'c'"),
    ("missing label", lambda: _parsed(lambda d: normalize_labels(d.graph, d.labels), labels={"c": "0", "a": "1"}),
     ValueError, "missing label for vertex 'b'"),
    ("negative label", lambda: _parsed(lambda d: normalize_labels(d.graph, d.labels), labels=dict(_PATH_L, c="-1/3")),
     ValueError, "negative label -1/3 on vertex 'c'"),
    ("negative label, then missing", lambda: normalize_labels(Graph("ab"), {"a": F(-2)}),
     ValueError, "negative label -2 on vertex 'a'"),
    ("label on unknown vertex", lambda: _parsed(None, labels=dict(_PATH_L, d="1")),
     ParseError, "label on unknown vertex 'd'"),
    ("payload on unknown vertex", lambda: _parsed(None, payloads={"a": ["a"], "d": ["d"]}),
     ParseError, "payload on unknown vertex 'd'"),
    ("matrix not square", lambda: classify_metric([[0, 1], [1, 0], [2, 1]]), BadMatrixError, "matrix not square"),
    ("matrix of another size", lambda: FiniteMetricSpace(["a", "b"], [[0, 1]]), BadMatrixError, "matrix must be 2x2"),
    ("disconnected cyclic graph",
     lambda: cyclic_weight_counterexample(Graph("abcd", [("a", "b"), ("b", "c"), ("c", "a")])),
     DisconnectedGraphError, "need a connected graph"),
    # a star rooted at its center has no out-degree-one vertex, a path rooted at an end no branching one
    ("no pass-through vertex",
     lambda: passthrough_counterexample_pair(EquidistantTree(RootedTree(tree_from_edges(["ab", "ac"]), "a"),
                                                             {("a", "b"): F(1), ("a", "c"): F(1)})),
     PathTreeError, "no out-degree-one vertex to exploit"),
    ("path tree", lambda: nabla_geometric_membership(EquidistantTree(RootedTree(tree_from_edges(["ab"]), "a"),
                                                                     {("a", "b"): F(1)}), "a"),
     PathTreeError, "every vertex has out-degree at most one"),
    ("no tree size", lambda: generate_monotone(0, 0, 1), ValueError, "need 1 <= min_size <= max_size"),
    # vertex ids that are not totally ordered key an edge as a self-loop; the refusal names both
    ("unordered vertex ids", lambda: Graph([frozenset({1}), frozenset({2})], [(frozenset({1}), frozenset({2}))]),
     ValueError, "unordered vertex ids frozenset({1}), frozenset({2})"),
    ("payload of a ballean tree",
     lambda: ballean_tree(FiniteMetricSpace(["a", "b"], [[0, 1], [1, 0]])).payload("[\"a\"]"),
     ValueError, "tree carries no payloads"),
]


@pytest.mark.parametrize("case, call, error, text", _REFUSALS, ids=[r[0] for r in _REFUSALS])
def test_each_refusal_keeps_its_type_and_text(case, call, error, text):
    with pytest.raises(Exception) as caught:
        call()
    assert (type(caught.value), str(caught.value)) == (error, text)

