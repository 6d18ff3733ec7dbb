"""Shared fixtures-in-code for the test suite: the bundled worked instances
and independent brute-force checkers (never routed through the code under
test)."""

from __future__ import annotations

import itertools
from fractions import Fraction

from ultratree import Graph, RootedTree, Tree, edge_key, tree_from_edges
from ultratree.errors import BadMatrixError

F = Fraction


def fig13_tree():
    t = tree_from_edges([("x1", "y1"), ("x2", "y1"), ("y1", "y2"), ("y2", "x3"), ("y2", "x4")])
    w = {
        ("x1", "y1"): F(2),
        ("x2", "y1"): F(2),
        ("y1", "y2"): F(3),
        ("y2", "x3"): F(1),
        ("y2", "x4"): F(1),
    }
    return t, w


def fig10_tree():
    t = tree_from_edges([("r", "a"), ("a", "b"), ("b", "c"), ("b", "d")])
    w = {("r", "a"): F(1), ("a", "b"): F(2), ("b", "c"): F(4), ("b", "d"): F(4)}
    return RootedTree(t, "r"), w


def fig5_tree():
    t = tree_from_edges([("r", "v1"), ("v1", "v2"), ("v1", "v3"), ("v2", "v4")])
    w = {("r", "v1"): F(1), ("v1", "v2"): F(2), ("v1", "v3"): F(3), ("v2", "v4"): F(1)}
    return RootedTree(t, "r"), w


def fig3_tree():
    t = tree_from_edges(
        [("v1", "v2"), ("v1", "v3"), ("v1", "v4"), ("v1", "v5"),
         ("v2", "v6"), ("v2", "v7"), ("v3", "v8"), ("v3", "v9")]
    )
    w = {
        ("v1", "v2"): F(2), ("v1", "v3"): F(2), ("v1", "v4"): F(4), ("v1", "v5"): F(4),
        ("v2", "v6"): F(2), ("v2", "v7"): F(2), ("v3", "v8"): F(2), ("v3", "v9"): F(2),
    }
    return t, w


def fig6_graph():
    g = Graph(
        "ABCDEF",
        [("A", "B"), ("A", "C"), ("A", "D"), ("B", "C"), ("B", "D"), ("C", "D"),
         ("C", "E"), ("C", "F"), ("D", "E"), ("D", "F"), ("E", "F")],
    )
    labels = {"A": F(3), "B": F(3), "C": F(2), "D": F(2), "E": F(1), "F": F(1)}
    return g, labels


def fig11_trees():
    edges = [("r", "p"), ("r", "a"), ("r", "d"), ("a", "b"), ("a", "c"), ("a", "q"),
             ("a", "s"), ("b", "t"), ("b", "u"), ("c", "x"), ("c", "y"), ("d", "m"), ("d", "n")]
    t = tree_from_edges(edges)
    w = {
        ("r", "p"): F(5), ("r", "a"): F(1), ("r", "d"): F(2),
        ("a", "b"): F(2), ("a", "c"): F(2), ("a", "q"): F(4), ("a", "s"): F(4),
        ("b", "t"): F(2), ("b", "u"): F(2), ("c", "x"): F(2), ("c", "y"): F(2),
        ("d", "m"): F(3), ("d", "n"): F(3),
    }
    labels = {"r": F(10), "p": F(0), "a": F(8), "d": F(6), "b": F(4), "c": F(4),
              "q": F(0), "s": F(0), "t": F(0), "u": F(0), "x": F(0), "y": F(0),
              "m": F(0), "n": F(0)}
    return RootedTree(t, "r"), w, labels


def fig1_tree():
    return tree_from_edges(
        [("v1", "v2"), ("v1", "v3"), ("v1", "v4"),
         ("v3", "v5"), ("v3", "v6"), ("v3", "v7"), ("v3", "v8"),
         ("v4", "v9"), ("v4", "v10"),
         ("v5", "v11"), ("v5", "v12"), ("v6", "v13"), ("v6", "v14")]
    )


def brute_iso(a, b, labels1=None, labels2=None, weights1=None, weights2=None,
              root1=None, root2=None) -> bool:
    """Permutation-search isomorphism, written from the definitions."""
    if len(a.vertices) != len(b.vertices):
        return False
    ea, eb = set(a.edges), set(b.edges)
    for perm in itertools.permutations(b.vertices):
        f = dict(zip(a.vertices, perm))
        if root1 is not None and f[root1] != root2:
            continue
        ok = all(
            ((u, v) in ea) == (edge_key(f[u], f[v]) in eb)
            for i, u in enumerate(a.vertices)
            for v in a.vertices[i + 1 :]
        )
        if ok and labels1 is not None:
            ok = all(labels1[v] == labels2[f[v]] for v in a.vertices)
        if ok and weights1 is not None:
            ok = all(weights1[e] == weights2[edge_key(f[e[0]], f[e[1]])] for e in ea)
        if ok:
            return True
    return False


# Denominators with few common factors, so weights over them have a large common denominator.
MIXED_DENS = (1, 2, 3, 7, 11, 13, 999983, 1000003, 2**31 - 1)


def mixed_equidistant_weights(rng, rt: RootedTree):
    """Random weights over MIXED_DENS on a rooted tree of two or more vertices,
    with each edge into an out-degree-zero vertex closing its path at one K.
    Returns the weights, every root distance summed on Fractions, and K."""
    w = {edge_key(v, c): F(rng.randint(1, 40), rng.choice(MIXED_DENS)) for v in rt.vertices for c in rt.children(v)}
    plain = {rt.root: F(0)}
    for v in rt.bfs_order():
        for c in rt.children(v):
            plain[c] = plain[v] + w[edge_key(v, c)]
    v0 = [v for v in rt.vertices if not rt.children(v)]
    K = max(plain[rt.parent(v)] for v in v0) + F(rng.randint(1, 9), rng.choice(MIXED_DENS))
    for v in v0:
        w[edge_key(rt.parent(v), v)] = K - plain[rt.parent(v)]
        plain[v] = K
    return w, plain, K


def rooted_shapes(n: int):
    """Every rooted tree shape on n >= 1 vertices, once each, as (tree, root).

    Beyer and Hedetniemi (1980): a shape is its canonical level sequence, the
    lexicographically largest of its preorder depth sequences, and these come
    in decreasing lexicographic order from the path (1, 2, ..., n) to the star
    (1, 2, ..., 2).  The successor of L takes the last p with L[p] > 2 and the
    last q < p with L[q] = L[p] - 1, the parent of p, and repeats L[q:p] from p
    on.  Vertex i hangs from the last vertex before it one level up.
    """
    names = [f"v{i:02d}" for i in range(n)]
    levels = list(range(1, n + 1))
    while True:
        edges = [(names[max(j for j in range(i) if levels[j] == levels[i] - 1)], names[i]) for i in range(1, n)]
        yield Tree(Graph(names, edges)), names[0]
        p = max((i for i in range(n) if levels[i] > 2), default=None)
        if p is None:
            return
        q = max(i for i in range(p) if levels[i] == levels[p] - 1)
        for i in range(p, n):
            levels[i] = levels[i - p + q]


def rename_tree(t: Tree, mapping):
    return Tree(Graph([mapping[v] for v in t.vertices],
                      [(mapping[u], mapping[v]) for u, v in t.edges]))


def rename_weights(w, mapping):
    return {edge_key(mapping[u], mapping[v]): val for (u, v), val in w.items()}


def rename_labels(l, mapping):
    return {mapping[v]: val for v, val in l.items()}


def check_matrix_by_fractions(mat, where, nonnegative) -> None:
    """The matrix check on the values themselves, pairwise in row order: zero
    diagonal, symmetry and, if asked, no negative entry.  The reference the
    rank check must agree with, defect for defect and message for message."""
    n = len(mat)
    for i in range(n):
        if mat[i][i] != 0:
            raise BadMatrixError(f"nonzero diagonal at {where(i, i)}")
        for j in range(i + 1, n):
            if mat[i][j] != mat[j][i]:
                raise BadMatrixError(f"asymmetric at {where(i, j)}")
            if nonnegative and mat[i][j] < 0:
                raise ValueError(f"negative distance at {where(i, j)}")
