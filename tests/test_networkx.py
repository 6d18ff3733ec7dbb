"""Cross-checks against networkx, an independent implementation: tree centers,
the six isomorphism flavors, the bottleneck spanning tree and the blocks of a
complete multipartite graph.  networkx is a test-only dependency; without it
these tests are skipped."""

import random
from fractions import Fraction as F

import pytest

from ultratree import (
    Graph,
    IsoFlavor,
    Tree,
    are_isomorphic,
    bottleneck_spanning_tree,
    diametrical_graph,
    multipartite_parts,
)
from ultratree.errors import NotCompleteMultipartiteError
from ultratree.path_metrics import minimax_label_metric
from ultratree.tree_codes import tree_centers

from helpers import random_connected_graph, random_labels, random_tree, random_ultrametric_space, tree_from_edges

nx = pytest.importorskip("networkx")
from networkx.algorithms.isomorphism import rooted_tree_isomorphism, tree_isomorphism  # noqa: E402


def _nx_graph(g, labels=None, weights=None, root=None):
    h = nx.Graph()
    h.add_nodes_from((v, {"label": None if labels is None else labels[v], "root": v == root}) for v in g.vertices)
    h.add_edges_from((u, v, {"weight": None if weights is None else weights[(u, v)]}) for u, v in g.edges)
    return h


def test_tree_centers_equal_networkx_center():
    rng = random.Random(607)
    trees = [random_tree(rng, rng.randint(1, 60)) for _ in range(150)]
    trees += [tree_from_edges([(f"p{i:02d}", f"p{i + 1:02d}") for i in range(n - 1)], [f"p{i:02d}" for i in range(n)])
              for n in range(1, 16)]
    trees += [tree_from_edges([("c", f"l{i:02d}") for i in range(n)]) for n in range(1, 12)]
    for t in trees:
        assert tree_centers(t) == tuple(sorted(nx.center(_nx_graph(t))))


_ROOTED, _LABELED, _WEIGHTED = {"rooted", "rlabel", "rweight"}, {"vlabel", "rlabel"}, {"eweight", "rweight"}


def _pair(rng, flavor, n):
    """A random tree with the flavor's payloads (None for the others), and
    either a renamed copy or a renamed copy with one label, weight, edge or
    root changed."""
    t = random_tree(rng, n)
    vs, edges = t.vertices, list(t.edges)
    labels = {v: F(rng.randint(0, 3)) for v in vs} if flavor in _LABELED else None
    weights = {e: F(rng.randint(1, 3), rng.choice((1, 2))) for e in edges} if flavor in _WEIGHTED else None
    root = rng.choice(vs) if flavor in _ROOTED else None
    labels2, weights2, root2 = labels and dict(labels), weights and dict(weights), root
    if rng.random() < 0.5:
        if labels and rng.random() < 0.7:
            labels2[rng.choice(vs)] = F(rng.randint(0, 3))
        elif weights and rng.random() < 0.7:
            weights2[rng.choice(edges)] = F(rng.randint(1, 3), rng.choice((1, 2)))
        elif root and rng.random() < 0.3:
            root2 = rng.choice(vs)
        elif n > 2:  # hang a leaf elsewhere
            leaf = rng.choice(sorted(t.leaves()))
            (old,) = [e for e in edges if leaf in e]
            new = tuple(sorted((rng.choice([v for v in vs if v != leaf]), leaf)))
            edges[edges.index(old)] = new
            if weights:
                weights2[new] = weights2.pop(old)
    name = dict(zip(vs, rng.sample([f"u{i:02d}" for i in range(n)], n)))
    t2 = Tree(Graph(name.values(), [(name[u], name[v]) for u, v in edges]))
    labels2 = labels and {name[v]: x for v, x in labels2.items()}
    weights2 = weights and {tuple(sorted((name[u], name[v]))): x for (u, v), x in weights2.items()}
    return (t, labels, weights, root), (t2, labels2, weights2, name.get(root2))


def _networkx_verdict(flavor, a, b):
    (t1, l1, w1, r1), (t2, l2, w2, r2) = a, b
    if flavor == "free":
        return bool(tree_isomorphism(_nx_graph(t1), _nx_graph(t2)))
    if flavor == "rooted":
        return bool(rooted_tree_isomorphism(_nx_graph(t1), r1, _nx_graph(t2), r2))
    # VF2, matching labels or weights, and the root as a node attribute
    return nx.is_isomorphic(_nx_graph(t1, l1, w1, r1), _nx_graph(t2, l2, w2, r2),
                            node_match=dict.__eq__, edge_match=dict.__eq__)


@pytest.mark.parametrize("flavor", [f.value for f in IsoFlavor])
def test_are_isomorphic_equals_networkx(flavor):
    rng = random.Random(f"networkx-iso-{flavor}")
    verdicts = []
    for i in range(240):
        a, b = _pair(rng, flavor, rng.randint(1, 30))
        (t1, l1, w1, r1), (t2, l2, w2, r2) = a, b
        ours = are_isomorphic(t1, t2, IsoFlavor(flavor), l1, l2, w1, w2, r1, r2)
        assert ours == _networkx_verdict(flavor, a, b), (flavor, i)
        verdicts.append(ours)
    assert verdicts.count(True) >= 40 and verdicts.count(False) >= 40


def test_bottleneck_spanning_tree_realizes_the_networkx_minimum_spanning_tree_metric():
    rng = random.Random(613)
    for _ in range(120):
        n = rng.randint(1, 30)
        g = random_connected_graph(rng, n, extra_edges=rng.randint(0, 2 * n))
        labels = random_labels(rng, g)
        h = _nx_graph(g)
        for u, v in g.edges:
            h.edges[u, v]["weight"] = max(labels[u], labels[v])
        mst = nx.minimum_spanning_tree(h)
        theirs = Tree(Graph(mst.nodes, mst.edges))
        ours = bottleneck_spanning_tree(g, labels)
        metric, want = (minimax_label_metric(tree, labels)[0] for tree in (ours, theirs))
        assert all(metric.distance(x, y) == want.distance(x, y) for x in g.vertices for y in g.vertices)


def _networkx_parts(g):
    """The blocks of g by networkx, each sorted, ordered by least member, or
    the refusal multipartite_parts must give: fewer than two blocks, or the
    first pair of a block joined by an edge."""
    h = _nx_graph(g)
    blocks = sorted(tuple(sorted(c)) for c in nx.connected_components(nx.complement(h)))
    if len(blocks) < 2:
        return "graph has a single block; a complete multipartite graph needs k >= 2"
    for block in blocks:
        for i, u in enumerate(block):
            for v in block[i + 1 :]:
                if h.has_edge(u, v):
                    return f"vertices {u!r}, {v!r} are adjacent inside one block"
    return blocks


def test_multipartite_parts_equal_networkx_complement_components():
    rng = random.Random(619)
    # diametrical graphs of ultrametric spaces always split; random graphs mostly do not
    graphs = [diametrical_graph(random_ultrametric_space(rng, rng.randint(2, 40))) for _ in range(120)]
    for _ in range(160):
        vs, p = [f"v{i:02d}" for i in range(rng.randint(1, 12))], rng.random()
        graphs.append(Graph(vs, [(u, v) for i, u in enumerate(vs) for v in vs[i + 1 :] if rng.random() < p]))
    kinds = []  # "split", or the first word of the refusal: "graph" (one block) or "vertices"
    for i, g in enumerate(graphs):
        want = _networkx_parts(g)
        try:
            got = multipartite_parts(g)
        except NotCompleteMultipartiteError as exc:
            got = str(exc)
        assert got == want, i
        kinds.append("split" if isinstance(want, list) else want.split()[0])
    assert kinds[:120] == ["split"] * 120
    assert all(kinds[120:].count(kind) >= 20 for kind in ("split", "graph", "vertices"))
