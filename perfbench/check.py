"""Output checkers that do not use the package under test.

Each checker gets the op, the program's exit code, stdout and stderr, and a
function that returns the text of an input file.  It returns None for a
correct result or a one-line reason.  Inputs are re-parsed here with the
standard library only, so a parser bug in the program cannot hide a wrong
answer.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter, deque
from fractions import Fraction
from typing import Callable

Reader = Callable[[str], str]
ZERO = Fraction(0)


class Bad(Exception):
    """A wrong output; the message says what is wrong."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise Bad(msg)


# ------------------------------------------------------------ input parsing


def read_matrix(text: str) -> tuple[list[str], dict[str, dict[str, Fraction]]]:
    """Point ids and the distance table of a JSON or CSV matrix."""
    if text.lstrip().startswith("{"):
        obj = json.loads(text)
        pts, rows = obj["points"], obj["matrix"]
    else:
        table = [r for r in csv.reader(io.StringIO(text)) if r]
        pts = table[0][1:]
        rows = [r[1:] for r in table[1:]]
    return pts, {p: {q: Fraction(x) for q, x in zip(pts, row)} for p, row in zip(pts, rows)}


def _adjacency(vertices, edges) -> dict[str, list[str]]:
    adj: dict[str, list[str]] = {v: [] for v in vertices}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def _rooted(vertices, edges, root) -> tuple[dict[str, str | None], dict[str, list[str]], list[str]]:
    """Parent and child maps and BFS order of a tree; Bad if it is not one."""
    _require(len(edges) == len(vertices) - 1, f"{len(edges)} edges on {len(vertices)} vertices is not a tree")
    adj = _adjacency(vertices, edges)
    parent: dict[str, str | None] = {root: None}
    kids: dict[str, list[str]] = {v: [] for v in vertices}
    order = [root]
    queue = deque([root])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y != parent[x]:
                _require(y not in parent, "the edges contain a cycle")
                parent[y] = x
                kids[x].append(y)
                order.append(y)
                queue.append(y)
    _require(len(order) == len(vertices), "the tree is not connected")
    return parent, kids, order


def _edge_key(u: str, v: str) -> str:
    return f"{u}|{v}" if u < v else f"{v}|{u}"


def _fractions(m: dict | None) -> dict[str, Fraction] | None:
    return None if m is None else {k: Fraction(x) for k, x in m.items()}


def label_path_metric(doc: dict) -> dict[str, dict[str, Fraction]]:
    """Max vertex label along each tree path, endpoints included; 0 on the
    diagonal."""
    lab = _fractions(doc["labels"])
    adj = _adjacency(doc["vertices"], doc["edges"])
    out = {}
    for src in doc["vertices"]:
        row = {src: lab[src]}
        stack = [src]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in row:
                    row[y] = max(row[x], lab[y])
                    stack.append(y)
        row[src] = ZERO
        out[src] = row
    return out


# ----------------------------------------------------------------- checkers


def hierarchy(op, out: dict, read: Reader) -> None:
    """repr: leaves hold singleton payloads with label 0; payloads nest; the
    label of the lowest common ancestor of two points is their distance."""
    text = read(op.expect["input"])
    if "--labeled-tree" in op.argv:
        doc = json.loads(text)
        pts, d = doc["vertices"], label_path_metric(doc)
    else:
        pts, d = read_matrix(text)
    lab, pay = _fractions(out["labels"]), out["payloads"]
    _, kids, order = _rooted(out["vertices"], out["edges"], out["root"])
    leaf_of: dict[str, str] = {}
    for v in order:
        if not kids[v]:
            _require(len(pay[v]) == 1 and lab[v] == 0, f"leaf {v!r} is not a zero-label singleton")
            _require(pay[v][0] not in leaf_of, f"point {pay[v][0]!r} has two leaves")
            leaf_of[pay[v][0]] = v
        else:
            union = [x for c in kids[v] for x in pay[c]]
            _require(sorted(union) == sorted(pay[v]), f"payload of {v!r} is not its children's disjoint union")
    _require(sorted(leaf_of) == sorted(pts), "leaves do not match the input points")
    # every pair of points meets at exactly one vertex, across two children
    for v in order:
        for i, c1 in enumerate(kids[v]):
            for c2 in kids[v][i + 1 :]:
                for x in pay[c1]:
                    row = d[x]
                    for y in pay[c2]:
                        _require(row[y] == lab[v], f"d({x},{y}) = {row[y]} but their ancestor {v!r} has label {lab[v]}")


def ballean_tree(op, out: dict, read: Reader) -> None:
    """ballean --tree: the leaves are the balls of the input space, all with
    label 0, and two leaves meet at a vertex labeled by the Hausdorff
    distance of their balls."""
    pts, d = read_matrix(read(op.expect["input"]))
    balls = set()
    for c in pts:
        for r in set(d[c].values()):
            balls.add(frozenset(x for x in pts if d[c][x] <= r))
    lab = _fractions(out["labels"])
    _require(out.get("payloads") is None, "ballean tree carries payloads")
    _, kids, order = _rooted(out["vertices"], out["edges"], out["root"])
    # vertex ids are the sorted point list as compact JSON; the leaf added
    # for an internal ball appends "~b"
    ball_of = {}
    for v in order:
        if not kids[v]:
            _require(lab[v] == 0, f"leaf {v!r} has label {lab[v]}")
            ball_of[v] = frozenset(json.loads(v[:-2] if v.endswith("~b") else v))
    _require(sorted(map(sorted, ball_of.values())) == sorted(map(sorted, balls)), "leaves are not the balls of the space")
    near = {(x, b): min(d[x][y] for y in b) for x in pts for b in balls}

    def hausdorff(a: frozenset, b: frozenset) -> Fraction:
        return max(max(near[(x, b)] for x in a), max(near[(y, a)] for y in b))

    below: dict[str, list[str]] = {}
    for v in reversed(order):
        below[v] = [v] if not kids[v] else [leaf for c in kids[v] for leaf in below[c]]
        for i, c1 in enumerate(kids[v]):
            for c2 in kids[v][i + 1 :]:
                for l1 in below[c1]:
                    for l2 in below[c2]:
                        h = hausdorff(ball_of[l1], ball_of[l2])
                        _require(h == lab[v], f"balls {l1!r}, {l2!r} are {h} apart but meet at label {lab[v]}")


def _multiset(kind: str, text: str) -> Counter:
    if kind == "distances":
        pts, d = read_matrix(text)
        return Counter(d[p][q] for i, p in enumerate(pts) for q in pts[i + 1 :])
    doc = json.loads(text)
    if kind == "degrees":
        deg = Counter(v for e in doc["edges"] for v in e)
        return Counter(deg[v] for v in doc["vertices"])
    return Counter(_fractions(doc[kind]).values())


def verdict(op, out: dict, read: Reader) -> None:
    """iso / isometry: the verdict known by construction; a "false" pair has
    a certificate, a found bijection must preserve every distance."""
    e = op.expect
    _require(out.get(e["key"]) is e["value"], f"{e['key']} is {out.get(e['key'])!r}, expected {e['value']}")
    if not e["value"]:
        kind = e["certificate"]
        left, right = _multiset(kind, read(e["left"])), _multiset(kind, read(e["right"]))
        _require(left != right, f"false pair without a certificate: {kind} multisets agree")
    if op.argv[0] == "isometry":
        bij = out.get("bijection")
        if "--fast-ultrametric" in op.argv or not e["value"]:
            _require(bij is None, "unexpected bijection")
        else:
            p1, d1 = read_matrix(read(e["left"]))
            p2, d2 = read_matrix(read(e["right"]))
            _require(sorted(bij) == sorted(p1) and sorted(bij.values()) == sorted(p2), "bijection is not onto")
            for x in p1:
                for y in p1:
                    _require(d1[x][y] == d2[bij[x]][bij[y]], f"bijection moves d({x},{y})")


def error(op, out: dict, read: Reader) -> None:
    """An expected refusal: the error code, and for a matrix refused as not
    ultrametric, the witness triple really violates the strong triangle
    inequality."""
    err = out.get("error")
    _require(isinstance(err, dict) and err.get("code") == op.expect["code"], f"expected error {op.expect['code']}, got {out!r}"[:200])
    if "witness" in op.expect:
        _, d = read_matrix(read(op.expect["input"]))
        x, y, z = op.expect["witness"]
        _require(d[x][y] > max(d[x][z], d[z][y]), "witness does not violate the strong triangle inequality")


def dual(op, out: dict, read: Reader) -> None:
    """dual: same rooted tree, the given half unchanged, and l(u) - l(c) = 2w
    on every parent-child edge, with zero labels on childless vertices."""
    doc = json.loads(read(op.expect["input"]))
    _require(sorted(out["vertices"]) == sorted(doc["vertices"]) and out["root"] == doc["root"], "tree changed")
    _require(sorted(map(sorted, out["edges"])) == sorted(map(sorted, doc["edges"])), "edges changed")
    w, lab = _fractions(out["weights"]), _fractions(out["labels"])
    given = "weights" if op.expect["direction"] == "w2l" else "labels"
    _require(_fractions(out[given]) == _fractions(doc[given]), f"input {given} changed")
    _, kids, order = _rooted(out["vertices"], out["edges"], out["root"])
    for u in order:
        _require(bool(kids[u]) or lab[u] == 0, f"childless {u!r} has label {lab[u]}")
        for c in kids[u]:
            _require(lab[u] - lab[c] == 2 * w[_edge_key(u, c)], f"l({u}) - l({c}) != 2w")


def _root_distances(order, parent, w) -> dict[str, Fraction]:
    dist = {order[0]: ZERO}
    for v in order[1:]:
        dist[v] = dist[parent[v]] + w[_edge_key(parent[v], v)]
    return dist


def reduce(op, out: dict, read: Reader) -> None:
    """reduce: the removed set is exactly the input's out-degree-one
    vertices; the rest forms an equidistant tree with none left."""
    doc = json.loads(read(op.expect["input"]))
    _, kids, _ = _rooted(doc["vertices"], doc["edges"], doc["root"])
    ones = sorted(v for v in doc["vertices"] if len(kids[v]) == 1)
    _require(out["removed"] == ones, "removed set is not the out-degree-one vertices")
    t = out["tree"]
    _require(sorted(t["vertices"]) == sorted(set(doc["vertices"]) - set(ones)), "reduced vertex set is wrong")
    _require(t["root"] == out["new_root"], "tree root is not new_root")
    parent, kids, order = _rooted(t["vertices"], t["edges"], t["root"])
    _require(all(len(kids[v]) != 1 for v in order), "an out-degree-one vertex remains")
    dist = _root_distances(order, parent, _fractions(t["weights"]))
    _require(len({dist[v] for v in order if not kids[v]}) == 1, "reduced tree is not equidistant")


def analyze(op, out: dict, read: Reader) -> None:
    """analyze: every field recomputed from the definitions."""
    doc = json.loads(read(op.expect["input"]))
    vs, root = doc["vertices"], doc["root"]
    w = _fractions(doc["weights"])
    adj = _adjacency(vs, doc["edges"])
    deg = {v: len(adj[v]) for v in vs}

    def equidistant_from(r):
        parent, kids, order = _rooted(vs, doc["edges"], r)
        dist = _root_distances(order, parent, w)
        sums = {dist[v] for v in order if not kids[v]}
        return (sums.pop() if len(sums) == 1 else None), parent, kids, dist

    centers = sorted(r for r in vs if equidistant_from(r)[0] is not None)
    K, _, kids, dist = equidistant_from(root)
    planted = len(kids[root]) == 1
    lhs = rhs = None
    if K is not None and planted and any(len(kids[v]) >= 2 for v in vs):
        lhs = 2 * min(dist[v] for v in vs if len(kids[v]) >= 2)
        rhs = min(dist[v] for v in vs if not kids[v])
    want = {
        "planted": planted,
        "centers": centers,
        "is_star": len(vs) >= 2 and max(deg.values()) == len(vs) - 1,
        "phylo_shape": all(deg[v] >= 3 for v in vs if deg[v] >= 2),
        "K": K,
        "branching_lhs": lhs,
        "branching_rhs": rhs,
    }
    for key, val in want.items():
        got = out.get(key)
        if isinstance(val, Fraction):
            got = None if got is None else Fraction(got)
        _require(got == val, f"{key} is {got!r}, expected {val!r}")


def spanning(op, out: dict, read: Reader) -> None:
    """spanning: a spanning tree of the input with its labels, and every
    non-tree edge u-v meets the cycle condition: no label on the tree path
    from u to v exceeds max(l(u), l(v))."""
    doc = json.loads(read(op.expect["input"]))
    _require(sorted(out["vertices"]) == sorted(doc["vertices"]), "vertex set changed")
    _require(_fractions(out["labels"]) == _fractions(doc["labels"]), "labels changed")
    tree = {_edge_key(u, v) for u, v in out["edges"]}
    graph = {_edge_key(u, v) for u, v in doc["edges"]}
    _require(tree <= graph, "tree uses an edge the graph lacks")
    parent, _, order = _rooted(doc["vertices"], out["edges"], doc["vertices"][0])
    depth = {order[0]: 0}
    for v in order[1:]:
        depth[v] = depth[parent[v]] + 1
    lab = _fractions(doc["labels"])
    for e in graph - tree:
        u, v = e.split("|")
        top, bound = max(lab[u], lab[v]), max(lab[u], lab[v])
        while u != v:
            if depth[u] < depth[v]:
                u, v = v, u
            u = parent[u]
            top = max(top, lab[u])
        _require(top <= bound, f"non-tree edge {e} breaks the cycle condition")


def counterexample(op, out: dict, read: Reader) -> None:
    """counterexample: the input graph, two positive weightings that differ
    on exactly one edge, and that edge lies on a cycle."""
    doc = json.loads(read(op.expect["input"]))
    g = out["graph"]
    _require(sorted(g["vertices"]) == sorted(doc["vertices"]), "vertex set changed")
    edges = sorted(_edge_key(u, v) for u, v in doc["edges"])
    _require(sorted(_edge_key(u, v) for u, v in g["edges"]) == edges, "edge set changed")
    w1, w2 = _fractions(out["w1"]), _fractions(out["w2"])
    _require(sorted(w1) == edges and sorted(w2) == edges, "weights do not cover the edges")
    _require(min(w1.values()) > 0 and min(w2.values()) > 0, "non-positive weight")
    diff = [e for e in edges if w1[e] != w2[e]]
    _require(len(diff) == 1, f"weightings differ on {len(diff)} edges")
    u, v = diff[0].split("|")
    adj = _adjacency(doc["vertices"], [e.split("|") for e in edges if e != diff[0]])
    seen, stack = {u}, [u]
    while stack:
        for y in adj[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    _require(v in seen, f"edge {diff[0]} is a bridge")


CHECKERS = {
    f.__name__: f
    for f in (hierarchy, ballean_tree, verdict, error, dual, reduce, analyze, spanning, counterexample)
}


def check(op, code: int, stdout: str, stderr: str, read: Reader) -> str | None:
    """None when the op's result is right, else why it is not."""
    if stderr:
        return "stderr: " + stderr.strip().splitlines()[-1][:160]
    if code != op.exit_code:
        return f"exit code {code}, expected {op.exit_code}"
    try:
        out = json.loads(stdout)
    except ValueError:
        return "stdout is not one JSON document"
    if not isinstance(out, dict):
        return "stdout is not a JSON object"
    if op.exit_code == 0 and "error" in out:
        return f"error {out['error']!r}"[:200]
    try:
        CHECKERS[op.check](op, out, read)
    except Bad as exc:
        return str(exc)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"[:200]
    return None
