"""Seeded inputs and op lists for the benchmark workloads.

Everything here is independent of the package under test: inputs are built
with the standard library only, and every op carries the facts its checker
needs (verdicts known by construction, witnesses, certificates).  An op's
inputs depend only on (workload, seed, slot), so the same seed always gives
byte-identical files.

Workloads (why each was chosen is in WHY below):
  ultra_matrix  hierarchy trees and fast isometry of ultrametric matrices
  big_trees     canonical codes, duality, reduction and analysis on large trees
  label_graphs  spanning trees and counterexamples on labeled graphs, plus the
                brute-force iso/isometry oracles on tiny inputs
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import random
from dataclasses import asdict, dataclass, field
from fractions import Fraction

ZERO = Fraction(0)

WHY = {
    "ultra_matrix": "repr, ballean --tree and fast isometry on ultrametric matrices, n 20-120: metric "
    "classification and the hierarchy recursion do nearly all the work here and none elsewhere",
    "big_trees": "iso in six flavors, dual, reduce and analyze on 500-5000 vertex trees: parsing, tree "
    "building, canonical codes and the quadratic rebuilds carry the load; no matrix is classified",
    "label_graphs": "spanning and counterexample rebuild a graph on every step, where big_trees builds "
    "each once; brute-force iso/isometry on tiny inputs is bound by CLI start-up",
}
WORKLOADS = tuple(WHY)


@dataclass(frozen=True)
class Op:
    """One CLI call: arguments (input paths relative to the work dir), the
    exit code a correct program gives, and what the checker needs."""

    name: str
    argv: tuple[str, ...]
    check: str
    expect: dict = field(default_factory=dict)
    exit_code: int = 0
    known_defect: str | None = None


# ---------------------------------------------------------------- text forms


@functools.lru_cache(maxsize=None)
def _q(x: int | Fraction) -> str:
    return str(x)


def _edge(u: str, v: str) -> str:
    return f"{u}|{v}" if u < v else f"{v}|{u}"


def matrix_csv(names: list[str], d: list[list[Fraction]]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow([""] + names)
    for name, row in zip(names, d):
        w.writerow([name] + [_q(x) for x in row])
    return buf.getvalue()


def matrix_json(names: list[str], d: list[list[Fraction]]) -> str:
    return json.dumps({"points": names, "matrix": [[_q(x) for x in row] for row in d]})


def graph_json(vertices, edges, root=None, weights=None, labels=None) -> str:
    doc = {
        "vertices": sorted(vertices),
        "edges": sorted([min(u, v), max(u, v)] for u, v in edges),
        "root": root,
        "weights": None if weights is None else {k: _q(x) for k, x in sorted(weights.items())},
        "labels": None if labels is None else {v: _q(x) for v, x in sorted(labels.items())},
    }
    return json.dumps(doc)


# ------------------------------------------------------- ultrametric spaces


def hierarchy(rng: random.Random, n: int) -> list[tuple[list[list[int]], Fraction, Fraction]]:
    """Random nested partition of range(n): (parts, label, largest child
    label) per internal block; a child block's label is strictly below its
    parent's and singletons have label 0."""
    out = []
    stack = [(list(range(n)), Fraction(rng.randint(4, 8)))]
    while stack:
        block, label = stack.pop()
        if len(block) == 1:
            continue
        k = rng.randint(2, min(4, len(block)))
        cuts = sorted(rng.sample(range(1, len(block)), k - 1))
        parts = [block[a:b] for a, b in zip([0] + cuts, cuts + [len(block)])]
        kids = [label * Fraction(rng.randint(1, 3), 4) if len(p) > 1 else ZERO for p in parts]
        out.append((parts, label, max(kids)))
        stack.extend(zip(parts, kids))
    return out


def materialize(n: int, blocks) -> list[list[Fraction]]:
    d = [[ZERO] * n for _ in range(n)]
    for parts, label, _ in blocks:
        for i, part in enumerate(parts):
            for other in parts[i + 1 :]:
                for x in part:
                    for y in other:
                        d[x][y] = d[y][x] = label
    return d


def names(rng: random.Random, n: int, prefix: str) -> list[str]:
    out = [f"{prefix}{i:04d}" for i in range(n)]
    rng.shuffle(out)
    return out


def perturbed(rng: random.Random, blocks):
    """Same hierarchy with one internal label moved strictly between its
    largest child label and its own: still ultrametric, but the distance
    multiset changes."""
    i = rng.randrange(len(blocks))
    parts, label, below = blocks[i]
    return blocks[:i] + [(parts, (label + below) / 2, below)] + blocks[i + 1 :]


def caterpillar_matrix(n: int) -> list[list[Fraction]]:
    """d(p_i, p_j) = max(i, j) for i != j, indices from 1."""
    return [[ZERO if i == j else Fraction(max(i, j) + 1) for j in range(n)] for i in range(n)]


def non_ultrametric(rng: random.Random, n: int):
    """An ultrametric space with one pair pushed above the diameter, and a
    witness triple (x, y, z) with d(x, y) > max(d(x, z), d(z, y))."""
    d = materialize(n, hierarchy(rng, n))
    x, y, z = rng.sample(range(n), 3)
    d[x][y] = d[y][x] = max(max(row) for row in d) + 1
    return d, (x, y, z)


# ------------------------------------------------------------------- trees


def random_parents(rng: random.Random, n: int) -> list[int]:
    """Random recursive tree rooted at 0; parent[i] < i."""
    return [-1] + [rng.randrange(i) for i in range(1, n)]


def caterpillar_parents(rng: random.Random, n: int, spine: int) -> list[int]:
    """A spine 0-1-...-(spine-1) with the other vertices hung on random
    spine vertices; parent[i] < i."""
    return [-1] + [i - 1 if i < spine else rng.randrange(spine) for i in range(1, n)]


def children_of(parents: list[int]) -> list[list[int]]:
    kids = [[] for _ in parents]
    for i, p in enumerate(parents):
        if p >= 0:
            kids[p].append(i)
    return kids


def monotone_labels(rng: random.Random, parents: list[int]) -> list[int]:
    """Zero exactly on childless vertices, strictly larger than every child
    elsewhere (needs parent[i] < i)."""
    top = [0] * len(parents)  # largest child label so far
    lab = [0] * len(parents)
    has_kids = [False] * len(parents)
    for i in range(len(parents) - 1, -1, -1):
        if has_kids[i]:
            lab[i] = top[i] + rng.randint(1, 8)
        p = parents[i]
        if p >= 0:
            has_kids[p] = True
            top[p] = max(top[p], lab[i])
    return lab


def equidistant_weights(parents: list[int], lab: list[int]) -> dict[int, int | Fraction]:
    """w(parent(c), c) = (l(parent) - l(c)) / 2, keyed by the child."""
    out: dict[int, int | Fraction] = {}
    for c, p in enumerate(parents):
        if p >= 0:
            diff = lab[p] - lab[c]
            out[c] = diff // 2 if diff % 2 == 0 else Fraction(diff, 2)
    return out


@dataclass
class TreeDoc:
    """A rooted tree on named vertices with optional labels and weights
    (weights keyed by child index)."""

    names: list[str]
    parents: list[int]
    labels: list[Fraction] | None = None
    weights: dict[int, Fraction] | None = None

    def text(self, rooted: bool = True, labels: bool = True, weights: bool = True) -> str:
        nm = self.names
        edges = [(nm[p], nm[c]) for c, p in enumerate(self.parents) if p >= 0]
        return graph_json(
            nm,
            edges,
            root=nm[0] if rooted else None,
            weights={_edge(nm[self.parents[c]], nm[c]): w for c, w in self.weights.items()}
            if weights and self.weights is not None
            else None,
            labels=dict(zip(nm, self.labels)) if labels and self.labels is not None else None,
        )

    def renamed(self, rng: random.Random, prefix: str) -> "TreeDoc":
        return TreeDoc(names(rng, len(self.names), prefix), self.parents, self.labels, self.weights)


def degree_perturbed(rng: random.Random, t: TreeDoc) -> TreeDoc:
    """Move one childless vertex x from parent p to a vertex q whose degree is
    not deg(p) - 1, so the degree multiset changes."""
    n = len(t.parents)
    deg = [0] * n
    for c, p in enumerate(t.parents):
        if p >= 0:
            deg[c] += 1
            deg[p] += 1
    kids = children_of(t.parents)
    leaves = [i for i in range(1, n) if not kids[i]]
    while True:
        x = rng.choice(leaves)
        p = t.parents[x]
        q = rng.randrange(n)
        if q not in (x, p) and deg[q] != deg[p] - 1:
            parents = list(t.parents)
            parents[x] = q
            return TreeDoc(t.names, parents, t.labels, t.weights)


def value_perturbed(rng: random.Random, t: TreeDoc, what: str) -> TreeDoc:
    """Raise one label (what="labels") or one weight by 1/3, so that value
    multiset changes."""
    if what == "labels":
        lab = list(t.labels)
        lab[rng.randrange(len(lab))] += Fraction(1, 3)
        return TreeDoc(t.names, t.parents, lab, t.weights)
    w = dict(t.weights)
    w[rng.choice(sorted(w))] += Fraction(1, 3)
    return TreeDoc(t.names, t.parents, t.labels, w)


# ------------------------------------------------------------------ graphs


def random_graph(rng: random.Random, n: int, m: int, prefix: str = "g") -> tuple[list[str], list[tuple[str, str]]]:
    """Connected graph: a random recursive spanning tree plus m - n + 1 extra
    distinct edges."""
    nm = names(rng, n, prefix)
    edges = {(min(nm[i], nm[p]), max(nm[i], nm[p])) for i, p in enumerate(random_parents(rng, n)) if p >= 0}
    while len(edges) < m:
        a, b = rng.sample(nm, 2)
        edges.add((min(a, b), max(a, b)))
    return nm, sorted(edges)


def bridged_graph(rng: random.Random, n: int, m: int) -> tuple[list[str], list[tuple[str, str]]]:
    """Connected graph whose lexicographically smallest edges are all bridges:
    a pendant path on ids "a..." hangs off a cyclic core on ids "z...",
    the worst case for a search that tests edges in order."""
    tail = n // 2
    path = [f"a{i:04d}" for i in range(tail)]
    core, core_edges = random_graph(rng, n - tail, m - tail, prefix="z")
    edges = [(path[i], path[i + 1]) for i in range(tail - 1)] + [(path[-1], core[0])]
    return path + core, edges + core_edges


def graph_labels(rng: random.Random, nm: list[str]) -> dict[str, Fraction]:
    return {v: Fraction(rng.randint(0, 9), rng.choice((1, 2))) for v in nm}


# --------------------------------------------------------------- workloads


class Workload:
    """Files and ops of one workload for one seed."""

    def __init__(self, name: str, seed: int):
        self.name, self.seed = name, seed
        self.files: dict[str, str] = {}
        self.ops: list[Op] = []

    def rng(self, slot: str) -> random.Random:
        # a string seed hashes stably, so each slot's data depends only on
        # (workload, seed, slot)
        return random.Random(f"{self.name}:{self.seed}:{slot}")

    def file(self, name: str, text: str) -> str:
        self.files[name] = text
        return name

    def op(self, name: str, argv, check: str, exit_code: int = 0, known_defect=None, **expect) -> None:
        self.ops.append(Op(name, tuple(argv), check, expect, exit_code, known_defect))

    def digest(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.files):
            h.update(name.encode() + b"\0" + self.files[name].encode() + b"\0")
        h.update(json.dumps([asdict(op) for op in self.ops], sort_keys=True).encode())
        return h.hexdigest()


# Each workload is one pass of distinct ops; (size, count) tables fix its
# shape for every seed.  Counts are set so a pass holds more than 110 ops
# (at least ten latency samples above p90) and the ops around p50 and p90
# fall inside clusters of similar cost, so the percentiles do not jump
# between op kinds from seed to seed.


def _ultra_matrix(w: Workload) -> None:
    for n, count in ((20, 37), (30, 14), (40, 10), (60, 4), (80, 1), (100, 1), (120, 1)):
        for k in range(count):
            rng = w.rng(f"repr{n}.{k}")
            nm, d = names(rng, n, "p"), materialize(n, hierarchy(rng, n))
            fmt = "json" if k % 2 else "csv"
            f = w.file(f"repr{n}.{k}.{fmt}", matrix_json(nm, d) if fmt == "json" else matrix_csv(nm, d))
            w.op(f"repr.{fmt}.n{n}", ["repr", f], "hierarchy", input=f)
    # the caterpillar's cost does not depend on the seed; the n=45 ones hold p90
    for n, count in ((45, 12), (100, 1)):
        for k in range(count):
            rng = w.rng(f"caterpillar{n}.{k}")
            f = w.file(f"caterpillar{n}.{k}.csv", matrix_csv(names(rng, n, "c"), caterpillar_matrix(n)))
            w.op(f"repr.caterpillar.n{n}", ["repr", f], "hierarchy", input=f)
    for n, count in ((30, 6), (80, 1)):
        for k in range(count):
            rng = w.rng(f"labeled{n}.{k}")
            parents = random_parents(rng, n)
            kids = children_of(parents)
            # zero labels only on leaves, so no edge has two zero ends and the
            # max-label metric is ultrametric
            lab = [Fraction(rng.randint(1, 9)) if kids[i] or rng.random() < 0.5 else ZERO for i in range(n)]
            f = w.file(f"labeled{n}.{k}.json", TreeDoc(names(rng, n, "t"), parents, lab).text(rooted=False))
            w.op(f"repr.labeled_tree.n{n}", ["repr", "--labeled-tree", f], "hierarchy", input=f)
    for n, count in ((24, 8), (48, 3)):
        for k in range(count):
            rng = w.rng(f"ballean{n}.{k}")
            f = w.file(f"ballean{n}.{k}.csv", matrix_csv(names(rng, n, "b"), materialize(n, hierarchy(rng, n))))
            w.op(f"ballean_tree.n{n}", ["ballean", "--tree", f], "ballean_tree", input=f)
    for n, count in ((20, 6), (50, 1)):
        for k in range(count):
            rng = w.rng(f"isometry{n}.{k}")
            blocks = hierarchy(rng, n)
            a = w.file(f"iso{n}.{k}a.csv", matrix_csv(names(rng, n, "p"), materialize(n, blocks)))
            b = w.file(f"iso{n}.{k}b.json", matrix_json(names(rng, n, "q"), materialize(n, blocks)))
            c = w.file(f"iso{n}.{k}c.csv", matrix_csv(names(rng, n, "r"), materialize(n, perturbed(rng, blocks))))
            w.op(f"isometry.fast.true.n{n}", ["isometry", "--fast-ultrametric", a, b], "verdict",
                 key="isometric", value=True, left=a, right=b)
            w.op(f"isometry.fast.false.n{n}", ["isometry", "--fast-ultrametric", a, c], "verdict",
                 key="isometric", value=False, left=a, right=c, certificate="distances")
    for k in range(3):
        rng = w.rng(f"nonultra40.{k}")
        d, (x, y, z) = non_ultrametric(rng, 40)
        nm = names(rng, 40, "p")
        f = w.file(f"nonultra40.{k}.csv", matrix_csv(nm, d))
        w.op("repr.not_ultrametric.n40", ["repr", f], "error", exit_code=1, code="not-ultrametric",
             input=f, witness=[nm[x], nm[y], nm[z]])


FLAVORS = {  # flavor -> (rooted, labels, weights, certificate of a "false" pair)
    "free": (False, False, False, "degrees"),
    "rooted": (True, False, False, "degrees"),
    "vlabel": (False, True, False, "labels"),
    "eweight": (False, False, True, "weights"),
    "rlabel": (True, True, False, "labels"),
    "rweight": (True, False, True, "weights"),
}


def _tree(rng: random.Random, n: int, shape: str, decorated: bool = True) -> TreeDoc:
    """A named rooted tree with, if decorated, monotone labels and the
    paired equidistant weights."""
    # caterpillar spines stay at 250 so no op but the path defect nests
    # deeper than the interpreter's default recursion limit
    parents = caterpillar_parents(rng, n, 250) if shape == "caterpillar" else random_parents(rng, n)
    if not decorated:
        return TreeDoc(names(rng, n, "v"), parents)
    lab = monotone_labels(rng, parents)
    return TreeDoc(names(rng, n, "v"), parents, lab, equidistant_weights(parents, lab))


def _iso_pair(w: Workload, flavor: str, n: int, shape: str, value: bool, slot: str) -> None:
    rooted, labels, weights, cert = FLAVORS[flavor]
    rng = w.rng(slot)
    t = _tree(rng, n, shape, decorated=labels or weights)
    other = t if value else degree_perturbed(rng, t) if cert == "degrees" else value_perturbed(rng, t, cert)
    a = w.file(f"{slot}a.json", t.text(rooted, labels, weights))
    b = w.file(f"{slot}b.json", other.renamed(rng, "u").text(rooted, labels, weights))
    w.op(f"iso.{flavor}.{str(value).lower()}.{shape}.n{n}", ["iso", "--flavor", flavor, a, b], "verdict",
         key="isomorphic", value=value, left=a, right=b, **({} if value else {"certificate": cert}))


def _big_trees(w: Workload) -> None:
    # (vertices, pairs per verdict)
    sizes = {
        "free": ((5000, 1), (500, 8)),
        "rooted": ((5000, 1), (500, 8)),
        "vlabel": ((2000, 1), (500, 6)),
        "rlabel": ((2000, 1), (500, 6)),
        "eweight": ((1500, 1), (500, 5)),
        "rweight": ((1500, 1), (500, 5)),
    }
    for i, (flavor, table) in enumerate(sizes.items()):
        for value in (True, False):
            for k, n in enumerate(n for n, count in table for _ in range(count)):
                shape = ("random", "caterpillar")[(i + k + value) % 2]
                _iso_pair(w, flavor, n, shape, value, f"iso_{flavor}_{value}_{n}.{k}")
    for n, count in ((500, 2), (2000, 1), (5000, 1)):
        for k in range(count):
            t = _tree(w.rng(f"dual{n}.{k}"), n, "random")
            f = w.file(f"w2l{n}.{k}.json", t.text(labels=False))
            w.op(f"dual.w2l.n{n}", ["dual", "--direction", "w2l", f], "dual", input=f, direction="w2l")
            f = w.file(f"l2w{n}.{k}.json", t.text(weights=False))
            w.op(f"dual.l2w.n{n}", ["dual", "--direction", "l2w", f], "dual", input=f, direction="l2w")
    for n, count in ((300, 2), (1000, 1)):
        for k in range(count):
            f = w.file(f"reduce{n}.{k}.json", _tree(w.rng(f"reduce{n}.{k}"), n, "random").text(labels=False))
            w.op(f"reduce.n{n}", ["reduce", f], "reduce", input=f)
    # analyze is CPU-bound and its cost does not depend on the seed; the
    # n=200 ones hold p90
    for n, count in ((200, 14), (400, 1)):
        for k in range(count):
            f = w.file(f"analyze{n}.{k}.json", _tree(w.rng(f"analyze{n}.{k}"), n, "random").text(labels=False))
            w.op(f"analyze.n{n}", ["analyze", f], "analyze", input=f)
    # Known defects, kept at their sizes with the correct expected results.
    rng = w.rng("path1500")
    path = TreeDoc(names(rng, 1500, "v"), [i - 1 for i in range(1500)])
    a = w.file("path1500a.json", path.text())
    b = w.file("path1500b.json", path.renamed(rng, "u").text())
    w.op("iso.rooted.true.path.n1500", ["iso", "--flavor", "rooted", a, b], "verdict",
         key="isomorphic", value=True, left=a, right=b,
         known_defect="the recursive rooted code raises RecursionError on a 1500-vertex path")
    doc = json.loads(_tree(w.rng("weightslist500"), 500, "random").text(labels=False))
    doc["weights"] = [[k, v] for k, v in doc["weights"].items()]
    f = w.file("weightslist500.json", json.dumps(doc))
    w.op("reduce.weights_list.n500", ["reduce", f], "error", exit_code=2, code="parse-error",
         known_defect="a JSON list under \"weights\" escapes the parser as an AttributeError")


def _small_graph_pair(w: Workload, flavor: str, value: bool, slot: str) -> None:
    """Brute-force iso on an 8-vertex graph with cycles against a renamed
    copy, or against one whose degree, label or weight multiset differs."""
    _, labels, weights, cert = FLAVORS[flavor]
    rng = w.rng(slot)
    nm, edges = random_graph(rng, 8, 11, prefix="a")
    lab = graph_labels(rng, nm)
    wts = {_edge(*e): Fraction(rng.randint(1, 9)) for e in edges}
    a = w.file(f"{slot}a.json", graph_json(nm, edges, labels=lab if labels else None, weights=wts if weights else None))
    if not value and cert == "degrees":
        edges = edges + [rng.choice(sorted({(u, v) for u in nm for v in nm if u < v} - set(edges)))]
    elif not value and cert == "labels":
        lab[rng.choice(nm)] += Fraction(1, 3)
    elif not value:
        wts[rng.choice(sorted(wts))] += Fraction(1, 3)
    new = dict(zip(nm, names(rng, 8, "b")))
    b = w.file(f"{slot}b.json", graph_json(
        new.values(), [(new[u], new[v]) for u, v in edges],
        labels={new[v]: x for v, x in lab.items()} if labels else None,
        weights={_edge(new[u], new[v]): wts[_edge(u, v)] for u, v in edges} if weights else None))
    w.op(f"iso.{flavor}.{str(value).lower()}.graph.n8", ["iso", "--flavor", flavor, a, b], "verdict",
         key="isomorphic", value=value, left=a, right=b, **({} if value else {"certificate": cert}))


def _small_space_pair(w: Workload, kind: str, value: bool, slot: str) -> None:
    """Isometry search on 9 points, an ultrametric space or a metric with
    integer distances in [5, 9], against a renamed copy or against one whose
    distance multiset differs."""
    rng = w.rng(slot)
    n = 9
    if kind == "ultra":
        blocks = hierarchy(rng, n)
        d1 = materialize(n, blocks)
        d2 = d1 if value else materialize(n, perturbed(rng, blocks))
    else:
        d1 = [[ZERO] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                d1[i][j] = d1[j][i] = Fraction(rng.randint(5, 9))
        d2 = [row[:] for row in d1]
        if not value:
            i, j = rng.sample(range(n), 2)
            d2[i][j] = d2[j][i] = d1[i][j] + Fraction(1, 2)
    a = w.file(f"{slot}a.csv", matrix_csv(names(rng, n, "p"), d1))
    b = w.file(f"{slot}b.csv", matrix_csv(names(rng, n, "q"), d2))
    w.op(f"isometry.search.{str(value).lower()}.{kind}.n{n}", ["isometry", a, b], "verdict",
         key="isometric", value=value, left=a, right=b, **({} if value else {"certificate": "distances"}))


def _label_graphs(w: Workload) -> None:
    for n, count in ((200, 4), (400, 2), (800, 1)):
        for k in range(count):
            rng = w.rng(f"spanning{n}.{k}")
            nm, edges = random_graph(rng, n, 2 * n)
            f = w.file(f"spanning{n}.{k}.json", graph_json(nm, edges, labels=graph_labels(rng, nm)))
            w.op(f"spanning.n{n}", ["spanning", f], "spanning", input=f)
    for n, count in ((150, 6), (300, 6)):
        for k in range(count):
            f = w.file(f"cx{n}.{k}.json", graph_json(*random_graph(w.rng(f"cx{n}.{k}"), n, 2 * n)))
            w.op(f"counterexample.random.n{n}", ["counterexample", f], "counterexample", input=f)
    # the cost of the bridged graphs hardly depends on the seed; m=500 holds p90
    for m, count in ((500, 16), (800, 1)):
        for k in range(count):
            f = w.file(f"bridged{m}.{k}.json", graph_json(*bridged_graph(w.rng(f"bridged{m}.{k}"), 3 * m // 4, m)))
            w.op(f"counterexample.bridged.m{m}", ["counterexample", f], "counterexample", input=f)
    for k in range(8):
        for flavor in ("free", "vlabel", "eweight"):
            for value in (True, False):
                _small_graph_pair(w, flavor, value, f"giso_{flavor}_{value}.{k}")
    for k in range(10):
        for kind in ("ultra", "metric"):
            for value in (True, False):
                _small_space_pair(w, kind, value, f"search_{kind}_{value}.{k}")


WORKLOAD_BUILDERS = {"ultra_matrix": _ultra_matrix, "big_trees": _big_trees, "label_graphs": _label_graphs}


def build(workload: str, seed: int) -> Workload:
    """All files and the op list of a workload, in a seeded order."""
    w = Workload(workload, seed)
    WORKLOAD_BUILDERS[workload](w)
    # interleave op kinds, so a burst of machine noise does not fall on one kind
    w.rng("order").shuffle(w.ops)
    return w
