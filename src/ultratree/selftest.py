"""Executable claims over the bundled figure corpus.

Each corpus file holds one worked instance plus its expected outcomes; the
runner re-derives every outcome and reports one PASS/FAIL line per claim.
A few seeded generator round trips run at the end; the seed comes from the
caller (the CLI reads ULTRATREE_SEED through env_seed).  Hierarchy trees
are compared with canonical.are_isomorphic, as rooted labeled trees.
Output is deterministic byte for byte given the same seed.
"""

from __future__ import annotations

import os
import random
from typing import Callable

from .analysis import centers, planted_leaf_ultrametric_check
from .canonical import IsoFlavor, are_isomorphic
from .duality import EquidistantTree, MonotoneTree, labeling_to_weight, weight_to_labeling
from .errors import ParseError, UltratreeError
from .graph_reader import graph_from_json
from .graphs import RootedTree
from .io import GraphDoc, parse_json
from .matrix_io import matrix_from_json
from .metrics import label_tree_metric
from .path_metrics import additive_metric, minimax_label_metric
from .propositions import diameter_bound_check, nabla_geometric_membership
from .random_monotone import generate_monotone
from .rational import parse_rational
from .representing import ballean, representing_tree
from .spaces import diametrical_graph, multipartite_parts, restrict
from .transforms import reduce_nabla, bottleneck_spanning_tree


def load_figure(name: str) -> tuple[GraphDoc, dict]:
    """A corpus figure's parsed input and its expected outcomes."""
    # a file beside this module: importlib.resources would import tempfile and zipfile, and inspect on 3.12+
    with open(os.path.join(os.path.dirname(__file__), "corpus", f"{name}.json"), encoding="utf-8") as fh:
        doc = parse_json(fh.read())
    return graph_from_json(doc["input"]), doc["expected"]


def _check_fig3(inp: GraphDoc, exp: dict) -> list[tuple[str, bool]]:
    t = inp.tree()
    got = sorted(centers(t, inp.weights))
    et = EquidistantTree(RootedTree(t, "v1"), inp.weights)
    bound = diameter_bound_check(et)
    return [("centers", got == exp["centers"]), ("K-at-v1", et.K == parse_rational(exp["K_at_v1"])),
            ("v0-diameter-equals-2K", bound.diam_v0 == parse_rational(exp["diam_v0_at_v1"]) and not bound.strict)]


def _check_fig5(inp: GraphDoc, exp: dict) -> list[tuple[str, bool]]:
    et = EquidistantTree(inp.rooted(), inp.weights)
    result = reduce_nabla(et)
    want = graph_from_json(exp["reduced"])
    want_et = EquidistantTree(want.rooted(), want.weights)
    member = {v: nabla_geometric_membership(et, v) for v in et.rt.vertices}
    return [("reduction-shape", result.reduced == want_et and result.new_root == want.root),
            ("removed-set", sorted(result.removed) == exp["removed"]),
            ("size-identity", len(result.reduced.rt.vertices) + len(result.removed) == len(et.rt.vertices)),
            ("midpoint-membership", member == exp["membership"])]


def _check_fig6(inp: GraphDoc, exp: dict) -> list[tuple[str, bool]]:
    space, _ = minimax_label_metric(inp.graph, inp.labels)
    want_space = matrix_from_json(exp["minimax_matrix"])
    spanning = bottleneck_spanning_tree(inp.graph, inp.labels)
    realized, _ = label_tree_metric(spanning, {v: inp.labels[v] for v in spanning.vertices})
    blocks = [list(b) for b in multipartite_parts(diametrical_graph(space))]
    tree = representing_tree(space)
    shown = graph_from_json(exp["hierarchy_tree"])
    same_shape = are_isomorphic(tree.rt.tree, shown.tree(), IsoFlavor.ROOTED_LABELED, tree.labels, shown.labels,
                                root1=tree.rt.root, root2=shown.root)
    return [("minimax-matrix", space == want_space), ("spanning-tree-realizes-minimax", realized == space),
            ("diametrical-blocks", blocks == exp["blocks"]), ("hierarchy-tree-shape", same_shape)]


def _check_fig10(inp: GraphDoc, exp: dict) -> list[tuple[str, bool]]:
    et = EquidistantTree(inp.rooted(), inp.weights)
    leaf_space = restrict(et.metric(), et.rt.tree.leaves())
    holds, lhs, rhs = planted_leaf_ultrametric_check(et)
    bound = diameter_bound_check(et)
    return [("K", et.K == parse_rational(exp["K"])),
            ("leaf-restriction-class", leaf_space.classify().value == exp["leaf_class"]),
            ("branching-inequality",
             (holds, lhs, rhs) == (exp["holds"], parse_rational(exp["lhs"]), parse_rational(exp["rhs"]))),
            ("planted-strict-bound", bound.strict and bound.diam_v0 == parse_rational(exp["diam_v0"]))]


def _check_fig11(inp: GraphDoc, exp: dict) -> list[tuple[str, bool]]:
    rt = inp.rooted()
    et = EquidistantTree(rt, inp.weights)
    mt = MonotoneTree(rt, inp.labels)
    return [("K", et.K == parse_rational(exp["K"])),
            ("weights-to-labels", weight_to_labeling(et).labels == mt.labels),
            ("labels-to-weights", labeling_to_weight(mt).weights == et.weights),
            ("round-trip", labeling_to_weight(weight_to_labeling(et)).weights == et.weights)]


def _check_fig13(inp: GraphDoc, exp: dict) -> list[tuple[str, bool]]:
    t = inp.tree()
    space = additive_metric(t, inp.weights)
    leaf_space = restrict(space, exp["leaf_points"])
    got = sorted(centers(t, inp.weights))
    toward_x4, path = RootedTree(t, "x4"), ["x1"]  # the x1-x4 path climbs from x1 to the root x4
    while path[-1] != "x4":
        path.append(toward_x4.parent(path[-1]))
    pairs = (("x1", "x2", "d_x1_x2"), ("x1", "x3", "d_x1_x3"), ("x3", "x4", "d_x3_x4"))
    return [("leaf-restriction-class", leaf_space.classify().value == exp["leaf_class"]),
            ("no-centers", got == exp["centers"]), ("path", path == exp["path_x1_x4"]),
            ("distances", all(space.distance(x, y) == parse_rational(exp[key]) for x, y, key in pairs))]


# each corpus figure, in report order, with the checker of its claims
_CHECKERS: dict[str, Callable[[GraphDoc, dict], list[tuple[str, bool]]]] = {
    "fig3": _check_fig3, "fig5": _check_fig5, "fig6": _check_fig6,
    "fig10": _check_fig10, "fig11": _check_fig11, "fig13": _check_fig13,
}


def _generator_claims(seed: int) -> list[tuple[str, str, bool]]:
    rng = random.Random(seed)
    out = []
    for i in range(5):
        mt = generate_monotone(rng, 1, 10)
        back = weight_to_labeling(labeling_to_weight(mt))
        out.append(("generated", f"dual-round-trip-{i}", back.labels == mt.labels))
    for i in range(5):
        mt = generate_monotone(rng, 1, 9, branching_only=True)
        space = restrict(mt.metric(), mt.v0())
        tree = representing_tree(space)
        same = are_isomorphic(tree.rt.tree, mt.rt.tree, IsoFlavor.ROOTED_LABELED, tree.labels, mt.labels,
                              root1=tree.rt.root, root2=mt.rt.root)
        out.append(("generated", f"hierarchy-round-trip-{i}", same))
    for i in range(3):
        mt = generate_monotone(rng, 1, 8, branching_only=True)
        space = restrict(mt.metric(), mt.v0())
        balls = ballean(space)
        tree = representing_tree(space)
        out.append(("generated", f"ballean-size-{i}", len(balls) == len(tree.rt.vertices)))
    return out


def env_seed() -> int:
    """ULTRATREE_SEED (0 when unset), an integer text as parse_rational reads one."""
    text = os.environ.get("ULTRATREE_SEED", "0")
    try:
        if "/" not in text:
            return int(parse_rational(text))
    except ParseError:
        pass
    raise ParseError(f"ULTRATREE_SEED must be an integer, got {text!r}")


def run_selftest(seed: int = 0) -> tuple[str, bool]:
    """Run every corpus claim; returns (report text, all passed)."""
    claims = [(figure, *claim) for figure, check in _CHECKERS.items() for claim in check(*load_figure(figure))]
    claims += _generator_claims(seed)
    lines = [f"{figure} {claim} {'PASS' if ok else 'FAIL'}" for figure, claim, ok in claims]
    passed = sum(1 for *_, ok in claims if ok)
    lines.append(f"selftest: {passed}/{len(claims)} claims passed")
    return "\n".join(lines) + "\n", passed == len(claims)


def cmd_selftest(cli, args) -> str:
    """The CLI's selftest verb, which cli.main imports from here to run it."""
    report, ok = run_selftest(env_seed())
    if not ok:
        raise UltratreeError("selftest failed:\n" + report)
    return report
