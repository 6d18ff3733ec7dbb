"""Command-line front end.

Verbs: repr, iso, isometry, dual, reduce, spanning, analyze, ballean,
counterexample, selftest.  Inputs are JSON graph documents or distance
matrices (JSON or CSV); "-" reads stdin.  Domain failures print an error
object and exit 1, parse failures exit 2; output is deterministic for fixed
inputs and ULTRATREE_SEED.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import io as tio
from .analysis import analyze
from .canonical import _LABELED, _ROOTED, _WEIGHTED, IsoFlavor, are_isomorphic, isometry_search, ultrametric_isometric
from .duality import EquidistantTree, MonotoneTree, labeling_to_weight, weight_to_labeling
from .errors import ParseError, UltratreeError
from .metrics import label_tree_metric
from .rational import format_rational
from .representing import ballean, ballean_tree, representing_tree
from .selftest import run_selftest
from .transforms import cyclic_weight_counterexample, reduce_nabla, bottleneck_spanning_tree

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_PARSE = 2


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _emit(text: str, output: str | None) -> None:
    if output and output != "-":
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _space_arg(path: str):
    return tio.load_matrix_text(_read(path))


def _graph_arg(path: str) -> tio.GraphDoc:
    return tio.load_graph_text(_read(path))


def _cmd_repr(args) -> str:
    if args.labeled_tree:
        doc = _graph_arg(args.input)
        if doc.labels is None:
            raise ParseError("labeled-tree input needs labels")
        space, _ = label_tree_metric(doc.tree(), doc.labels)
    else:
        space = _space_arg(args.input)
    return tio.dump_json(tio.labeled_tree_to_json(representing_tree(space)))


def _cmd_iso(args) -> str:
    flavor = IsoFlavor(args.flavor)
    a, b = _graph_arg(args.left), _graph_arg(args.right)
    verdict = are_isomorphic(
        a.graph,
        b.graph,
        flavor,
        labels1=a.labels if flavor in _LABELED else None,
        labels2=b.labels if flavor in _LABELED else None,
        weights1=a.weights if flavor in _WEIGHTED else None,
        weights2=b.weights if flavor in _WEIGHTED else None,
        root1=a.root if flavor in _ROOTED else None,
        root2=b.root if flavor in _ROOTED else None,
    )
    return tio.dump_json({"isomorphic": verdict})


def _cmd_isometry(args) -> str:
    s1, s2 = _space_arg(args.left), _space_arg(args.right)
    if args.fast_ultrametric:
        return tio.dump_json({"isometric": ultrametric_isometric(s1, s2), "bijection": None})
    found = isometry_search(s1, s2)
    return tio.dump_json({"isometric": found is not None, "bijection": found})


def _cmd_dual(args) -> str:
    doc = _graph_arg(args.input)
    rt = doc.rooted()
    if args.direction == "w2l":
        if doc.weights is None:
            raise ParseError("w2l needs weights")
        et = EquidistantTree(rt, doc.weights)
        mt = weight_to_labeling(et)
        out = tio.graph_to_json(rt.tree.underlying, root=rt.root, weights=et.weights, labels=mt.labels)
    else:
        if doc.labels is None:
            raise ParseError("l2w needs labels")
        mt = MonotoneTree(rt, doc.labels)
        et = labeling_to_weight(mt)
        out = tio.graph_to_json(rt.tree.underlying, root=rt.root, weights=et.weights, labels=mt.labels)
    return tio.dump_json(out)


def _cmd_reduce(args) -> str:
    doc = _graph_arg(args.input)
    if doc.weights is None:
        raise ParseError("reduce needs weights")
    result = reduce_nabla(EquidistantTree(doc.rooted(), doc.weights))
    tree_doc = tio.graph_to_json(
        result.reduced.rt.tree.underlying,
        root=result.reduced.rt.root,
        weights=result.reduced.weights,
    )
    return tio.dump_json(
        {"tree": tree_doc, "removed": sorted(result.removed), "new_root": result.new_root}
    )


def _cmd_spanning(args) -> str:
    doc = _graph_arg(args.input)
    if doc.labels is None:
        raise ParseError("spanning needs labels")
    tree = bottleneck_spanning_tree(doc.graph, doc.labels)
    return tio.dump_json(tio.graph_to_json(tree.underlying, labels=doc.labels))


def _cmd_analyze(args) -> str:
    doc = _graph_arg(args.input)
    if doc.weights is None:
        raise ParseError("analyze needs weights")
    report = analyze(doc.tree(), doc.weights, root=doc.root)
    return tio.dump_json(
        {
            "planted": report.planted,
            "centers": list(report.centers),
            "is_star": report.is_star,
            "phylo_shape": report.phylo_shape,
            "K": None if report.K is None else format_rational(report.K),
            "branching_lhs": None if report.branching_lhs is None else format_rational(report.branching_lhs),
            "branching_rhs": None if report.branching_rhs is None else format_rational(report.branching_rhs),
        }
    )


def _cmd_ballean(args) -> str:
    space = _space_arg(args.input)
    if args.tree:
        return tio.dump_json(tio.labeled_tree_to_json(ballean_tree(space)))
    balls = ballean(space)
    return tio.dump_json(
        {"points": list(space.points), "balls": [sorted(b) for b in balls.balls]}
    )


def _cmd_counterexample(args) -> str:
    doc = _graph_arg(args.input)
    w1, w2 = cyclic_weight_counterexample(doc.graph)
    return tio.dump_json(
        {
            "graph": tio.graph_to_json(doc.graph),
            "w1": {f"{u}|{v}": format_rational(w1[(u, v)]) for u, v in doc.graph.edges},
            "w2": {f"{u}|{v}": format_rational(w2[(u, v)]) for u, v in doc.graph.edges},
        }
    )


def _cmd_selftest(args) -> str:
    seed = int(os.environ.get("ULTRATREE_SEED", "0"))
    report, ok = run_selftest(seed)
    if not ok:
        raise UltratreeError("selftest failed:\n" + report)
    return report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ultratree", description=__doc__)
    parser.add_argument("--output", "-o", default=None, help="write output to a file instead of stdout")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("repr", help="hierarchy tree of an ultrametric space")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--matrix", action="store_true", help="input is a distance matrix (default)")
    group.add_argument("--labeled-tree", action="store_true", help="input is a labeled tree; use its max-label metric")
    p.add_argument("input")
    p.set_defaults(func=_cmd_repr)

    p = sub.add_parser("iso", help="tree/graph isomorphism for a flavor")
    p.add_argument("--flavor", required=True, choices=[f.value for f in IsoFlavor])
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("isometry", help="isometry of two finite metric spaces")
    p.add_argument("--fast-ultrametric", action="store_true", help="compare hierarchy-tree codes instead of searching")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_cmd_isometry)

    p = sub.add_parser("dual", help="switch between equidistant weights and monotone labels")
    p.add_argument("--direction", required=True, choices=["w2l", "l2w"])
    p.add_argument("input")
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("reduce", help="suppress out-degree-one vertices of an equidistant tree")
    p.add_argument("input")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("spanning", help="spanning tree realizing the minimax label metric")
    p.add_argument("input")
    p.set_defaults(func=_cmd_spanning)

    p = sub.add_parser("analyze", help="structure report for a weighted tree")
    p.add_argument("input")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("ballean", help="all balls of an ultrametric space")
    p.add_argument("--tree", action="store_true", help="emit the hierarchy tree of the ball space")
    p.add_argument("input")
    p.set_defaults(func=_cmd_ballean)

    p = sub.add_parser("counterexample", help="two isometric but non-isomorphic weightings of a cyclic graph")
    p.add_argument("input")
    p.set_defaults(func=_cmd_counterexample)

    p = sub.add_parser("selftest", help="run the bundled figure corpus")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text = args.func(args)
    except ParseError as exc:
        _emit(tio.dump_json({"error": {"code": exc.code, "message": str(exc)}}), args.output)
        return EXIT_PARSE
    except UltratreeError as exc:
        _emit(tio.dump_json({"error": {"code": exc.code, "message": str(exc)}}), args.output)
        return EXIT_DOMAIN
    except ValueError as exc:
        # contract violations inside otherwise well-formed documents
        _emit(tio.dump_json({"error": {"code": "invalid-input", "message": str(exc)}}), args.output)
        return EXIT_DOMAIN
    _emit(text, args.output)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
