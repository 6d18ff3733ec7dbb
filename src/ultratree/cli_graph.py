"""Handlers of the verbs on trees and graphs: iso, dual, reduce, spanning,
analyze and counterexample.

cli.main imports this module only to run one of them.  Each handler takes the
CLI's names and the parsed arguments, and reads every public library name,
`tio` and `_read` from those names, never by an import of its own (see cli.VERBS).
"""

from __future__ import annotations

from .errors import ParseError


def cmd_iso(cli, args) -> str:
    from .canonical import _payloads

    tio = cli.tio
    flavor = cli.IsoFlavor(args.flavor)
    a, b = (tio.load_graph_text(cli._read(path)) for path in (args.left, args.right))
    (l1, w1, r1), (l2, w2, r2) = (_payloads(flavor, doc.labels, doc.weights, doc.root) for doc in (a, b))
    return tio.dump_json({"isomorphic": cli.are_isomorphic(a.graph, b.graph, flavor, l1, l2, w1, w2, r1, r2)})


def cmd_dual(cli, args) -> str:
    tio = cli.tio
    doc = tio.load_graph_text(cli._read(args.input))
    rt = doc.rooted()
    if args.direction == "w2l":
        if doc.weights is None:
            raise ParseError("w2l needs weights")
        et = cli.EquidistantTree(rt, doc.weights)
        mt = cli.weight_to_labeling(et)
    else:
        if doc.labels is None:
            raise ParseError("l2w needs labels")
        mt = cli.MonotoneTree(rt, doc.labels)
        et = cli.labeling_to_weight(mt)
    return tio.dump_json(tio.graph_to_json(rt.tree, root=rt.root, weights=et.weights, labels=mt.labels))


def cmd_reduce(cli, args) -> str:
    tio = cli.tio
    doc = tio.load_graph_text(cli._read(args.input))
    if doc.weights is None:
        raise ParseError("reduce needs weights")
    result = cli.reduce_nabla(cli.EquidistantTree(doc.rooted(), doc.weights))
    rt = result.reduced.rt
    tree_doc = tio.graph_to_json(rt.tree, root=rt.root, weights=result.reduced.weights)
    return tio.dump_json({"tree": tree_doc, "removed": sorted(result.removed), "new_root": result.new_root})


def cmd_spanning(cli, args) -> str:
    tio = cli.tio
    doc = tio.load_graph_text(cli._read(args.input))
    if doc.labels is None:
        raise ParseError("spanning needs labels")
    tree = cli.bottleneck_spanning_tree(doc.graph, doc.labels)
    return tio.dump_json(tio.graph_to_json(tree, labels=doc.labels))


def cmd_analyze(cli, args) -> str:
    tio = cli.tio
    doc = tio.load_graph_text(cli._read(args.input))
    if doc.weights is None:
        raise ParseError("analyze needs weights")
    report = cli.analyze(doc.tree(), doc.weights, root=doc.root)
    out = {name: getattr(report, name) for name in ("planted", "centers", "is_star", "phylo_shape")}
    for name in ("K", "branching_lhs", "branching_rhs"):
        value = getattr(report, name)
        out[name] = None if value is None else cli.format_rational(value)
    return tio.dump_json(out)


def cmd_counterexample(cli, args) -> str:
    tio = cli.tio
    doc = tio.load_graph_text(cli._read(args.input))
    w1, w2 = cli.cyclic_weight_counterexample(doc.graph)
    return tio.dump_json(
        {"graph": tio.graph_to_json(doc.graph), "w1": tio.weights_to_json(w1), "w2": tio.weights_to_json(w2)}
    )
