"""The dual verb's handler, which cli.main imports only to run it (see cli.VERBS)."""

from .errors import ParseError


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
