"""The iso verb's handler, which cli.main imports only to run it (see cli.VERBS)."""


def cmd_iso(cli, args) -> str:
    from .canonical import _payloads

    tio = cli.tio
    flavor = cli.IsoFlavor(args.flavor)
    a, b = (tio.load_graph_text(cli._read(path)) for path in (args.left, args.right))
    (l1, w1, r1), (l2, w2, r2) = (_payloads(flavor, doc.labels, doc.weights, doc.root) for doc in (a, b))
    return tio.dump_json({"isomorphic": cli.are_isomorphic(a.graph, b.graph, flavor, l1, l2, w1, w2, r1, r2)})
