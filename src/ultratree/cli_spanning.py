"""The spanning verb's handler, which cli.main imports only to run it (see cli.VERBS)."""

from .errors import ParseError


def cmd_spanning(cli, args) -> str:
    tio = cli.tio
    doc = tio.load_graph_text(cli._read(args.input))
    if doc.labels is None:
        raise ParseError("spanning needs labels")
    tree = cli.bottleneck_spanning_tree(doc.graph, doc.labels)
    return tio.dump_json(tio.graph_to_json(tree, labels=doc.labels))
