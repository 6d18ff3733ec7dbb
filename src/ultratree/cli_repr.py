"""The repr verb's handler, which cli.main imports only to run it (see cli.VERBS)."""

from .errors import ParseError


def cmd_repr(cli, args) -> str:
    tio = cli.tio
    if args.labeled_tree:
        doc = tio.load_graph_text(cli._read(args.input))
        if doc.labels is None:
            raise ParseError("labeled-tree input needs labels")
        space, _ = cli.label_tree_metric(doc.tree(), doc.labels)
    else:
        space = tio.load_matrix_text(cli._read(args.input))
    return tio.dump_json(tio.labeled_tree_to_json(cli.representing_tree(space)))
